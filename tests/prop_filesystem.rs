//! Property tests of the filesystem personalities: whatever a program
//! does with files, sizes and namespaces must stay consistent on every
//! modelled OS, and simulated time must only move forward.

use proptest::prelude::*;
use tnt_core::run_with_fs;
use tnt_os::{Errno, OpenFlags, Os};

fn any_os() -> impl Strategy<Value = Os> {
    prop_oneof![Just(Os::Linux), Just(Os::FreeBsd), Just(Os::Solaris)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn create_write_read_roundtrip(os in any_os(), size in 0u64..200_000) {
        let got = run_with_fs(os, 1, move |p| async move {
            let fd = p.creat("/f").await.unwrap();
            if size > 0 {
                prop_assert_eq!(p.write(fd, size).await.unwrap(), size);
            }
            p.close(fd).await.unwrap();
            let fd = p.open("/f", OpenFlags::rdonly()).await.unwrap();
            let mut total = 0;
            loop {
                let n = p.read(fd, 4096).await.unwrap();
                if n == 0 { break; }
                total += n;
            }
            p.close(fd).await.unwrap();
            prop_assert_eq!(p.stat("/f").await.unwrap().size, size);
            Ok(total)
        }).unwrap();
        prop_assert_eq!(got, size);
    }

    #[test]
    fn chunked_writes_accumulate(os in any_os(), chunks in prop::collection::vec(1u64..20_000, 1..12)) {
        let expected: u64 = chunks.iter().sum();
        let got = run_with_fs(os, 1, move |p| async move {
            let fd = p.creat("/acc").await.unwrap();
            for c in &chunks {
                p.write(fd, *c).await.unwrap();
            }
            p.close(fd).await.unwrap();
            p.stat("/acc").await.unwrap().size
        });
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn reads_at_arbitrary_offsets_stay_in_bounds(
        os in any_os(),
        size in 1u64..100_000,
        offsets in prop::collection::vec(0u64..200_000, 1..8),
    ) {
        run_with_fs(os, 1, move |p| async move {
            let fd = p.creat("/ra").await.unwrap();
            p.write(fd, size).await.unwrap();
            p.close(fd).await.unwrap();
            let fd = p.open("/ra", OpenFlags::rdonly()).await.unwrap();
            for off in &offsets {
                p.lseek(fd, *off).unwrap();
                let n = p.read(fd, 8192).await.unwrap();
                let expect = size.saturating_sub(*off).min(8192);
                prop_assert_eq!(n, expect, "read at {} of {}-byte file", off, size);
            }
            p.close(fd).await.unwrap();
            Ok(())
        }).unwrap();
    }

    #[test]
    fn namespace_tree_roundtrip(os in any_os(), names in prop::collection::btree_set("[a-z]{1,8}", 1..10)) {
        let names: Vec<String> = names.into_iter().collect();
        let expect = names.clone();
        let listed = run_with_fs(os, 1, move |p| async move {
            p.mkdir("/d").await.unwrap();
            for n in &names {
                let fd = p.creat(&format!("/d/{n}")).await.unwrap();
                p.close(fd).await.unwrap();
            }
            p.readdir("/d").await.unwrap()
        });
        prop_assert_eq!(listed, expect, "sorted listing equals the created set");
    }

    #[test]
    fn delete_then_stat_is_enoent(os in any_os(), size in 0u64..50_000) {
        run_with_fs(os, 1, move |p| async move {
            let fd = p.creat("/gone").await.unwrap();
            if size > 0 { p.write(fd, size).await.unwrap(); }
            p.close(fd).await.unwrap();
            p.unlink("/gone").await.unwrap();
            prop_assert_eq!(p.stat("/gone").await.err(), Some(Errno::ENOENT));
            // Recreating starts from scratch.
            let fd = p.creat("/gone").await.unwrap();
            p.close(fd).await.unwrap();
            prop_assert_eq!(p.stat("/gone").await.unwrap().size, 0);
            Ok(())
        }).unwrap();
    }

    #[test]
    fn crtdel_time_is_monotone_in_size(os in any_os(), small in 512u64..4096, factor in 4u64..32) {
        let big = small * factor;
        let t_small = tnt_core::crtdel_ms(os, small, 2, 1);
        let t_big = tnt_core::crtdel_ms(os, big, 2, 1);
        prop_assert!(t_big >= t_small * 0.9,
            "{os:?}: {big}B took {t_big:.2}ms, {small}B took {t_small:.2}ms");
    }
}
