//! The Modified Andrew Benchmark (Table 3, and over NFS Tables 6-7).
//!
//! Five timed phases over a synthetic software tree, preceded by an
//! untimed setup that installs the pristine sources (the paper's tree
//! ships with the benchmark):
//!
//! 1. **MakeDir** — create the working directory tree;
//! 2. **Copy** — copy every source file into it;
//! 3. **ScanDir** — recursive directory listing with a stat of every
//!    entry (where FreeBSD's attribute cache shines);
//! 4. **ReadAll** — read every file;
//! 5. **Compile** — fork+exec a compiler per unit: read the source and
//!    the shared headers, burn CPU proportional to the bytes processed
//!    (the same "gcc" everywhere, as the paper arranged), write and
//!    reread an assembler temporary under `/tmp`, emit the object file;
//!    finally link.
//!
//! Compiler CPU is identical across systems; the cross-OS differences
//! come from fork/exec, filesystem metadata policy and caching — exactly
//! the knobs the paper credits.

use crate::machine::timed;
use tnt_os::{OpenFlags, Os, UProc};
use tnt_sim::Cycles;

/// CPU cycles the model compiler burns per byte of source + headers.
/// Calibrated so the phase-5 total matches Table 3's scale.
pub const COMPILE_CY_PER_BYTE: u64 = 1_950;

/// Bytes of object code emitted per source byte.
pub const OBJ_FRACTION: f64 = 0.6;

/// Bytes of assembler temporary emitted per source byte.
pub const ASM_FRACTION: f64 = 2.0;

/// A file in the benchmark tree.
#[derive(Clone, Debug)]
pub struct MabFile {
    /// Path relative to the tree root, e.g. `"cccp/lex.c"`.
    pub rel: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Whether phase 5 compiles it.
    pub compile: bool,
}

/// The synthetic source tree.
#[derive(Clone, Debug)]
pub struct MabSpec {
    /// Directories (relative), parents before children.
    pub dirs: Vec<String>,
    /// Files, including headers.
    pub files: Vec<MabFile>,
    /// Indices into `files` of the shared headers every compile reads.
    pub headers: Vec<usize>,
}

impl MabSpec {
    /// The standard tree: 5 subdirectories, 70 files totalling ~350 KB,
    /// 25 compile units, 8 shared headers — the shape of the Andrew
    /// benchmark sources.
    pub fn standard() -> MabSpec {
        let dirs = ["cccp", "cp", "config", "objc", "doc"]
            .iter()
            .map(|d| d.to_string())
            .collect();
        let mut files = Vec::new();
        let mut headers = Vec::new();
        // Deterministic sizes from a small LCG, 1-18 KB.
        let mut x: u64 = 12345;
        let mut next = |lo: u64, hi: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (x >> 33) % (hi - lo)
        };
        for (d, dir) in ["cccp", "cp", "config", "objc", "doc"].iter().enumerate() {
            for i in 0..14 {
                let compile = d < 2 && i < 13; // 26 candidates; trim to 25 below.
                let ext = if compile {
                    "c"
                } else if i % 3 == 0 {
                    "h"
                } else {
                    "txt"
                };
                let bytes = next(1024, 18 * 1024);
                files.push(MabFile {
                    rel: format!("{dir}/file{i:02}.{ext}"),
                    bytes,
                    compile,
                });
            }
        }
        // Exactly 25 compile units.
        let mut seen = 0;
        for f in &mut files {
            if f.compile {
                seen += 1;
                if seen > 25 {
                    f.compile = false;
                }
            }
        }
        // Eight shared headers from config/ and objc/.
        for (i, f) in files.iter().enumerate() {
            if (f.rel.starts_with("config/") || f.rel.starts_with("objc/"))
                && f.rel.ends_with('h')
                && headers.len() < 8
            {
                headers.push(i);
            }
        }
        MabSpec {
            dirs,
            files,
            headers,
        }
    }

    /// Total bytes of all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes).sum()
    }

    /// Number of compile units.
    pub fn compile_units(&self) -> usize {
        self.files.iter().filter(|f| f.compile).count()
    }
}

/// Per-phase and total times of one MAB run, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct MabReport {
    /// MakeDir, Copy, ScanDir, ReadAll, Compile.
    pub phase_s: [f64; 5],
    /// Sum of the five phases.
    pub total_s: f64,
}

/// The chunk size of copy/read loops.
const IO_CHUNK: u64 = 8192;

async fn read_all(p: &UProc, path: &str) -> u64 {
    let fd = p.open(path, OpenFlags::rdonly()).await.unwrap();
    let mut total = 0;
    loop {
        let n = p.read(fd, IO_CHUNK).await.unwrap();
        if n == 0 {
            break;
        }
        total += n;
    }
    p.close(fd).await.unwrap();
    total
}

async fn write_file(p: &UProc, path: &str, bytes: u64) {
    let fd = p.creat(path).await.unwrap();
    let mut left = bytes;
    while left > 0 {
        let n = IO_CHUNK.min(left);
        p.write(fd, n).await.unwrap();
        left -= n;
    }
    p.close(fd).await.unwrap();
}

/// Installs the pristine source tree under `/src` (untimed setup).
pub async fn mab_setup(p: &UProc, spec: &MabSpec) {
    p.mkdir("/src").await.unwrap();
    for d in &spec.dirs {
        p.mkdir(&format!("/src/{d}")).await.unwrap();
    }
    for f in &spec.files {
        write_file(p, &format!("/src/{}", f.rel), f.bytes).await;
    }
}

/// Runs the five timed phases against `/src` -> `/work`, with compiler
/// temporaries under `/tmp`. Requires [`mab_setup`] first.
pub async fn run_mab(p: &UProc, spec: &MabSpec) -> MabReport {
    let mut report = MabReport::default();

    // Phase 1: MakeDir.
    let (_, t1) = timed(p, async {
        p.mkdir("/work").await.unwrap();
        for d in &spec.dirs {
            p.mkdir(&format!("/work/{d}")).await.unwrap();
        }
    })
    .await;

    // Phase 2: Copy.
    let (_, t2) = timed(p, async {
        for f in &spec.files {
            let got = read_all(p, &format!("/src/{}", f.rel)).await;
            assert_eq!(got, f.bytes);
            write_file(p, &format!("/work/{}", f.rel), f.bytes).await;
        }
    })
    .await;

    // Phase 3: ScanDir (ls -lR of the working tree).
    let (_, t3) = timed(p, async {
        let top = p.readdir("/work").await.unwrap();
        for d in top {
            let names = p.readdir(&format!("/work/{d}")).await.unwrap();
            for n in names {
                let attr = p.stat(&format!("/work/{d}/{n}")).await.unwrap();
                assert!(!attr.is_dir);
            }
        }
    })
    .await;

    // Phase 4: ReadAll (grep -r over the tree).
    let (_, t4) = timed(p, async {
        for f in &spec.files {
            read_all(p, &format!("/work/{}", f.rel)).await;
        }
    })
    .await;

    // Phase 5: Compile and link.
    let (_, t5) = timed(p, async {
        let header_bytes: u64 = spec.headers.iter().map(|&i| spec.files[i].bytes).sum();
        let mut objs: Vec<(String, u64)> = Vec::new();
        for (i, f) in spec.files.iter().enumerate() {
            if !f.compile {
                continue;
            }
            let src_path = format!("/work/{}", f.rel);
            let obj_path = format!("/work/{}.o", f.rel.trim_end_matches(".c"));
            let tmp_path = format!("/tmp/cc{i:03}.s");
            let headers: Vec<String> = spec
                .headers
                .iter()
                .map(|&h| format!("/work/{}", spec.files[h].rel))
                .collect();
            let bytes = f.bytes;
            let obj_bytes = (bytes as f64 * OBJ_FRACTION) as u64;
            let asm_bytes = (bytes as f64 * ASM_FRACTION) as u64;
            let op = obj_path.clone();
            let child = p.fork("cc1", move |c| async move {
                c.exec(); // cc1
                read_all(&c, &src_path).await;
                for h in &headers {
                    read_all(&c, h).await;
                }
                c.compute(Cycles((bytes + header_bytes) * COMPILE_CY_PER_BYTE));
                write_file(&c, &tmp_path, asm_bytes).await;
                // The assembler pass.
                c.exec(); // as
                read_all(&c, &tmp_path).await;
                c.compute(Cycles(asm_bytes * COMPILE_CY_PER_BYTE / 10));
                write_file(&c, &op, obj_bytes).await;
                c.unlink(&tmp_path).await.unwrap();
            });
            p.waitpid(child).await;
            objs.push((obj_path, obj_bytes));
        }
        // Link: ld reads every object and writes the binary.
        let total_obj: u64 = objs.iter().map(|(_, b)| b).sum();
        let link = p.fork("ld", move |c| async move {
            c.exec();
            for (o, _) in &objs {
                read_all(&c, o).await;
            }
            c.compute(Cycles(total_obj * COMPILE_CY_PER_BYTE / 8));
            // ld writes to a temporary and renames it into place, so a
            // crashed link never leaves a truncated a.out.
            write_file(&c, "/work/a.out.tmp", total_obj).await;
            c.rename("/work/a.out.tmp", "/work/a.out").await.unwrap();
        });
        p.waitpid(link).await;
    })
    .await;

    report.phase_s = [
        t1.as_secs(),
        t2.as_secs(),
        t3.as_secs(),
        t4.as_secs(),
        t5.as_secs(),
    ];
    report.total_s = report.phase_s.iter().sum();
    report
}

/// Table 3: MAB on the local filesystem, with `/tmp` on the system disk.
pub fn mab_local(os: Os, seed: u64) -> MabReport {
    use tnt_fs::{Disk, DiskParams, FsParams, SimFs};
    let (sim, kernel) = tnt_os::boot(os, seed);
    kernel.mount(SimFs::fresh_for_os(os));
    let tmp_disk = std::sync::Arc::new(Disk::new(DiskParams::quantum2100()));
    kernel.mount_at("/tmp", SimFs::new(tmp_disk, FsParams::for_os(os)));
    let slot = crate::machine::ResultSlot::new();
    let s2 = slot.clone();
    kernel.spawn_user("mab", move |p| async move {
        let spec = MabSpec::standard();
        mab_setup(&p, &spec).await;
        s2.put(run_mab(&p, &spec).await);
    });
    // The report carries its own phase times; the final clock is not needed.
    let _ = sim.run().expect("MAB simulation failed");
    slot.take().expect("MAB produced a report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_shape() {
        let spec = MabSpec::standard();
        assert_eq!(spec.dirs.len(), 5);
        assert_eq!(spec.files.len(), 70);
        assert_eq!(spec.compile_units(), 25);
        assert_eq!(spec.headers.len(), 8);
        let total = spec.total_bytes();
        assert!(
            total > 250 * 1024 && total < 800 * 1024,
            "tree ~350-650KB, got {total}"
        );
    }

    #[test]
    fn spec_is_deterministic() {
        let a = MabSpec::standard();
        let b = MabSpec::standard();
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.files[0].bytes, b.files[0].bytes);
    }

    #[test]
    fn table3_ordering_and_scale() {
        let linux = mab_local(Os::Linux, 0);
        let freebsd = mab_local(Os::FreeBsd, 0);
        let solaris = mab_local(Os::Solaris, 0);
        assert!(
            linux.total_s < freebsd.total_s && freebsd.total_s < solaris.total_s,
            "Table 3 order: {:.1} < {:.1} < {:.1}",
            linux.total_s,
            freebsd.total_s,
            solaris.total_s
        );
        assert!(
            (linux.total_s - 43.12).abs() < 7.0,
            "Linux ~43s, got {:.1}",
            linux.total_s
        );
        assert!(
            (freebsd.total_s - 47.45).abs() < 7.0,
            "FreeBSD ~47s, got {:.1}",
            freebsd.total_s
        );
        assert!(
            (solaris.total_s - 54.31).abs() < 8.0,
            "Solaris ~54s, got {:.1}",
            solaris.total_s
        );
    }

    #[test]
    fn freebsd_wins_the_stat_phase() {
        let linux = mab_local(Os::Linux, 0);
        let freebsd = mab_local(Os::FreeBsd, 0);
        assert!(
            freebsd.phase_s[2] < linux.phase_s[2],
            "attribute cache: FreeBSD {:.3}s < Linux {:.3}s",
            freebsd.phase_s[2],
            linux.phase_s[2]
        );
    }

    #[test]
    fn compile_dominates() {
        let r = mab_local(Os::Linux, 0);
        assert!(
            r.phase_s[4] > 0.6 * r.total_s,
            "phase 5 dominates: {:?}",
            r.phase_s
        );
    }
}
