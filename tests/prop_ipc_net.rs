//! Property tests of the byte-moving paths: pipes, UDP, TCP and the XDR
//! codec. Whatever the chunking, every byte arrives intact and in order.

use proptest::prelude::*;
use std::sync::Arc;

use parking_lot::Mutex;
use tnt_net::{connect, Addr, Net, TcpListener, UdpSocket};
use tnt_nfs::{NfsCall, NfsReply, RpcReply, RpcRequest, WireAttr};
use tnt_os::{boot, Errno, Os};

fn any_os() -> impl Strategy<Value = Os> {
    prop_oneof![Just(Os::Linux), Just(Os::FreeBsd), Just(Os::Solaris)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn pipe_preserves_bytes_under_any_chunking(
        os in any_os(),
        data in prop::collection::vec(any::<u8>(), 1..6000),
        read_chunk in 1u64..512,
    ) {
        let expected = data.clone();
        let (sim, kernel) = boot(os, 1);
        let received = Arc::new(Mutex::new(Vec::new()));
        let r2 = received.clone();
        kernel.spawn_user("main", move |p| async move {
            let (rd, wr) = p.pipe();
            let child = p.fork("writer", move |c| async move {
                c.write_bytes(wr, &data).await.unwrap();
                c.close(wr).await.unwrap();
            });
            p.close(wr).await.unwrap();
            loop {
                let chunk = p.read_bytes(rd, read_chunk).await.unwrap();
                if chunk.is_empty() {
                    break;
                }
                r2.lock().extend(chunk);
            }
            p.waitpid(child).await;
        });
        let _ = sim.run().unwrap();
        prop_assert_eq!(&*received.lock(), &expected);
    }

    #[test]
    fn tcp_conserves_bytes_under_any_chunking(
        os in any_os(),
        total in 1u64..200_000,
        write_chunk in 1u64..70_000,
        read_chunk in 1u64..70_000,
    ) {
        let (sim, kernel) = boot(os, 1);
        let net = Net::ethernet_10mbit();
        let host = net.register_host(&kernel);
        let received = Arc::new(Mutex::new(0u64));
        let r2 = received.clone();
        let (n2, k2) = (net.clone(), kernel.clone());
        kernel.spawn_user("main", move |p| async move {
            let listener = TcpListener::bind(&n2, &k2, host, 80).unwrap();
            let child = p.fork("server", move |_| async move {
                let conn = listener.accept().await.unwrap();
                loop {
                    let n = conn.read(read_chunk).await.unwrap();
                    if n == 0 {
                        break;
                    }
                    *r2.lock() += n;
                }
            });
            let conn = connect(&n2, &k2, host, Addr { host, port: 80 }).unwrap();
            let mut sent = 0;
            while sent < total {
                sent += conn.write(write_chunk.min(total - sent)).await.unwrap();
            }
            conn.close();
            p.waitpid(child).await;
        });
        let _ = sim.run().unwrap();
        prop_assert_eq!(*received.lock(), total);
    }

    #[test]
    fn udp_messages_arrive_in_order(
        os in any_os(),
        messages in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..600), 1..12),
    ) {
        let expected = messages.clone();
        let (sim, kernel) = boot(os, 1);
        let net = Net::ethernet_10mbit();
        let host = net.register_host(&kernel);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        let (n2, k2) = (net.clone(), kernel.clone());
        kernel.spawn_user("main", move |p| async move {
            let tx = UdpSocket::bind(&n2, &k2, host, 10).unwrap();
            let rx = UdpSocket::bind(&n2, &k2, host, 20).unwrap();
            let count = messages.len();
            let rx2 = rx.clone();
            let child = p.fork("rx", move |_| async move {
                for _ in 0..count {
                    let pkt = rx2.recv().await.unwrap().unwrap();
                    g2.lock().push(pkt.data);
                }
            });
            for m in &messages {
                tx.send_to(Addr { host, port: 20 }, m.clone()).await.unwrap();
            }
            p.waitpid(child).await;
        });
        let _ = sim.run().unwrap();
        prop_assert_eq!(&*got.lock(), &expected);
    }

    #[test]
    fn xdr_rpc_requests_roundtrip(
        xid in any::<u32>(),
        fh in any::<u64>(),
        off in any::<u64>(),
        len in any::<u64>(),
        name in "[a-zA-Z0-9_.]{0,32}",
        excl in any::<bool>(),
    ) {
        let calls = vec![
            NfsCall::Getattr { fh },
            NfsCall::Lookup { dir: fh, name: name.clone() },
            NfsCall::Read { fh, off, len },
            NfsCall::Write { fh, off, len },
            NfsCall::Create { dir: fh, name: name.clone(), exclusive: excl },
            NfsCall::Remove { dir: fh, name: name.clone() },
        ];
        for call in calls {
            let req = RpcRequest { xid, call };
            let decoded = RpcRequest::decode(&req.encode()).unwrap();
            prop_assert_eq!(decoded, req);
        }
    }

    #[test]
    fn xdr_rpc_replies_roundtrip(
        xid in any::<u32>(),
        size in any::<u64>(),
        nlink in any::<u32>(),
        is_dir in any::<bool>(),
        names in prop::collection::vec("[a-z]{0,16}", 0..20),
    ) {
        let attr = WireAttr { size, is_dir, nlink };
        let replies = vec![
            NfsReply::Attr(attr),
            NfsReply::Handle { fh: size, attr },
            NfsReply::Data { len: size },
            NfsReply::Names(names),
            NfsReply::Error(Errno::ENOSPC),
            NfsReply::Ok,
        ];
        for reply in replies {
            let r = RpcReply { xid, reply };
            let decoded = RpcReply::decode(&r.encode()).unwrap();
            prop_assert_eq!(decoded, r);
        }
    }

    #[test]
    fn xdr_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary bytes must fail cleanly, never panic.
        let _ = RpcRequest::decode(&bytes);
        let _ = RpcReply::decode(&bytes);
    }
}
