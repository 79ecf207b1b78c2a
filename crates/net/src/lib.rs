#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Network stack models for Sections 9 and 10 of the paper.
//!
//! Three protocol paths, each with per-OS cost personalities:
//!
//! - **pipes** live in `tnt-os` (they are IPC, not networking, but the
//!   paper treats their bandwidth as the protocol-free upper bound);
//! - **UDP** ([`UdpSocket`]): Figure 13's packet-size sweep — Linux's
//!   extra copies and allocator overhead cap it near 16 Mb/s while
//!   FreeBSD reaches ~48 Mb/s;
//! - **TCP** ([`TcpStream`]): Table 5 — Linux 1.2.8's one-packet window
//!   stalls every segment, FreeBSD and Solaris stream at 60-66 Mb/s.
//!
//! Cross-host traffic (the NFS experiments) crosses a shared 10 Mb/s
//! Ethernet that serialises frames; loopback traffic is free of wire
//! effects, exactly as in the paper's methodology.
//!
//! # Examples
//!
//! ```
//! use tnt_net::{Net, UdpSocket, Addr};
//! use tnt_os::{boot, Os};
//!
//! let (sim, kernel) = boot(Os::FreeBsd, 0);
//! let net = Net::ethernet_10mbit();
//! let host = net.register_host(&kernel);
//! let (n2, k2) = (net.clone(), kernel.clone());
//! kernel.spawn_user("udp", move |_| async move {
//!     let tx = UdpSocket::bind(&n2, &k2, host, 1000).unwrap();
//!     let rx = UdpSocket::bind(&n2, &k2, host, 2000).unwrap();
//!     tx.send_to(Addr { host, port: 2000 }, b"hello".to_vec()).await.unwrap();
//!     let pkt = rx.recv().await.unwrap().unwrap();
//!     assert_eq!(pkt.data, b"hello");
//! });
//! sim.run().unwrap();
//! ```

mod costs;
mod net;
mod switch;
mod tcp;
mod udp;

pub use costs::{NetCosts, TcpCosts, UdpCosts};
pub use net::{Addr, Net, Proto, ETHER_FRAMING};
pub use switch::{Delivery, Switch, SWITCH_MTU};
pub use tcp::{connect, connect_custom, TcpListener, TcpStream};
pub use udp::{Packet, Recv, UdpSocket};
