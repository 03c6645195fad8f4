//! The A300-8 system topology (paper Fig. 3).
//!
//! Two Xeon Gold 6126 sockets connected by UPI; each socket owns one PCIe
//! switch with four Vector Engines behind it. A process pinned to socket
//! `s` reaching VE `v` crosses UPI iff the VE hangs off the other
//! socket's switch — which is what adds "up to 1 µs" to the Fig. 9 DMA
//! measurement when offloading from the second CPU (§V-A).

use crate::link::PcieLink;
use aurora_sim_core::{calib, SimTime};
use std::sync::Arc;

/// Static topology of a simulated Aurora machine.
#[derive(Debug)]
pub struct Topology {
    sockets: u8,
    links: Vec<Arc<PcieLink>>,
    /// `ve_socket[v]` = socket whose switch hosts VE `v`.
    ve_socket: Vec<u8>,
}

impl Topology {
    /// The A300-8 of Table III: 2 sockets, 8 VEs, VEs 0–3 on socket 0's
    /// switch, VEs 4–7 on socket 1's.
    pub fn a300_8() -> Self {
        Self::custom(2, &[0, 0, 0, 0, 1, 1, 1, 1])
    }

    /// A one-socket machine with `ves` Vector Engines (useful for tests).
    pub fn single_socket(ves: u8) -> Self {
        Self::custom(1, &vec![0u8; ves as usize])
    }

    /// Arbitrary topology: `ve_socket[v]` gives the hosting socket.
    pub(crate) fn custom(sockets: u8, ve_socket: &[u8]) -> Self {
        assert!(sockets > 0);
        assert!(
            ve_socket.iter().all(|&s| s < sockets),
            "VE attached to nonexistent socket"
        );
        Self {
            sockets,
            links: ve_socket
                .iter()
                .map(|_| Arc::new(PcieLink::default()))
                .collect(),
            ve_socket: ve_socket.to_vec(),
        }
    }

    /// Number of CPU sockets.
    pub fn sockets(&self) -> u8 {
        self.sockets
    }

    /// Number of Vector Engines.
    pub fn ves(&self) -> u8 {
        self.links.len() as u8
    }

    /// The PCIe link of VE `ve`.
    pub fn link(&self, ve: u8) -> &Arc<PcieLink> {
        &self.links[ve as usize]
    }

    /// Socket hosting VE `ve`.
    pub fn ve_socket(&self, ve: u8) -> u8 {
        self.ve_socket[ve as usize]
    }

    /// Number of UPI hops between a process on `socket` and VE `ve`
    /// (0 or 1 on the A300-8).
    pub(crate) fn upi_hops(&self, socket: u8, ve: u8) -> u32 {
        u32::from(self.ve_socket(ve) != socket)
    }

    /// Extra one-way latency for the socket/VE pairing.
    pub fn extra_one_way(&self, socket: u8, ve: u8) -> SimTime {
        calib::UPI_HOP * u64::from(self.upi_hops(socket, ve))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a300_8_shape() {
        let t = Topology::a300_8();
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.ves(), 8);
        assert_eq!(t.ve_socket(0), 0);
        assert_eq!(t.ve_socket(3), 0);
        assert_eq!(t.ve_socket(4), 1);
        assert_eq!(t.ve_socket(7), 1);
    }

    #[test]
    fn upi_hop_only_across_sockets() {
        let t = Topology::a300_8();
        assert_eq!(t.upi_hops(0, 0), 0);
        assert_eq!(t.upi_hops(1, 0), 1);
        assert_eq!(t.upi_hops(0, 7), 1);
        assert_eq!(t.upi_hops(1, 7), 0);
        assert_eq!(t.extra_one_way(0, 0), SimTime::ZERO);
        assert_eq!(t.extra_one_way(1, 0), calib::UPI_HOP);
    }

    #[test]
    fn links_are_per_ve() {
        let t = Topology::a300_8();
        let a = Arc::as_ptr(t.link(0));
        let b = Arc::as_ptr(t.link(1));
        assert_ne!(a, b);
    }

    #[test]
    fn single_socket_never_crosses_upi() {
        let t = Topology::single_socket(4);
        for ve in 0..4 {
            assert_eq!(t.upi_hops(0, ve), 0);
        }
    }

    #[test]
    #[should_panic(expected = "nonexistent socket")]
    fn invalid_topology_rejected() {
        Topology::custom(1, &[0, 1]);
    }
}
