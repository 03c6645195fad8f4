//! # ham-backend-tcp
//!
//! The TCP/IP communication backend (paper §I-A): HAM-Offload's "most
//! generic backend", focusing on "interoperability rather than
//! performance" — it enables offloading between any two machines that
//! can open a socket (the paper cites x86→ARM offloading and offloading
//! over the internet).
//!
//! Unlike the simulated Aurora backends, this one runs over **real TCP
//! sockets** (loopback by default): every frame genuinely traverses the
//! OS network stack. Virtual time is *not* modelled here — this backend
//! is measured in wall-clock terms, and the reason it is a poor fit for
//! the SX-Aurora (every VE-side socket operation would reverse-offload a
//! syscall at ~85 µs, §III-A) is quantified analytically by
//! `aurora-bench`'s `tcp_on_aurora_estimate`.
//!
//! ## Wire protocol
//!
//! Length-prefixed frames on two sockets per target:
//!
//! * **message socket** (host→target posts, target→host results):
//!   `u32 len ‖ 32-byte MsgHeader ‖ payload`;
//! * **control socket** (synchronous RPC): `u32 len ‖ op u8 ‖ body` with
//!   ops alloc/free/put/get/ping, each answered by one response frame.
//!
//! One `writev` per post; one write per window of results. The host
//! writes each post with [`frame::write_frame`]. The device runtime
//! publishes a whole intake window before it reads again, and the
//! target queues that window's result frames and writes them at once.
//! On both sides a [`frame::FrameReader`] returns every frame a `read`
//! delivered before reading again. Nothing relays frames between
//! threads. Per target there are three:
//!
//! * `tcp-target-N` — the target itself: the accept loop and, inside a
//!   session, the device runtime, which blocks in `read` on the message
//!   socket and writes each window's results back on it in one write;
//! * `tcp-target-N-ctrl` — serves the control socket;
//! * `tcp-link-N` — the host's link supervisor: reads results off the
//!   message socket into pooled frames and deposits them, and owns
//!   reconnect/resume/evict. Posts are written by whichever host thread
//!   makes them.
//!
//! Each connection starts with a 1-byte hello tag: `'M'` (message),
//! `'C'` (control), or `'Q'` (quit, unparks a target waiting in
//! `accept`). Anything else — or a connection that closes before its
//! tag — is dropped and the target keeps accepting.
//!
//! ## Lifecycle
//!
//! One lifecycle serves both the point-to-point and the cluster case;
//! the **reconnect budget** tells them apart. On every freshly-accepted
//! message connection the target writes an [`frame::Announce`] frame
//! first: its capabilities (worker lanes, credit limit, memory) and the
//! device-side dedup **watermark** (max executed seq, monotonic across
//! sessions). With a budget ([`TcpBackend::spawn_cluster`] given a
//! `RecoveryPolicy`), a disconnect *degrades* the host-side channel —
//! posts park, in-flight work stays pending — while a per-target link
//! supervisor reconnects with bounded backoff. On reconnect, the
//! re-announced watermark splits the in-flight set: frames **above** it
//! provably never executed and are replayed (exactly-once preserved);
//! frames **at or below** it may have executed with the result lost, so
//! they fail with `TargetLost` rather than risk double execution. An
//! exhausted budget turns the degradation into an eviction — and with
//! budget 0 ([`TcpBackend::spawn`]) that happens at the first EOF, with
//! no replay buffer kept.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod frame;
mod transport;

pub use frame::Announce;
pub use transport::{TargetSpec, TcpBackend};

/// Estimated cost model of running this backend's message exchange on
/// the SX-Aurora, where the VE has no network stack and every socket
/// operation is a reverse-offloaded syscall (§III-A): per offload, the
/// VE-side needs at least `recv` + `send` (2 syscalls) and the host-side
/// write/read complete the round trip. Returns the estimated per-offload
/// cost.
pub fn tcp_on_aurora_estimate() -> aurora_sim_core::SimTime {
    use aurora_sim_core::calib;
    // VE side: recv(2) of the offload message + send(2) of the result,
    // each a reverse-offloaded syscall through the VEOS path.
    let ve_syscalls = calib::VEO_WRITE_BASE * 2;
    // Host side: socket send + result recv (local syscalls, ~2 µs) plus
    // the loopback-equivalent transfer through host memory.
    let host_side = aurora_sim_core::SimTime::from_us(4);
    // TCP/IP protocol processing on the (slow, scalar) VE core.
    let ve_stack = aurora_sim_core::SimTime::from_us(20);
    ve_syscalls + host_side + ve_stack
}

#[cfg(test)]
mod tests {
    #[test]
    fn aurora_tcp_estimate_is_worse_than_both_protocols() {
        let est = super::tcp_on_aurora_estimate();
        // Worse than the DMA protocol by an order of magnitude and no
        // better than the VEO backend's ballpark — the paper's §III-A
        // argument for building a dedicated backend.
        assert!(est.as_us_f64() > 100.0);
        assert!(est.as_us_f64() > 6.1 * 10.0);
    }
}
