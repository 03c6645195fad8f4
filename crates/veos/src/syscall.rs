//! Reverse syscall offloading (§I-B).
//!
//! VE programs have no kernel underneath; every system call is shipped to
//! the host and "executed in the user's context and under Linux" by the
//! VE process's pseudo-process. This module models that path: a small
//! syscall surface with a per-call round-trip cost. It is also the
//! substrate for the VHcall extension (synchronous VE→VH calls with
//! syscall semantics) exercised by the `reverse_offload` example.
//!
//! The cost uses the same three-component software path as a VEO
//! operation; the paper's motivation for *not* using the TCP/IP backend
//! on this platform is exactly that every socket operation would pay it.

use aurora_sim_core::{calib, Clock, SimTime};
use std::sync::Mutex;

/// Cost of one reverse-offloaded syscall round trip: the same software
/// hop a small VEO write pays (pseudo-process + VEOS + kernel modules).
pub const SYSCALL_ROUND_TRIP: SimTime = calib::VEO_WRITE_BASE;

/// A syscall issued by VE code.
#[derive(Clone, Debug, PartialEq)]
pub enum Syscall {
    /// `write(2)` to a file descriptor.
    Write {
        /// Target descriptor (1 = stdout, 2 = stderr).
        fd: i32,
        /// The data.
        data: Vec<u8>,
    },
    /// `clock_gettime(2)` — returns the *host's* virtual clock in ps.
    ClockGettime,
    /// `getpid(2)` of the pseudo-process.
    GetPid,
}

/// Result of a reverse-offloaded syscall.
#[derive(Clone, Debug, PartialEq)]
pub enum SyscallResult {
    /// Bytes written.
    Written(usize),
    /// Time in picoseconds.
    Time(u64),
    /// A pid.
    Pid(u32),
}

/// The host-side pseudo-process serving one VE process's syscalls.
#[derive(Debug)]
pub struct PseudoProcess {
    pid: u32,
    host_clock: Clock,
    /// Captured `write` output (instead of actually writing to the
    /// terminal), so tests and examples can inspect it.
    output: Mutex<Vec<(i32, Vec<u8>)>>,
}

impl PseudoProcess {
    /// Pseudo-process with the given host pid and host clock.
    pub fn new(pid: u32, host_clock: Clock) -> Self {
        Self {
            pid,
            host_clock,
            output: Mutex::new(Vec::new()),
        }
    }

    /// Serve one syscall from the VE process whose clock is `ve_clock`.
    ///
    /// Synchronous with syscall semantics: the VE side blocks for the
    /// full round trip; the host clock joins the request time.
    pub fn serve(&self, ve_clock: &Clock, call: Syscall) -> SyscallResult {
        // Request travels to the host...
        let arrive = ve_clock.now() + SYSCALL_ROUND_TRIP / 2;
        self.host_clock.join(arrive);
        let result = match call {
            Syscall::Write { fd, data } => {
                let n = data.len();
                self.output.lock().unwrap().push((fd, data));
                SyscallResult::Written(n)
            }
            Syscall::ClockGettime => SyscallResult::Time(self.host_clock.now().as_ps()),
            Syscall::GetPid => SyscallResult::Pid(self.pid),
        };
        // ...and the response back.
        ve_clock.advance(SYSCALL_ROUND_TRIP);
        result
    }

    /// Captured `write` output: `(fd, bytes)` in call order.
    pub fn captured_output(&self) -> Vec<(i32, Vec<u8>)> {
        self.output.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_is_captured_and_costed() {
        let pp = PseudoProcess::new(4242, Clock::new());
        let ve_clock = Clock::new();
        let r = pp.serve(
            &ve_clock,
            Syscall::Write {
                fd: 1,
                data: b"hello from the VE".to_vec(),
            },
        );
        assert_eq!(r, SyscallResult::Written(17));
        assert_eq!(ve_clock.now(), SYSCALL_ROUND_TRIP);
        assert_eq!(
            pp.captured_output(),
            vec![(1, b"hello from the VE".to_vec())]
        );
    }

    #[test]
    fn getpid_returns_pseudo_process_pid() {
        let pp = PseudoProcess::new(7, Clock::new());
        let c = Clock::new();
        assert_eq!(pp.serve(&c, Syscall::GetPid), SyscallResult::Pid(7));
    }

    #[test]
    fn clock_gettime_reflects_request_arrival() {
        let host = Clock::new();
        let pp = PseudoProcess::new(1, host.clone());
        let ve = Clock::starting_at(SimTime::from_us(100));
        let r = pp.serve(&ve, Syscall::ClockGettime);
        match r {
            SyscallResult::Time(ps) => {
                let t = SimTime::from_ps(ps);
                assert!(t >= SimTime::from_us(100), "host joined request time");
            }
            other => panic!("unexpected result {other:?}"),
        }
        assert_eq!(ve.now(), SimTime::from_us(100) + SYSCALL_ROUND_TRIP);
    }

    #[test]
    fn syscalls_are_expensive() {
        // The reason TCP/IP over reverse-offloaded sockets is a bad
        // backend for this platform (§III-A).
        assert!(SYSCALL_ROUND_TRIP >= SimTime::from_us(50));
    }
}
