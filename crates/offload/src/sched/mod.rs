//! Load-aware multi-target scheduling with credit-based backpressure.
//!
//! The paper's FETI case study (Sec. V) hand-rolls target selection on
//! top of `wait_any`; serving many VEs for real needs placement to be a
//! runtime concern. A [`TargetPool`] wraps a roster of targets and
//! places each [`TargetPool::submit`] by policy on a healthy one: a
//! member whose channel exists and is not evicted, read from the
//! channel at every scan (the pool keeps no copy of target health):
//!
//! * [`SchedPolicy::LeastLoaded`] (default) — the target with the
//!   fewest in-flight messages wins; ties break to the lowest node id,
//!   so placement is a pure function of observable channel state and
//!   deterministic under the fault harness's fixed seeds.
//! * [`SchedPolicy::RoundRobin`] — strict rotation over the healthy
//!   targets in node order, resuming after the last pick and skipping
//!   targets that are out of credits.
//!
//! Both are one scan over the roster for the smallest integer key
//! (`(streak, in_flight)`, or `(streak > 0, node-id distance after the
//! last pick)`).
//! [`TargetPool::rebalance`] alone weighs targets by latency: it moves
//! staged members only onto an idle peer whose
//! `(in_flight + 1 + bytes_in_flight/4096 + staged) · EWMA(latency)` is
//! lower, reading the per-target completion-latency register
//! [`aurora_telemetry::BackendMetrics`] keeps (the same histogram-backed
//! register the exposition surface reports).
//!
//! **Credits.** Every channel exposes a credit limit derived from its
//! slot rings ([`crate::chan::ChannelCore::credit_limit`]): the number
//! of messages the transport can usefully hold in flight. `submit`
//! blocks (flushing staged batches, then backing off via
//! `chan::Backoff`) while every healthy target is at its
//! limit — admission control rather than unbounded queueing.
//!
//! **Failover.** A target evicted by the recovery policy (or killed by
//! fault injection) takes no further placements. Offloads whose frames
//! never reached it — staged batch members, envelopes or posts whose
//! send failed — are resubmitted to a survivor transparently, but only
//! when the failure evicted the target: any other error (a message too
//! large for the slots, shutdown) returns to the caller, and the target
//! stays in the pool. Offloads the lost target may already have
//! executed surface their original [`crate::OffloadError`] unchanged:
//! the scheduler must not silently re-execute work with visible side
//! effects.

//!
//! **Observability.** [`TargetPool::metrics_snapshot`] scopes the
//! backend's metric registers to the pool's targets; per-target health
//! state and the event log are the backend's health registry, and
//! channel occupancy is the channel's own `in_flight()` /
//! `credit_limit()`.
//!
//! **Dynamic membership & probing.** Pools are not frozen at
//! construction: [`TargetPool::add_target`] admits a target into a
//! running pool (it receives placements on the next `select`) and
//! [`TargetPool::remove_target`] retires one — staged members are
//! reclaimed for failover, wire traffic drains in place. A background
//! prober ([`TargetPool::start_prober`], one round per 200 µs of
//! virtual time) issues periodic `probe()` round trips per member,
//! feeds a per-target miss streak into both policies' `select` (flapping
//! targets are deprioritized before they hard-fail) and records
//! `Probe`/`ProbeMiss` health events, driving the `Degraded → healed`
//! registry edge without any caller touching the channel.

mod policy;
mod pool;

pub use policy::SchedPolicy;
pub use pool::{PoolFuture, PoolMetricsSnapshot, TargetPool};
