//! Placement policies for [`super::TargetPool`].

/// How a pool picks the target for the next submission. Both policies
/// consume only observable channel state (in-flight counts, credit
/// limits, the last pick) and break ties to the lowest node id,
/// so placement is deterministic for a deterministic workload.
///
/// When the pool's background prober is running
/// ([`super::TargetPool::start_prober`]), both policies additionally
/// order candidates by their probe-miss streak first: a target whose
/// probes go unanswered sheds placements to clean peers *before* it
/// hard-fails, and earns them back as probes answer again. With no
/// prober all streaks are zero and the ordering reduces to the plain
/// policy key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Fewest in-flight messages wins (the default).
    #[default]
    LeastLoaded,
    /// Strict rotation over the healthy targets in node order, resuming
    /// after the last pick and skipping any that are out of credits.
    RoundRobin,
}
