//! `veo_args`: the flat argument stack of a VEO call.
//!
//! Native VEO calls are "limited to a few basic types for arguments and
//! return types" (§V-A) — exactly why HAM-Offload's rich message-based
//! semantics are worth their framework cost. The stack holds 64-bit
//! slots; callers bit-cast other types into them.

/// Arguments for one VEO kernel call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArgsStack {
    slots: Vec<u64>,
}

impl ArgsStack {
    /// Empty stack (`veo_args_alloc`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Push a `u64` (`veo_args_set_u64`).
    pub fn push_u64(mut self, v: u64) -> Self {
        self.slots.push(v);
        self
    }

    /// Number of argument slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no arguments were pushed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Read slot `i` as `u64`. Panics on out-of-range (the simulated ABI
    /// violation).
    pub fn get_u64(&self, i: usize) -> u64 {
        self.slots[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let a = ArgsStack::new().push_u64(7).push_u64(2.5f64.to_bits());
        assert_eq!(a.len(), 2);
        assert_eq!(a.get_u64(0), 7);
        assert_eq!(f64::from_bits(a.get_u64(1)), 2.5);
    }

    #[test]
    fn empty() {
        assert!(ArgsStack::new().is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        ArgsStack::new().get_u64(0);
    }
}
