//! Slot allocation disciplines for the per-target slot arrays.

/// Allocator for one slot array.
///
/// The discipline matters: the VE target loop polls *receive* slots
/// strictly in order (it checks slot `n`, then `n+1`, ...), so the host
/// must fill them in the same rotation or the target would stall on an
/// empty slot while a later one holds a message. *Send* slots carry
/// results the host harvests by flag, in any order, so first-free packs
/// them densely. Transports without slot arrays (TCP streams) use an
/// unbounded ring that never refuses.
#[derive(Debug)]
pub(crate) struct SlotRing {
    mode: Mode,
}

#[derive(Debug)]
enum Mode {
    /// Strict rotation: slot `next % n` is the only candidate.
    RoundRobin { busy: Vec<bool>, next: u64 },
    /// Lowest free index wins.
    FirstFree { busy: Vec<bool> },
    /// No slot array; every acquire succeeds with slot 0.
    Unbounded,
}

impl SlotRing {
    /// A ring of `n` slots handed out in strict rotation (receive
    /// arrays: the target polls them in order).
    pub(crate) fn round_robin(n: usize) -> Self {
        Self {
            mode: Mode::RoundRobin {
                busy: vec![false; n],
                next: 0,
            },
        }
    }

    /// A ring of `n` slots handed out lowest-free-first (send arrays:
    /// the host harvests results by flag, in any order).
    pub(crate) fn first_free(n: usize) -> Self {
        Self {
            mode: Mode::FirstFree {
                busy: vec![false; n],
            },
        }
    }

    /// A ring for transports without slot arrays: infinite capacity,
    /// every acquire returns slot 0, release is a no-op.
    pub(super) fn unbounded() -> Self {
        Self {
            mode: Mode::Unbounded,
        }
    }

    /// Claim a slot, or `None` if the ring is full (for round-robin:
    /// if the *next-in-rotation* slot is still busy, even when others
    /// are free — that is the protocol's ordering constraint, not a
    /// bug).
    pub(crate) fn acquire(&mut self) -> Option<usize> {
        match &mut self.mode {
            Mode::RoundRobin { busy, next } => {
                let i = (*next % busy.len() as u64) as usize;
                if busy[i] {
                    return None;
                }
                busy[i] = true;
                *next += 1;
                Some(i)
            }
            Mode::FirstFree { busy } => {
                let i = busy.iter().position(|b| !*b)?;
                busy[i] = true;
                Some(i)
            }
            Mode::Unbounded => Some(0),
        }
    }

    /// Revert the acquire that most recently returned `i` (reservation
    /// rollback before anything hit the transport). Unlike
    /// [`Self::release`], round-robin rewinds its rotation so the slot
    /// is offered again next — the target never saw it claimed.
    pub(crate) fn unacquire(&mut self, i: usize) {
        match &mut self.mode {
            Mode::RoundRobin { busy, next } => {
                assert!(busy[i], "slot {i} unacquired while free");
                busy[i] = false;
                *next -= 1;
            }
            Mode::FirstFree { busy } => {
                assert!(busy[i], "slot {i} unacquired while free");
                busy[i] = false;
            }
            Mode::Unbounded => {}
        }
    }

    /// Return a slot to the ring.
    ///
    /// # Panics
    /// If `i` is out of range or the slot is already free (double
    /// release is a protocol bug worth failing loudly on).
    pub(super) fn release(&mut self, i: usize) {
        match &mut self.mode {
            Mode::RoundRobin { busy, .. } | Mode::FirstFree { busy } => {
                assert!(busy[i], "slot {i} released while free");
                busy[i] = false;
            }
            Mode::Unbounded => {}
        }
    }

    /// Number of slots in the array, or `None` for unbounded rings.
    /// The scheduler derives per-target credit limits from this.
    pub(super) fn capacity(&self) -> Option<usize> {
        match &self.mode {
            Mode::RoundRobin { busy, .. } | Mode::FirstFree { busy } => Some(busy.len()),
            Mode::Unbounded => None,
        }
    }
}

// The proptest's invariant: the held count matches its own model.
#[cfg(test)]
impl SlotRing {
    /// Number of slots currently held (0 for unbounded rings).
    fn in_use(&self) -> usize {
        match &self.mode {
            Mode::RoundRobin { busy, .. } | Mode::FirstFree { busy } => {
                busy.iter().filter(|b| **b).count()
            }
            Mode::Unbounded => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_robin_is_strict() {
        let mut r = SlotRing::round_robin(3);
        assert_eq!(r.acquire(), Some(0));
        assert_eq!(r.acquire(), Some(1));
        r.release(0);
        // Slot 0 is free but 2 is next in rotation.
        assert_eq!(r.acquire(), Some(2));
        assert_eq!(r.acquire(), Some(0));
        // Full: next in rotation (1) is still busy.
        assert_eq!(r.acquire(), None);
        r.release(1);
        assert_eq!(r.acquire(), Some(1));
    }

    #[test]
    fn first_free_packs_low() {
        let mut r = SlotRing::first_free(3);
        assert_eq!(r.acquire(), Some(0));
        assert_eq!(r.acquire(), Some(1));
        r.release(0);
        assert_eq!(r.acquire(), Some(0));
        assert_eq!(r.acquire(), Some(2));
        assert_eq!(r.acquire(), None);
    }

    #[test]
    fn unbounded_never_refuses() {
        let mut r = SlotRing::unbounded();
        for _ in 0..100 {
            assert_eq!(r.acquire(), Some(0));
        }
        r.release(0);
        assert_eq!(r.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "released while free")]
    fn double_release_panics() {
        let mut r = SlotRing::first_free(2);
        let s = r.acquire().unwrap();
        r.release(s);
        r.release(s);
    }

    proptest! {
        /// Whatever the interleaving, a bounded ring never hands out a
        /// slot that is already held, and round-robin hands slots out in
        /// rotation order.
        #[test]
        fn never_double_allocates(
            round_robin: bool,
            n in 1usize..8,
            ops in proptest::collection::vec(any::<bool>(), 0..64),
        ) {
            let mut ring = if round_robin {
                SlotRing::round_robin(n)
            } else {
                SlotRing::first_free(n)
            };
            let mut held: Vec<usize> = Vec::new();
            let mut last_rr: Option<usize> = None;
            for acquire in ops {
                if acquire {
                    if let Some(s) = ring.acquire() {
                        prop_assert!(!held.contains(&s), "slot {} double-allocated", s);
                        if round_robin {
                            if let Some(prev) = last_rr {
                                prop_assert_eq!(s, (prev + 1) % n, "rotation broken");
                            }
                            last_rr = Some(s);
                        }
                        held.push(s);
                    } else {
                        // Refusal is only legal when the candidate slot
                        // is genuinely unavailable.
                        if round_robin {
                            let cand = last_rr.map_or(0, |p| (p + 1) % n);
                            prop_assert!(held.contains(&cand));
                        } else {
                            prop_assert_eq!(held.len(), n);
                        }
                    }
                } else if let Some(s) = held.pop() {
                    ring.release(s);
                }
                prop_assert_eq!(ring.in_use(), held.len());
            }
        }
    }
}
