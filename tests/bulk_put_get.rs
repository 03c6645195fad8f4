//! The Table II bulk data path: `put`/`get` hand a scalar slice's own
//! little-endian bytes to the backend. These tests pin that wire layout,
//! round-trip every scalar type bit for bit, keep the length checks, and
//! show that concurrent callers on one Aurora runtime each get their own
//! VH staging buffer, all of which the runtime returns when dropped.

use ham_aurora_repro::offload::backend::RawBuffer;
use ham_aurora_repro::offload::Scalar;
use ham_aurora_repro::{offload_with, BackendKind, NodeId, Offload, OffloadError, OffloadOptions};
use ham_backend_dma::{DmaBackend, ProtocolConfig};
use proptest::prelude::*;
use std::sync::Arc;
use veos_sim::{AuroraMachine, MachineConfig};

const KINDS: [BackendKind; 2] = [BackendKind::Local, BackendKind::Dma];

fn offload(kind: BackendKind) -> Offload {
    offload_with(kind, 1, OffloadOptions::default(), |_b| {})
}

fn dma_machine() -> Arc<AuroraMachine> {
    AuroraMachine::small(
        1,
        MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        },
    )
}

/// `put` then `get` `xs` through a fresh buffer; returns what came back.
fn round_trip<T: Scalar>(o: &Offload, xs: &[T]) -> Vec<T> {
    let b = o.allocate::<T>(NodeId(1), xs.len() as u64).unwrap();
    o.put(xs, b).unwrap();
    let mut out = vec![T::ZERO; xs.len()];
    o.get(b, &mut out).unwrap();
    o.free(b).unwrap();
    out
}

#[test]
fn a_put_u32_lands_little_endian() {
    for kind in KINDS {
        let o = offload(kind);
        let b = o.allocate::<u32>(NodeId(1), 1).unwrap();
        o.put(&[0x0102_0304u32], b).unwrap();
        let mut raw = [0u8; 4];
        o.backend()
            .get_bytes(
                RawBuffer {
                    node: b.node(),
                    addr: b.addr(),
                    len: 4,
                },
                &mut raw,
            )
            .unwrap();
        assert_eq!(raw, [4, 3, 2, 1], "{}", kind.name());
        o.shutdown();
    }
}

#[test]
fn over_long_put_and_get_are_mem_errors() {
    for kind in KINDS {
        let o = offload(kind);
        let b = o.allocate::<u16>(NodeId(1), 4).unwrap();
        assert!(
            matches!(o.put(&[7u16; 5], b), Err(OffloadError::Mem(_))),
            "{}",
            kind.name()
        );
        let mut out = [0u16; 5];
        assert!(
            matches!(o.get(b, &mut out), Err(OffloadError::Mem(_))),
            "{}",
            kind.name()
        );
        assert_eq!(out, [0; 5], "a rejected get leaves dst untouched");
        o.put(&[7u16; 4], b).unwrap();
        o.get(b, &mut out[..4]).unwrap();
        assert_eq!(out, [7, 7, 7, 7, 0]);
        o.shutdown();
    }
}

/// NaN payloads (quiet and signalling, both signs) the random bits are
/// unlikely to hit.
const NAN64: [u64; 3] = [
    0x7ff8_dead_beef_0001,
    0x7ff0_0000_0000_0001,
    0xfff4_0000_0000_1234,
];
const NAN32: [u32; 3] = [0x7fc0_beef, 0x7f80_0001, 0xffa0_1234];

/// Every scalar type, each derived from the same random words.
fn all_types_round_trip(o: &Offload, bits: &[u64]) {
    macro_rules! ints {
        ($($ty:ty),*) => {$(
            let xs: Vec<$ty> = bits.iter().map(|&b| b as $ty).collect();
            assert_eq!(round_trip(o, &xs), xs, stringify!($ty));
        )*};
    }
    ints!(u8, u16, u32, u64, i8, i16, i32, i64);

    let xs: Vec<f32> = bits
        .iter()
        .map(|&b| b as u32)
        .chain(NAN32)
        .map(f32::from_bits)
        .collect();
    let back = round_trip(o, &xs);
    assert!(
        back.iter()
            .zip(&xs)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "f32"
    );

    let xs: Vec<f64> = bits
        .iter()
        .copied()
        .chain(NAN64)
        .map(f64::from_bits)
        .collect();
    let back = round_trip(o, &xs);
    assert!(
        back.iter()
            .zip(&xs)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "f64"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_every_scalar_round_trips_on_local(
        bits in proptest::collection::vec(any::<u64>(), 1..600),
    ) {
        let o = offload(BackendKind::Local);
        all_types_round_trip(&o, &bits);
        o.shutdown();
    }

    #[test]
    fn prop_every_scalar_round_trips_on_dma(
        bits in proptest::collection::vec(any::<u64>(), 1..600),
    ) {
        let o = offload(BackendKind::Dma);
        all_types_round_trip(&o, &bits);
        o.shutdown();
    }
}

#[test]
fn concurrent_dma_callers_keep_their_own_bytes() {
    const THREADS: u64 = 4;
    let machine = dma_machine();
    let vh = Arc::clone(machine.vh(0));
    let o = Offload::new(DmaBackend::spawn(
        machine,
        0,
        &[0],
        ProtocolConfig::default(),
        |_b| {},
    ));
    let spawned = vh.live_allocations();
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (o, start) = (&o, &start);
            s.spawn(move || {
                let b = o.allocate::<u64>(NodeId(1), 1024).unwrap();
                start.wait();
                let mut out = vec![0u64; 1024];
                for i in 0..500u64 {
                    let len = 1 + (i as usize * 97) % 1024;
                    let pattern: Vec<u64> =
                        (0..len as u64).map(|j| (t << 56) | (i << 32) | j).collect();
                    o.put(&pattern, b).unwrap();
                    o.get(b, &mut out[..len]).unwrap();
                    assert_eq!(out[..len], pattern[..], "thread {t} call {i}");
                }
                o.free(b).unwrap();
            });
        }
    });
    assert!(vh.live_allocations() <= spawned + THREADS as usize);
    o.shutdown();
}

#[test]
fn dropping_the_runtime_returns_its_staging_buffers() {
    let machine = dma_machine();
    let vh = Arc::clone(machine.vh(0));
    let before = vh.live_allocations();
    let o = Offload::new(DmaBackend::spawn(
        machine,
        0,
        &[0],
        ProtocolConfig::default(),
        |_b| {},
    ));
    let b = o.allocate::<u8>(NodeId(1), 1 << 20).unwrap();
    let mut data = vec![0u8; 1 << 20];
    o.put(&data, b).unwrap();
    o.get(b, &mut data[..4096]).unwrap();
    o.shutdown();
    drop(o);
    assert_eq!(vh.live_allocations(), before);
}
