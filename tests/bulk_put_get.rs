//! The Table II bulk data path: `put`/`get` hand a scalar slice's own
//! little-endian bytes to the backend. These tests pin that wire layout,
//! round-trip every scalar type bit for bit, keep the length checks, and
//! show that on both Aurora protocols the caller's bytes go straight to
//! and from VE memory: any length round-trips, a bad VE address is a
//! `Mem` error that leaves the destination untouched, concurrent callers
//! keep their own bytes, and no transfer takes VH memory.

use ham_aurora_repro::offload::backend::RawBuffer;
use ham_aurora_repro::offload::Scalar;
use ham_aurora_repro::{offload_with, BackendKind, NodeId, Offload, OffloadError, OffloadOptions};
use ham_backend_dma::{DmaBackend, ProtocolConfig};
use ham_backend_veo::VeoBackend;
use proptest::prelude::*;
use std::sync::Arc;
use veos_sim::{AuroraMachine, MachineConfig};

const KINDS: [BackendKind; 2] = [BackendKind::Local, BackendKind::Dma];

fn offload(kind: BackendKind) -> Offload {
    offload_with(kind, 1, OffloadOptions::default(), |_b| {})
}

fn aurora_machine() -> Arc<AuroraMachine> {
    AuroraMachine::small(
        1,
        MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        },
    )
}

/// Both Aurora protocols over `machine`, one VE each.
fn aurora_offloads(machine: &Arc<AuroraMachine>) -> [(&'static str, Offload); 2] {
    let cfg = ProtocolConfig::default();
    let m = || Arc::clone(machine);
    [
        (
            "dma",
            Offload::new(DmaBackend::spawn(m(), 0, &[0], cfg, |_b| {})),
        ),
        (
            "veo",
            Offload::new(VeoBackend::spawn(m(), 0, &[0], cfg, |_b| {})),
        ),
    ]
}

/// A target span of `len` bytes at `addr` on VE 1.
fn raw(addr: u64, len: usize) -> RawBuffer {
    RawBuffer {
        node: NodeId(1),
        addr,
        len: len as u64,
    }
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

/// Lengths around the page and word edges, and one past a mebibyte.
#[test]
fn any_length_round_trips_on_both_aurora_protocols() {
    let machine = aurora_machine();
    for (name, o) in aurora_offloads(&machine) {
        for len in [0usize, 1, 8, 4095, 4097, (1 << 20) + 8] {
            let b = o.allocate::<u8>(NodeId(1), len.max(1) as u64).unwrap();
            let src: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            o.put(&src, b).unwrap();
            let mut dst = vec![0u8; len];
            o.get(b, &mut dst).unwrap();
            assert!(dst == src, "{name}: {len} bytes");
            o.free(b).unwrap();
        }
        o.shutdown();
    }
}

/// The VE side is checked before a byte moves: a `get` from an unmapped
/// VE address or one that runs past the end of HBM is `Err(Mem)`, never
/// a panic, and the caller's slice keeps its bytes; a `put` there is
/// refused the same way.
#[test]
fn a_bad_ve_address_is_a_mem_error_that_moves_nothing() {
    let machine = aurora_machine();
    let hbm = machine.ve(0).hbm().len();
    for (name, o) in aurora_offloads(&machine) {
        let b = o.allocate::<u8>(NodeId(1), 64).unwrap();
        // VEMVA = a 64 MiB-aligned base + HBM offset, and `b` mapped the
        // one 64 MiB VE page: its last 8 bytes of HBM are mapped.
        let near_end = b.addr() - b.addr() % (64 << 20) + hbm - 8;
        for addr in [0x1234, near_end] {
            let mut dst = [0xa5u8; 16];
            let err = o.backend().get_bytes(raw(addr, 16), &mut dst).unwrap_err();
            assert!(matches!(err, OffloadError::Mem(_)), "{name} get: {err:?}");
            assert_eq!(
                dst, [0xa5; 16],
                "{name}: a rejected get leaves dst untouched"
            );
            let err = o.backend().put_bytes(raw(addr, 16), &dst).unwrap_err();
            assert!(matches!(err, OffloadError::Mem(_)), "{name} put: {err:?}");
        }
        o.free(b).unwrap();
        o.shutdown();
    }
}

#[test]
fn concurrent_dma_callers_keep_their_own_bytes() {
    const THREADS: u64 = 4;
    let machine = aurora_machine();
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
    assert_eq!(
        vh.live_allocations(),
        spawned,
        "no transfer takes VH memory"
    );
    o.shutdown();
}

/// A transfer takes no VH memory: the count of live VH allocations
/// stays where setup left it across puts and gets of both sizes.
#[test]
fn puts_and_gets_take_no_vh_memory() {
    let machine = aurora_machine();
    let vh = Arc::clone(machine.vh(0));
    for (name, o) in aurora_offloads(&machine) {
        let b = o.allocate::<u8>(NodeId(1), 1 << 20).unwrap();
        let mut data = vec![0x3cu8; 1 << 20];
        let spawned = vh.live_allocations();
        for i in 0..64 {
            let len = if i % 8 == 0 { 1 << 20 } else { 4096 };
            o.put(&data[..len], b).unwrap();
            o.get(b, &mut data[..len]).unwrap();
            assert_eq!(vh.live_allocations(), spawned, "{name} call {i}");
        }
        o.free(b).unwrap();
        o.shutdown();
    }
}
