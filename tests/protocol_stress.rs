//! Stress and integrity tests of both messaging protocols: slot reuse
//! under pipelining, payload integrity across sizes, interleaved
//! multi-target traffic, and property-based wire integrity.

use aurora_sim_core::SimTime;
use aurora_workloads::kernels::{busy_work, echo, vec_sum};
use ham::f2f;
use ham::registry::HandlerKey;
use ham::wire::{MsgHeader, MsgKind};
use ham_aurora_repro::{dma_offload, veo_offload, NodeId, Offload};
use ham_offload::chan::pool::FramePool;
use ham_offload::chan::{ChannelCore, MissVerdict, PooledFrame, RecoveryPolicy, Reserve};
use ham_offload::device::{DeviceConfig, DeviceRuntime};
use ham_offload::target_loop::{unframe_result_ref, Polled, TargetChannel, TargetEnv};
use ham_offload::OffloadError;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// In-memory [`TargetChannel`]: scripted inbox, recorded outbox. The
/// dedup property feeds it a frame stream with recovery-style duplicate
/// deliveries and checks what the target loop actually executes.
struct ScriptedChannel {
    inbox: Mutex<VecDeque<(MsgHeader, Vec<u8>)>>,
    outbox: Mutex<Vec<(u16, u64, Vec<u8>)>>,
}

impl TargetChannel for ScriptedChannel {
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        let (h, p) = self.inbox.lock().unwrap().pop_front()?;
        Some((h, pool.adopt(p)))
    }
    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
        match self.inbox.lock().unwrap().pop_front() {
            Some((h, p)) => Polled::Msg(h, pool.adopt(p)),
            None => Polled::Empty,
        }
    }
    fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>) {
        self.outbox.lock().unwrap().push((reply_slot, seq, payload));
    }
}

fn both() -> Vec<(&'static str, Offload)> {
    vec![
        ("veo", veo_offload(1, aurora_workloads::register_all)),
        ("dma", dma_offload(1, aurora_workloads::register_all)),
    ]
}

#[test]
fn hundred_pipelined_offloads_per_protocol() {
    for (name, o) in both() {
        let futures: Vec<_> = (0..100)
            .map(|i| o.async_(NodeId(1), f2f!(busy_work, i % 7)).unwrap())
            .collect();
        for (i, f) in futures.into_iter().enumerate() {
            let r = f
                .get()
                .unwrap_or_else(|e| panic!("{name}: offload {i}: {e}"));
            assert!(r == i as u64 % 7 || r == (i as u64 % 7) + 1);
        }
        o.shutdown();
    }
}

#[test]
fn payload_sizes_across_the_small_fetch_boundary() {
    // The DMA protocol fetches header+224 B in the first DMA; exercise
    // payloads straddling that boundary and the slot capacity.
    for (name, o) in both() {
        for size in [0usize, 1, 100, 223, 224, 225, 256, 1000, 4000] {
            let blob: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
            let r = o
                .sync(NodeId(1), f2f!(echo, blob.clone()))
                .unwrap_or_else(|e| panic!("{name}: size {size}: {e}"));
            assert_eq!(r, blob, "{name}: size {size}");
        }
        o.shutdown();
    }
}

#[test]
fn interleaved_traffic_to_multiple_targets() {
    let o = dma_offload(3, aurora_workloads::register_all);
    // Per-target resident buffer with distinct contents.
    let bufs: Vec<_> = (1..=3u16)
        .map(|n| {
            let t = NodeId(n);
            let b = o.allocate::<f64>(t, 16).unwrap();
            let vals: Vec<f64> = (0..16).map(|i| (n as f64) * 100.0 + i as f64).collect();
            o.put(&vals, b).unwrap();
            (t, b, vals.iter().sum::<f64>())
        })
        .collect();
    // Interleave offloads round-robin across the targets.
    let mut futures = Vec::new();
    for round in 0..10 {
        for (t, b, expect) in &bufs {
            let f = o.async_(*t, f2f!(vec_sum, b.addr(), 16)).unwrap();
            futures.push((round, *t, f, *expect));
        }
    }
    for (round, t, f, expect) in futures {
        let r = f.get().unwrap();
        assert_eq!(r, expect, "round {round}, {t}");
    }
    o.shutdown();
}

#[test]
fn results_can_be_consumed_out_of_order() {
    let o = dma_offload(1, aurora_workloads::register_all);
    let futures: Vec<_> = (0..12)
        .map(|i| {
            (
                i,
                o.async_(NodeId(1), f2f!(echo, vec![i as u8; 64])).unwrap(),
            )
        })
        .collect();
    // Consume newest-first: slot bookkeeping must not confuse results.
    for (i, f) in futures.into_iter().rev() {
        assert_eq!(f.get().unwrap(), vec![i as u8; 64]);
    }
    o.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any protocol geometry (slot counts, slot sizes) moves messages
    /// correctly on both Aurora backends.
    #[test]
    fn prop_random_protocol_geometry(
        recv in 1usize..6,
        send in 1usize..6,
        msg_pow in 8u32..13,
        veo_backend: bool,
    ) {
        use ham_backend_veo::{ProtocolConfig, VeoBackend};
        use ham_backend_dma::DmaBackend;
        use veos_sim::{AuroraMachine, MachineConfig};
        let cfg = ProtocolConfig {
            recv_slots: recv,
            send_slots: send,
            msg_bytes: 1 << msg_pow,
            ..Default::default()
        };
        let machine = AuroraMachine::small(
            1,
            MachineConfig {
                hbm_bytes: 16 << 20,
                vh_bytes: 32 << 20,
                ..Default::default()
            },
        );
        let o = if veo_backend {
            Offload::new(VeoBackend::spawn(machine, 0, &[0], cfg, aurora_workloads::register_all))
        } else {
            Offload::new(DmaBackend::spawn(machine, 0, &[0], cfg, aurora_workloads::register_all))
        };
        // Payload sizes that probe the slot boundary: the serialised
        // request is `8-byte Vec length ‖ bytes` and the result adds one
        // frame byte on top, so cap at slot − 16.
        let near_cap = (1usize << msg_pow) - 16;
        let futures: Vec<_> = (0..2 * (recv + send))
            .map(|i| {
                let size = if i % 3 == 0 { near_cap } else { i * 17 % near_cap };
                let blob = vec![(i % 251) as u8; size];
                (blob.clone(), o.async_(NodeId(1), f2f!(echo, blob)).unwrap())
            })
            .collect();
        for (blob, f) in futures {
            prop_assert_eq!(f.get().unwrap(), blob);
        }
        o.shutdown();
    }

    /// Arbitrary payload bytes survive the full DMA protocol unchanged.
    #[test]
    fn prop_dma_wire_integrity(blob in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let o = dma_offload(1, aurora_workloads::register_all);
        let r = o.sync(NodeId(1), f2f!(echo, blob.clone())).unwrap();
        prop_assert_eq!(r, blob);
        o.shutdown();
    }

    /// Deadline arithmetic on the channel core itself: with a policy of
    /// `k` misses and `r` retries armed, every in-flight offload is
    /// re-sent exactly at cumulative miss `k·(2^a − 1)` for attempts
    /// `a = 1..=r` and timed out exactly at miss `k·(2^(r+1) − 1)` —
    /// regardless of how posts are staggered — and timed-out frames
    /// leave the in-flight table in post order, leaking nothing.
    #[test]
    fn prop_pending_deadline_ordering(
        k in 1u32..8,
        r in 0u32..3,
        gaps in proptest::collection::vec(0u64..4, 2..6),
    ) {
        let core = ChannelCore::bounded(8, 8, 256).with_recovery(RecoveryPolicy {
            retry_after_misses: k,
            max_retries: r,
        });
        let mut live: Vec<u64> = Vec::new();
        let mut posted_at_sweep: Vec<(u64, u64)> = Vec::new();
        let mut retries: Vec<(u64, u32, u64)> = Vec::new(); // (seq, attempt, sweep)
        let mut timeouts: Vec<(u64, u64)> = Vec::new(); // (seq, sweep)
        let mut sweep = 0u64;

        // One engine-style flag sweep: a miss for every in-flight seq.
        macro_rules! sweep_once {
            () => {
                sweep += 1;
                for seq in live.clone() {
                    match core.note_miss(seq) {
                        MissVerdict::Keep => {}
                        MissVerdict::Retry { header, frame, attempt } => {
                            prop_assert_eq!(header.seq, seq);
                            prop_assert_eq!(&frame[ham::wire::HEADER_BYTES..], b"hi".as_slice());
                            retries.push((seq, attempt, sweep));
                        }
                        MissVerdict::TimedOut => {
                            timeouts.push((seq, sweep));
                            core.take_pending(seq).expect("timed-out entry still pending");
                            core.finish(seq, Err(OffloadError::Timeout));
                            live.retain(|&s| s != seq);
                        }
                    }
                }
            };
        }

        // Post one offload per gap entry, `gap` empty sweeps apart.
        for gap in &gaps {
            let res = match core.try_reserve(false, 0, SimTime::ZERO, 0) {
                Reserve::Reserved(res) => res,
                other => panic!("reserve refused: {other:?}"),
            };
            let header = MsgHeader {
                handler_key: HandlerKey(1),
                payload_len: 2,
                kind: MsgKind::Offload,
                reply_slot: res.send_slot as u16,
                corr: 0,
                seq: res.seq,
            };
            let mut wire = header.encode().to_vec();
            wire.extend_from_slice(b"hi");
            core.note_sent(res.seq, &header, PooledFrame::detached(wire));
            posted_at_sweep.push((res.seq, sweep));
            live.push(res.seq);
            for _ in 0..*gap {
                sweep_once!();
            }
        }
        // Sweep until every offload has timed out (bounded: the worst
        // deadline is 7·(2³−1) = 49 sweeps past the last post).
        while !live.is_empty() {
            prop_assert!(sweep < 1000, "deadlines never fired");
            sweep_once!();
        }

        let distance = u64::from(k) * ((1u64 << (r + 1)) - 1);
        prop_assert_eq!(timeouts.len(), gaps.len());
        for (i, ((seq, at), (posted_seq, posted))) in
            timeouts.iter().zip(&posted_at_sweep).enumerate()
        {
            // Timed out in post order, each exactly `distance` sweeps
            // after its own post.
            prop_assert_eq!((i, *seq), (i, *posted_seq));
            prop_assert_eq!(at - posted, distance, "seq {} deadline", seq);
        }
        for (seq, attempt, at) in &retries {
            let posted = posted_at_sweep.iter().find(|(s, _)| s == seq).unwrap().1;
            prop_assert_eq!(at - posted, u64::from(k) * ((1u64 << attempt) - 1));
        }
        prop_assert_eq!(
            retries.len(),
            gaps.len() * r as usize,
            "every offload re-sends exactly r times"
        );
        // Timeout evicted every entry: nothing leaked in the table.
        prop_assert_eq!(core.in_flight(), 0);
    }

    /// A recovery re-send colliding with its late original: however
    /// duplicate frames are interleaved into an in-order stream, the
    /// dedup watermark serves each distinct seq exactly once, in
    /// first-arrival order, and duplicates never re-execute the kernel.
    #[test]
    fn prop_dedup_serves_each_seq_once(
        n in 1usize..10,
        dups in proptest::collection::vec((1usize..64, 0usize..64), 0..8),
    ) {
        // An in-order distinct stream 0..n with duplicates spliced in,
        // each strictly after (a copy of) its original — exactly what
        // slot rotation plus recovery re-sends can produce on the wire.
        let mut stream: Vec<u64> = (0..n as u64).collect();
        for (pos, back) in dups {
            let at = 1 + pos % stream.len();
            let dup = stream[back % at];
            stream.insert(at, dup);
        }

        let mut b = ham::RegistryBuilder::new();
        aurora_workloads::register_all(&mut b);
        let registry = b.seal(7);
        let key = registry.key_of::<echo>().unwrap();
        let mut inbox: VecDeque<(MsgHeader, Vec<u8>)> = stream
            .iter()
            .map(|&seq| {
                let payload = ham::codec::encode(&f2f!(echo, vec![seq as u8; 3])).unwrap();
                let header = MsgHeader {
                    handler_key: key,
                    payload_len: payload.len() as u32,
                    kind: MsgKind::Offload,
                    reply_slot: seq as u16,
                    corr: 0,
                    seq,
                };
                (header, payload)
            })
            .collect();
        inbox.push_back((
            MsgHeader {
                handler_key: HandlerKey(0),
                payload_len: 0,
                kind: MsgKind::Control,
                reply_slot: 0,
                corr: 0,
                seq: u64::MAX,
            },
            vec![],
        ));
        let chan = ScriptedChannel {
            inbox: Mutex::new(inbox),
            outbox: Mutex::new(vec![]),
        };
        let mem = ham::message::VecMemory::new(0);
        let env = TargetEnv {
            node: 1,
            registry: &registry,
            mem: &mem,
            reverse: None,
            meter: None,
            dedup: true,
        };
        let served = DeviceRuntime::new(DeviceConfig::new()).run(&env, &chan);

        // Exactly one execution per distinct seq, results published in
        // first-arrival (= seq) order with the right reply slots.
        prop_assert_eq!(served, n as u64);
        let out = chan.outbox.lock().unwrap();
        prop_assert_eq!(out.len(), n);
        for (i, (slot, seq, frame)) in out.iter().enumerate() {
            prop_assert_eq!((*slot, *seq), (i as u16, i as u64));
            let bytes = unframe_result_ref(frame).unwrap();
            prop_assert_eq!(
                ham::codec::decode::<Vec<u8>>(bytes).unwrap(),
                vec![i as u8; 3]
            );
        }
    }

    /// Arbitrary f64 buffers survive put/kernel/get on the VEO backend.
    #[test]
    fn prop_veo_buffer_integrity(xs in proptest::collection::vec(any::<f64>(), 1..256)) {
        let o = veo_offload(1, aurora_workloads::register_all);
        let t = NodeId(1);
        let b = o.allocate::<f64>(t, xs.len() as u64).unwrap();
        o.put(&xs, b).unwrap();
        let mut out = vec![0.0f64; xs.len()];
        o.get(b, &mut out).unwrap();
        for (a, c) in xs.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
        o.shutdown();
    }

    /// Resume-handshake idempotence: for arbitrary in-flight sets,
    /// device execution subsets, and repeated disconnect/resume cycles,
    /// the watermark split is exact — the replay set is precisely the
    /// provably-unexecuted seqs (no executed frame is ever replayed =
    /// no duplicate execution), everything at or below the watermark
    /// fails conservatively with `TargetLost`, and every offload ends
    /// with exactly one terminal outcome (no lost frame, no leak).
    #[test]
    fn prop_resume_handshake_idempotent(
        n in 1usize..20,
        exec_bits in proptest::collection::vec(any::<u64>(), 3..4),
        result_bits in proptest::collection::vec(any::<u64>(), 3..4),
    ) {
        use std::collections::BTreeMap;

        let core = ChannelCore::unbounded()
            .with_recovery(RecoveryPolicy::replay_only(8));
        let lost_err = OffloadError::TargetLost(NodeId(9));
        let offload_header = |seq: u64, len: usize| MsgHeader {
            handler_key: HandlerKey(1),
            payload_len: len as u32,
            kind: MsgKind::Offload,
            reply_slot: 0,
            corr: 0,
            seq,
        };

        // Post n offloads onto the wire (reserve + replay-buffer store).
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..n {
            let Reserve::Reserved(r) =
                core.try_reserve(false, 0, SimTime::ZERO, 8)
            else {
                panic!("unbounded reserve refused");
            };
            let frame = vec![r.seq as u8];
            core.note_sent(
                r.seq,
                &offload_header(r.seq, frame.len()),
                PooledFrame::detached(frame),
            );
            live.push(r.seq);
        }

        #[derive(Debug, PartialEq)]
        enum Terminal { Completed, Lost }
        let mut terminal: BTreeMap<u64, Terminal> = BTreeMap::new();
        let mut executed: Vec<u64> = Vec::new();
        let mut wm: Option<u64> = None;

        for cycle in 0..exec_bits.len() {
            // The device executes an arbitrary subset of what's on the
            // wire; its watermark is the max executed seq (monotonic
            // across sessions). A subset of those results reach the
            // host before the link dies.
            for &seq in &live {
                if exec_bits[cycle] >> (seq % 64) & 1 == 1 {
                    prop_assert!(
                        !executed.contains(&seq),
                        "model error: seq {} executed twice", seq
                    );
                    executed.push(seq);
                    wm = Some(wm.map_or(seq, |w| w.max(seq)));
                    if result_bits[cycle] >> (seq % 64) & 1 == 1 {
                        core.deposit_frame(seq, PooledFrame::detached(vec![seq as u8]));
                        let done = core.take_completed(seq).unwrap().unwrap();
                        prop_assert_eq!(done.as_slice(), &[seq as u8][..]);
                        prop_assert_eq!(
                            terminal.insert(seq, Terminal::Completed), None,
                            "double completion"
                        );
                    }
                }
            }
            live.retain(|s| terminal.get(s) != Some(&Terminal::Completed));

            // Disconnect → resume against the announced watermark.
            let expected_replay: Vec<u64> = live
                .iter()
                .copied()
                .filter(|&s| wm.is_none() || s > wm.unwrap())
                .collect();
            let expected_lost: Vec<u64> = live
                .iter()
                .copied()
                .filter(|&s| wm.is_some_and(|w| s <= w))
                .collect();
            prop_assert!(core.degrade(lost_err.clone()).is_some());
            let rep = core.resume(wm, lost_err.clone()).unwrap();
            let replayed: Vec<u64> = rep.replay.iter().map(|f| f.seq).collect();
            prop_assert_eq!(&replayed, &expected_replay,
                "replay set must be exactly the seqs above the watermark");
            prop_assert_eq!(rep.lost, expected_lost.len());
            // The heart of exactly-once: nothing the device executed is
            // ever replayed.
            for s in &replayed {
                prop_assert!(!executed.contains(s),
                    "seq {} replayed after execution", s);
            }
            // Replayed wire images are the original bytes, attempts bump.
            for f in &rep.replay {
                prop_assert_eq!(&f.frame, &vec![f.seq as u8]);
                prop_assert!(f.attempt >= 1);
            }
            for s in expected_lost {
                let out = core.take_completed(s).unwrap();
                prop_assert_eq!(out.unwrap_err(), lost_err.clone());
                prop_assert_eq!(
                    terminal.insert(s, Terminal::Lost), None,
                    "double terminal outcome"
                );
            }
            live = expected_replay;
        }

        // The final session serves everything still in flight.
        for seq in live {
            core.deposit_frame(seq, PooledFrame::detached(vec![seq as u8]));
            prop_assert!(core.take_completed(seq).unwrap().is_ok());
            prop_assert_eq!(terminal.insert(seq, Terminal::Completed), None);
        }
        prop_assert_eq!(terminal.len(), n, "every offload has one outcome");
        prop_assert_eq!(core.in_flight(), 0, "nothing leaks");
    }
}
