//! The paper's portability claim (§V: existing applications "worked as
//! expected without changing the application code"): the same workload
//! code produces bit-identical results on the reference backend and both
//! Aurora protocol backends.

use aurora_workloads::generators::{random_matrix, random_vector};
use aurora_workloads::kernels::{dgemm, inner_product, jacobi_step, monte_carlo_pi};
use ham::f2f;
use ham_aurora_repro::{dma_offload, local_offload, tcp_offload, veo_offload, NodeId, Offload};

fn backends() -> Vec<(&'static str, Offload)> {
    vec![
        ("local", local_offload(1, aurora_workloads::register_all)),
        ("tcp", tcp_offload(1, aurora_workloads::register_all)),
        ("veo", veo_offload(1, aurora_workloads::register_all)),
        ("dma", dma_offload(1, aurora_workloads::register_all)),
    ]
}

#[test]
fn inner_product_is_bit_identical_everywhere() {
    let xs = random_vector(7, 512);
    let ys = random_vector(8, 512);
    let mut results = Vec::new();
    for (name, o) in backends() {
        let t = NodeId(1);
        let a = o.allocate::<f64>(t, 512).unwrap();
        let b = o.allocate::<f64>(t, 512).unwrap();
        o.put(&xs, a).unwrap();
        o.put(&ys, b).unwrap();
        let r = o
            .sync(t, f2f!(inner_product, a.addr(), b.addr(), 512))
            .unwrap();
        results.push((name, r.to_bits()));
        o.shutdown();
    }
    assert!(results.windows(2).all(|w| w[0].1 == w[1].1), "{results:?}");
}

#[test]
fn dgemm_is_bit_identical_everywhere() {
    let a = random_matrix(1, 16, 12);
    let b = random_matrix(2, 12, 8);
    let mut outputs: Vec<(&str, Vec<u64>)> = Vec::new();
    for (name, o) in backends() {
        let t = NodeId(1);
        let da = o.allocate::<f64>(t, (16 * 12) as u64).unwrap();
        let db = o.allocate::<f64>(t, (12 * 8) as u64).unwrap();
        let dc = o.allocate::<f64>(t, (16 * 8) as u64).unwrap();
        o.put(&a, da).unwrap();
        o.put(&b, db).unwrap();
        o.sync(t, f2f!(dgemm, da.addr(), db.addr(), dc.addr(), 16, 12, 8))
            .unwrap();
        let mut c = vec![0.0f64; 16 * 8];
        o.get(dc, &mut c).unwrap();
        outputs.push((name, c.iter().map(|v| v.to_bits()).collect()));
        o.shutdown();
    }
    assert!(outputs.windows(2).all(|w| w[0].1 == w[1].1));
}

#[test]
fn stateless_kernels_agree() {
    let mut results = Vec::new();
    for (name, o) in backends() {
        let r = o.sync(NodeId(1), f2f!(monte_carlo_pi, 42, 5_000)).unwrap();
        results.push((name, r.to_bits()));
        o.shutdown();
    }
    assert!(results.windows(2).all(|w| w[0].1 == w[1].1), "{results:?}");
}

/// `wait_all` and a `wait_any` drain loop must deliver the same results
/// as serial `get()`s — on every backend, bit for bit.
#[test]
fn wait_any_and_wait_all_agree_everywhere() {
    let seeds: Vec<u64> = (0..8).collect();
    let mut per_backend: Vec<(&str, Vec<u64>)> = Vec::new();
    for (name, o) in backends() {
        let t = NodeId(1);
        // Baseline: serial sync.
        let serial: Vec<u64> = seeds
            .iter()
            .map(|&s| o.sync(t, f2f!(monte_carlo_pi, s, 2_000)).unwrap().to_bits())
            .collect();
        // wait_all: in submission order.
        let futures: Vec<_> = seeds
            .iter()
            .map(|&s| o.async_(t, f2f!(monte_carlo_pi, s, 2_000)).unwrap())
            .collect();
        let gathered: Vec<u64> = o
            .wait_all(futures)
            .into_iter()
            .map(|r| r.unwrap().to_bits())
            .collect();
        assert_eq!(gathered, serial, "{name}: wait_all vs serial");
        // wait_any: completion order; parallel vec tags each future
        // with its submission index.
        let mut ids: Vec<usize> = (0..seeds.len()).collect();
        let mut futs: Vec<_> = seeds
            .iter()
            .map(|&s| o.async_(t, f2f!(monte_carlo_pi, s, 2_000)).unwrap())
            .collect();
        let mut drained = vec![0u64; seeds.len()];
        while let Some(i) = o.wait_any(&mut futs) {
            let idx = ids.swap_remove(i);
            drained[idx] = futs.swap_remove(i).get().unwrap().to_bits();
        }
        assert!(futs.is_empty(), "{name}: wait_any left futures behind");
        assert_eq!(drained, serial, "{name}: wait_any vs serial");
        per_backend.push((name, serial));
        o.shutdown();
    }
    assert!(
        per_backend.windows(2).all(|w| w[0].1 == w[1].1),
        "{per_backend:?}"
    );
}

/// An all-zero [`FaultPlan`] is observationally inert: threading the
/// fault hooks through every transport (with a recovery policy armed on
/// the Aurora backends) must leave results bit-identical to the
/// fault-free constructors. This pins the zero-cost claim of the
/// injection layer: the hooks themselves change nothing.
#[test]
fn zero_fault_plan_keeps_backends_bit_identical() {
    use ham_aurora_repro::{offload_with, BackendKind, OffloadOptions, RecoveryPolicy};
    let xs = random_vector(11, 256);
    let ys = random_vector(12, 256);
    let run = |o: Offload| {
        let t = NodeId(1);
        let a = o.allocate::<f64>(t, 256).unwrap();
        let b = o.allocate::<f64>(t, 256).unwrap();
        o.put(&xs, a).unwrap();
        o.put(&ys, b).unwrap();
        let dot = o
            .sync(t, f2f!(inner_product, a.addr(), b.addr(), 256))
            .unwrap()
            .to_bits();
        let pi = o.sync(t, f2f!(monte_carlo_pi, 9, 3_000)).unwrap().to_bits();
        o.shutdown();
        (dot, pi)
    };
    let reg = aurora_workloads::register_all;
    // The default options already carry the all-zero plan; arming a
    // policy is the only difference from the default constructors.
    let armed = |kind| {
        let opts = OffloadOptions {
            recovery: Some(RecoveryPolicy::default()),
            ..OffloadOptions::default()
        };
        offload_with(kind, 1, opts, reg)
    };
    let results: Vec<(&str, (u64, u64))> = vec![
        ("veo", run(veo_offload(1, reg))),
        ("veo+zero-plan", run(armed(BackendKind::Veo))),
        ("dma", run(dma_offload(1, reg))),
        ("dma+zero-plan", run(armed(BackendKind::Dma))),
        ("tcp", run(tcp_offload(1, reg))),
        ("tcp+zero-plan", run(armed(BackendKind::Tcp))),
    ];
    assert!(results.windows(2).all(|w| w[0].1 == w[1].1), "{results:?}");
}

/// Batching is a wire-level optimisation only: a pipelined workload run
/// with message coalescing enabled must produce bit-identical results to
/// the batching-off constructors, on every backend.
#[test]
fn batching_on_keeps_backends_bit_identical() {
    use ham_aurora_repro::{offload_with, BackendKind, BatchConfig, OffloadOptions};
    let reg = aurora_workloads::register_all;
    let seeds: Vec<u64> = (0..24).collect();
    let run = |o: Offload| {
        let t = NodeId(1);
        let futures: Vec<_> = seeds
            .iter()
            .map(|&s| o.async_(t, f2f!(monte_carlo_pi, s, 2_000)).unwrap())
            .collect();
        let bits: Vec<u64> = o
            .wait_all(futures)
            .into_iter()
            .map(|r| r.unwrap().to_bits())
            .collect();
        o.shutdown();
        bits
    };
    let batched = |kind| {
        let opts = OffloadOptions {
            batch: BatchConfig::up_to(8),
            ..OffloadOptions::default()
        };
        offload_with(kind, 1, opts, reg)
    };
    let results: Vec<(&str, Vec<u64>)> = vec![
        ("local", run(local_offload(1, reg))),
        ("local+batch", run(batched(BackendKind::Local))),
        ("tcp", run(tcp_offload(1, reg))),
        ("tcp+batch", run(batched(BackendKind::Tcp))),
        ("veo", run(veo_offload(1, reg))),
        ("veo+batch", run(batched(BackendKind::Veo))),
        ("dma", run(dma_offload(1, reg))),
        ("dma+batch", run(batched(BackendKind::Dma))),
    ];
    assert!(results.windows(2).all(|w| w[0].1 == w[1].1), "{results:?}");
}

#[test]
fn jacobi_iteration_converges_on_every_backend() {
    let (nx, ny) = (16u64, 16u64);
    let mut grid = vec![0.0f64; (nx * ny) as usize];
    for i in 0..nx as usize {
        for j in 0..ny as usize {
            if i == 0 || j == 0 || i == nx as usize - 1 || j == ny as usize - 1 {
                grid[i * ny as usize + j] = 100.0;
            }
        }
    }
    for (name, o) in backends() {
        let t = NodeId(1);
        let a = o.allocate::<f64>(t, nx * ny).unwrap();
        let b = o.allocate::<f64>(t, nx * ny).unwrap();
        o.put(&grid, a).unwrap();
        let (mut src, mut dst) = (a, b);
        let mut residual = f64::INFINITY;
        for _ in 0..500 {
            residual = o
                .sync(t, f2f!(jacobi_step, src.addr(), dst.addr(), nx, ny))
                .unwrap();
            core::mem::swap(&mut src, &mut dst);
        }
        assert!(residual < 1e-3, "{name}: residual {residual}");
        // Interior approaches the boundary value.
        let mut out = vec![0.0f64; (nx * ny) as usize];
        o.get(src, &mut out).unwrap();
        let center = out[(nx / 2 * ny + ny / 2) as usize];
        assert!((center - 100.0).abs() < 1.0, "{name}: center {center}");
        o.shutdown();
    }
}
