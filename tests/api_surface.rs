//! Table II API surface: every listed operation works on every backend.

use ham::f2f;
use ham_aurora_repro::{
    dma_offload, local_offload, offload_with, tcp_cluster, tcp_offload, veo_offload, BackendKind,
    BatchConfig, NodeId, Offload, OffloadOptions, TargetSpec,
};
use ham_offload::types::DeviceType;

ham::ham_kernel! {
    pub fn which_node(ctx) -> u16 { ctx.node }
}

ham::ham_kernel! {
    pub fn sum_buffer(ctx, addr: u64, n: u64) -> f64 {
        ctx.mem.read_f64s(addr, n as usize).unwrap().iter().sum()
    }
}

fn registrar(b: &mut ham::RegistryBuilder) {
    b.register::<which_node>();
    b.register::<sum_buffer>();
}

fn exercise_table2(offload: &Offload, expect_device: DeviceType) {
    let target = NodeId(1);

    // num_nodes / this_node / get_node_descriptor.
    assert!(offload.num_nodes() >= 2);
    assert_eq!(offload.this_node(), NodeId::HOST);
    let desc = offload.get_node_descriptor(target).unwrap();
    assert_eq!(desc.device_type, expect_device);
    assert_eq!(desc.node, target);

    // sync.
    assert_eq!(offload.sync(target, f2f!(which_node)).unwrap(), 1);

    // async + future test()/get().
    let mut fut = offload.async_(target, f2f!(which_node)).unwrap();
    while !fut.test() {
        std::thread::yield_now();
    }
    assert_eq!(fut.get().unwrap(), 1);

    // allocate / put / get / free.
    let buf = offload.allocate::<f64>(target, 8).unwrap();
    let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    offload.put(&data, buf).unwrap();
    let mut out = [0.0f64; 8];
    offload.get(buf, &mut out).unwrap();
    assert_eq!(out, data);

    // Kernels see the buffer through its address (f2f-transported).
    assert_eq!(
        offload
            .sync(target, f2f!(sum_buffer, buf.addr(), 8))
            .unwrap(),
        36.0
    );

    // put_async / get_async (Table II's future<void> forms; synchronous
    // completion like the underlying veo_write_mem/veo_read_mem).
    let mut pf = offload.put_async(&data, buf);
    assert!(pf.test(), "put futures are immediately ready");
    pf.get().unwrap();
    let back = offload.get_async(buf, 8).get().unwrap();
    assert_eq!(back, data.to_vec());

    // copy (host-orchestrated), within one target.
    let buf2 = offload.allocate::<f64>(target, 8).unwrap();
    offload.copy(buf, buf2, 8).unwrap();
    assert_eq!(
        offload
            .sync(target, f2f!(sum_buffer, buf2.addr(), 8))
            .unwrap(),
        36.0
    );

    offload.free(buf).unwrap();
    offload.free(buf2).unwrap();
}

#[test]
fn table2_on_local_backend() {
    let o = local_offload(2, registrar);
    exercise_table2(&o, DeviceType::Generic);
    o.shutdown();
}

#[test]
fn table2_on_veo_backend() {
    let o = veo_offload(1, registrar);
    exercise_table2(&o, DeviceType::VectorEngine);
    o.shutdown();
}

#[test]
fn table2_on_dma_backend() {
    let o = dma_offload(1, registrar);
    exercise_table2(&o, DeviceType::VectorEngine);
    o.shutdown();
}

#[test]
fn table2_on_tcp_backend() {
    let o = tcp_offload(1, registrar);
    exercise_table2(&o, DeviceType::Generic);
    o.shutdown();
}

/// A TCP target's descriptor reports the worker-lane count its device
/// runtime actually schedules across — both come from the one
/// `TargetSpec` — on the point-to-point path `tcp_offload` takes and on
/// a cluster with its own specs. A 16-member batch carrier is dealt over
/// every lane, so the lane registers show how many lanes ran.
#[test]
fn tcp_descriptor_cores_match_the_lanes_that_run() {
    let batched = || OffloadOptions {
        batch: BatchConfig::up_to(16),
        ..OffloadOptions::default()
    };
    let spec = TargetSpec {
        lanes: 3,
        ..TargetSpec::default()
    };
    let cases = [
        (
            offload_with(BackendKind::Tcp, 1, batched(), registrar),
            TargetSpec::default().lanes,
        ),
        (tcp_cluster(&[spec], &[], batched(), registrar).0, 3),
    ];
    for (o, lanes) in cases {
        let futures: Vec<_> = (0..16)
            .map(|_| o.async_(NodeId(1), f2f!(which_node)).unwrap())
            .collect();
        for r in o.wait_all(futures) {
            assert_eq!(r.unwrap(), 1);
        }
        let ran = o.backend().metrics().lane_stats().per_lane().len();
        assert_eq!(ran, lanes as usize, "lanes the target ran");
        let cores = o.get_node_descriptor(NodeId(1)).unwrap().cores;
        assert_eq!(cores, lanes, "descriptor cores");
        o.shutdown();
    }
    let o = tcp_offload(1, registrar);
    let cores = o.get_node_descriptor(NodeId(1)).unwrap().cores;
    assert_eq!(cores, TargetSpec::default().lanes, "tcp_offload");
    o.shutdown();
}

#[test]
fn copy_across_ves_is_host_orchestrated() {
    let o = dma_offload(2, registrar);
    let a = o.allocate::<u64>(NodeId(1), 4).unwrap();
    let b = o.allocate::<u64>(NodeId(2), 4).unwrap();
    o.put(&[9, 8, 7, 6], a).unwrap();
    o.copy(a, b, 4).unwrap();
    let mut out = [0u64; 4];
    o.get(b, &mut out).unwrap();
    assert_eq!(out, [9, 8, 7, 6]);
    o.shutdown();
}
