//! Hostile bytes yield `Err`, never a panic: every payload shape a
//! workload kernel or its result puts on the wire, the TCP announce
//! handshake and the TCP control RPC decode arbitrary input to a value
//! or an error. Inputs are random bytes, and valid frames with one byte
//! replaced, cut short, or followed by random bytes.

use aurora_workloads::kernels::*;
use ham::codec::{decode, encode, Wire};
use ham::f2f;
use ham_backend_tcp::frame::ControlOp;
use ham_backend_tcp::Announce;
use ham_offload::{BufferPtr, NodeId};
use proptest::prelude::*;

fn try_decode<T: Wire>(bytes: &[u8]) {
    let _ = decode::<T>(bytes);
}

/// Decode `bytes` as every shape on the wire.
fn decode_all(bytes: &[u8]) {
    try_decode::<inner_product>(bytes);
    try_decode::<daxpy>(bytes);
    try_decode::<dgemm>(bytes);
    try_decode::<jacobi_step>(bytes);
    try_decode::<monte_carlo_pi>(bytes);
    try_decode::<vec_sum>(bytes);
    try_decode::<vec_scale>(bytes);
    try_decode::<dense_batch>(bytes);
    try_decode::<busy_work>(bytes);
    try_decode::<echo>(bytes);
    try_decode::<compute_burn>(bytes);
    try_decode::<whoami>(bytes);
    try_decode::<spmv_csr>(bytes);
    try_decode::<histogram>(bytes);
    // Results, and the shapes example kernels and protocols carry.
    try_decode::<f64>(bytes);
    try_decode::<()>(bytes);
    try_decode::<u64>(bytes);
    try_decode::<u16>(bytes);
    try_decode::<bool>(bytes);
    try_decode::<Vec<u8>>(bytes);
    try_decode::<String>(bytes);
    try_decode::<Option<u64>>(bytes);
    try_decode::<Vec<Option<String>>>(bytes);
    try_decode::<NodeId>(bytes);
    try_decode::<BufferPtr<f64>>(bytes);
    try_decode::<Announce>(bytes);
    let _ = ControlOp::decode(bytes);
}

fn decodes<T: Wire>(bytes: &[u8]) -> bool {
    decode::<T>(bytes).is_ok()
}

fn decodes_control(bytes: &[u8]) -> bool {
    ControlOp::decode(bytes).is_ok()
}

/// A control frame's body: what `ControlOp::decode` sees after the
/// `u32` length prefix.
fn control_body(op: ControlOp<'_>) -> Vec<u8> {
    let mut frame = Vec::new();
    op.write_to(&mut frame).unwrap();
    frame.split_off(4)
}

/// Whether a decoder accepts a frame.
type Accepts = fn(&[u8]) -> bool;

/// Well-formed frames of each kind, with the decoder that accepts them,
/// for the mutations to start from.
fn valid_frames() -> Vec<(Vec<u8>, Accepts)> {
    vec![
        (
            encode(&f2f!(echo, vec![0xA5; 17])).unwrap(),
            decodes::<echo>,
        ),
        (
            encode(&f2f!(spmv_csr, 1, 2, 3, 4, 5, 6, 7)).unwrap(),
            decodes::<spmv_csr>,
        ),
        (
            encode(&f2f!(daxpy, 0.5, 64, 128, 8)).unwrap(),
            decodes::<daxpy>,
        ),
        (
            encode(&vec![Some(String::from("hé")), None]).unwrap(),
            decodes::<Vec<Option<String>>>,
        ),
        (
            encode(&BufferPtr::<f64>::from_raw(NodeId(2), 0x1000, 8)).unwrap(),
            decodes::<BufferPtr<f64>>,
        ),
        (
            encode(&Announce {
                node: 1,
                lanes: 8,
                credit_limit: 64,
                mem_bytes: 4096,
                watermark: Some(7),
            })
            .unwrap(),
            decodes::<Announce>,
        ),
        (
            control_body(ControlOp::Get { addr: 8, len: 16 }),
            decodes_control,
        ),
        (control_body(ControlOp::Ping { echo: 3 }), decodes_control),
        // Last: the one frame whose decoder takes any tail, as data.
        (
            control_body(ControlOp::Put {
                addr: 64,
                data: &[1, 2, 3],
            }),
            decodes_control,
        ),
    ]
}

#[test]
fn valid_frames_decode_and_reject_a_trailing_byte() {
    let frames = valid_frames();
    let put = frames.len() - 1;
    for (i, (frame, accepts)) in frames.into_iter().enumerate() {
        assert!(accepts(&frame), "frame {i} rejected");
        let longer = [&frame[..], &[0]].concat();
        assert_eq!(accepts(&longer), i == put, "frame {i} + one byte");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        pick: u64,
        at: u64,
        with: u8,
    ) {
        decode_all(&bytes);
        let frames = valid_frames();
        let (frame, _) = &frames[pick as usize % frames.len()];
        let at = at as usize % frame.len();
        let mut changed = frame.clone();
        changed[at] = with;
        decode_all(&changed);
        decode_all(&frame[..at]);
        decode_all(&[&frame[..], &bytes].concat());
    }
}
