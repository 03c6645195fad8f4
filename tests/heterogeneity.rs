//! The heterogeneous-binaries story (paper Fig. 6): the VH and VE
//! processes are distinct "binaries" with different local handler
//! addresses, reconciled only by sorted-type-name handler keys.

use aurora_proto::{HOST_SEED, VE_SEED_BASE};
use ham::registry::HandlerKey;
use ham::{ExecContext, RegistryBuilder};
use ham_offload::backend::build_registry;
use std::sync::Arc;

ham::ham_kernel! {
    pub fn alpha(_ctx, x: u64) -> u64 { x + 1 }
}
ham::ham_kernel! {
    pub fn beta(_ctx, x: u64) -> u64 { x + 2 }
}
ham::ham_kernel! {
    pub fn gamma(_ctx, x: u64) -> u64 { x + 3 }
}

fn registrar(b: &mut RegistryBuilder) {
    b.register::<alpha>();
    b.register::<beta>();
    b.register::<gamma>();
}

#[test]
fn host_and_ve_registries_disagree_on_addresses_but_agree_on_keys() {
    let reg: Arc<ham_offload::backend::Registrar> = Arc::new(registrar);
    let host = build_registry(&reg, HOST_SEED);
    let ve = build_registry(&reg, VE_SEED_BASE + 1);

    assert_eq!(host.names(), ve.names(), "shared sorted table layout");
    let mut any_address_differs = false;
    for k in 0..host.len() as u64 {
        let key = HandlerKey(k);
        if host.address_of(key).unwrap() != ve.address_of(key).unwrap() {
            any_address_differs = true;
        }
    }
    assert!(
        any_address_differs,
        "the two 'binaries' must have different local code addresses"
    );
}

#[test]
fn registration_order_does_not_matter() {
    // The same kernels registered in any order produce the same keys —
    // the lexicographic-sort trick of §III-E.
    let mut fwd = RegistryBuilder::new();
    fwd.register::<alpha>()
        .register::<beta>()
        .register::<gamma>();
    let fwd = fwd.seal(1);
    let mut rev = RegistryBuilder::new();
    rev.register::<gamma>()
        .register::<beta>()
        .register::<alpha>();
    let rev = rev.seal(2);
    assert_eq!(
        fwd.key_of::<alpha>().unwrap(),
        rev.key_of::<alpha>().unwrap()
    );
    assert_eq!(fwd.key_of::<beta>().unwrap(), rev.key_of::<beta>().unwrap());
    assert_eq!(
        fwd.key_of::<gamma>().unwrap(),
        rev.key_of::<gamma>().unwrap()
    );
}

#[test]
fn messages_encoded_by_one_binary_execute_in_another() {
    let reg: Arc<ham_offload::backend::Registrar> = Arc::new(registrar);
    let host = build_registry(&reg, HOST_SEED);
    let ve = build_registry(&reg, VE_SEED_BASE + 7);

    let (key, payload) = host.encode_message(&ham::f2f!(beta, 40)).unwrap();
    let mem = ham::message::VecMemory::new(0);
    let mut ctx = ExecContext::new(1, &mem);
    let result = ve.execute(key, &payload, &mut ctx).unwrap();
    assert_eq!(ham::Registry::decode_result::<beta>(&result).unwrap(), 42);
}

#[test]
fn mismatched_registration_sets_fail_loudly() {
    // A key from a richer "binary" has no translation in a poorer one —
    // the failure mode HAM's same-source rule prevents.
    let mut rich = RegistryBuilder::new();
    rich.register::<alpha>()
        .register::<beta>()
        .register::<gamma>();
    let rich = rich.seal(1);
    let mut poor = RegistryBuilder::new();
    poor.register::<alpha>();
    let poor = poor.seal(2);

    let key = rich.key_of::<gamma>().unwrap();
    let mem = ham::message::VecMemory::new(0);
    let mut ctx = ExecContext::new(1, &mem);
    let err = poor.execute(key, &[], &mut ctx).unwrap_err();
    assert!(matches!(err, ham::HamError::UnknownKey(_)));
}
