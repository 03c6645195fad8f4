//! Handler registries and cross-binary key translation (paper Fig. 6).
//!
//! Each process collects the type names and local addresses of its
//! message handlers during initialisation. Sorting the table
//! lexicographically by type name yields the same order in every process
//! *without communication*; the index into the sorted table is the
//! globally valid **handler key**, translated in O(1) to the local
//! handler address on receive.
//!
//! The simulation makes the heterogeneity real: local handler addresses
//! are synthesised per process from a seed (standing in for the differing
//! code addresses of the VH and VE binaries), so nothing works unless the
//! key translation does.

use crate::codec;
use crate::message::{ActiveMessage, ExecContext};
use crate::rng::SplitMix64;
use crate::HamError;

/// Where synthesised local handler addresses start, and how far apart
/// they lie.
const ADDR_BASE: u64 = 0x4000_0000;
const ADDR_STRIDE: u64 = 0x40;

/// Globally valid message-type identifier: index into the sorted table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerKey(pub u64);

/// A local handler: deserialises the payload, executes, and appends the
/// encoded result to the caller's buffer (HAM serialises straight into
/// the reply). Generated per message type.
pub(crate) type HandlerFn = fn(&[u8], &mut ExecContext<'_>, &mut Vec<u8>) -> Result<(), HamError>;

fn handler_of<M: ActiveMessage>() -> HandlerFn {
    |payload, ctx, out| {
        let msg: M = codec::decode(payload)?;
        codec::encode_into(&msg.execute(ctx), out)
    }
}

/// Collects registrations before the table is sealed.
#[derive(Default)]
pub struct RegistryBuilder {
    entries: Vec<(&'static str, HandlerFn)>,
}

impl RegistryBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register message type `M`. Duplicate registrations are idempotent.
    pub fn register<M: ActiveMessage>(&mut self) -> &mut Self {
        let tag = M::type_tag();
        if !self.entries.iter().any(|(t, _)| *t == tag) {
            self.entries.push((tag, handler_of::<M>()));
        }
        self
    }

    /// Seal the table for one process. `process_seed` synthesises that
    /// process's local handler addresses (different per "binary").
    pub fn seal(self, process_seed: u64) -> Registry {
        let mut entries = self.entries;
        // Sorting by type name produces identical key assignment in every
        // process regardless of registration order (the paper's trick).
        entries.sort_by_key(|(name, _)| *name);

        // Synthesise distinct local addresses, scrambled per process.
        let mut addresses: Vec<u64> = (0..entries.len() as u64)
            .map(|i| ADDR_BASE + i * ADDR_STRIDE)
            .collect();
        SplitMix64::new(process_seed ^ 0x9E37_79B9).shuffle(&mut addresses);

        // Row k holds key k's name and address, and the handler whose
        // address is `ADDR_BASE + k * ADDR_STRIDE` (moved there below).
        let mut rows: Vec<Row> = entries
            .iter()
            .zip(&addresses)
            .map(|(&(name, handler), &addr)| Row {
                name,
                addr,
                handler,
            })
            .collect();
        for (&(_, handler), &addr) in entries.iter().zip(&addresses) {
            rows[slot_of(addr)].handler = handler;
        }
        Registry {
            rows,
            names: entries.into_iter().map(|(name, _)| name).collect(),
        }
    }
}

/// The row of the handler at synthesised address `addr`.
fn slot_of(addr: u64) -> usize {
    ((addr - ADDR_BASE) / ADDR_STRIDE) as usize
}

/// One row of a sealed table, on a cache line of its own. The table is
/// read on every message (the host's `key_of`, the target's
/// `execute_into`) while other threads write their own small heap
/// objects; a row sharing a line with one of those would bounce that
/// line between cores on every message.
#[repr(align(64))]
struct Row {
    /// Type name of key `k` (rows are sorted by it).
    name: &'static str,
    /// Local handler address of key `k` (the O(1) translation of Fig. 6).
    addr: u64,
    /// The handler at the address this row's index stands for.
    handler: HandlerFn,
}

/// One process's sealed handler table. Nothing on the per-message path
/// hashes: a key is found by binary search of the sorted names, and an
/// address indexes the rows.
pub struct Registry {
    rows: Vec<Row>,
    /// The sorted type names again, for [`Registry::names`].
    names: Vec<&'static str>,
}

impl Registry {
    /// The handler key of message type `M` (sender side of Fig. 6).
    pub fn key_of<M: ActiveMessage>(&self) -> Result<HandlerKey, HamError> {
        let tag = M::type_tag();
        self.rows
            .binary_search_by(|row| row.name.cmp(tag))
            .map(|i| HandlerKey(i as u64))
            .map_err(|_| HamError::Unregistered(tag))
    }

    /// Translate a key to this process's local handler address.
    pub fn address_of(&self, key: HandlerKey) -> Result<u64, HamError> {
        self.rows
            .get(key.0 as usize)
            .map(|row| row.addr)
            .ok_or(HamError::UnknownKey(key.0))
    }

    /// Execute the handler for `key` on `payload` (receiver side of
    /// Fig. 6: key → address → call), appending its encoded result to
    /// `out`. Existing contents of `out` are left untouched; on `Err`
    /// nothing was appended.
    pub fn execute_into(
        &self,
        key: HandlerKey,
        payload: &[u8],
        ctx: &mut ExecContext<'_>,
        out: &mut Vec<u8>,
    ) -> Result<(), HamError> {
        let addr = self.address_of(key)?;
        (self.rows[slot_of(addr)].handler)(payload, ctx, out)
    }

    /// [`Self::execute_into`] a fresh buffer.
    pub fn execute(
        &self,
        key: HandlerKey,
        payload: &[u8],
        ctx: &mut ExecContext<'_>,
    ) -> Result<Vec<u8>, HamError> {
        let mut out = Vec::new();
        self.execute_into(key, payload, ctx, &mut out)?;
        Ok(out)
    }

    /// Number of registered message types.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no messages are registered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sorted type names (the shared table layout).
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Encode a message for the wire: `(key, payload)`.
    pub fn encode_message<M: ActiveMessage>(
        &self,
        msg: &M,
    ) -> Result<(HandlerKey, Vec<u8>), HamError> {
        Ok((self.key_of::<M>()?, codec::encode(msg)?))
    }

    /// [`Self::encode_message`] into a caller-provided buffer (appended),
    /// returning only the key — the allocation-free post path encodes
    /// into a pooled frame buffer instead of a fresh `Vec`.
    pub fn encode_message_into<M: ActiveMessage>(
        &self,
        msg: &M,
        out: &mut Vec<u8>,
    ) -> Result<HandlerKey, HamError> {
        let key = self.key_of::<M>()?;
        codec::encode_into(msg, out)?;
        Ok(key)
    }

    /// Decode a result payload produced by `M`'s handler.
    pub fn decode_result<M: ActiveMessage>(payload: &[u8]) -> Result<M::Output, HamError> {
        codec::decode(payload)
    }
}

impl core::fmt::Debug for Registry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Registry")
            .field("types", &self.names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::VecMemory;
    use proptest::prelude::*;

    crate::ham_kernel! {
        pub(crate) fn Add(_ctx, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    crate::ham_kernel! {
        pub(crate) fn Mul(_ctx, a: u64, b: u64) -> u64 {
            a.wrapping_mul(b)
        }
    }

    crate::ham_kernel! {
        pub(crate) fn Greet(ctx, name: String) -> String {
            format!("hello {} from node {}", name, ctx.node)
        }
    }

    fn build(seed: u64) -> Registry {
        let mut b = RegistryBuilder::new();
        b.register::<Add>().register::<Mul>().register::<Greet>();
        b.seal(seed)
    }

    fn build_reversed(seed: u64) -> Registry {
        let mut b = RegistryBuilder::new();
        b.register::<Greet>().register::<Mul>().register::<Add>();
        b.seal(seed)
    }

    #[test]
    fn keys_agree_across_processes_and_registration_order() {
        let host = build(1);
        let target = build_reversed(2);
        assert_eq!(
            host.key_of::<Add>().unwrap(),
            target.key_of::<Add>().unwrap()
        );
        assert_eq!(
            host.key_of::<Mul>().unwrap(),
            target.key_of::<Mul>().unwrap()
        );
        assert_eq!(
            host.key_of::<Greet>().unwrap(),
            target.key_of::<Greet>().unwrap()
        );
        assert_eq!(host.names(), target.names());
    }

    #[test]
    fn local_addresses_differ_across_processes() {
        let host = build(1);
        let target = build(2);
        let key = host.key_of::<Add>().unwrap();
        // With three entries and different seeds, at least one address
        // should differ (deterministic for these seeds).
        let differs = (0..host.len() as u64).any(|k| {
            host.address_of(HandlerKey(k)).unwrap() != target.address_of(HandlerKey(k)).unwrap()
        });
        assert!(
            differs,
            "heterogeneous binaries must have different addresses"
        );
        // ...and yet the key still executes correctly on both.
        let payload = codec::encode(&crate::f2f!(Add, 2, 3)).unwrap();
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(1, &mem);
        let r1 = host.execute(key, &payload, &mut ctx).unwrap();
        let r2 = target.execute(key, &payload, &mut ctx).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(Registry::decode_result::<Add>(&r1).unwrap(), 5);
    }

    #[test]
    fn end_to_end_send_execute_decode() {
        let host = build(11);
        let target = build_reversed(22);
        let (key, payload) = host
            .encode_message(&crate::f2f!(Greet, "aurora".into()))
            .unwrap();
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(1, &mem);
        let result = target.execute(key, &payload, &mut ctx).unwrap();
        assert_eq!(
            Registry::decode_result::<Greet>(&result).unwrap(),
            "hello aurora from node 1"
        );
    }

    #[test]
    fn execute_into_appends_after_existing_bytes() {
        let r = build(3);
        let key = r.key_of::<Add>().unwrap();
        let payload = codec::encode(&crate::f2f!(Add, 40, 2)).unwrap();
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(1, &mem);
        let mut out = vec![0xEE];
        r.execute_into(key, &payload, &mut ctx, &mut out).unwrap();
        assert_eq!(out[0], 0xEE, "existing bytes untouched");
        assert_eq!(Registry::decode_result::<Add>(&out[1..]).unwrap(), 42);
        assert!(r.execute_into(key, &[1], &mut ctx, &mut out).is_err());
        assert_eq!(out.len(), 9, "a failed handler appends nothing");
    }

    #[test]
    fn unknown_key_is_rejected() {
        let r = build(1);
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(0, &mem);
        assert!(matches!(
            r.execute(HandlerKey(99), &[], &mut ctx),
            Err(HamError::UnknownKey(99))
        ));
    }

    #[test]
    fn unregistered_type_is_rejected() {
        crate::ham_kernel! {
            pub(crate) fn Ghost(_ctx) -> () {}
        }
        let r = build(1);
        assert!(matches!(
            r.key_of::<Ghost>(),
            Err(HamError::Unregistered(_))
        ));
        assert!(matches!(
            r.encode_message(&crate::f2f!(Ghost)),
            Err(HamError::Unregistered(_))
        ));
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let mut b = RegistryBuilder::new();
        b.register::<Add>().register::<Add>().register::<Add>();
        let r = b.seal(0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn corrupt_payload_is_a_codec_error() {
        let r = build(1);
        let key = r.key_of::<Add>().unwrap();
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(0, &mem);
        assert!(matches!(
            r.execute(key, &[1, 2, 3], &mut ctx),
            Err(HamError::Codec(_))
        ));
    }

    proptest! {
        /// Any pair of process seeds agrees on keys and results.
        #[test]
        fn prop_translation_invariant(seed_a: u64, seed_b: u64, a: u64, b: u64) {
            let host = build(seed_a);
            let target = build_reversed(seed_b);
            let (key, payload) = host.encode_message(&crate::f2f!(Mul, a, b)).unwrap();
            let mem = VecMemory::new(0);
            let mut ctx = ExecContext::new(1, &mem);
            let result = target.execute(key, &payload, &mut ctx).unwrap();
            prop_assert_eq!(
                Registry::decode_result::<Mul>(&result).unwrap(),
                a.wrapping_mul(b)
            );
        }
    }
}
