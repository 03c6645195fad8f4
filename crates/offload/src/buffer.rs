//! Typed pointers to target memory (Table II: `buffer_ptr<T>`).

use crate::scalar::Scalar;
use crate::types::NodeId;
use core::marker::PhantomData;
use ham::codec::Wire;
use ham::HamError;

/// A typed pointer into an offload target's memory. Carries the node
/// address, so it can be transported inside active messages and resolved
/// on the target (paper Table II).
pub struct BufferPtr<T> {
    node: NodeId,
    addr: u64,
    len: u64,
    _elem: PhantomData<fn() -> T>,
}

/// On the wire: `node ‖ addr ‖ len`; the element type is the message's.
impl<T> Wire for BufferPtr<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.addr.encode(out);
        self.len.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
        Ok(Self {
            node: NodeId::decode(input)?,
            addr: u64::decode(input)?,
            len: u64::decode(input)?,
            _elem: PhantomData,
        })
    }
}

// Manual impls: `T` itself is never stored, so no bounds on it.
impl<T> Clone for BufferPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for BufferPtr<T> {}

impl<T> PartialEq for BufferPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node && self.addr == other.addr && self.len == other.len
    }
}
impl<T> Eq for BufferPtr<T> {}

impl<T> core::fmt::Debug for BufferPtr<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "BufferPtr<{}>({}, {:#x}, len {})",
            core::any::type_name::<T>(),
            self.node,
            self.addr,
            self.len
        )
    }
}

impl<T: Scalar> BufferPtr<T> {
    /// Construct from raw parts (normally done by [`crate::Offload::allocate`]).
    pub fn from_raw(node: NodeId, addr: u64, len: u64) -> Self {
        Self {
            node,
            addr,
            len,
            _elem: PhantomData,
        }
    }

    /// The target node this buffer lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Target-virtual address of the first element.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for zero-element buffers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = BufferPtr::<f64>::from_raw(NodeId(2), 0x1000, 8);
        assert_eq!(p.node(), NodeId(2));
        assert_eq!(p.addr(), 0x1000);
        assert_eq!(p.len(), 8);
        assert!(!p.is_empty());
    }

    #[test]
    fn wire_round_trip_inside_messages() {
        let p = BufferPtr::<f64>::from_raw(NodeId(3), 0xABC, 100);
        let bytes = ham::codec::encode(&p).unwrap();
        assert_eq!(bytes.len(), 2 + 8 + 8, "node, addr, len; no framing");
        let back: BufferPtr<f64> = ham::codec::decode(&bytes).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn copy_semantics() {
        let p = BufferPtr::<u64>::from_raw(NodeId(1), 8, 2);
        let q = p;
        assert_eq!(p, q, "BufferPtr is Copy like a raw pointer");
    }
}
