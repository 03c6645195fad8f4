//! Node addressing and description (Table II: `node_t`,
//! `node_descriptor`).

use ham::codec::Wire;
use ham::HamError;

/// Address of a process in the offload application (`node_t`).
///
/// Node 0 is the host; nodes `1..num_nodes` are offload targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u16);

/// On the wire: the `u16`.
impl Wire for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
        u16::decode(input).map(NodeId)
    }
}

impl NodeId {
    /// The host process.
    pub const HOST: NodeId = NodeId(0);

    /// True for the host.
    pub fn is_host(self) -> bool {
        self.0 == 0
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "node {}", self.0)
    }
}

/// Kind of device a node runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceType {
    /// A host CPU.
    Host,
    /// An NEC Vector Engine.
    VectorEngine,
    /// A generic in-process target (reference backend).
    Generic,
}

/// Information about a node (`node_descriptor`, Table II).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeDescriptor {
    /// The node's address.
    pub node: NodeId,
    /// Human-readable name (e.g. "VE0 (NEC VE Type 10B)").
    pub name: String,
    /// Device kind.
    pub device_type: DeviceType,
    /// Device memory visible to `allocate`, in bytes.
    pub memory_bytes: u64,
    /// Core count.
    pub cores: u32,
}

impl core::fmt::Display for NodeDescriptor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} [{}]: {:?}, {} cores, {} MiB",
            self.node,
            self.name,
            self.device_type,
            self.cores,
            self.memory_bytes >> 20
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_node_zero() {
        assert!(NodeId::HOST.is_host());
        assert!(!NodeId(1).is_host());
    }

    #[test]
    fn descriptor_display() {
        let d = NodeDescriptor {
            node: NodeId(1),
            name: "VE0".into(),
            device_type: DeviceType::VectorEngine,
            memory_bytes: 48 << 30,
            cores: 8,
        };
        let s = format!("{d}");
        assert!(s.contains("node 1"));
        assert!(s.contains("VE0"));
        assert!(s.contains("8 cores"));
    }

    #[test]
    fn node_id_wire_round_trip() {
        let n = NodeId(0x0103);
        let bytes = ham::codec::encode(&n).unwrap();
        assert_eq!(bytes, [3, 1]);
        assert_eq!(ham::codec::decode::<NodeId>(&bytes).unwrap(), n);
    }
}
