//! Slot-layout constants shared by every slot-array transport.
//!
//! These used to live in `ham-backend-veo`, which forced `ham-backend-dma`
//! to depend on a sibling backend for geometry it shares. Both Aurora
//! protocols (and the reverse-message extension) now read them from here.

/// Tunables of both messaging protocols.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolConfig {
    /// Receive slots per target (VH → VE messages in flight).
    pub recv_slots: usize,
    /// Send slots per target (VE → VH results in flight).
    pub send_slots: usize,
    /// Maximum message payload (header excluded) in bytes.
    pub msg_bytes: usize,
    /// Enable reverse active messages (VHcall over the DMA protocol);
    /// only honoured by `ham-backend-dma`.
    pub reverse: bool,
    /// Small-message batching watermarks (disabled by default, which
    /// keeps the wire traffic byte-identical to the unbatched protocol).
    pub batch: super::batch::BatchConfig,
    /// Device-side worker lanes (simulated VE cores) the target's
    /// [`crate::device::DeviceRuntime`] schedules across. Defaults to
    /// [`crate::device::DEFAULT_LANES`] (the SX-Aurora core count);
    /// `1` reproduces the pre-lane serial execution timeline.
    pub lanes: usize,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            recv_slots: 8,
            send_slots: 8,
            msg_bytes: 4096,
            reverse: false,
            batch: super::batch::BatchConfig::default(),
            lanes: crate::device::DEFAULT_LANES,
        }
    }
}

/// Per-slot metadata: one flag word + one timestamp word.
pub const SLOT_META: u64 = 16;

impl ProtocolConfig {
    /// Smallest permitted `msg_bytes`: error frames (and their headers)
    /// must always fit a slot.
    pub(crate) const MIN_MSG_BYTES: usize = 256;

    /// Panics unless the configuration is usable (called at spawn).
    pub fn validate(&self) {
        assert!(self.recv_slots >= 1, "at least one recv slot");
        assert!(self.send_slots >= 1, "at least one send slot");
        assert!(
            self.msg_bytes >= Self::MIN_MSG_BYTES,
            "msg_bytes must be >= {} so error frames fit a slot",
            Self::MIN_MSG_BYTES
        );
    }

    /// Byte stride of one communication slot.
    pub fn slot_stride(&self) -> u64 {
        SLOT_META + ham::wire::HEADER_BYTES as u64 + self.msg_bytes as u64
    }

    /// Total bytes of one slot array.
    pub fn array_bytes(&self, slots: usize) -> u64 {
        self.slot_stride() * slots as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_geometry() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.slot_stride(), 16 + 32 + 4096);
        assert_eq!(cfg.array_bytes(8), 8 * cfg.slot_stride());
    }

    #[test]
    #[should_panic(expected = "msg_bytes")]
    fn tiny_messages_rejected() {
        ProtocolConfig {
            msg_bytes: 8,
            ..Default::default()
        }
        .validate();
    }
}
