//! The [`ActiveMessage`] trait and the context handlers execute in.

use crate::codec::Wire;
use crate::HamError;
use std::ops::Range;

/// A message that carries an action (paper §I-A).
///
/// Implementations are generated by [`crate::ham_kernel!`] or written by
/// hand. The struct's fields are the bound function arguments (what the
/// paper's `f2f()` captures); `execute` is the kernel body that runs on
/// the offload target.
pub trait ActiveMessage: Wire + Send + 'static {
    /// The kernel's return type, transported back in the result message.
    type Output: Wire + Send + 'static;

    /// Run the kernel on the target.
    fn execute(self, ctx: &mut ExecContext<'_>) -> Self::Output;

    /// Cross-binary type tag. The paper uses `typeid` names; here the
    /// fully-qualified Rust type name plays that role. It must be
    /// identical in both "binaries" — guaranteed by building both
    /// processes from the same registration list.
    fn type_tag() -> &'static str {
        core::any::type_name::<Self>()
    }
}

/// Target-local memory access for kernels.
///
/// Kernels receive buffer addresses (`buffer_ptr`s transported inside the
/// message) and read/write the target's memory through this trait; the
/// backends wire it to the simulated VE process memory.
pub trait TargetMemory: Send + Sync {
    /// Read `out.len()` bytes at `addr`.
    fn mem_read(&self, addr: u64, out: &mut [u8]) -> Result<(), HamError>;
    /// Write `data` at `addr`.
    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), HamError>;

    /// Read `n` little-endian `f64`s starting at `addr`.
    fn read_f64s(&self, addr: u64, n: usize) -> Result<Vec<f64>, HamError> {
        let mut bytes = vec![0u8; n * 8];
        self.mem_read(addr, &mut bytes)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Write `f64`s little-endian starting at `addr`.
    fn write_f64s(&self, addr: u64, data: &[f64]) -> Result<(), HamError> {
        let mut bytes = Vec::with_capacity(data.len() * 8);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.mem_write(addr, &bytes)
    }

    /// Read `n` little-endian `u64`s starting at `addr`.
    fn read_u64s(&self, addr: u64, n: usize) -> Result<Vec<u64>, HamError> {
        let mut bytes = vec![0u8; n * 8];
        self.mem_read(addr, &mut bytes)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Write `u64`s little-endian starting at `addr`.
    fn write_u64s(&self, addr: u64, data: &[u64]) -> Result<(), HamError> {
        let mut bytes = Vec::with_capacity(data.len() * 8);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.mem_write(addr, &bytes)
    }
}

/// Transport for *reverse* active messages: a kernel running on the
/// target calls back into the host, VHcall-style (paper §I-B), with
/// synchronous semantics. Implemented by backends that support it.
pub trait ReverseTransport: Send + Sync {
    /// Ship `(key, payload)` to the host, block until its handler ran,
    /// and return the result payload.
    fn call_raw(
        &self,
        key: crate::registry::HandlerKey,
        payload: &[u8],
    ) -> Result<Vec<u8>, HamError>;
}

/// Accounts kernel compute work on the executing device's virtual
/// clock. Backends wire this to the simulated device's Table-I rates;
/// without a meter, `charge_flops` is a no-op (the kernel still runs,
/// only its modeled duration is zero).
pub trait ComputeMeter: Send + Sync {
    /// Charge the virtual cost of `flops` floating-point operations.
    fn charge_flops(&self, flops: u64);

    /// Price `flops` in picoseconds *without* charging any clock.
    /// Device runtimes that schedule work onto per-core lanes use this
    /// to account a member's cost on a lane-local timeline and only
    /// join the device clock when the result is published. Meters that
    /// don't override it price everything at zero.
    fn cost_ps(&self, flops: u64) -> u64 {
        let _ = flops;
        0
    }
}

/// Everything a kernel can touch while executing on the target.
pub struct ExecContext<'a> {
    /// The executing node's id (0 = host, 1.. = targets).
    pub node: u16,
    /// Target-local memory.
    pub mem: &'a dyn TargetMemory,
    /// This process's handler registry (for encoding reverse messages).
    registry: Option<&'a crate::registry::Registry>,
    /// Reverse (target → host) message transport, if the backend
    /// provides one.
    reverse: Option<&'a dyn ReverseTransport>,
    /// Compute-cost meter, if the backend provides one.
    meter: Option<&'a dyn ComputeMeter>,
}

impl<'a> ExecContext<'a> {
    /// Build a context without reverse-offload or metering support.
    pub fn new(node: u16, mem: &'a dyn TargetMemory) -> Self {
        Self {
            node,
            mem,
            registry: None,
            reverse: None,
            meter: None,
        }
    }

    /// Attach a compute meter (builder style).
    pub fn with_meter(mut self, meter: &'a dyn ComputeMeter) -> Self {
        self.meter = Some(meter);
        self
    }

    /// Attach a reverse transport + registry (builder style).
    pub fn with_reverse_transport(
        mut self,
        registry: &'a crate::registry::Registry,
        reverse: &'a dyn ReverseTransport,
    ) -> Self {
        self.registry = Some(registry);
        self.reverse = Some(reverse);
        self
    }

    /// True if reverse offloading is available in this context.
    pub fn has_reverse(&self) -> bool {
        self.reverse.is_some()
    }

    /// Account `flops` of kernel work on the executing device's clock
    /// (no-op without a meter).
    pub fn charge_flops(&self, flops: u64) {
        if let Some(m) = self.meter {
            m.charge_flops(flops);
        }
    }

    /// Reverse offload (VHcall, §I-B): execute `msg`'s handler *on the
    /// host*, synchronously, and return its result. Errors if the
    /// backend provides no reverse transport.
    pub fn vhcall<M: ActiveMessage>(&self, msg: M) -> Result<M::Output, HamError> {
        let registry = self
            .registry
            .ok_or(HamError::Wire("no registry for reverse offload".into()))?;
        let reverse = self
            .reverse
            .ok_or(HamError::Wire("backend has no reverse transport".into()))?;
        let (key, payload) = registry.encode_message(&msg)?;
        let result = reverse.call_raw(key, &payload)?;
        crate::codec::decode(&result)
    }
}

/// An in-process [`TargetMemory`] over a plain byte vector — the
/// reference environment for unit tests and the local backend.
#[derive(Debug, Default)]
pub struct VecMemory {
    data: parking_lot::Mutex<Vec<u8>>,
}

impl VecMemory {
    /// Memory of `len` zeroed bytes.
    pub fn new(len: usize) -> Self {
        Self {
            data: parking_lot::Mutex::new(vec![0; len]),
        }
    }

    /// The index range of `[addr, addr + len)` in memory of `size`
    /// bytes, or `HamError::Mem` if any of it lies outside (including an
    /// `addr + len` past `u64::MAX`).
    fn range(op: &str, addr: u64, len: usize, size: usize) -> Result<Range<usize>, HamError> {
        usize::try_from(addr)
            .ok()
            .and_then(|start| Some(start..start.checked_add(len)?))
            .filter(|r| r.end <= size)
            .ok_or_else(|| HamError::Mem(format!("{op} {len} bytes at {addr} beyond {size}")))
    }
}

impl TargetMemory for VecMemory {
    fn mem_read(&self, addr: u64, out: &mut [u8]) -> Result<(), HamError> {
        let data = self.data.lock();
        out.copy_from_slice(&data[Self::range("read", addr, out.len(), data.len())?]);
        Ok(())
    }

    fn mem_write(&self, addr: u64, src: &[u8]) -> Result<(), HamError> {
        let mut data = self.data.lock();
        let r = Self::range("write", addr, src.len(), data.len())?;
        data[r].copy_from_slice(src);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::ham_kernel! {
        pub fn AddOne(_ctx, x: u64) -> u64 {
            x + 1
        }
    }

    #[test]
    fn execute_runs_the_kernel() {
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(1, &mem);
        assert_eq!(crate::f2f!(AddOne, 41).execute(&mut ctx), 42);
    }

    #[test]
    fn type_tag_is_fully_qualified() {
        assert!(AddOne::type_tag().contains("AddOne"));
        assert!(AddOne::type_tag().contains("message::tests"));
    }

    #[test]
    fn vec_memory_bounds() {
        let mem = VecMemory::new(16);
        assert!(mem.mem_write(8, &[1; 8]).is_ok());
        assert!(mem.mem_write(9, &[1; 8]).is_err());
        let mut out = [0u8; 8];
        assert!(mem.mem_read(8, &mut out).is_ok());
        assert_eq!(out, [1; 8]);
        assert!(mem.mem_read(16, &mut out).is_err());
        // An end past `u64::MAX` is an error, not an overflow panic.
        for addr in [u64::MAX - 3, u64::MAX] {
            assert!(matches!(
                mem.mem_write(addr, &[0; 8]),
                Err(HamError::Mem(_))
            ));
            assert!(matches!(
                mem.mem_read(addr, &mut out),
                Err(HamError::Mem(_))
            ));
        }
    }

    #[test]
    fn typed_helpers_round_trip() {
        let mem = VecMemory::new(256);
        mem.write_f64s(0, &[1.5, -2.5, 3.25]).unwrap();
        assert_eq!(mem.read_f64s(0, 3).unwrap(), vec![1.5, -2.5, 3.25]);
        mem.write_u64s(128, &[u64::MAX, 0, 7]).unwrap();
        assert_eq!(mem.read_u64s(128, 3).unwrap(), vec![u64::MAX, 0, 7]);
    }

    #[test]
    fn kernel_reads_target_memory() {
        crate::ham_kernel! {
            pub fn Sum(ctx, addr: u64, n: u64) -> f64 {
                ctx.mem.read_f64s(addr, n as usize).unwrap().iter().sum()
            }
        }
        let mem = VecMemory::new(64);
        mem.write_f64s(0, &[1.0, 2.0, 3.0]).unwrap();
        let mut ctx = ExecContext::new(1, &mem);
        assert_eq!(crate::f2f!(Sum, 0, 3).execute(&mut ctx), 6.0);
    }
}
