//! `VeoProc`: one VE process handle on the host side.

use crate::context::{VeContext, VeoContext};
use crate::library::{KernelLibrary, SymHandle};
use crate::VeoError;
use aurora_mem::{VeAddr, VhAddr};
use aurora_sim_core::{Clock, SimTime};
use aurora_ve::{LhmShmUnit, UserDma};
use std::sync::{Arc, Mutex};
use veos_sim::{AuroraMachine, HostBuf, VeProcess};

/// Host-side handle to a VE process (`veo_proc_create`).
pub struct VeoProc {
    machine: Arc<AuroraMachine>,
    ve_id: u8,
    host_socket: u8,
    proc: Arc<VeProcess>,
    lib: Mutex<Option<Arc<KernelLibrary>>>,
    host_clock: Clock,
}

impl VeoProc {
    /// `veo_proc_create(ve_id)`: start a VE process via VEOS.
    /// `host_socket` pins the calling VH process (the UPI knob of §V-A);
    /// `host_clock` is that process's virtual clock.
    pub fn create(
        machine: Arc<AuroraMachine>,
        ve_id: u8,
        host_socket: u8,
        host_clock: Clock,
    ) -> Arc<Self> {
        let proc = machine.veos(ve_id).create_process();
        Arc::new(Self {
            machine,
            ve_id,
            host_socket,
            proc,
            lib: Mutex::new(None),
            host_clock,
        })
    }

    /// The underlying VE process.
    pub fn process(&self) -> &Arc<VeProcess> {
        &self.proc
    }

    /// The machine this process runs on.
    pub fn machine(&self) -> &Arc<AuroraMachine> {
        &self.machine
    }

    /// The VE's index.
    pub fn ve_id(&self) -> u8 {
        self.ve_id
    }

    /// The host process's clock.
    pub fn host_clock(&self) -> &Clock {
        &self.host_clock
    }

    /// Extra one-way link latency for this host-socket / VE pairing.
    pub(crate) fn extra_one_way(&self) -> SimTime {
        self.machine
            .topology()
            .extra_one_way(self.host_socket, self.ve_id)
    }

    /// `veo_load_library`: make `lib`'s symbols callable in the process.
    pub fn load_library(&self, lib: KernelLibrary) {
        *self.lib.lock().unwrap() = Some(Arc::new(lib));
    }

    /// `veo_get_sym`.
    pub fn get_sym(&self, name: &str) -> Result<SymHandle, VeoError> {
        let guard = self.lib.lock().unwrap();
        let lib = guard.as_ref().ok_or(VeoError::NoLibrary)?;
        lib.sym(name)
            .ok_or_else(|| VeoError::UnknownSymbol(name.to_string()))
    }

    /// `veo_context_open`: a command queue with a VE worker thread. The
    /// worker's engines carry the UPI penalty of this proc's pairing.
    pub fn open_context(&self) -> Arc<VeoContext> {
        let extra = self.extra_one_way();
        let link = Arc::clone(self.proc.ve().link());
        let ve_ctx = VeContext {
            proc: Arc::clone(&self.proc),
            udma: UserDma::with_extra_latency(Arc::clone(&link), extra),
            lhm_shm: LhmShmUnit::with_extra_latency(link, extra),
            shm: Arc::clone(self.machine.shm()),
        };
        VeoContext::open(ve_ctx, self.host_clock.clone())
    }

    /// `veo_alloc_mem`.
    pub fn alloc_mem(&self, len: u64) -> Result<VeAddr, VeoError> {
        Ok(self.proc.alloc_mem(len)?)
    }

    /// `veo_free_mem`.
    pub fn free_mem(&self, addr: VeAddr) -> Result<(), VeoError> {
        Ok(self.proc.free_mem(addr)?)
    }

    /// `veo_write_mem`: VH buffer → VE memory through the privileged DMA
    /// manager. The buffer must live in this machine's VH memory (so the
    /// page-wise translation cost is accounted against real pages).
    pub fn write_mem(&self, vh_src: VhAddr, ve_dst: VeAddr, len: u64) -> Result<SimTime, VeoError> {
        self.transfer(HostBuf::VhToVe(vh_src, len), ve_dst)
    }

    /// `veo_read_mem`: VE memory → VH buffer.
    pub fn read_mem(&self, ve_src: VeAddr, vh_dst: VhAddr, len: u64) -> Result<SimTime, VeoError> {
        self.transfer(HostBuf::VeToVh(vh_dst, len), ve_src)
    }

    /// `veo_write_mem` from the caller's own bytes, as libveo takes a
    /// host pointer: one copy, priced as a page-aligned VH buffer of
    /// `src.len()` bytes.
    pub fn write_mem_from(&self, src: &[u8], ve_dst: VeAddr) -> Result<SimTime, VeoError> {
        self.transfer(HostBuf::SliceToVe(src), ve_dst)
    }

    /// `veo_read_mem` straight into the caller's slice; a rejected read
    /// leaves `dst` untouched.
    pub fn read_mem_into(&self, ve_src: VeAddr, dst: &mut [u8]) -> Result<SimTime, VeoError> {
        self.transfer(HostBuf::VeToSlice(dst), ve_src)
    }

    fn transfer(&self, host: HostBuf<'_>, ve: VeAddr) -> Result<SimTime, VeoError> {
        let vh = self.machine.vh(self.host_socket);
        let dma = self.machine.veos(self.ve_id).dma();
        Ok(dma.transfer(&self.host_clock, vh, host, &self.proc, ve)?)
    }

    /// Destroy the process (`veo_proc_destroy`).
    pub fn destroy(&self) {
        self.machine
            .veos(self.ve_id)
            .destroy_process(self.proc.pid());
    }
}

impl core::fmt::Debug for VeoProc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "VeoProc(ve {}, pid {}, socket {})",
            self.ve_id,
            self.proc.pid(),
            self.host_socket
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ArgsStack;
    use aurora_sim_core::calib;
    use veos_sim::MachineConfig;

    fn small_machine() -> Arc<AuroraMachine> {
        AuroraMachine::small(
            1,
            MachineConfig {
                hbm_bytes: 8 << 20,
                vh_bytes: 8 << 20,
                ..Default::default()
            },
        )
    }

    fn create(machine: &Arc<AuroraMachine>) -> Arc<VeoProc> {
        VeoProc::create(Arc::clone(machine), 0, 0, Clock::new())
    }

    #[test]
    fn library_and_symbols() {
        let m = small_machine();
        let p = create(&m);
        assert!(matches!(p.get_sym("f"), Err(VeoError::NoLibrary)));
        p.load_library(KernelLibrary::new().with("f", |_, _| 42));
        assert_eq!(p.get_sym("f").unwrap().name(), "f");
        assert!(matches!(
            p.get_sym("missing"),
            Err(VeoError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn empty_call_costs_the_fig9_veo_value() {
        let m = small_machine();
        let p = create(&m);
        p.load_library(KernelLibrary::new().with("empty", |_, _| 0));
        let ctx = p.open_context();
        let sym = p.get_sym("empty").unwrap();
        let t0 = p.host_clock().now();
        let req = ctx.call_async(&sym, ArgsStack::new()).unwrap();
        let ret = ctx.wait_result(req).unwrap();
        assert_eq!(ret, 0);
        let elapsed = p.host_clock().now() - t0;
        assert_eq!(elapsed, calib::VEO_CALL_ROUNDTRIP, "79.9 us empty offload");
        ctx.close();
    }

    #[test]
    fn kernel_receives_args_and_ve_world() {
        let m = small_machine();
        let p = create(&m);
        let addr = p.alloc_mem(64).unwrap();
        p.load_library(KernelLibrary::new().with("store", |ve, args| {
            let target = VeAddr(args.get_u64(0));
            let value = f64::from_bits(args.get_u64(1));
            ve.proc.write(target, &value.to_le_bytes()).unwrap();
            1
        }));
        let ctx = p.open_context();
        let sym = p.get_sym("store").unwrap();
        let req = ctx
            .call_async(
                &sym,
                ArgsStack::new()
                    .push_u64(addr.get())
                    .push_u64(3.25f64.to_bits()),
            )
            .unwrap();
        assert_eq!(ctx.wait_result(req).unwrap(), 1);
        let mut out = [0u8; 8];
        p.process().read(addr, &mut out).unwrap();
        assert_eq!(f64::from_le_bytes(out), 3.25);
        ctx.close();
    }

    #[test]
    fn write_and_read_mem_through_priv_dma() {
        let m = small_machine();
        let p = create(&m);
        let vh = m.vh(0);
        let src = vh.alloc(256).unwrap();
        let dst_back = vh.alloc(256).unwrap();
        vh.write(src, b"veo transfer payload").unwrap();
        let ve_buf = p.alloc_mem(256).unwrap();
        p.write_mem(src, ve_buf, 20).unwrap();
        p.read_mem(ve_buf, dst_back, 20).unwrap();
        let mut out = [0u8; 20];
        vh.read(dst_back, &mut out).unwrap();
        assert_eq!(&out, b"veo transfer payload");
        // Two ops: one write (85 us) + one read (131 us) minimum.
        let total = p.host_clock().now();
        assert!(total >= calib::VEO_WRITE_BASE + calib::VEO_READ_BASE);
        // The slice forms cost what the VH-buffer forms cost.
        p.write_mem_from(b"the caller's bytes!!", ve_buf).unwrap();
        let mut back = [0u8; 20];
        p.read_mem_into(ve_buf, &mut back).unwrap();
        assert_eq!(&back, b"the caller's bytes!!");
        assert_eq!(p.host_clock().now(), total + total);
    }

    #[test]
    fn calls_are_in_order_on_one_context() {
        let m = small_machine();
        let p = create(&m);
        let counter_addr = p.alloc_mem(8).unwrap();
        p.load_library(KernelLibrary::new().with("inc", |ve, args| {
            let addr = VeAddr(args.get_u64(0));
            let mut b = [0u8; 8];
            ve.proc.read(addr, &mut b).unwrap();
            let v = u64::from_le_bytes(b) + 1;
            ve.proc.write(addr, &v.to_le_bytes()).unwrap();
            v
        }));
        let ctx = p.open_context();
        let sym = p.get_sym("inc").unwrap();
        let reqs: Vec<_> = (0..10)
            .map(|_| {
                ctx.call_async(&sym, ArgsStack::new().push_u64(counter_addr.get()))
                    .unwrap()
            })
            .collect();
        let results: Vec<u64> = reqs.iter().map(|r| ctx.wait_result(*r).unwrap()).collect();
        assert_eq!(results, (1..=10).collect::<Vec<u64>>(), "FIFO queue");
        ctx.close();
    }

    /// Run `body` on its own thread; a run longer than 30 s fails as a
    /// hang instead of wedging the test binary.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(()) => worker.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(p) = worker.join() {
                    std::panic::resume_unwind(p);
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("wait_result hung"),
        }
    }

    /// A waiter parks on the context's condvar: it wakes on its result
    /// when a long kernel finishes, and with `ContextClosed` when the
    /// kernel panics and takes the worker down.
    #[test]
    fn wait_sleeps_until_the_result_or_the_worker_dies() {
        watchdog(|| {
            let m = small_machine();
            let p = create(&m);
            p.load_library(
                KernelLibrary::new()
                    .with("slow", |_, _| {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        7
                    })
                    .with("boom", |_, _| panic!("kernel crashed")),
            );
            let ctx = p.open_context();
            let slow = ctx
                .call_async(&p.get_sym("slow").unwrap(), ArgsStack::new())
                .unwrap();
            assert_eq!(ctx.wait_result(slow).unwrap(), 7);
            let boom = ctx
                .call_async(&p.get_sym("boom").unwrap(), ArgsStack::new())
                .unwrap();
            assert!(matches!(
                ctx.wait_result(boom),
                Err(VeoError::ContextClosed)
            ));
            assert!(!ctx.is_alive());
            ctx.close();
        });
    }

    #[test]
    fn wait_on_closed_context_errors() {
        let m = small_machine();
        let p = create(&m);
        p.load_library(KernelLibrary::new().with("f", |_, _| 1));
        let ctx = p.open_context();
        let sym = p.get_sym("f").unwrap();
        // Consume a successful call first.
        let req = ctx.call_async(&sym, ArgsStack::new()).unwrap();
        assert_eq!(ctx.wait_result(req).unwrap(), 1);
        ctx.close();
        ctx.close(); // idempotent
                     // New calls after close fail cleanly.
        assert!(matches!(
            ctx.call_async(&sym, ArgsStack::new()),
            Err(crate::VeoError::ContextClosed)
        ));
    }

    #[test]
    fn contexts_are_independent_queues() {
        let m = small_machine();
        let p = create(&m);
        p.load_library(KernelLibrary::new().with("id", |_, args| args.get_u64(0)));
        let c1 = p.open_context();
        let c2 = p.open_context();
        let sym = p.get_sym("id").unwrap();
        let r1 = c1.call_async(&sym, ArgsStack::new().push_u64(10)).unwrap();
        let r2 = c2.call_async(&sym, ArgsStack::new().push_u64(20)).unwrap();
        assert_eq!(c2.wait_result(r2).unwrap(), 20);
        assert_eq!(c1.wait_result(r1).unwrap(), 10);
        c1.close();
        c2.close();
    }

    #[test]
    fn concurrent_calls_get_distinct_req_ids() {
        let m = small_machine();
        let p = create(&m);
        p.load_library(KernelLibrary::new().with("id", |_, args| args.get_u64(0)));
        let ctx = p.open_context();
        let sym = p.get_sym("id").unwrap();
        let start = std::sync::Barrier::new(4);
        let reqs: Vec<_> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (ctx, sym, start) = (&ctx, &sym, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..16u64)
                            .map(|i| {
                                let arg = t * 100 + i;
                                let args = ArgsStack::new().push_u64(arg);
                                (ctx.call_async(sym, args).unwrap(), arg)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        let ids: std::collections::HashSet<_> = reqs.iter().map(|(req, _)| *req).collect();
        assert_eq!(ids.len(), 64, "every call gets its own id");
        for (req, arg) in reqs {
            assert_eq!(ctx.wait_result(req).unwrap(), arg);
        }
        ctx.close();
    }

    #[test]
    fn destroy_removes_the_process() {
        let m = small_machine();
        let p = create(&m);
        let pid = p.process().pid();
        assert!(m.veos(0).process(pid).is_some());
        p.destroy();
        assert!(m.veos(0).process(pid).is_none());
    }
}
