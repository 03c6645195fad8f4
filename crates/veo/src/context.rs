//! VEO contexts: the command queue executing kernels on the VE.

use crate::args::ArgsStack;
use crate::library::SymHandle;
use crate::VeoError;
use aurora_mem::ShmManager;
use aurora_sim_core::{calib, Clock, SimTime};
use aurora_ve::{LhmShmUnit, UserDma};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use veos_sim::VeProcess;

/// The VE-side world a kernel executes in: what code "running on the VE"
/// can touch. Handed to every kernel a [`crate::KernelLibrary`] holds.
pub struct VeContext {
    /// The VE process (memory, VEMVA translation, clock).
    pub proc: Arc<VeProcess>,
    /// This core's user DMA engine (§IV-A).
    pub udma: UserDma,
    /// This core's LHM/SHM unit (§IV-A).
    pub lhm_shm: LhmShmUnit,
    /// The machine's SysV shm registry (for attaching host segments,
    /// Fig. 7).
    pub shm: Arc<ShmManager>,
}

impl VeContext {
    /// The VE process's virtual clock.
    pub fn clock(&self) -> &Clock {
        self.proc.clock()
    }
}

/// Identifies an in-flight VEO call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReqId(pub u64);

enum Command {
    Call {
        req: ReqId,
        sym: SymHandle,
        args: ArgsStack,
        /// Host virtual time at submission.
        submitted: SimTime,
    },
    Close,
}

/// An open VEO thread context (`veo_context_open`): an in-order command
/// queue served by one VE worker thread.
pub struct VeoContext {
    tx: Sender<Command>,
    shared: Arc<Shared>,
    next_req: AtomicU64,
    host_clock: Clock,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// What the worker thread publishes to its waiters.
struct Shared {
    /// Finished calls: request id → (return value, completion time).
    results: Mutex<HashMap<u64, (u64, SimTime)>>,
    /// Notified after each insert into `results` and when the worker
    /// exits.
    changed: Condvar,
    /// Cleared when the worker thread exits — including by panic (a
    /// crashed kernel must turn waiting callers into errors, not hangs).
    alive: AtomicBool,
}

impl VeoContext {
    /// Open a context on `proc`; `ve_ctx` is the world kernels see.
    /// `host_clock` is the submitting VH process's clock.
    pub(crate) fn open(ve_ctx: VeContext, host_clock: Clock) -> Arc<Self> {
        let (tx, rx) = channel::<Command>();
        let shared = Arc::new(Shared {
            results: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
            alive: AtomicBool::new(true),
        });
        let shared2 = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("veo-ctx-ve{}", ve_ctx.proc.ve().id()))
            .spawn(move || {
                // Clear the liveness flag and wake every waiter on ANY
                // exit path, panics included. The flag is cleared under
                // the results lock, so a waiter either sees it cleared
                // or is already parked when the notification comes.
                struct Liveness(Arc<Shared>);
                impl Drop for Liveness {
                    fn drop(&mut self) {
                        let _results = self.0.results.lock();
                        self.0.alive.store(false, Ordering::Release);
                        self.0.changed.notify_all();
                    }
                }
                let liveness = Liveness(shared2);
                while let Ok(cmd) = rx.recv() {
                    match cmd {
                        Command::Close => break,
                        Command::Call {
                            req,
                            sym,
                            args,
                            submitted,
                        } => {
                            // Command reaches the VE half a round trip
                            // after submission.
                            let clock = ve_ctx.proc.clock().clone();
                            clock.join(submitted + calib::VEO_CALL_ROUNDTRIP / 2);
                            let ret = (sym.func)(&ve_ctx, &args);
                            // Completion notification travels back.
                            let done = clock.now() + calib::VEO_CALL_ROUNDTRIP / 2;
                            let shared = &liveness.0;
                            shared.results.lock().unwrap().insert(req.0, (ret, done));
                            shared.changed.notify_all();
                        }
                    }
                }
            })
            .expect("spawn veo context worker");
        Arc::new(Self {
            tx,
            shared,
            next_req: AtomicU64::new(1),
            host_clock,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// True while the worker thread is running (a long-running kernel
    /// like `ham_main` counts as running). False after close or after a
    /// kernel panic killed the worker.
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::Acquire)
    }

    /// `veo_call_async`: enqueue a kernel call.
    pub fn call_async(&self, sym: &SymHandle, args: ArgsStack) -> Result<ReqId, VeoError> {
        let req = ReqId(self.next_req.fetch_add(1, Ordering::Relaxed));
        self.tx
            .send(Command::Call {
                req,
                sym: sym.clone(),
                args,
                submitted: self.host_clock.now(),
            })
            .map_err(|_| VeoError::ContextClosed)?;
        Ok(req)
    }

    /// `veo_call_wait_result`: sleep until the kernel finished; the
    /// host clock joins the completion time (an empty kernel thus costs
    /// exactly [`calib::VEO_CALL_ROUNDTRIP`]). Fails with
    /// [`VeoError::ContextClosed`] once the worker is gone without the
    /// result.
    pub fn wait_result(&self, req: ReqId) -> Result<u64, VeoError> {
        let mut results = self.shared.results.lock().unwrap();
        loop {
            if let Some((ret, done)) = results.remove(&req.0) {
                self.host_clock.join(done);
                return Ok(ret);
            }
            if !self.is_alive() {
                return Err(VeoError::ContextClosed);
            }
            results = self.shared.changed.wait(results).unwrap();
        }
    }

    /// Close the context and join its worker. Idempotent. A context
    /// blocked inside a long-running kernel (e.g. `ham_main`) only joins
    /// after that kernel returns.
    pub fn close(&self) {
        let _ = self.tx.send(Command::Close);
        if let Some(h) = self.worker.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for VeoContext {
    fn drop(&mut self) {
        self.close();
    }
}
