//! The per-VE VEOS daemon: process table + privileged DMA manager.

use crate::dma_manager::DmaManager;
use crate::process::VeProcess;
use aurora_ve::VeDevice;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One VEOS instance ("each VE has its own instance of VEOS", §I-B).
#[derive(Debug)]
pub struct Veos {
    ve: Arc<VeDevice>,
    dma: DmaManager,
    procs: Mutex<HashMap<u32, Arc<VeProcess>>>,
    next_pid: Mutex<u32>,
}

impl Veos {
    /// Start a VEOS instance for `ve`.
    pub fn new(ve: Arc<VeDevice>, improved_dma: bool) -> Arc<Self> {
        Arc::new(Self {
            ve,
            dma: DmaManager::new(improved_dma),
            procs: Mutex::new(HashMap::new()),
            next_pid: Mutex::new(1),
        })
    }

    /// The device this instance manages.
    pub fn ve(&self) -> &Arc<VeDevice> {
        &self.ve
    }

    /// The privileged DMA manager.
    pub fn dma(&self) -> &DmaManager {
        &self.dma
    }

    /// Create a VE process (what `veo_proc_create` triggers).
    pub fn create_process(&self) -> Arc<VeProcess> {
        let pid = {
            let mut next = self.next_pid.lock().unwrap();
            let pid = *next;
            *next += 1;
            pid
        };
        let proc = VeProcess::new(pid, Arc::clone(&self.ve));
        self.procs.lock().unwrap().insert(pid, Arc::clone(&proc));
        proc
    }

    /// Destroy a VE process (what `veo_proc_destroy` triggers).
    pub fn destroy_process(&self, pid: u32) -> bool {
        self.procs.lock().unwrap().remove(&pid).is_some()
    }

    /// Look up a live process.
    pub fn process(&self, pid: u32) -> Option<Arc<VeProcess>> {
        self.procs.lock().unwrap().get(&pid).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_lifecycle() {
        let veos = Veos::new(VeDevice::standalone(0, 1 << 20), true);
        let p1 = veos.create_process();
        let p2 = veos.create_process();
        assert_ne!(p1.pid(), p2.pid());
        assert!(veos.process(p1.pid()).is_some());
        assert!(veos.destroy_process(p1.pid()));
        assert!(!veos.destroy_process(p1.pid()), "already gone");
        assert!(veos.process(p1.pid()).is_none());
        assert!(veos.process(p2.pid()).is_some(), "the other one lives on");
    }

    #[test]
    fn concurrent_creates_mint_distinct_pids() {
        let veos = Veos::new(VeDevice::standalone(0, 1 << 20), true);
        let start = std::sync::Barrier::new(8);
        let pids: Vec<u32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        veos.create_process().pid()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let distinct: std::collections::HashSet<u32> = pids.iter().copied().collect();
        assert_eq!(distinct.len(), 8, "pids {pids:?}");
        assert!(pids.iter().all(|&pid| veos.process(pid).is_some()));
    }
}
