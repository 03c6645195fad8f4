//! Fault sweep: offload survival vs. injected PCIe TLP loss.
//!
//! Sweeps the seeded fault injector's frame-drop rate on the DMA
//! backend with the recovery policy armed (retry after 64 cold sweeps,
//! 4 re-sends) and prints, per rate, how a 32-offload serial workload
//! fares: completions, timeouts, `TargetLost` failures, posts refused
//! after an eviction, and the recovery work (re-sends) it took. Same
//! seed ⇒ same table, bit for bit.
//!
//! ```sh
//! cargo run --release --example fault_sweep
//! ```

use ham_aurora_repro::fault_scenario::{BackendKind, Scenario};
use ham_aurora_repro::RecoveryPolicy;

fn main() {
    // Past the retry budget the host evicts the target and, at
    // shutdown, reaps the wedged VE process — which exits by panicking
    // with "fault injection: VE process N killed". That panic is the
    // modeled kill, not a bug; keep it out of the sweep output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("fault injection:"));
        if !expected {
            default_hook(info);
        }
    }));

    let policy = RecoveryPolicy {
        retry_after_misses: 64,
        max_retries: 4,
    };
    println!("## Fault sweep — DMA backend, 32 serial offloads, seed 7");
    println!(
        "{:>9} {:>5} {:>9} {:>5} {:>8} {:>8} {:>10}",
        "drop rate", "ok", "timed out", "lost", "refused", "re-sends", "evictions"
    );
    for rate in [0.0, 0.01, 0.05, 0.10, 0.25, 0.50, 1.0] {
        let r = Scenario::new(BackendKind::Dma, 1, 7)
            .faults(|f| f.tlp_drop(rate))
            .recovery(policy)
            .waves(8, 4)
            .run();
        assert_eq!(r.leaked, 0, "pending entries leaked at rate {rate}");
        assert_eq!(r.total(), 32, "unaccounted offloads at rate {rate}");
        println!(
            "{:>9.2} {:>5} {:>9} {:>5} {:>8} {:>8} {:>10}",
            rate, r.ok, r.timed_out, r.lost, r.refused, r.resends, r.evictions
        );
    }
}
