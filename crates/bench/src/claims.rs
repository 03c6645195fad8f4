//! §V textual claims, each checked against a fresh measurement.
//!
//! `repro_claims` prints one PASS/FAIL line per claim; the aggregate is
//! what EXPERIMENTS.md records.

use crate::fig10;
use crate::fig9;
use crate::harness::BenchConfig;

/// A checked claim.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The claim, paraphrased from §V.
    pub(crate) text: String,
    /// Whether the reproduction satisfies it.
    pub(crate) ok: bool,
}

/// Evaluate every claim. Expensive: runs Fig. 9 and the Fig. 10 sweep.
pub fn run(cfg: &BenchConfig) -> Vec<Claim> {
    let mut claims = Vec::new();

    // Fig. 9 claims.
    let rows = fig9::run(cfg);
    for r in &rows {
        if let Some(p) = r.paper {
            claims.push(Claim {
                text: format!(
                    "Fig.9 {}: {:.2}{} (paper {:.2})",
                    r.label, r.value, r.unit, p
                ),
                ok: (r.value - p).abs() / p < 0.10,
            });
        }
    }

    // Fig. 10 shape claims.
    let sweep_cfg = BenchConfig {
        max_transfer: cfg.max_transfer.max(64 << 20),
        ..*cfg
    };
    let rows = fig10::run(&sweep_cfg);
    for (text, ok) in fig10::check_shape(&rows) {
        claims.push(Claim {
            text: format!("Fig.10 {text}"),
            ok,
        });
    }
    claims
}

/// Render claims as a PASS/FAIL report; returns `(report, all_passed)`.
pub fn render(claims: &[Claim]) -> (String, bool) {
    let mut out = String::new();
    let mut all = true;
    for c in claims {
        let tag = if c.ok { "PASS" } else { "FAIL" };
        all &= c.ok;
        out.push_str(&format!("[{tag}] {}\n", c.text));
    }
    let passed = claims.iter().filter(|c| c.ok).count();
    out.push_str(&format!("\n{passed}/{} claims reproduced\n", claims.len()));
    (out, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_counts() {
        let claims = vec![
            Claim {
                text: "a".into(),
                ok: true,
            },
            Claim {
                text: "b".into(),
                ok: false,
            },
        ];
        let (report, all) = render(&claims);
        assert!(!all);
        assert!(report.contains("[PASS] a"));
        assert!(report.contains("[FAIL] b"));
        assert!(report.contains("1/2"));
    }
}
