//! Seeded input generation. Everything a workload sends is built here,
//! before the timed region, from `--seed` and the workload name alone;
//! the program under test only ever sees the generated messages. The
//! generator is the benchmark's own (SplitMix64) so inputs cannot drift
//! when the repository's RNG stand-ins change.

/// SplitMix64 — tiny, seedable, and good enough for message mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// FNV-1a over a byte stream; the `input_digest` of a result file.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One generated offload.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// `whoami()` — no payload, answers the executing node's id.
    Whoami,
    /// `echo(data)` — answers `data`.
    Echo(Vec<u8>),
}

/// A message mix: `(weight, echo length)`; `None` is `whoami`.
pub type Mix = &'static [(u64, Option<usize>)];

/// The generated inputs of one run.
pub struct Script {
    /// Message workloads: waves of offloads, replayed cyclically.
    pub waves: Vec<Vec<Msg>>,
    /// `bulk_dma`: source arrays the put/get pairs cycle through.
    pub arrays: Vec<Vec<f64>>,
    /// Hash of everything above, in generation order.
    pub digest: u64,
}

fn stream(seed: u64, workload: &str) -> Rng {
    let mut d = Digest::new();
    d.update(workload.as_bytes());
    Rng::new(seed ^ d.finish())
}

/// `waves` waves of `width` messages drawn from `mix`.
pub fn message_script(seed: u64, workload: &str, waves: usize, width: usize, mix: Mix) -> Script {
    let mut rng = stream(seed, workload);
    let total: u64 = mix.iter().map(|m| m.0).sum();
    let mut digest = Digest::new();
    let waves = (0..waves)
        .map(|_| {
            (0..width)
                .map(|_| {
                    let mut pick = rng.below(total);
                    let mut echo_len = None;
                    for &(weight, len) in mix {
                        if pick < weight {
                            echo_len = len;
                            break;
                        }
                        pick -= weight;
                    }
                    match echo_len {
                        None => {
                            digest.update(&[0]);
                            Msg::Whoami
                        }
                        Some(len) => {
                            let data = rng.bytes(len);
                            digest.update(&[1]);
                            digest.update(&(len as u64).to_le_bytes());
                            digest.update(&data);
                            Msg::Echo(data)
                        }
                    }
                })
                .collect()
        })
        .collect();
    Script {
        waves,
        arrays: Vec::new(),
        digest: digest.finish(),
    }
}

/// `count` arrays of `len` finite `f64`s (so `==` verifies a round trip).
pub fn array_script(seed: u64, workload: &str, count: usize, len: usize) -> Script {
    let mut rng = stream(seed, workload);
    let mut digest = Digest::new();
    let arrays = (0..count)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    digest.update(&x.to_le_bytes());
                    x
                })
                .collect()
        })
        .collect();
    Script {
        waves: Vec::new(),
        arrays,
        digest: digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = &[(3, None), (1, Some(64))];

    #[test]
    fn same_seed_same_inputs() {
        let a = message_script(7, "w", 8, 64, MIX);
        let b = message_script(7, "w", 8, 64, MIX);
        assert_eq!(a.waves, b.waves);
        assert_eq!(a.digest, b.digest);
        let c = array_script(7, "w", 2, 100);
        assert_eq!(c.arrays, array_script(7, "w", 2, 100).arrays);
        assert_eq!(c.digest, array_script(7, "w", 2, 100).digest);
    }

    #[test]
    fn seed_and_workload_change_inputs() {
        let a = message_script(7, "w", 8, 64, MIX);
        assert_ne!(a.digest, message_script(8, "w", 8, 64, MIX).digest);
        assert_ne!(a.digest, message_script(7, "v", 8, 64, MIX).digest);
    }

    #[test]
    fn mix_weights_are_respected() {
        let s = message_script(1, "w", 64, 64, MIX);
        let echoes = s
            .waves
            .iter()
            .flatten()
            .filter(|m| matches!(m, Msg::Echo(d) if d.len() == 64))
            .count();
        let share = echoes as f64 / (64.0 * 64.0);
        assert!((share - 0.25).abs() < 0.03, "echo share {share}");
    }

    #[test]
    fn arrays_are_finite_unit_interval() {
        let s = array_script(3, "w", 1, 1000);
        assert!(s.arrays[0].iter().all(|x| (0.0..1.0).contains(x)));
    }
}
