//! Order statistics, the verdict digest, and a seed splitter.

/// Median and quartiles of a sample (linear interpolation between order
/// statistics), with the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: quantile_sorted(&v, 0.5),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            n: v.len(),
        }
    }
}

/// The `q` quantile of an ascending sample; 0 for an empty one.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Sorts a pooled `f32` sample in place and returns its `q` quantiles.
pub fn quantiles_f32<const N: usize>(sample: &mut [f32], qs: [f64; N]) -> [f64; N] {
    sample.sort_by(f32::total_cmp);
    qs.map(|q| match sample.len() {
        0 => 0.0,
        n => sample[((q * (n - 1) as f64).round() as usize).min(n - 1)] as f64,
    })
}

/// FNV-1a over `u64` words: the verdict digest compared across segments,
/// runs and the traced composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: derives the scene, classifier, phase and loss seeds of a
/// workload from the one `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct SeedMix(u64);

impl SeedMix {
    pub fn new(seed: u64, salt: u64) -> SeedMix {
        SeedMix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
