//! Bloom filters for the Post-filtering strategy.
//!
//! Paper §4: "the Bloom filter is a probabilistic bit array data structure
//! used to test whether an element is a member of a set. The two
//! properties of Bloom filters are compactness and a very low false
//! positive rate, making them well adapted to RAM-constrained
//! environments."
//!
//! In a Post-filtering plan the device asks the PC to evaluate an
//! unselective *visible* predicate, inserts the returned row ids into a
//! Bloom filter sized to fit the 64 KB RAM budget, and probes the filter
//! while streaming the rows produced by the hidden joins. False positives
//! are tolerable because the final projection merge-join against the
//! PC-supplied `(id, value)` pairs drops them exactly (see
//! `ghostdb-exec`), so every strategy returns identical results.
//!
//! The bit array is charged to the device RAM budget through a
//! [`ghostdb_ram::RamScope`]; sizing helpers implement the standard
//! optimal-parameter formulas from Bloom's 1970 paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ghostdb_ram::{RamScope, ScopedGuard};
use ghostdb_types::{GhostError, Result};

mod blocked;

pub use blocked::{BlockedBloomFilter, BLOOM_BLOCK_BITS, BLOOM_BLOCK_BYTES};

/// SplitMix64 finalizer — cheap, well-distributed 64-bit mixing, the kind
/// of arithmetic a smartcard CPU can do quickly.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Optimal number of bits for `n` keys at false-positive rate `fpr`:
/// `m = -n ln p / (ln 2)^2`.
///
/// Degenerate inputs are clamped rather than rejected, because the
/// optimizer reaches this from cardinality *estimates*: `n = 0` sizes as
/// `n = 1`, `fpr` outside `(0, 1)` (including NaN) is clamped to
/// `[1e-9, 0.5]`, and the result is always at least 64 bits.
pub fn optimal_bits(n: usize, fpr: f64) -> usize {
    let fpr = if fpr.is_finite() {
        fpr.clamp(1e-9, 0.5)
    } else {
        0.5
    };
    let ln2sq = std::f64::consts::LN_2 * std::f64::consts::LN_2;
    (((-(n.max(1) as f64) * fpr.ln()) / ln2sq).ceil() as usize).max(64)
}

/// Optimal number of hash functions for `m` bits and `n` keys:
/// `k = (m/n) ln 2`, clamped to `[1, 16]`. `n = 0` counts as `n = 1`;
/// `m_bits = 0` yields the minimum `k = 1`.
pub fn optimal_hashes(m_bits: usize, n: usize) -> u32 {
    let k = (m_bits as f64 / n.max(1) as f64) * std::f64::consts::LN_2;
    (k.round() as u32).clamp(1, 16)
}

/// Theoretical false-positive rate after `n` inserts into `m` bits with
/// `k` hashes: `(1 - e^{-kn/m})^k`.
pub fn theoretical_fpr(m_bits: usize, k: u32, n: u64) -> f64 {
    if m_bits == 0 {
        return 1.0;
    }
    let exponent = -((k as f64) * (n as f64) / (m_bits as f64));
    (1.0 - exponent.exp()).powi(k as i32)
}

/// A classic Bloom filter over 64-bit keys, RAM-charged to the device.
#[derive(Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m_bits: usize,
    k: u32,
    inserted: u64,
    _ram: ScopedGuard,
}

impl BloomFilter {
    /// Build with explicit geometry: `m_bits` bits, `k` hash functions.
    pub fn with_params(scope: &RamScope, m_bits: usize, k: u32) -> Result<Self> {
        if m_bits == 0 || k == 0 {
            return Err(GhostError::exec("bloom filter needs m>0, k>0"));
        }
        let words = m_bits.div_ceil(64);
        let guard = scope.alloc(words * 8)?;
        Ok(BloomFilter {
            bits: vec![0; words],
            m_bits,
            k,
            inserted: 0,
            _ram: guard,
        })
    }

    /// Build sized for `n` expected keys at `target_fpr`, subject to the
    /// RAM the scope can grant.
    pub fn for_capacity(scope: &RamScope, n: usize, target_fpr: f64) -> Result<Self> {
        let m = optimal_bits(n, target_fpr);
        let k = optimal_hashes(m, n);
        Self::with_params(scope, m, k)
    }

    /// Build the *largest* filter that fits in `ram_limit` bytes, with the
    /// hash count optimal for `n` expected keys. This is how Post-filtering
    /// adapts to whatever RAM the rest of the plan left available.
    pub fn within_ram(scope: &RamScope, n: usize, ram_limit: usize) -> Result<Self> {
        let m = (ram_limit.max(8) * 8).min(optimal_bits(n, 1e-6));
        let k = optimal_hashes(m, n);
        Self::with_params(scope, m, k)
    }

    #[inline]
    fn positions(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let h1 = mix64(key);
        // Force h2 odd so the probe sequence spans the table.
        let h2 = mix64(key ^ 0xA5A5_A5A5_5A5A_5A5A) | 1;
        let m = self.m_bits as u64;
        (0..self.k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        let m = self.m_bits as u64;
        let h1 = mix64(key);
        let h2 = mix64(key ^ 0xA5A5_A5A5_5A5A_5A5A) | 1;
        for i in 0..self.k as u64 {
            let pos = (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize;
            self.bits[pos / 64] |= 1 << (pos % 64);
        }
        self.inserted += 1;
    }

    /// Membership test: false means *definitely absent*; true means
    /// *probably present*.
    pub fn contains(&self, key: u64) -> bool {
        self.positions(key)
            .all(|pos| self.bits[pos / 64] & (1 << (pos % 64)) != 0)
    }

    /// Number of hash functions (the executor charges `k` hash costs per
    /// probe/insert).
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Size of the bit array in bits.
    pub fn m_bits(&self) -> usize {
        self.m_bits
    }

    /// Heap bytes held by the bit array.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Fraction of bits set.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.m_bits as f64
    }

    /// Theoretical false-positive rate at the current load.
    pub fn estimated_fpr(&self) -> f64 {
        theoretical_fpr(self.m_bits, self.k, self.inserted)
    }

    /// Merge another filter with identical geometry (used by
    /// Cross-filtering when two visible predicates feed one probe).
    pub fn union(&mut self, other: &BloomFilter) -> Result<()> {
        if self.m_bits != other.m_bits || self.k != other.k {
            return Err(GhostError::exec(format!(
                "bloom union geometry mismatch: {}x{} vs {}x{}",
                self.m_bits, self.k, other.m_bits, other.k
            )));
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
        self.inserted += other.inserted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_ram::RamBudget;

    fn scope(bytes: usize) -> RamScope {
        RamScope::new(&RamBudget::new(bytes))
    }

    #[test]
    fn no_false_negatives() {
        let s = scope(64 * 1024);
        let mut f = BloomFilter::for_capacity(&s, 10_000, 0.01).unwrap();
        for i in 0..10_000u64 {
            f.insert(i * 7 + 3);
        }
        for i in 0..10_000u64 {
            assert!(f.contains(i * 7 + 3), "false negative for {i}");
        }
    }

    #[test]
    fn fpr_near_theory() {
        let s = scope(64 * 1024);
        let mut f = BloomFilter::for_capacity(&s, 5_000, 0.01).unwrap();
        for i in 0..5_000u64 {
            f.insert(i);
        }
        let mut fp = 0u32;
        let probes = 50_000u64;
        for i in 5_000..5_000 + probes {
            if f.contains(i) {
                fp += 1;
            }
        }
        let observed = fp as f64 / probes as f64;
        assert!(
            observed < 0.03,
            "observed fpr {observed} far above 1% target"
        );
        let est = f.estimated_fpr();
        assert!((est - 0.01).abs() < 0.01, "estimate {est} off");
    }

    #[test]
    fn ram_is_charged_and_capped() {
        let budget = RamBudget::new(1024);
        let s = RamScope::new(&budget);
        let f = BloomFilter::with_params(&s, 512 * 8, 4).unwrap();
        assert_eq!(budget.used(), 512);
        assert_eq!(f.bytes(), 512);
        // A second filter of the same size would exceed the 1 KB budget.
        assert!(BloomFilter::with_params(&s, 1024 * 8, 4).is_err());
        drop(f);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn within_ram_respects_limit() {
        let s = scope(64 * 1024);
        let f = BloomFilter::within_ram(&s, 1_000_000, 16 * 1024).unwrap();
        assert!(f.bytes() <= 16 * 1024 + 8);
        assert!(f.k() >= 1);
    }

    #[test]
    fn sizing_formulas() {
        // Textbook: 1% fpr needs ~9.59 bits/key, k ~ 7.
        let m = optimal_bits(1000, 0.01);
        assert!((9_500..=9_700).contains(&m), "m = {m}");
        assert_eq!(optimal_hashes(m, 1000), 7);
        // Degenerate inputs stay sane.
        assert!(optimal_bits(0, 0.01) > 0);
        assert_eq!(optimal_hashes(8, 1_000_000), 1);
    }

    #[test]
    fn sizing_survives_degenerate_planner_inputs() {
        // These are reachable from query planning with zero-row estimates
        // and saturated selectivities; none may panic.
        assert!(optimal_bits(0, 1.0) >= 64);
        assert!(optimal_bits(0, 0.0) >= 64);
        assert!(optimal_bits(10, -3.0) >= 64);
        assert!(optimal_bits(10, f64::NAN) >= 64);
        assert!(optimal_bits(10, f64::INFINITY) >= 64);
        // fpr ~ 1.0 clamps to 0.5: one bit per key territory, never zero.
        let m = optimal_bits(1000, 0.999_999);
        assert!(m >= 1000, "m = {m}");
        assert_eq!(optimal_hashes(0, 0), 1);
        assert_eq!(optimal_hashes(usize::MAX / 2, 1), 16);
        // A filter built from fully degenerate sizing still works.
        let s = scope(64 * 1024);
        let f = BloomFilter::with_params(&s, optimal_bits(0, 1.0), optimal_hashes(0, 0)).unwrap();
        assert!(!f.contains(42));
    }

    #[test]
    fn union_combines_members() {
        let s = scope(64 * 1024);
        let mut a = BloomFilter::with_params(&s, 4096, 5).unwrap();
        let mut b = BloomFilter::with_params(&s, 4096, 5).unwrap();
        a.insert(1);
        b.insert(2);
        a.union(&b).unwrap();
        assert!(a.contains(1) && a.contains(2));
        let c = BloomFilter::with_params(&s, 2048, 5).unwrap();
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let s = scope(1024);
        let f = BloomFilter::with_params(&s, 1024, 3).unwrap();
        for i in 0..1000u64 {
            assert!(!f.contains(i));
        }
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn degenerate_params_rejected() {
        let s = scope(1024);
        assert!(BloomFilter::with_params(&s, 0, 3).is_err());
        assert!(BloomFilter::with_params(&s, 64, 0).is_err());
    }
}
