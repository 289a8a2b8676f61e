//! A cache-line-blocked Bloom filter.
//!
//! The classic filter in `lib.rs` spreads its `k` probe positions over
//! the whole bit array, so a probe costs up to `k` cache misses (and, on
//! the modelled device, `k` dependent RAM touches). The blocked variant
//! confines all `k` bits of a key to **one 64-byte block**: a single
//! `mix64`-derived block pick lands the cache line, then `k` bit
//! positions inside the 512-bit block are derived from a second hash.
//! One miss per probe instead of `k`, at the price of a slightly higher
//! false-positive rate for the same geometry (the per-block load
//! varies; see Putze/Sanders/Singler, "Cache-, Hash- and Space-Efficient
//! Bloom Filters", WEA 2007).
//!
//! The executor's Post-filtering path builds and probes these in batches
//! ([`BlockedBloomFilter::insert_batch`] /
//! [`BlockedBloomFilter::probe_batch`]) so hash mixing and the
//! bounds/branch overhead amortize across a block of candidates. RAM is
//! charged to the device budget exactly like the classic filter.

use ghostdb_ram::{RamScope, ScopedGuard};
use ghostdb_types::{GhostError, Result};

use crate::{mix64, optimal_bits, optimal_hashes, theoretical_fpr};

/// Bytes per filter block: one cache line.
pub const BLOOM_BLOCK_BYTES: usize = 64;
/// Bits per filter block.
pub const BLOOM_BLOCK_BITS: usize = BLOOM_BLOCK_BYTES * 8;
const WORDS_PER_BLOCK: usize = BLOOM_BLOCK_BYTES / 8;

/// One filter block, aligned so that it fills exactly one cache line
/// (a `Vec<u64>` is only 16-byte aligned, so most of its 64-byte blocks
/// would straddle two lines and a probe would touch both).
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct Block([u64; WORDS_PER_BLOCK]);

/// A blocked Bloom filter over 64-bit keys, RAM-charged to the device.
#[derive(Debug)]
pub struct BlockedBloomFilter {
    blocks: Vec<Block>,
    k: u32,
    inserted: u64,
    _ram: ScopedGuard,
}

impl BlockedBloomFilter {
    /// Build with explicit geometry: at least `m_bits` bits (rounded up
    /// to whole 512-bit blocks), `k` bits set per key. `k` is clamped to
    /// `[1, 8]` — one bit per 64-bit word of the block, the split-block
    /// scheme — because extra bits inside one cache line stop paying for
    /// themselves past that.
    pub fn with_params(scope: &RamScope, m_bits: usize, k: u32) -> Result<Self> {
        if m_bits == 0 || k == 0 {
            return Err(GhostError::exec("bloom filter needs m>0, k>0"));
        }
        let blocks = m_bits.div_ceil(BLOOM_BLOCK_BITS).max(1);
        let guard = scope.alloc(blocks * BLOOM_BLOCK_BYTES)?;
        Ok(BlockedBloomFilter {
            blocks: vec![Block::default(); blocks],
            k: k.clamp(1, WORDS_PER_BLOCK as u32),
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

    /// Build the *largest* filter that fits in `ram_limit` bytes, with
    /// the hash count optimal for `n` expected keys — how Post-filtering
    /// adapts to whatever RAM the rest of the plan left available.
    pub fn within_ram(scope: &RamScope, n: usize, ram_limit: usize) -> Result<Self> {
        let m = (ram_limit.max(BLOOM_BLOCK_BYTES) * 8).min(optimal_bits(n, 1e-6));
        let k = optimal_hashes(m, n);
        Self::with_params(scope, m, k)
    }

    /// `(the key's block, bit-position hash)`: bit `i`
    /// lives in word `(start + i) & 7` — `start` from the hash's top
    /// bits, so **every** word of the block carries load even at small
    /// `k` — at shift `(h2 >> 6i) & 63`. The whole probe is shifts and
    /// masks: no modulo, no data-dependent branches.
    #[inline]
    fn locate(&self, key: u64) -> (usize, u64) {
        let h1 = mix64(key);
        // Multiply-shift block pick from the high-quality top bits.
        let block = ((h1 as u128 * self.blocks.len() as u128) >> 64) as usize;
        (block, mix64(key ^ 0xA5A5_A5A5_5A5A_5A5A))
    }

    /// Insert a key.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        let (b, h2) = self.locate(key);
        let start = (h2 >> 60) as usize;
        // Fixed-size array: the compiler sees `(start+i) % 8 < 8` and
        // drops every bounds check from the hot loop.
        let block = &mut self.blocks[b].0;
        for i in 0..self.k as usize {
            block[(start + i) % WORDS_PER_BLOCK] |= 1u64 << ((h2 >> (6 * i)) & 63);
        }
        self.inserted += 1;
    }

    /// Membership test: false means *definitely absent*; true means
    /// *probably present*.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let (b, h2) = self.locate(key);
        let start = (h2 >> 60) as usize;
        let block = &self.blocks[b].0;
        // Branchless: fold the k bit tests, then one predictable check.
        let mut hit = 1u64;
        for i in 0..self.k as usize {
            hit &= block[(start + i) % WORDS_PER_BLOCK] >> ((h2 >> (6 * i)) & 63);
        }
        hit & 1 == 1
    }

    /// Insert every key of a batch.
    pub fn insert_batch(&mut self, keys: &[u64]) {
        for &key in keys {
            self.insert(key);
        }
    }

    /// Probe a batch: `hits` is cleared and refilled with one bool per
    /// key, in order.
    pub fn probe_batch(&self, keys: &[u64], hits: &mut Vec<bool>) {
        hits.clear();
        hits.reserve(keys.len());
        hits.extend(keys.iter().map(|&key| self.contains(key)));
    }

    /// Number of bit positions set per key.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Size of the bit array in bits.
    pub fn m_bits(&self) -> usize {
        self.blocks.len() * BLOOM_BLOCK_BITS
    }

    /// Heap bytes held by the bit array.
    pub fn bytes(&self) -> usize {
        self.blocks.len() * BLOOM_BLOCK_BYTES
    }

    /// Keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Fraction of bits set.
    pub fn fill_ratio(&self) -> f64 {
        let words = self.blocks.iter().flat_map(|b| b.0);
        let set: u64 = words.map(|w| w.count_ones() as u64).sum();
        set as f64 / self.m_bits() as f64
    }

    /// Approximate false-positive rate at the current load. Uses the
    /// classic formula; the blocked layout's true rate is slightly
    /// higher because per-block load varies around the mean.
    pub fn estimated_fpr(&self) -> f64 {
        theoretical_fpr(self.m_bits(), self.k, self.inserted)
    }

    /// Merge another filter with identical geometry.
    pub fn union(&mut self, other: &BlockedBloomFilter) -> Result<()> {
        if self.blocks.len() != other.blocks.len() || self.k != other.k {
            return Err(GhostError::exec(format!(
                "bloom union geometry mismatch: {}x{} vs {}x{}",
                self.m_bits(),
                self.k,
                other.m_bits(),
                other.k
            )));
        }
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            for (x, y) in a.0.iter_mut().zip(b.0) {
                *x |= y;
            }
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
        let mut f = BlockedBloomFilter::for_capacity(&s, 10_000, 0.01).unwrap();
        for i in 0..10_000u64 {
            f.insert(i * 7 + 3);
        }
        for i in 0..10_000u64 {
            assert!(f.contains(i * 7 + 3), "false negative for {i}");
        }
    }

    #[test]
    fn batch_apis_match_scalar() {
        let s = scope(64 * 1024);
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 11 + 1).collect();
        let probes: Vec<u64> = (0..20_000u64).collect();
        let mut scalar = BlockedBloomFilter::with_params(&s, 60_000, 6).unwrap();
        for &k in &keys {
            scalar.insert(k);
        }
        let mut batched = BlockedBloomFilter::with_params(&s, 60_000, 6).unwrap();
        batched.insert_batch(&keys);
        assert_eq!(scalar.inserted(), batched.inserted());
        let mut hits = Vec::new();
        batched.probe_batch(&probes, &mut hits);
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(hits[i], scalar.contains(p), "probe {p}");
        }
    }

    #[test]
    fn fpr_reasonable_for_blocked_layout() {
        let s = scope(64 * 1024);
        // ~12 bits/key: classic theory says ~0.4% at k=7; blocked pays a
        // modest penalty but must stay within a small factor.
        let mut f = BlockedBloomFilter::with_params(&s, 60_000, 6).unwrap();
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
        assert!(observed < 0.03, "observed blocked fpr {observed}");
    }

    #[test]
    fn small_k_still_loads_every_word() {
        // k = 1 must not park all bits in word 0: the rotated start word
        // spreads load so the whole RAM-charged block carries capacity.
        let s = scope(64 * 1024);
        let mut f = BlockedBloomFilter::with_params(&s, BLOOM_BLOCK_BITS, 1).unwrap();
        for key in 0..4_000u64 {
            f.insert(key);
        }
        // One block, 8 words: with 4000 keys each word must have bits.
        assert!(f.fill_ratio() > 0.5, "fill {}", f.fill_ratio());
    }

    #[test]
    fn ram_is_charged_and_capped() {
        let budget = RamBudget::new(1024);
        let s = RamScope::new(&budget);
        let f = BlockedBloomFilter::with_params(&s, 512 * 8, 4).unwrap();
        assert_eq!(budget.used(), 512);
        assert_eq!(f.bytes(), 512);
        assert!(BlockedBloomFilter::with_params(&s, 1024 * 8, 4).is_err());
        drop(f);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn within_ram_respects_limit() {
        let s = scope(64 * 1024);
        let f = BlockedBloomFilter::within_ram(&s, 1_000_000, 16 * 1024).unwrap();
        assert!(f.bytes() <= 16 * 1024 + BLOOM_BLOCK_BYTES);
        assert!(f.k() >= 1);
    }

    #[test]
    fn union_combines_members() {
        let s = scope(64 * 1024);
        let mut a = BlockedBloomFilter::with_params(&s, 4096, 5).unwrap();
        let mut b = BlockedBloomFilter::with_params(&s, 4096, 5).unwrap();
        a.insert(1);
        b.insert(2);
        a.union(&b).unwrap();
        assert!(a.contains(1) && a.contains(2));
        let c = BlockedBloomFilter::with_params(&s, 4096 + BLOOM_BLOCK_BITS, 5).unwrap();
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn degenerate_params_rejected() {
        let s = scope(1024);
        assert!(BlockedBloomFilter::with_params(&s, 0, 3).is_err());
        assert!(BlockedBloomFilter::with_params(&s, 64, 0).is_err());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let s = scope(1024);
        let f = BlockedBloomFilter::with_params(&s, 4096, 3).unwrap();
        for i in 0..1000u64 {
            assert!(!f.contains(i));
        }
        assert_eq!(f.fill_ratio(), 0.0);
    }
}
