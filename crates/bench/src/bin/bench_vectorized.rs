//! Perf-trajectory runner: measures the scalar vs blocked device
//! pipeline (merge-intersect and Bloom probe) on host wall time and
//! writes `BENCH_PR1.json` to the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_vectorized`
//!
//! The acceptance gates for PR 1 are ≥3x on the 10^5-id merge with 1%
//! overlap and ≥2x on the 10^5-key Bloom probe, both against the seed's
//! scalar operators measured in the same run.

use std::time::Instant;

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_bench::vectorized::{
    bloom_blocked_filter, bloom_keys, bloom_scalar_filter, bloom_scope, merge_blocked,
    merge_scalar, overlapping_lists, probe_blocked, probe_scalar,
};

/// Median wall-ns of one payload execution (repeats until the sample
/// set cost ~0.2 s, at least 5 samples).
fn measure<F: FnMut() -> u64>(mut f: F) -> f64 {
    // Warmup + cost estimate.
    let t0 = Instant::now();
    let mut guard = std::hint::black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let samples = ((0.2 / once) as usize).clamp(5, 1_000);
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        guard ^= std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    std::hint::black_box(guard);
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    times[times.len() / 2]
}

/// Record one scalar-vs-blocked result row; returns the speedup.
fn record(report: &mut Report, name: &str, n: usize, scalar_ns: f64, blocked_ns: f64) -> f64 {
    let speedup = scalar_ns / blocked_ns;
    report.result(
        name,
        &[
            ("n", n.into()),
            ("scalar_ns", fixed(scalar_ns, 0)),
            ("blocked_ns", fixed(blocked_ns, 0)),
            ("scalar_ns_per_item", fixed(scalar_ns / n as f64, 2)),
            ("blocked_ns_per_item", fixed(blocked_ns / n as f64, 2)),
            ("speedup", fixed(speedup, 2)),
        ],
    );
    speedup
}

fn main() {
    let mut report = Report::new(
        1,
        "Vectorize the device pipeline: block-based id streams, galloping merge-intersect, \
         and a cache-blocked Bloom filter",
    );
    report.field("block_cap", ghostdb_types::BLOCK_CAP).field(
        "payload",
        "run-structured posting lists (~97-id runs), 50/50 hit-miss bloom probes",
    );

    for &n in &[10_000usize, 100_000, 1_000_000] {
        let (a, b) = overlapping_lists(n, 0.01);
        let scalar_ns = measure(|| merge_scalar(&a, &b).expect("merge"));
        let blocked_ns = measure(|| merge_blocked(&a, &b).expect("merge"));
        let speedup = record(
            &mut report,
            "merge_intersect_1pct_overlap",
            n,
            scalar_ns,
            blocked_ns,
        );
        if n == 100_000 {
            report.gate_min("merge_speedup_100k", fixed(speedup, 2), 3.0);
        }
    }

    let scope = bloom_scope();
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let (members, probes) = bloom_keys(n);
        // Both filters sized for 1% fpr (k = 7): the comparison isolates
        // probe cost at equal quality — k scattered cache lines for the
        // bit array vs one line for the blocked layout.
        let scalar_f = bloom_scalar_filter(&members, &scope).expect("bloom");
        let blocked_f = bloom_blocked_filter(&members, &scope).expect("bloom");
        let mut hits = Vec::new();
        let scalar_ns = measure(|| probe_scalar(&scalar_f, &probes));
        let blocked_ns = measure(|| probe_blocked(&blocked_f, &probes, &mut hits));
        let speedup = record(
            &mut report,
            "bloom_probe_1pct_fpr",
            n,
            scalar_ns,
            blocked_ns,
        );
        if n == 100_000 {
            report.gate_min("bloom_speedup_100k", fixed(speedup, 2), 2.0);
        }
    }

    report.finish("BENCH_PR1.json");
}
