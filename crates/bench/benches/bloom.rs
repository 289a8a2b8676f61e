//! EXP-B2 — Bloom filter micro-costs: build and probe throughput at the
//! sizes Post-filtering uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ghostdb_bloom::BloomFilter;
use ghostdb_ram::{RamBudget, RamScope};

fn bench_bloom(c: &mut Criterion) {
    let ram = RamBudget::new(1 << 20);
    let scope = RamScope::new(&ram);

    let mut g = c.benchmark_group("bloom");
    for &n in &[1_000usize, 10_000, 100_000] {
        g.bench_with_input(BenchmarkId::new("build", n), &n, |b, &n| {
            b.iter(|| {
                let mut f = BloomFilter::for_capacity(&scope, n, 0.01).expect("bloom");
                for i in 0..n as u64 {
                    f.insert(i);
                }
                f
            })
        });
        let mut filled = BloomFilter::for_capacity(&scope, n, 0.01).expect("bloom");
        for i in 0..n as u64 {
            filled.insert(i);
        }
        g.bench_with_input(BenchmarkId::new("probe_hit", n), &n, |b, &n| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % n as u64;
                filled.contains(i)
            })
        });
        g.bench_with_input(BenchmarkId::new("probe_miss", n), &n, |b, &n| {
            let mut i = n as u64;
            b.iter(|| {
                i += 1;
                filled.contains(i)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bloom);
criterion_main!(benches);
