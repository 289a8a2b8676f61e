//! EXP-F6 — Figure 6: the §4 example query under P1 (pre-filtering),
//! P2 (post-filtering, Figure 5) and the optimizer's best plan.
//!
//! Criterion measures host wall time of the full simulation; the
//! deterministic *simulated* times (the paper's metric) are reported by
//! `figures --exp f6` and written as CSV under `results/`.

use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};
use ghostdb_bench::{medical_fixture, Fixture};
use ghostdb_workload::paper_query;

const SCALE: usize = 20_000;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| medical_fixture(SCALE).expect("fixture"))
}

fn bench_f6(c: &mut Criterion) {
    let f = fixture();
    let sql = paper_query(f.mid_date());
    let spec = f.db.bind(&sql).expect("bind");
    let p1 = f.db.plan_pre(&spec);
    let p2 = f.db.plan_post(&spec);
    let best = f.db.plans_for(&spec).expect("plans").remove(0).plan;

    let mut g = c.benchmark_group("f6_paper_query");
    g.sample_size(10);
    g.bench_function("P1_pre_filtering", |b| {
        b.iter(|| f.db.query_with_plan(&sql, &p1).expect("run"))
    });
    g.bench_function("P2_post_filtering", |b| {
        b.iter(|| f.db.query_with_plan(&sql, &p2).expect("run"))
    });
    g.bench_function("optimizer_best", |b| {
        b.iter(|| f.db.query_with_plan(&sql, &best).expect("run"))
    });
    g.bench_function("optimize_only", |b| {
        b.iter(|| f.db.plans(&sql).expect("plans"))
    });
    g.finish();
}

criterion_group!(benches, bench_f6);
criterion_main!(benches);
