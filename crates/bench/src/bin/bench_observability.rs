//! Perf-trajectory runner for the flight recorder: proves the
//! observability layer is free where it must be and fast where it is
//! used, then writes `BENCH_PR9.json` to the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_observability`
//!
//! Two claims are gated:
//!
//! * **Recorder-off overhead** — the instrumentation is compiled in
//!   unconditionally (metric counters, per-operator meters), so the
//!   simulated device time of a query with the recorder off must stay
//!   within 1.10x of the same query fully traced. The hooks never touch
//!   the simulated clock, so the ratio is 1.00 by construction — the
//!   gate catches anyone who later puts instrumentation on the device
//!   clock.
//! * **Scrape throughput** — snapshotting the whole registry and
//!   rendering the Prometheus text must sustain ≥ 1 000 scrapes/s
//!   host-side, so polling the engine is never the bottleneck.

use std::time::Instant;

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_bench::{latency::min_query_ns, medical_fixture, Fixture};
use ghostdb_workload::paper_query;

const PRESCRIPTIONS: usize = 2_000;
const SCRAPES: usize = 2_000;

fn main() {
    let mut report = Report::new(
        9,
        "Flight recorder: query tracing, EXPLAIN ANALYZE, and an engine-wide metrics registry",
    );
    report.field(
        "workload",
        format!(
            "medical({PRESCRIPTIONS} prescriptions), paper query; {SCRAPES} Prometheus scrapes"
        ),
    );
    let Fixture { db, cfg } = medical_fixture(PRESCRIPTIONS).expect("build medical fixture");
    let sql = paper_query(cfg.date_start);

    // Phase 1: simulated device time, recorder off vs. fully traced.
    let off_ns = min_query_ns(&db, &sql, 5).expect("recorder-off query");
    db.set_tracing(true);
    let on_ns = min_query_ns(&db, &sql, 5).expect("recorder-on query");
    assert!(
        db.last_trace().is_some(),
        "tracing was on but recorded nothing"
    );
    db.set_tracing(false);
    report.result(
        "query_sim_ns",
        &[
            ("recorder_off", off_ns.into()),
            ("recorder_on", on_ns.into()),
        ],
    );
    report.gate_max(
        "recorder_off_overhead",
        fixed(off_ns as f64 / on_ns.max(1) as f64, 3),
        1.10,
    );

    // Host-side cost of the same toggle (informational, not gated:
    // wall-clock of a simulated device is dominated by the simulator).
    let host = |traced: bool| {
        db.set_tracing(traced);
        let t0 = Instant::now();
        for _ in 0..20 {
            db.query(&sql).expect("host-timing query");
        }
        db.set_tracing(false);
        fixed(t0.elapsed().as_secs_f64() / 20.0, 6)
    };
    report.result(
        "query_host_secs",
        &[("recorder_off", host(false)), ("recorder_on", host(true))],
    );

    // Phase 2: metrics scrape throughput (snapshot + Prometheus text).
    let t0 = Instant::now();
    for _ in 0..SCRAPES {
        std::hint::black_box(db.metrics_text());
    }
    let scrape_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let metrics_scrape_per_s = SCRAPES as f64 / scrape_secs;
    report.result(
        "metrics_scrape",
        &[
            ("count", SCRAPES.into()),
            ("host_secs", fixed(scrape_secs, 3)),
            ("per_s", fixed(metrics_scrape_per_s, 0)),
        ],
    );
    report
        .gate_min(
            "metrics_scrape_per_s",
            fixed(metrics_scrape_per_s, 0),
            1_000.0,
        )
        .finish("BENCH_PR9.json");
}
