//! Perf-trajectory runner for the post-load write path: measures insert
//! throughput, query latency on un-flushed deltas vs. after the merge,
//! and the flash write amplification of a delta flush, then writes
//! `BENCH_PR3.json` to the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_inserts`
//!
//! Workload: a two-table tree (Customer ← Purchase) with hidden CHAR +
//! INTEGER columns. Base-load 8 000 purchases, trickle-insert 2 000 more
//! (some carrying item strings outside the base dictionary, so the
//! delta-dictionary path is on the measured path), query against the
//! RAM delta, then force the LSM merge and query again.

use std::time::Instant;

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_bench::latency::min_query_ns;
use ghostdb_bench::purchases::{self, HIDDEN_ROW_BYTES, PROBE};
use ghostdb_core::GhostDb;
use ghostdb_types::DeviceConfig;

const BASE_ROWS: i64 = 8_000;
const INSERT_ROWS: i64 = 2_000;

fn main() {
    let mut report = Report::new(
        3,
        "Mutable GhostDB: post-load write path with LSM-style delta indexes",
    );
    report.field(
        "workload",
        format!(
            "Customer(64) <- Purchase(8000 base + 2000 inserted, 20% fresh dict strings), \
             batches of {}",
            purchases::BATCH
        ),
    );
    // Manual flush only: the bench controls the merge point.
    let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
    let data = purchases::dataset(BASE_ROWS).expect("dataset");
    let mut db = GhostDb::create(purchases::DDL, config, &data).expect("build");
    let base_ns = min_query_ns(&db, PROBE, 3).expect("base query");

    // Phase 1: insert throughput (host wall time; the simulated clock
    // tracks device/bus costs separately). The insert pool is wider
    // than the base pool, so the delta-dictionary path is measured.
    let t0 = Instant::now();
    purchases::append(&mut db, BASE_ROWS, INSERT_ROWS).expect("insert batches");
    let insert_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let inserts_per_s = INSERT_ROWS as f64 / insert_secs;
    assert_eq!(db.delta_rows(), INSERT_ROWS as u64);
    report.result(
        "insert_throughput",
        &[
            ("rows", INSERT_ROWS.into()),
            ("host_secs", fixed(insert_secs, 3)),
            ("rows_per_s", fixed(inserts_per_s, 0)),
        ],
    );

    // Phase 2: query latency on the un-flushed delta.
    let delta_ns = min_query_ns(&db, PROBE, 3).expect("delta query");

    // Phase 3: the merge, and its flash write amplification.
    let before = db.volume().nand().stats();
    let t0 = Instant::now();
    let merged = db.flush_deltas().expect("flush");
    let flush_secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(merged, INSERT_ROWS as u64);
    let flush_stats = db.volume().nand().stats().since(&before);
    let merge_write_amp = flush_stats.bytes_programmed as f64 / (merged * HIDDEN_ROW_BYTES) as f64;

    // Phase 4: query latency after the merge.
    let flushed_ns = min_query_ns(&db, PROBE, 3).expect("flushed query");
    let delta_query_slowdown = delta_ns as f64 / flushed_ns as f64;
    report
        .result(
            "query_latency_sim_ns",
            &[
                ("base", base_ns.into()),
                ("delta", delta_ns.into()),
                ("flushed", flushed_ns.into()),
            ],
        )
        .result(
            "delta_merge",
            &[
                ("rows_merged", merged.into()),
                ("bytes_programmed", flush_stats.bytes_programmed.into()),
                ("host_secs", fixed(flush_secs, 3)),
            ],
        );

    // Gates. Throughput has wide margin over any host this runs on;
    // querying a RAM delta must stay within 4x of the merged layout;
    // the merge rewrites base + delta + indexes, so amplification is
    // bounded but not tiny — the gate catches runaway rewrites.
    report
        .gate_min("inserts_per_s", fixed(inserts_per_s, 0), 2_000.0)
        .gate_max("delta_query_slowdown", fixed(delta_query_slowdown, 2), 4.0)
        .gate_max("merge_write_amp", fixed(merge_write_amp, 1), 30.0)
        .finish("BENCH_PR3.json");
}
