//! Perf-trajectory runner for the mutation path (PR 5): measures delete
//! and update throughput, query latency while tombstones are resident
//! vs. the compacted layout, and — the headline — how much flash a
//! post-delete flush actually reclaims, then writes `BENCH_PR5.json`
//! to the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_mutations`
//!
//! Workload: the shared [`ghostdb_bench::purchases`] tree
//! (Customer ← Purchase), base-loaded with 8 000 purchases and merged.
//! Then: delete 2 000 purchases in batches of 100, update 1 000 more
//! (rewriting a dict string and a fixed column), query against the
//! tombstone-resident state, and finally force the compacting flush —
//! measuring the live-page footprint before/after and driving the GC
//! until the freed segments are erased back to the free list.

use std::time::Instant;

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_bench::latency::min_query_ns;
use ghostdb_bench::purchases::{self, BATCH, HIDDEN_ROW_BYTES, PROBE, PURCHASE};
use ghostdb_core::GhostDb;
use ghostdb_ram::RamScope;
use ghostdb_types::{ColumnId, DeviceConfig, RowId, Value};

const BASE_ROWS: i64 = 8_000;
const DELETE_ROWS: i64 = 2_000;
const UPDATE_ROWS: i64 = 1_000;

fn main() {
    let mut report = Report::new(
        5,
        "Full DML: tombstone-aware DELETE/UPDATE with flush-time compaction",
    );
    report.field(
        "workload",
        format!(
            "Customer(64) <- Purchase(8000 base, merged; 2000 deleted, 1000 updated in \
             batches of {BATCH})"
        ),
    );
    // Manual flush only: the bench controls the compaction point.
    let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
    let data = purchases::dataset(BASE_ROWS).expect("dataset");
    let mut db = GhostDb::create(purchases::DDL, config, &data).expect("build");
    let merged_ns = min_query_ns(&db, PROBE, 3).expect("merged query");

    // Phase 1: delete throughput (host wall time). Purchases are the
    // tree root, so nothing references them — RESTRICT never fires.
    // Each batch removes the current tail [6000, 6100): the logical id
    // space re-densifies after every batch, so the same range empties
    // the last 2 000 rows overall.
    let t0 = Instant::now();
    for _ in 0..(DELETE_ROWS as usize / BATCH) {
        let start = (BASE_ROWS - DELETE_ROWS) as u32;
        let batch: Vec<RowId> = (start..start + BATCH as u32).map(RowId).collect();
        db.delete_rows(PURCHASE, batch).expect("delete batch");
    }
    let delete_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let deletes_per_s = DELETE_ROWS as f64 / delete_secs;
    assert_eq!(db.stats().rows(PURCHASE), (BASE_ROWS - DELETE_ROWS) as u64);
    report.result(
        "delete_throughput",
        &[
            ("rows", DELETE_ROWS.into()),
            ("host_secs", fixed(delete_secs, 3)),
            ("rows_per_s", fixed(deletes_per_s, 0)),
        ],
    );

    // Phase 2: update throughput (dict rewrite + fixed rewrite; ~half
    // the items land outside every dictionary seen so far, so the
    // suppression/delta-repost path is on the measured path).
    let t0 = Instant::now();
    for b in 0..(UPDATE_ROWS as usize / BATCH) {
        let start = (b * BATCH) as u32;
        let rows: Vec<RowId> = (start..start + BATCH as u32).map(RowId).collect();
        db.update_rows(
            PURCHASE,
            rows,
            vec![
                (ColumnId(2), Value::Text(format!("patched-{b:03}"))),
                (ColumnId(3), Value::Int(5)),
            ],
        )
        .expect("update batch");
    }
    let update_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let updates_per_s = UPDATE_ROWS as f64 / update_secs;
    report.result(
        "update_throughput",
        &[
            ("rows", UPDATE_ROWS.into()),
            ("host_secs", fixed(update_secs, 3)),
            ("rows_per_s", fixed(updates_per_s, 0)),
        ],
    );

    // Phase 3: query latency with tombstones + overlays resident.
    let tombstone_ns = min_query_ns(&db, PROBE, 3).expect("tombstone query");
    let tombstone_query_slowdown = tombstone_ns as f64 / merged_ns as f64;

    // Phase 4: the compacting flush — dead rows physically dropped —
    // then drive the GC until the freed segments are erased.
    let live_before = db.volume().usage();
    let t0 = Instant::now();
    db.flush_deltas().expect("flush");
    let flush_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let scope = RamScope::new(db.ram());
    let mut gc_pages_reclaimed = 0u64;
    loop {
        let gc = db.volume().gc(&scope).expect("gc pass");
        if gc.blocks_reclaimed == 0 {
            break;
        }
        gc_pages_reclaimed += gc.pages_reclaimed;
    }
    drop(scope);
    let live_after = db.volume().usage();
    let page = db.config().flash.page_size as u64;
    let reclaimed_bytes = live_before.live_pages.saturating_sub(live_after.live_pages) * page;
    let deleted_bytes = DELETE_ROWS as u64 * HIDDEN_ROW_BYTES;

    // Phase 5: query latency on the compacted layout (sanity: the
    // smaller store must not be slower than the tombstoned one).
    let compacted_ns = min_query_ns(&db, PROBE, 3).expect("compacted query");
    report
        .result(
            "query_latency_sim_ns",
            &[
                ("merged", merged_ns.into()),
                ("tombstone_resident", tombstone_ns.into()),
                ("compacted", compacted_ns.into()),
            ],
        )
        .result(
            "post_delete_flush",
            &[
                ("host_secs", fixed(flush_secs, 3)),
                ("live_pages_before", live_before.live_pages.into()),
                ("live_pages_after", live_after.live_pages.into()),
                ("gc_pages_erased", gc_pages_reclaimed.into()),
                ("free_blocks_before", live_before.free_blocks.into()),
                ("free_blocks_after", live_after.free_blocks.into()),
            ],
        );

    // Gates. Throughputs have wide margin on any host; tombstone-
    // resident queries must stay within 4x of the merged layout; a
    // post-delete flush must hand back at least half the deleted rows'
    // bytes (in practice it reclaims far more — postings and SKT rows
    // die with their rows).
    report
        .gate_min("deletes_per_s", fixed(deletes_per_s, 0), 2_000.0)
        .gate_min("updates_per_s", fixed(updates_per_s, 0), 500.0)
        .gate_max(
            "tombstone_query_slowdown",
            fixed(tombstone_query_slowdown, 2),
            4.0,
        )
        .gate_min(
            "reclaimed_bytes",
            reclaimed_bytes,
            (deleted_bytes / 2) as f64,
        )
        .finish("BENCH_PR5.json");
}
