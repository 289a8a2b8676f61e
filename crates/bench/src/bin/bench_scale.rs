//! Perf-trajectory runner for the device-RAM page cache at scale,
//! written to `BENCH_PR10.json` in the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_scale`
//! (full, paper-scale run) or `... -- --smoke` (small-N CI canary that
//! asserts the same gates scaled down and does **not** rewrite the
//! committed JSON).
//!
//! Two phases:
//!
//! 1. **Cached-read speedup**: the scale dataset is loaded twice —
//!    creation is fully deterministic, so both instances lay out
//!    byte-identical flash — once with `page_cache_pages = 0` and once
//!    with the default cache, and both run an identical script of
//!    bursty zipfian hidden
//!    point queries (which key is probed follows the zipfian law; a
//!    drawn key is probed a few times in a row while it is hot). The
//!    metric is total simulated device time (the repo's perf
//!    currency): cache hits skip the NAND transfer and its clock
//!    charge entirely, so a burst's repeats stop costing anything
//!    after its first probe. Gate: `cold_sim_ns / warm_sim_ns ≥ 3`.
//! 2. **Mixed churn at scale**: a zipfian read/insert/update/delete
//!    stream (`ScaleMix::read_heavy`) runs against a million-row table
//!    (smoke: thousands) with periodic full delta flushes, while a
//!    reader on a pre-churn snapshot hammers skewed point queries
//!    through the shared cache. Gates: sustained mixed-op throughput,
//!    and the reader's p99 latency stays bounded under the interleaved
//!    flushes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_core::GhostDb;
use ghostdb_types::{ColumnId, DeviceConfig, Result, RowId, TableId, Value};
use ghostdb_workload::{
    generate_scale, scale_point_query, scale_row, OpStream, ScaleConfig, ScaleMix, ScaleOp,
    Zipfian, SCALE_DDL,
};

/// `Event` is the only table; `Payload` is its third column.
const EVENT: TableId = TableId(0);
const PAYLOAD: ColumnId = ColumnId(2);

struct Dials {
    rows: usize,
    speedup_queries: usize,
    mixed_ops: usize,
    flush_every: usize,
    speedup_gate_min: f64,
    ops_gate_min: f64,
}

const FULL: Dials = Dials {
    rows: 1_000_000,
    speedup_queries: 256,
    mixed_ops: 1_200,
    flush_every: 200,
    speedup_gate_min: 3.0,
    ops_gate_min: 2.0,
};

const SMOKE: Dials = Dials {
    rows: 20_000,
    speedup_queries: 64,
    mixed_ops: 200,
    flush_every: 50,
    // Smoke keeps the same gate *shape* at friendlier levels: the tiny
    // dataset still shows the cache working, without paper-scale churn.
    speedup_gate_min: 1.5,
    ops_gate_min: 5.0,
};

/// Run the query script and return total simulated ns.
fn run_script(db: &GhostDb, queries: &[String]) -> Result<u64> {
    queries
        .iter()
        .map(|sql| Ok(db.query(sql)?.report.total_ns))
        .sum()
}

/// Phase 1: identical deterministic loads, cache-off vs cache-on,
/// identical zipfian point-query script, compared in simulated device
/// time.
fn speedup_phase(cfg: &ScaleConfig, dials: &Dials, report: &mut Report) -> Result<()> {
    let data = generate_scale(cfg)?;

    // Bursty zipfian: *which* key is probed follows the zipfian law,
    // and a drawn key is probed `BURST` times in a row (a hot row is
    // re-read while it is hot — retry loops, polling, pagination).
    // One clustered point query touches ~6 pages, so the burst's
    // repeats are exactly what a 8-page mirror can serve; cache-off
    // pays the NAND transfer for every probe, cache-on once per burst.
    const BURST: usize = 8;
    let mut z = Zipfian::new(cfg.payload_cardinality as u64, cfg.theta, 0xfeed_f00d);
    let queries: Vec<String> = (0..dials.speedup_queries.div_ceil(BURST))
        .flat_map(|_| {
            let q = scale_point_query(z.next() as i64);
            std::iter::repeat_n(q, BURST)
        })
        .collect();

    let mut cache_off = DeviceConfig::default_2007();
    cache_off.flash.page_cache_pages = 0;
    let cold_db = GhostDb::create(SCALE_DDL, cache_off, &data)?;
    assert_eq!(
        cold_db.volume().page_cache_stats().capacity_pages,
        0,
        "cache-off create must not configure a mirror"
    );
    let cold_sim_ns = run_script(&cold_db, &queries)?;
    let cold_pages = cold_db.volume().usage().live_pages;
    drop(cold_db);

    let warm_db = GhostDb::create(SCALE_DDL, DeviceConfig::default_2007(), &data)?;
    assert_eq!(
        warm_db.volume().usage().live_pages,
        cold_pages,
        "deterministic creation must lay out identical flash"
    );
    // Drop whatever residency the load left behind so the script
    // starts from a cold mirror; the counters are measured as deltas.
    let cap = warm_db.volume().page_cache_stats().capacity_pages;
    warm_db.volume().configure_page_cache(cap, warm_db.ram())?;
    let s0 = warm_db.volume().page_cache_stats();
    let warm_sim_ns = run_script(&warm_db, &queries)?;
    let stats = warm_db.volume().page_cache_stats();
    // The registry scrape and the volume's own view must agree.
    let snap = warm_db.metrics();
    assert_eq!(snap.counter("ghostdb_page_cache_hits_total"), stats.hits);
    assert_eq!(
        snap.counter("ghostdb_page_cache_misses_total"),
        stats.misses
    );

    let (hits, misses) = (stats.hits - s0.hits, stats.misses - s0.misses);
    report.result(
        "cached_reads",
        &[
            ("cold_sim_ms", fixed(cold_sim_ns as f64 / 1e6, 2)),
            ("warm_sim_ms", fixed(warm_sim_ns as f64 / 1e6, 2)),
            ("cache_hits", hits.into()),
            ("cache_misses", misses.into()),
            (
                "hit_rate",
                fixed(hits as f64 / (hits + misses).max(1) as f64, 3),
            ),
        ],
    );
    let speedup = cold_sim_ns as f64 / warm_sim_ns.max(1) as f64;
    report.gate_min(
        "cached_read_speedup",
        fixed(speedup, 2),
        dials.speedup_gate_min,
    );
    Ok(())
}

/// Phase 2: mixed zipfian churn with periodic full flushes under a
/// hammering snapshot reader.
fn mixed_phase(cfg: &ScaleConfig, dials: &Dials, report: &mut Report) -> Result<()> {
    let data = generate_scale(cfg)?;
    let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
    let mut db = GhostDb::create(SCALE_DDL, config, &data)?;

    // The frozen-answer canary: one fixed hot query whose snapshot
    // result must never change while the table churns underneath.
    let canary = scale_point_query(
        Zipfian::new(cfg.payload_cardinality as u64, cfg.theta, 0xfeed_f00d).next() as i64,
    );
    let snap = db.snapshot()?;
    let frozen_rows = snap.query(&canary)?.rows.rows.len();
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let done = done.clone();
        let cfg = cfg.clone();
        let canary = canary.clone();
        thread::spawn(move || -> Vec<f64> {
            let mut z = Zipfian::new(cfg.payload_cardinality as u64, cfg.theta, 0xbeef);
            let mut ms = Vec::new();
            let mut i = 0usize;
            while !done.load(Ordering::Relaxed) {
                // Mostly skewed probes through the shared cache, with a
                // periodic canary whose answer must stay frozen.
                let sql = if i.is_multiple_of(16) {
                    canary.clone()
                } else {
                    scale_point_query(z.next() as i64)
                };
                let t0 = Instant::now();
                let out = snap.query(&sql).expect("snapshot read");
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if i.is_multiple_of(16) {
                    assert_eq!(
                        out.rows.rows.len(),
                        frozen_rows,
                        "snapshot answer changed under churn"
                    );
                }
                i += 1;
            }
            ms
        })
    };

    let mut ops = OpStream::new(cfg, ScaleMix::read_heavy(), 0x0ddba11);
    let mut sim_ns = 0u64;
    let mut flushes = 0usize;
    let t0 = Instant::now();
    for i in 0..dials.mixed_ops {
        sim_ns += match ops.next_op() {
            ScaleOp::Read(v) => db.query(&scale_point_query(v))?.report.total_ns,
            ScaleOp::Insert => {
                let id = db.stats().rows(EVENT) as i64;
                db.insert_rows(EVENT, vec![scale_row(cfg, id)])?.sim_ns
            }
            ScaleOp::Update(row, val) => {
                let set = vec![(PAYLOAD, Value::Int(val))];
                db.update_rows(EVENT, vec![RowId(row)], set)?.sim_ns
            }
            ScaleOp::Delete(row) => db.delete_rows(EVENT, vec![RowId(row)])?.sim_ns,
        };
        if (i + 1) % dials.flush_every == 0 {
            db.flush_deltas()?;
            flushes += 1;
        }
    }
    let host_secs = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::Relaxed);
    let mut ms = reader.join().expect("reader panicked");
    assert_eq!(db.open_snapshots(), 0, "bench leaked snapshots");

    let p50 = ghostdb_bench::latency::percentile(&mut ms, 0.5);
    let p99 = ghostdb_bench::latency::percentile(&mut ms, 0.99);
    report.result(
        "mixed_churn",
        &[
            ("ops", dials.mixed_ops.into()),
            ("flushes", flushes.into()),
            ("host_secs", fixed(host_secs, 2)),
            ("device_sim_ms", fixed(sim_ns as f64 / 1e6, 1)),
            ("reader_queries", ms.len().into()),
            ("reader_p50_ms", fixed(p50, 2)),
        ],
    );
    let ops_per_sec = dials.mixed_ops as f64 / host_secs;
    report
        .gate_min(
            "mixed_ops_per_sec",
            fixed(ops_per_sec, 1),
            dials.ops_gate_min,
        )
        .gate_max("reader_p99_ms", fixed(p99, 2), 500.0);
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dials = if smoke { SMOKE } else { FULL };
    let cfg = ScaleConfig::scaled(dials.rows);
    let mut report = Report::new(
        10,
        "RAM-budgeted NAND page cache + million-row zipfian workload harness",
    );
    report.field(
        "workload",
        format!(
            "scale({}) bursty zipfian(theta 0.99, burst 8) hidden point queries; identical \
             deterministic loads, cache-off vs cache-on ({} queries); read-heavy mixed stream \
             ({} ops, flush every {}) under a pinned snapshot reader",
            dials.rows, dials.speedup_queries, dials.mixed_ops, dials.flush_every
        ),
    );
    speedup_phase(&cfg, &dials, &mut report).expect("speedup phase");
    mixed_phase(&cfg, &dials, &mut report).expect("mixed phase");
    if smoke {
        eprintln!("smoke run: BENCH_PR10.json left untouched");
        report.check();
    } else {
        report.finish("BENCH_PR10.json");
    }
}
