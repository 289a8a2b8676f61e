//! Perf-trajectory runner for the reliability subsystem: the read-path
//! cost of the per-page ECC codeword, scrub throughput, and recovery
//! success under combined power-cut + bit-rot injection, written to
//! `BENCH_PR6.json` in the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_reliability`
//!
//! Three phases:
//!
//! 1. **ECC read overhead**: the PR 1 baseline read workload — the
//!    medical dataset under a RAM budget tight enough that every query
//!    re-reads its working set from flash — with the codeword verified
//!    on every page fault vs. the raw part. The gate is on simulated
//!    device time (the repo's perf currency, bit-for-bit reproducible):
//!    the `ecc_byte_ns` charge plus the extra GC pressure from the
//!    8-byte-smaller usable page must stay ≤ 1.5×. Host-side query
//!    times and raw segment-scan throughputs on both parts are
//!    reported alongside as context.
//! 2. **Scrub**: every programmed page gets one retention flip, reads
//!    push the corrected-read counters past `SCRUB_THRESHOLD`, and one
//!    explicit [`Volume::scrub`] pass relocates them all. Reports
//!    rewritten MB per host second.
//! 3. **Recovery**: torn power cuts spread across an insert + flush
//!    workload, with one bit rotted in every seventh programmed page
//!    while the key sits unplugged. Each mount must recover a
//!    whole-batch prefix; reports the success rate (gated at 1.0 —
//!    recovery is correctness, not a best effort).

use std::time::Instant;

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_bench::latency::best_of;
use ghostdb_core::GhostDb;
use ghostdb_flash::{Nand, PageAddr, PageState, Segment, Volume, SCRUB_THRESHOLD};
use ghostdb_ram::{RamBudget, RamScope};
use ghostdb_storage::Dataset;
use ghostdb_types::{DeviceConfig, FlashConfig, Result, SimClock, TableId, Value};
use ghostdb_workload::{generate_medical, selectivity_query, MedicalConfig, MEDICAL_DDL};

const PAGE: usize = 2048;
const PPB: usize = 64;
const BLOCKS: usize = 256;

fn volume(ecc: bool) -> Volume {
    let cfg = FlashConfig {
        page_size: PAGE,
        pages_per_block: PPB,
        num_blocks: BLOCKS,
        ecc_enabled: ecc,
        ..FlashConfig::default_2007()
    };
    Volume::new(Nand::new(cfg, SimClock::new()))
}

/// Fill `blocks` erase blocks' worth of pages and return the segments.
fn load(vol: &Volume, scope: &RamScope, blocks: usize) -> Result<Vec<Segment>> {
    let ps = vol.page_size();
    let mut segments = Vec::new();
    for tag in 0..blocks {
        let mut w = vol.writer(scope)?;
        w.write(&vec![(tag % 251) as u8; ps * PPB])?;
        segments.push(w.finish()?);
    }
    Ok(segments)
}

/// Host seconds to read every segment back `passes` times, and the MB
/// actually read.
fn read_all(
    vol: &Volume,
    scope: &RamScope,
    segments: &[Segment],
    passes: usize,
) -> Result<(f64, f64)> {
    let mut buf = vec![0u8; vol.page_size() * PPB];
    let mut bytes = 0u64;
    let t0 = Instant::now();
    for _ in 0..passes {
        for seg in segments {
            let mut r = vol.reader(scope, seg)?;
            r.read_exact(&mut buf)?;
            bytes += buf.len() as u64;
        }
    }
    Ok((t0.elapsed().as_secs_f64(), bytes as f64 / (1024.0 * 1024.0)))
}

/// Raw segment-scan throughput (MB/s) on a part with or without the
/// codeword — informational context for the engine-level overhead.
/// Best-of-3 to shave scheduler noise.
fn scan_mb_per_s(ecc: bool) -> Result<f64> {
    let vol = volume(ecc);
    let scope = RamScope::new(&RamBudget::new(PAGE * PPB + 64 * 1024));
    let segments = load(&vol, &scope, 128)?;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let (secs, mb) = read_all(&vol, &scope, &segments, 4)?;
        best = best.max(mb / secs);
    }
    Ok(best)
}

/// Phase 1: the engine-level read overhead of the codeword. The PR 1
/// baseline workload (medical dataset, 80%-selectivity query) runs
/// under a 16 KiB RAM budget, so sort runs spill and every repetition
/// re-reads its working set from flash through the verified read path.
/// Returns (simulated-time overhead, host-time overhead); the gate is
/// on the simulated ratio, which is deterministic. Host times are
/// best-of-5 per part, after a warm-up run.
fn ecc_overhead_phase() -> Result<(f64, f64)> {
    let cfg = MedicalConfig::scaled(30_000);
    let data = generate_medical(&cfg)?;
    let sql = selectivity_query(cfg.date_start, cfg.date_span_days, 0.8);
    let mut sim_ns = [0u64; 2];
    let mut secs = [0.0; 2];
    for (slot, ecc) in [(0usize, false), (1usize, true)] {
        let mut device = DeviceConfig::default_2007();
        device.flash.ecc_enabled = ecc;
        device.ram_bytes = 16 * 1024;
        let db = GhostDb::create(MEDICAL_DDL, device, &data)?;
        let spec = db.bind(&sql)?;
        let plan = db.plan_pre(&spec);
        db.run(&spec, &plan)?;
        let (best, out) = best_of(5, || db.run(&spec, &plan));
        secs[slot] = best;
        sim_ns[slot] = out?.report.total_ns;
    }
    Ok((sim_ns[1] as f64 / sim_ns[0] as f64, secs[1] / secs[0]))
}

/// Flip one bit in every `step`-th programmed page of `nand`.
fn rot(nand: &Nand, step: usize) -> Result<()> {
    let cfg = nand.config().clone();
    for p in (0..cfg.num_blocks * cfg.pages_per_block).step_by(step) {
        let addr = PageAddr(p as u32);
        if nand.page_state(addr)? == PageState::Programmed {
            nand.corrupt_page(
                addr,
                (p as u32).wrapping_mul(131) % (cfg.page_size as u32 * 8),
            )?;
        }
    }
    Ok(())
}

/// Phase 2: rot one bit in every programmed page, cross the
/// corrected-read threshold, and time the scrub pass that relocates
/// them; reports MB rewritten per host second.
fn scrub_phase(report: &mut Report) -> Result<()> {
    let vol = volume(true);
    let nand = vol.nand().clone();
    let scope = RamScope::new(&RamBudget::new(PAGE * PPB + 64 * 1024));
    let segments = load(&vol, &scope, 128)?;

    rot(&nand, 1)?;
    // Each read of a rotted page counts one correction; one pass per
    // unit of the threshold pushes every page onto it.
    read_all(&vol, &scope, &segments, SCRUB_THRESHOLD as usize)?;

    let t0 = Instant::now();
    let scrub = vol.scrub(&scope)?;
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let mb = (scrub.pages_rewritten * PAGE as u64) as f64 / (1024.0 * 1024.0);
    let rel = vol.reliability();
    assert_eq!(
        rel.uncorrectable, 0,
        "single flips must all correct: {rel:?}"
    );
    assert!(scrub.pages_rewritten > 0, "scrub found nothing to do");
    report.result(
        "scrub",
        &[("pages_relocated", scrub.pages_rewritten.into())],
    );
    report.gate_min("scrub_mb_per_s", fixed(mb / secs, 1), 10.0);
    Ok(())
}

const DDL: &str = "\
CREATE TABLE Doctor (
  DocID INTEGER PRIMARY KEY,
  Name CHAR(40),
  Country CHAR(20));
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Severity INTEGER,
  Purpose CHAR(100) HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);";

const DOCTORS: i64 = 4;
const BASE_VISITS: i64 = 48;
const BATCHES: usize = 6;
const BATCH: i64 = 2;
const FLUSH_AFTER: usize = 2;

fn visit(i: i64) -> Vec<Value> {
    let purposes = ["Checkup", "Sclerosis", "Migraine"];
    vec![
        Value::Int(i),
        Value::Int(i % 8),
        Value::Text(purposes[(i % 3) as usize].into()),
        Value::Int(i % DOCTORS),
    ]
}

fn recovery_config() -> DeviceConfig {
    let mut config = DeviceConfig::default_2007();
    config.flash.page_size = 256;
    config.flash.pages_per_block = 8;
    config.flash.num_blocks = 512;
    config.flash.meta_slot_blocks = 4;
    config.flash.wal_blocks = 2;
    config.delta_flush_rows = 0;
    config
}

/// Every doctor plus visits `0..visits`, freshly loaded.
fn create(visits: i64) -> GhostDb {
    let stmts = ghostdb_sql::parse_statements(DDL).expect("parse");
    let schema = ghostdb_sql::bind_schema(&stmts).expect("bind");
    let mut data = Dataset::empty(&schema);
    for i in 0..DOCTORS {
        data.push_row(
            TableId(0),
            vec![
                Value::Int(i),
                Value::Text(format!("doc{i}")),
                Value::Text(if i % 2 == 0 { "France" } else { "Spain" }.into()),
            ],
        )
        .expect("doctor");
    }
    for i in 0..visits {
        data.push_row(TableId(1), visit(i)).expect("visit");
    }
    GhostDb::create(DDL, recovery_config(), &data).expect("create")
}

fn build_sealed() -> GhostDb {
    let mut db = create(BASE_VISITS);
    db.seal().expect("seal");
    db
}

fn run_workload(db: &mut GhostDb) -> Result<()> {
    for k in 0..BATCHES {
        let first = BASE_VISITS + (k as i64) * BATCH;
        db.insert_rows(TableId(1), (first..first + BATCH).map(visit).collect())?;
        if k == FLUSH_AFTER {
            db.flush_deltas()?;
        }
    }
    Ok(())
}

const PROBE: &str = "SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.Severity >= 3";

/// Phase 3: torn cuts spread across the workload, plus one rotted bit
/// in every seventh programmed page before each mount. Returns the
/// success rate.
fn recovery_phase(trials: u64) -> f64 {
    // Reference probe rows after each whole-batch prefix.
    let references: Vec<Vec<Vec<Value>>> = (0..=BATCHES)
        .map(|k| {
            let db = create(BASE_VISITS + (k as i64) * BATCH);
            db.query(PROBE).expect("reference probe").rows.rows
        })
        .collect();

    // Ops the uninterrupted run issues, to spread the cut points.
    let total = {
        let mut db = build_sealed();
        let before = db.nand().stats();
        run_workload(&mut db).expect("uninterrupted run");
        let d = db.nand().stats().since(&before);
        d.page_programs + d.block_erases
    };

    let mut successes = 0u64;
    for t in 0..trials {
        let n = 1 + t * (total - 2) / trials.max(1);
        let mut db = build_sealed();
        let nand = db.nand().clone();
        nand.arm_power_cut(n, true);
        if run_workload(&mut db).is_ok() {
            eprintln!("recovery trial {t}: cut at op {n} never tripped");
            continue;
        }
        drop(db);
        nand.disarm_power_cut();

        rot(&nand, 7).expect("rot");

        let recovered = GhostDb::mount(nand, recovery_config())
            .ok()
            .and_then(|db| {
                let visits = db.stats().rows(TableId(1));
                let probed = db.query(PROBE).ok()?.rows.rows;
                (0..=BATCHES).find(|&k| {
                    visits == (BASE_VISITS + (k as i64) * BATCH) as u64 && references[k] == probed
                })
            })
            .is_some();
        if recovered {
            successes += 1;
        } else {
            eprintln!("recovery trial {t}: cut at op {n} recovered no whole-batch prefix");
        }
    }
    successes as f64 / trials as f64
}

fn main() {
    let mut report = Report::new(
        6,
        "Dying-flash reliability: ECC, grown bad blocks, scrubbing, and recovery under fault \
         injection",
    );
    report
        .field(
            "geometry",
            "2 KiB pages, 64 pages/block, 256-block part for ECC/scrub; 256 B pages, 8 \
             pages/block, 512-block part for recovery",
        )
        .field(
            "payload",
            "medical 80%-selectivity query under a 16 KiB RAM budget on raw vs protected \
             parts; one retention flip per programmed page before scrub; torn power cuts plus \
             rot in every seventh page before each recovery mount",
        );

    let (ecc_read_overhead, host_overhead) = ecc_overhead_phase().expect("ecc phase");
    let raw_mb_s = scan_mb_per_s(false).expect("raw scan");
    let ecc_mb_s = scan_mb_per_s(true).expect("protected scan");
    report.result(
        "ecc_read",
        &[
            ("host_overhead", fixed(host_overhead, 3)),
            ("raw_scan_mb_per_s", fixed(raw_mb_s, 0)),
            ("protected_scan_mb_per_s", fixed(ecc_mb_s, 0)),
        ],
    );
    report.gate_max("ecc_read_overhead", fixed(ecc_read_overhead, 3), 1.5);

    scrub_phase(&mut report).expect("scrub phase");

    let trials = 24;
    let recovery_success_rate = recovery_phase(trials);
    report.result("recovery", &[("trials", trials.into())]);
    report
        .gate_min(
            "recovery_success_rate",
            fixed(recovery_success_rate, 3),
            1.0,
        )
        .finish("BENCH_PR6.json");
}
