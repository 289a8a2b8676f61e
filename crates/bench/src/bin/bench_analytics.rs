//! Perf-trajectory runner for the analytic surface (PR 7): how much the
//! histogram-costed plan choice buys on range queries, device-side
//! GROUP BY fold throughput, and the RAM bound of the top-k epilogue —
//! then writes `BENCH_PR7.json` to the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_analytics`
//!
//! Workload: the shared [`ghostdb_bench::purchases`] tree
//! (Customer ← Purchase), 12 000 purchases, merged and sealed before
//! measuring. Three probes:
//!
//! 1. **Range plan spread** — a `BETWEEN` on a hidden column plus a
//!    visible range, timed (simulated ns) under every enumerated plan;
//!    `range_speedup` is worst/best, and the optimizer's own pick must
//!    not be the worst.
//! 2. **Grouped fold** — a join + `GROUP BY` + `ORDER BY` aggregate
//!    over every purchase; throughput is input rows per host second.
//! 3. **Top-k RAM** — `ORDER BY … LIMIT 10` over all purchases must
//!    peak far below the 64 KB device budget (the bounded buffer), even
//!    though an un-LIMITed sort of the same rows would not fit.

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_bench::latency::best_of;
use ghostdb_bench::purchases;
use ghostdb_core::GhostDb;
use ghostdb_types::{DeviceConfig, Value};

const ROWS: i64 = 12_000;

fn main() {
    let mut report = Report::new(
        7,
        "Analytic query surface: aggregates, GROUP BY, ORDER BY/LIMIT, range predicates",
    );
    report.field(
        "workload",
        "Customer(64) <- Purchase(12000), merged; range BETWEEN probe, 4-region grouped \
         fold, top-10",
    );
    let data = purchases::dataset(ROWS).expect("dataset");
    let db = GhostDb::create(purchases::DDL, DeviceConfig::default_2007(), &data).expect("build");

    // Probe 1: range plan spread. A selective hidden BETWEEN (~2% of
    // rows) and a visible tail cut give the enumerator real choices.
    let range_sql = "SELECT Pur.OrdID FROM Purchase Pur \
                     WHERE Pur.Amount BETWEEN 100 AND 120 AND Pur.Day >= 300";
    let plans = db.plans(range_sql).expect("plans");
    assert!(plans.len() >= 2, "range query enumerated only one plan");
    let mut ns = Vec::new();
    let mut rows = Vec::new();
    for cp in &plans {
        let out = db.query_with_plan(range_sql, &cp.plan).expect("range plan");
        ns.push(out.report.total_ns);
        rows.push(out.rows.rows.len());
    }
    rows.dedup();
    assert_eq!(rows.len(), 1, "plans disagree on the result");
    let best_ns = *ns.iter().min().expect("plans");
    let worst_ns = *ns.iter().max().expect("plans");
    let chosen_ns = db.query(range_sql).expect("range best").report.total_ns;
    report.result(
        "range_plan_spread_sim_ns",
        &[
            ("plans", plans.len().into()),
            ("best", best_ns.into()),
            ("worst", worst_ns.into()),
            ("optimizer_pick", chosen_ns.into()),
        ],
    );
    // The plan spread on this workload is >2x in practice (index probe
    // vs delegated scan).
    report.gate_min(
        "range_speedup",
        fixed(worst_ns as f64 / best_ns as f64, 2),
        1.2,
    );
    // The optimizer's pick must be strictly faster than the worst plan
    // (or within 1% of the best when every plan ties). Simulated ns are
    // integers, so `pick < limit` is `pick <= ceil(limit) - 1`.
    let pick_limit = (worst_ns as f64).max(1.01 * best_ns as f64);
    report.gate_max("optimizer_pick_ns", chosen_ns, pick_limit.ceil() - 1.0);

    // Probe 2: grouped fold throughput over every purchase.
    let group_sql = "SELECT Cust.Region, COUNT(*), SUM(Pur.Amount) \
                     FROM Purchase Pur, Customer Cust \
                     WHERE Pur.CustID = Cust.CustID \
                     GROUP BY Cust.Region ORDER BY 2 DESC, 1";
    let (group_secs, out) = best_of(3, || db.query(group_sql).expect("group query"));
    assert_eq!(out.rows.rows.len(), 4, "one row per region");
    let counts = out.rows.rows.iter().map(|r| r[1].as_int().expect("count"));
    assert_eq!(
        counts.sum::<i64>(),
        ROWS,
        "grouped counts must cover every purchase"
    );
    let group_rows_per_s = ROWS as f64 / group_secs.max(1e-9);
    report.result(
        "grouped_fold",
        &[
            ("rows", ROWS.into()),
            ("host_secs", fixed(group_secs, 4)),
            ("rows_per_s", fixed(group_rows_per_s, 0)),
        ],
    );
    // The fold runs tens of thousands of rows per host second even on
    // slow CI.
    report.gate_min("group_rows_per_s", fixed(group_rows_per_s, 0), 2_000.0);

    // Probe 3: top-k RAM bound. 12 000 qualifying rows would blow the
    // 64 KB budget if the epilogue buffered them all; LIMIT 10 keeps it
    // to a bounded buffer.
    let topk_sql = "SELECT Pur.OrdID, Pur.Amount FROM Purchase Pur \
                    ORDER BY 2 DESC, 1 LIMIT 10";
    db.ram().reset_peak();
    let out = db.query(topk_sql).expect("top-k query");
    let device_peak_bytes = db.ram().peak() as u64;
    assert_eq!(out.rows.rows.len(), 10);
    assert_eq!(out.rows.rows[0][1], Value::Int(999), "max amount first");
    // The page cache's mirror is charged to the same budget up front and
    // stays charged while the volume is open; the gate bounds the
    // query's own working RAM on top of that standing charge.
    let cache_bytes = db.volume().page_cache_stats().charged_bytes as u64;
    report.result(
        "topk_ram",
        &[
            ("limit", 10u64.into()),
            ("peak_bytes", (device_peak_bytes - cache_bytes).into()),
            ("device_peak_bytes", device_peak_bytes.into()),
            ("cache_charged_bytes", cache_bytes.into()),
            ("budget_bytes", db.ram().cap().into()),
        ],
    );
    // The top-k peak (dominated by the base operators' buffers, not the
    // bounded epilogue) stays comfortably inside the device budget.
    report
        .gate_max("topk_peak_bytes", device_peak_bytes - cache_bytes, 40_960.0)
        .finish("BENCH_PR7.json");
}
