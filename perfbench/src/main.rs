//! The canonical GhostDB benchmark: three single-client, closed-loop
//! workloads driven through `GhostDb`'s public API on the default
//! `DeviceConfig::default_2007()` device.
//!
//! ```text
//! perfbench --workload <medical_paper|zipf_mixed|durable_cycle>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--heldout-seed <n>] [--statements <n>] [--repeat-check]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of `BENCHMARK.json` with `--trace 0`, the per-layer ones with
//! `--trace 1`. The lines before it print every metric of the run by
//! name with its unit, including those that apply to only some
//! workloads. See `perfbench/README.md` for the workloads and metrics.

mod durable;
mod harness;
mod measure;
mod medical;
mod zipf;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use ghostdb_catalog::Schema;
use ghostdb_core::GhostDb;
use ghostdb_storage::Dataset;
use ghostdb_types::{DeviceConfig, RowId, TableId, Value};

use harness::{Budget, Harness};
use measure::{median, summarize, Window};

type AnyResult<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Spans written to the trace file; self times use every span recorded.
/// A traced `zipf_mixed` run records about 400,000.
const SPANS_WRITTEN: usize = 20_000;

/// Set-ups per run: `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 3] = ["medical_paper", "zipf_mixed", "durable_cycle"];

/// Salt that keeps held-out inputs disjoint from every tuning seed.
const HELDOUT_SALT: u64 = 0x4845_4c44_4f55_5421;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// The seed the inputs are generated from: `--seed`, or the salted
    /// `--heldout-seed` when one is given.
    pub input_seed: u64,
    pub heldout: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
    pub statements: Option<u64>,
    pub repeat_check: bool,
    pub counts_out: Option<String>,
}

fn parse(args: &[String]) -> std::result::Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        input_seed: 1,
        heldout: None,
        seconds: 10.0,
        trace: false,
        statements: None,
        repeat_check: false,
        counts_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--repeat-check" {
            o.repeat_check = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--seed" => o.seed = num(val)?,
            "--heldout-seed" => o.heldout = Some(num(val)?),
            "--seconds" => o.seconds = num(val)? as f64,
            "--trace" => {
                o.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            "--statements" => o.statements = Some(num(val)?),
            "--counts-out" => o.counts_out = Some(val.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            o.workload
        ));
    }
    o.input_seed = match o.heldout {
        Some(h) => h ^ HELDOUT_SALT,
        None => o.seed,
    };
    Ok(o)
}

/// Logical size of a value: 8 bytes per integer, 4 per date, the
/// string's length for text.
fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Int(_) => 8,
        Value::Date(_) => 4,
        Value::Text(s) => s.len() as u64,
    }
}

pub fn row_bytes(row: &[Value]) -> u64 {
    row.iter().map(value_bytes).sum()
}

/// Logical size of a whole dataset, every table and column.
pub fn dataset_bytes(data: &Dataset, schema: &Schema) -> u64 {
    let mut total = 0;
    for (t, def) in schema.tables().iter().enumerate() {
        let table = TableId(t as u16);
        for r in 0..data.row_count(table) {
            for c in 0..def.columns.len() {
                total += value_bytes(data.value(table, c, RowId(r as u32)));
            }
        }
    }
    total
}

/// Live pages of the log-structured volume, in bytes.
pub fn live_flash_bytes(db: &GhostDb) -> u64 {
    db.volume().usage().live_pages * db.config().flash.page_size as u64
}

/// One named metric with its unit; `None` when it does not apply to the
/// workload (printed as `n/a`, never put in the JSON line).
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    note: String,
}

fn m(name: impl Into<String>, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: String::new(),
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates: every workload reports
/// them, they vary from run to run, and they are steady across seeds.
/// Simulated latency is gated by its mean: a point read's or a fixed
/// verification query's simulated cost is exactly the same on every
/// seed, so its p50 reads the same on every run. Host time per statement
/// and per second swings by 10–15 % between runs on a shared machine, so
/// it prints but only `setup_s` gates host time. The others print only.
const GATED_END_TO_END: [&str; 4] = ["setup_s", "query_sim_mean_ms", "ops_per_sim_s", "space_amp"];

fn end_to_end(h: &Harness) -> Vec<Metric> {
    let t = &h.tally;
    let mut out = vec![m("setup_s", Some(median(&t.setup_s)), "s")];
    let mut latency = |prefix: &str, sim: &[f64], host: &[f64], with_tail: bool| {
        let s = summarize(sim, t.tail_cap);
        out.push(m(format!("{prefix}_sim_p50_ms"), s.map(|s| s.p50), "ms"));
        if with_tail {
            let mut tail = m(format!("{prefix}_sim_tail_ms"), s.map(|s| s.tail), "ms");
            if let Some(s) = s {
                tail.note = format!("p{} of {} samples", s.tail_pct, s.n);
            }
            out.push(tail);
        }
        out.push(m(
            format!("{prefix}_host_p50_ms"),
            summarize(host, t.tail_cap).map(|s| s.p50),
            "ms",
        ));
    };
    latency("query", &t.select_sim, &t.select_host, true);
    latency("write", &t.write_sim, &t.write_host, true);
    latency("flush", &t.flush_sim, &t.flush_host, false);
    latency("mount", &t.mount_sim, &t.mount_host, false);
    out.push(m("query_sim_mean_ms", mean(&t.select_sim), "ms"));
    // Throughput over whole cycles, total over total.
    let cycles = t.cycles();
    let total = cycles.iter().fold(Window::default(), |a, c| Window {
        ops: a.ops + c.ops,
        sim_ns: a.sim_ns + c.sim_ns,
        host_ns: a.host_ns + c.host_ns,
        user_bytes: a.user_bytes + c.user_bytes,
        programmed_bytes: a.programmed_bytes + c.programmed_bytes,
    });
    let rate = |ns: u64| (ns > 0).then(|| total.ops as f64 / (ns as f64 / 1e9));
    let mut ops_sim = m("ops_per_sim_s", rate(total.sim_ns), "1/s");
    ops_sim.note = format!("{} statements in {} whole cycles", total.ops, cycles.len());
    out.push(ops_sim);
    out.push(m("ops_per_host_s", rate(total.host_ns), "1/s"));
    let (user, programmed) = (total.user_bytes, total.programmed_bytes);
    out.push(m(
        "write_amp",
        (user > 0).then(|| programmed as f64 / user as f64),
        "ratio",
    ));
    let mut space = m(
        "space_amp",
        Some(t.live_bytes as f64 / t.logical_bytes.max(1) as f64),
        "ratio",
    );
    space.note = format!(
        "{} live flash bytes / {} logical bytes",
        t.live_bytes, t.logical_bytes
    );
    out.push(space);
    out.push(m(
        "failed_frac",
        Some(t.failed as f64 / t.attempted.max(1) as f64),
        "ratio",
    ));
    out
}

/// The per-layer metrics `BENCHMARK.json` lists: the ones every
/// workload exercises, plus counts (a count may read 0 where its layer
/// is idle). Layer times that only some workloads touch print only.
const GATED_PER_LAYER: [&str; 33] = [
    "sql.parse_host_us",
    "sql.bind_host_us",
    "exec.plan_host_us",
    "exec.execute_host_us",
    "core.query_self_host_us",
    "exec.plans_enumerated",
    "exec.total_sim_ms",
    "core.query_outside_exec_sim_ms",
    "exec.ram_peak_bytes",
    "exec.op.project.sim_ms",
    "exec.op.project.tuples_in",
    "exec.op.climbing-index.tuples_in",
    "exec.op.access-skt.tuples_in",
    "exec.op.bloom-probe.tuples_in",
    "exec.op.merge-intersect.tuples_in",
    "bloom.pass_ratio",
    "bus.bytes_to_device",
    "bus.bytes_to_pc",
    "flash.page_reads",
    "flash.bytes_read",
    "flash.page_programs",
    "flash.bytes_programmed",
    "flash.block_erases",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.hit_ratio",
    "gc.migrations",
    "flush.count",
    "flush.bytes_programmed_per_delta_row",
    "wal.appends",
    "ram.used_at_rest_bytes",
    "obs.trace_overhead_pct",
];

/// Operators the executor reports, for the per-operator metrics.
const OPERATORS: [&str; 12] = [
    "climbing-index",
    "cross-filter",
    "delegate+translate",
    "fetch-column",
    "merge-intersect",
    "access-skt",
    "bloom-build",
    "bloom-probe",
    "hidden-verify",
    "aggregate",
    "sort",
    "project",
];

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

fn per_layer(h: &Harness) -> Vec<Metric> {
    let l = &h.layers;
    let stmts = h.tally.attempted.max(1) as f64;
    let selects = l.selects.max(1) as f64;
    let per_stmt = |v: u64| Some(v as f64 / stmts);
    let per_select = |v: u64| Some(v as f64 / selects);
    let spans = h.tracer.self_times();
    let span_mean = |name: &str, self_time: bool| {
        spans.get(name).map(|&(n, total, own, _)| {
            (if self_time { own } else { total }) as f64 / n as f64 / 1e3
        })
    };
    let mut out = vec![
        m("sql.parse_host_us", span_mean("flight.parse", true), "us"),
        m("sql.bind_host_us", span_mean("flight.bind", true), "us"),
        m("exec.plan_host_us", span_mean("flight.plan", true), "us"),
        m(
            "exec.execute_host_us",
            span_mean("flight.execute", true),
            "us",
        ),
        m(
            "core.query_self_host_us",
            span_mean("GhostDb::query", true),
            "us",
        ),
        m("exec.plans_call_host_us", mean(&l.plan_calls_host_us), "us"),
        m("exec.plans_enumerated", mean(&l.plans_enumerated), "count"),
        m(
            "exec.total_sim_ms",
            per_select(l.exec_total_ns).map(|v| v / 1e6),
            "ms",
        ),
        m(
            "exec.unattributed_sim_ms",
            per_select(l.exec_unattributed_ns).map(|v| v / 1e6),
            "ms",
        ),
        m(
            "core.query_outside_exec_sim_ms",
            per_select(l.select_clock_ns.saturating_sub(l.exec_total_ns)).map(|v| v / 1e6),
            "ms",
        ),
        m("exec.ram_peak_bytes", Some(l.ram_peak as f64), "bytes"),
    ];
    for op in OPERATORS {
        let (sim, tuples) = l.ops.get(op).copied().unwrap_or((0, 0));
        let name = op.replace('+', "_");
        out.push(m(
            format!("exec.op.{name}.sim_ms"),
            per_select(sim).map(|v| v / 1e6),
            "ms",
        ));
        out.push(m(
            format!("exec.op.{name}.tuples_in"),
            per_select(tuples),
            "count",
        ));
    }
    out.push(m(
        "bloom.pass_ratio",
        Some(l.bloom_out as f64 / l.bloom_in.max(1) as f64),
        "ratio",
    ));
    out.push(m(
        "bus.bytes_to_device",
        per_select(l.bus_to_device),
        "bytes",
    ));
    out.push(m("bus.bytes_to_pc", per_select(l.bus_to_pc), "bytes"));
    for kind in ghostdb_bus::Message::KINDS.iter().chain(&["Result"]) {
        let frames = l
            .registry
            .get(&format!("ghostdb_bus_frames_total{{kind=\"{kind}\"}}"))
            .copied()
            .unwrap_or(0);
        out.push(m(format!("bus.frames.{kind}"), per_stmt(frames), "count"));
    }
    let n = &l.nand;
    out.extend([
        m("flash.page_reads", per_stmt(n.page_reads), "count"),
        m("flash.bytes_read", per_stmt(n.bytes_read), "bytes"),
        m("flash.page_programs", per_stmt(n.page_programs), "count"),
        m(
            "flash.bytes_programmed",
            per_stmt(n.bytes_programmed),
            "bytes",
        ),
        m("flash.block_erases", per_stmt(n.block_erases), "count"),
        m("cache.hits", per_stmt(l.cache_hits), "count"),
        m("cache.misses", per_stmt(l.cache_misses), "count"),
        m("cache.evictions", per_stmt(l.cache_evictions), "count"),
        m(
            "cache.hit_ratio",
            Some(l.cache_hits as f64 / (l.cache_hits + l.cache_misses).max(1) as f64),
            "ratio",
        ),
        m("gc.migrations", Some(l.gc_migrations as f64), "count"),
        m(
            "gc.pause_sim_ms",
            l.registry
                .get("ghostdb_gc_pause_ns")
                .map(|&ns| ns as f64 / 1e6),
            "ms",
        ),
        m(
            "gc.free_blocks_min",
            l.free_blocks_min.map(|b| b as f64),
            "count",
        ),
        m("flush.count", Some(l.flush_count as f64), "count"),
        m(
            "flush.sim_ms",
            (l.flush_count > 0).then(|| l.flush_sim_ns as f64 / l.flush_count as f64 / 1e6),
            "ms",
        ),
        m(
            "flush.bytes_programmed_per_delta_row",
            Some(l.flush_programmed as f64 / l.flush_delta_rows.max(1) as f64),
            "bytes",
        ),
    ]);
    for kind in ["insert", "update", "delete"] {
        let sim = l.writes.get(kind).copied().unwrap_or((0, 0));
        out.push(m(
            format!("write.{kind}_sim_us"),
            (sim.0 > 0).then(|| sim.1 as f64 / sim.0 as f64 / 1e3),
            "us",
        ));
    }
    out.extend([
        m("session.capture_host_us", mean(&l.capture_host_us), "us"),
        m(
            "session.pinned_pages_max",
            Some(l.pinned_pages_max as f64),
            "count",
        ),
        m(
            "session.pin_deferred_frees",
            Some(l.pin_deferred_max as f64),
            "count",
        ),
        m(
            "wal.appends",
            Some(
                l.registry
                    .get("ghostdb_wal_appends_total")
                    .copied()
                    .unwrap_or(0) as f64,
            ),
            "count",
        ),
        m("seal.sim_ms", l.seal_sim_ms, "ms"),
        m("seal.host_ms", l.seal_host_ms, "ms"),
        m(
            "seal.image_bytes",
            l.seal_image_bytes.map(|b| b as f64),
            "bytes",
        ),
        m("mount.page_reads", mean(&l.mount_page_reads), "count"),
        m("mount.replayed_records", mean(&l.mount_replayed), "count"),
        m(
            "ram.used_at_rest_bytes",
            Some(l.ram_at_rest as f64),
            "bytes",
        ),
        m(
            "ram.cache_charge_bytes",
            Some(l.cache_charge as f64),
            "bytes",
        ),
    ]);
    let overhead = match (
        summarize(&l.traced_select_host, 0.5),
        summarize(&l.untraced_select_host, 0.5),
    ) {
        (Some(t), Some(u)) => Some((t.p50 / u.p50 - 1.0) * 100.0),
        _ => None,
    };
    out.push(m("obs.trace_overhead_pct", overhead, "%"));
    out
}

/// Raw totals of every count the traced run reads, for the
/// repeatability check (two processes, same seed, fixed statements).
fn count_totals(h: &Harness) -> Vec<(String, u64)> {
    let l = &h.layers;
    let mut out = vec![
        ("statements".to_string(), h.tally.attempted),
        ("flash.page_reads".into(), l.nand.page_reads),
        ("flash.bytes_read".into(), l.nand.bytes_read),
        ("flash.page_programs".into(), l.nand.page_programs),
        ("flash.bytes_programmed".into(), l.nand.bytes_programmed),
        ("flash.block_erases".into(), l.nand.block_erases),
        ("cache.hits".into(), l.cache_hits),
        ("cache.misses".into(), l.cache_misses),
        ("cache.evictions".into(), l.cache_evictions),
        ("gc.migrations".into(), l.gc_migrations),
        ("exec.total_sim_ns".into(), l.exec_total_ns),
        ("bus.bytes_to_device".into(), l.bus_to_device),
        ("bus.bytes_to_pc".into(), l.bus_to_pc),
        ("flush.count".into(), l.flush_count),
        ("flush.bytes_programmed".into(), l.flush_programmed),
    ];
    for (op, (sim, tuples)) in &l.ops {
        out.push((format!("exec.op.{op}.sim_ns"), *sim));
        out.push((format!("exec.op.{op}.tuples_in"), *tuples));
    }
    for (name, v) in &l.registry {
        out.push((format!("registry.{name}"), *v));
    }
    out
}

fn run(opts: &Opts) -> AnyResult<bool> {
    let budget = match opts.statements {
        Some(n) => Budget::Statements(n),
        None => Budget::Seconds(opts.seconds),
    };
    let mut h = Harness::new(opts.trace, budget);
    match opts.workload.as_str() {
        "medical_paper" => medical::run(opts, &mut h)?,
        "zipf_mixed" => zipf::run(opts, &mut h)?,
        _ => durable::run(opts, &mut h)?,
    }

    let (metrics, gated): (Vec<Metric>, &[&str]) = if opts.trace {
        (per_layer(&h), &GATED_PER_LAYER)
    } else {
        (end_to_end(&h), &GATED_END_TO_END)
    };
    let seed_note = match opts.heldout {
        Some(s) => format!("held-out seed {s}"),
        None => format!("seed {}", opts.seed),
    };
    let device = DeviceConfig::default_2007();
    println!(
        "perfbench {} ({seed_note}, trace {}): DeviceConfig::default_2007(), {} KB RAM, \
         {}-page cache, flush policy: automatic at delta_flush_rows = {}",
        opts.workload,
        opts.trace as u8,
        device.ram_bytes / 1024,
        device.flash.page_cache_pages,
        device.delta_flush_rows
    );
    for x in &metrics {
        let value = x.value.map_or("n/a".to_string(), |v| format!("{v:.4}"));
        println!("  {:<42} {:>16} {:<6} {}", x.name, value, x.unit, x.note);
    }
    let mut correct = h.tally.failed == 0;
    let mut json = String::new();
    for name in gated {
        let x = metrics
            .iter()
            .find(|x| x.name == *name)
            .expect("gated metric is computed");
        let Some(v) = x.value.filter(|v| v.is_finite()) else {
            eprintln!("perfbench: metric {name} has no value on {}", opts.workload);
            correct = false;
            continue;
        };
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            x.unit
        );
    }

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    if opts.trace {
        std::fs::create_dir_all(out_dir)?;
        let path = format!(
            "{out_dir}/spans-{}-{}.jsonl",
            opts.workload, opts.input_seed
        );
        std::fs::write(&path, h.tracer.to_jsonl(SPANS_WRITTEN))?;
        println!(
            "  spans: {} recorded, the first {} written to {path}",
            h.tracer.spans.len(),
            h.tracer.spans.len().min(SPANS_WRITTEN)
        );
        for (name, (n, total, own, sim)) in h.tracer.self_times() {
            println!(
                "  span {:<34} n={:<7} total {:>10.3} ms  self {:>10.3} ms  sim {:>12.3} ms",
                name,
                n,
                total as f64 / 1e6,
                own as f64 / 1e6,
                sim as f64 / 1e6
            );
        }
    }
    if let Some(path) = &opts.counts_out {
        let body: String = count_totals(&h)
            .into_iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect();
        std::fs::write(path, body)?;
    }
    for note in &h.tally.notes {
        println!("  failure: {note}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        h.tally.attempted.max(1),
        h.tally.failed
    );
    Ok(correct)
}

/// Statements per process in the repeatability check: enough for each
/// workload to reach its flush (and, for `durable_cycle`, a mount).
fn repeat_statements(workload: &str) -> u64 {
    match workload {
        "medical_paper" => 48,
        "zipf_mixed" => 22_000,
        _ => 160,
    }
}

/// Run the workload twice in separate processes with the same seed and
/// a fixed statement count, and report which counts differ.
fn repeat_check(opts: &Opts, args: &[String]) -> AnyResult<bool> {
    let exe = std::env::current_exe()?;
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(out_dir)?;
    let mut runs = Vec::new();
    for i in 0..2 {
        let path = format!(
            "{out_dir}/counts-{}-{}-{i}.txt",
            opts.workload, opts.input_seed
        );
        let mut child_args: Vec<String> = args
            .iter()
            .filter(|a| *a != "--repeat-check")
            .cloned()
            .collect();
        child_args.extend([
            "--trace".into(),
            "1".into(),
            "--statements".into(),
            repeat_statements(&opts.workload).to_string(),
            "--counts-out".into(),
            path.clone(),
        ]);
        let status = Command::new(&exe)
            .args(&child_args)
            .stdout(std::process::Stdio::null())
            .status()?;
        if !status.success() {
            eprintln!("perfbench: repeat run {i} exited with {status}");
            return Ok(false);
        }
        runs.push(std::fs::read_to_string(&path)?);
    }
    let (mut same, mut differ) = (0, Vec::new());
    for (a, b) in runs[0].lines().zip(runs[1].lines()) {
        if a == b {
            same += 1;
        } else {
            differ.push(format!("{a}  vs  {b}"));
        }
    }
    println!(
        "repeatability {} seed {}: {same} counts repeat exactly, {} differ",
        opts.workload,
        opts.input_seed,
        differ.len()
    );
    for d in &differ {
        println!("  differs: {d}");
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if opts.repeat_check {
        repeat_check(&opts, &args)
    } else {
        run(&opts)
    };
    match outcome {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}
