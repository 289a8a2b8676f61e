//! Measurement plumbing shared by the three workloads: the seeded input
//! generator, latency samples and tails, the end-to-end tally, the
//! per-layer counter snapshots, and the benchmark-side span recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ghostdb_core::GhostDb;
use ghostdb_exec::ExecReport;
use ghostdb_flash::{FlashStats, GcStats, PageCacheStats};
use ghostdb_obs::{MetricValue, Span};

/// SplitMix64: the benchmark's own input generator, so the inputs depend
/// on `--seed` and on nothing inside the engine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Draw-without-replacement deck: every full pass deals each card once,
/// in a seeded order, so a long run holds the exact composition and a
/// short one stays close to it.
#[derive(Debug)]
pub struct Deck<T: Clone> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    pub fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1].clone()
    }
}

/// Stratified draw in `[0, 1)`: one of `strata` equal bins from a deck,
/// uniform inside the bin.
pub fn stratified(deck: &mut Deck<u32>, strata: u32, rng: &mut Rng) -> f64 {
    (deck.deal(rng) as f64 + rng.unit()) / strata as f64
}

/// Percentile by nearest rank over a sorted slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail ladder: the reported tail is the highest of these that
/// leaves at least ten samples above it, up to the workload's cap.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// A latency summary: median and tail, with the tail's percentile and
/// the sample count beside it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

/// Median and tail of `samples`. `tail_cap` is the percentile the
/// workload is sized for: a run that draws more samples than planned
/// (a faster host, a faster engine) keeps reporting the same percentile
/// instead of jumping a rung up the ladder.
pub fn summarize(samples: &[f64], tail_cap: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_p = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| p <= tail_cap && (n as f64 * (1.0 - p)).floor() >= 10.0)
        .unwrap_or(0.5);
    Some(Summary {
        n,
        p50: nearest_rank(&sorted, 0.5),
        tail: nearest_rank(&sorted, tail_p),
        tail_pct: tail_p * 100.0,
    })
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// What one engine call was, for the end-to-end tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Select,
    /// A DML statement that did not trip the automatic flush.
    Write,
    /// A DML statement that tripped the flush (or re-seal).
    Flush,
    /// `GhostDb::mount` after an unplug (not a statement, but its time
    /// counts against the statements of its cycle).
    Mount,
}

/// End-to-end accumulators. Latencies are in milliseconds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Highest tail percentile this workload reports (see [`summarize`]).
    pub tail_cap: f64,
    pub setup_s: Vec<f64>,
    pub select_sim: Vec<f64>,
    pub select_host: Vec<f64>,
    pub write_sim: Vec<f64>,
    pub write_host: Vec<f64>,
    pub flush_sim: Vec<f64>,
    pub flush_host: Vec<f64>,
    pub mount_sim: Vec<f64>,
    pub mount_host: Vec<f64>,
    /// Statements attempted / failed (errors and wrong answers).
    pub attempted: u64,
    pub failed: u64,
    /// Throughput is counted over whole cycles only (see
    /// [`Tally::commit`]), so a run that stops mid-cycle does not skew
    /// the rate by a partial flush period.
    pending: Window,
    cycles: Vec<Window>,
    /// Host time of engine calls in closed cycles.
    closed_host_ns: u64,
    /// Live flash bytes and logical dataset bytes at the end of the run.
    pub live_bytes: u64,
    pub logical_bytes: u64,
    pub notes: Vec<String>,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Window {
    pub ops: u64,
    pub sim_ns: u64,
    pub host_ns: u64,
    pub user_bytes: u64,
    pub programmed_bytes: u64,
}

impl Tally {
    pub fn record(&mut self, kind: Kind, sim_ns: u64, host_ns: u64) {
        let (sim_ms, host_ms) = (sim_ns as f64 / 1e6, host_ns as f64 / 1e6);
        let (sims, hosts) = match kind {
            Kind::Select => (&mut self.select_sim, &mut self.select_host),
            Kind::Write => (&mut self.write_sim, &mut self.write_host),
            Kind::Flush => (&mut self.flush_sim, &mut self.flush_host),
            Kind::Mount => (&mut self.mount_sim, &mut self.mount_host),
        };
        sims.push(sim_ms);
        hosts.push(host_ms);
        if kind != Kind::Mount {
            self.pending.ops += 1;
        }
        self.pending.sim_ns += sim_ns;
        self.pending.host_ns += host_ns;
    }

    /// Host time of an engine call that is neither a statement nor a
    /// mount (snapshot capture, dropping a database at unplug): it
    /// counts against throughput but has no latency sample.
    pub fn overhead(&mut self, host_ns: u64) {
        self.pending.host_ns += host_ns;
    }

    pub fn user_bytes(&mut self, bytes: u64) {
        self.pending.user_bytes += bytes;
    }

    /// Close a cycle: everything since the last commit becomes one
    /// throughput sample. `programmed_bytes` is the NAND programming the
    /// cycle caused.
    pub fn commit(&mut self, programmed_bytes: u64) {
        let mut p = std::mem::take(&mut self.pending);
        p.programmed_bytes = programmed_bytes;
        self.closed_host_ns += p.host_ns;
        self.cycles.push(p);
    }

    /// Host time spent inside engine calls so far.
    pub fn engine_ns(&self) -> u64 {
        self.closed_host_ns + self.pending.host_ns
    }

    pub fn has_committed(&self) -> bool {
        !self.cycles.is_empty()
    }

    pub fn cycles(&self) -> &[Window] {
        &self.cycles
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("perfbench: WRONG ANSWER: {msg}");
            if self.notes.len() < 20 {
                self.notes.push(msg);
            }
        }
    }
}

/// Engine-side counters read through the public API at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    pub nand: FlashStats,
    pub cache: PageCacheStats,
    pub gc: GcStats,
    pub registry: BTreeMap<String, u64>,
}

impl Counters {
    pub fn read(db: &GhostDb) -> Counters {
        let mut registry = BTreeMap::new();
        for (name, value) in db.metrics().entries {
            let v = match value {
                MetricValue::Counter(c) => c,
                MetricValue::Histogram(h) => h.sum,
                MetricValue::Gauge(_) => continue,
            };
            registry.insert(name, v);
        }
        Counters {
            nand: db.nand().stats(),
            cache: db.volume().page_cache_stats(),
            gc: db.volume().gc_stats(),
            registry,
        }
    }
}

/// Per-layer accumulators for the traced run. Counter deltas are folded
/// in per database instance ([`Layers::absorb`]), so a mount — which
/// starts a fresh volume and registry — loses nothing.
#[derive(Debug, Default)]
pub struct Layers {
    pub nand: FlashStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub gc_migrations: u64,
    pub registry: BTreeMap<String, u64>,
    pub free_blocks_min: Option<usize>,
    /// Per-SELECT execution reports.
    pub selects: u64,
    /// Simulated time of the SELECT calls as the clock saw it, and the
    /// part of it the execution reports cover.
    pub select_clock_ns: u64,
    pub exec_total_ns: u64,
    pub exec_unattributed_ns: u64,
    pub ram_peak: usize,
    pub bus_to_device: u64,
    pub bus_to_pc: u64,
    pub ops: BTreeMap<String, (u64, u64)>,
    pub bloom_in: u64,
    pub bloom_out: u64,
    pub plans_enumerated: Vec<f64>,
    pub plan_calls_host_us: Vec<f64>,
    /// Traced vs untraced SELECT host latencies (ms), interleaved.
    pub traced_select_host: Vec<f64>,
    pub untraced_select_host: Vec<f64>,
    /// Mutations by kind: (statements, sim ns).
    pub writes: BTreeMap<&'static str, (u64, u64)>,
    pub flush_count: u64,
    pub flush_sim_ns: u64,
    pub flush_programmed: u64,
    pub flush_delta_rows: u64,
    pub capture_host_us: Vec<f64>,
    pub pinned_pages_max: usize,
    pub pin_deferred_max: usize,
    /// The set-up seal: medians over the set-ups, and the image size.
    pub seal_sim_ms: Option<f64>,
    pub seal_host_ms: Option<f64>,
    pub seal_image_bytes: Option<u64>,
    pub mount_page_reads: Vec<f64>,
    pub mount_replayed: Vec<f64>,
    pub ram_at_rest: usize,
    pub cache_charge: usize,
}

impl Layers {
    /// Fold the counter movement of one database instance in.
    pub fn absorb(&mut self, before: &Counters, after: &Counters) {
        let d = after.nand.since(&before.nand);
        self.nand.page_reads += d.page_reads;
        self.nand.bytes_read += d.bytes_read;
        self.nand.page_programs += d.page_programs;
        self.nand.bytes_programmed += d.bytes_programmed;
        self.nand.block_erases += d.block_erases;
        self.cache_hits += after.cache.hits - before.cache.hits;
        self.cache_misses += after.cache.misses - before.cache.misses;
        self.cache_evictions += after.cache.evictions - before.cache.evictions;
        self.gc_migrations += after.gc.pages_migrated - before.gc.pages_migrated;
        for (name, v) in &after.registry {
            let base = before.registry.get(name).copied().unwrap_or(0);
            *self.registry.entry(name.clone()).or_default() += v.saturating_sub(base);
        }
    }

    /// Fold one SELECT's execution report in; `clock_ns` is the simulated
    /// time the whole call took.
    pub fn exec(&mut self, report: &ExecReport, clock_ns: u64) {
        self.selects += 1;
        self.select_clock_ns += clock_ns;
        self.exec_total_ns += report.total_ns;
        let attributed: u64 = report.ops.iter().map(|o| o.sim_ns).sum();
        self.exec_unattributed_ns += report.total_ns.saturating_sub(attributed);
        self.ram_peak = self.ram_peak.max(report.ram_peak);
        self.bus_to_device += report.bus_bytes_to_device;
        self.bus_to_pc += report.bus_bytes_to_pc;
        for op in &report.ops {
            let e = self.ops.entry(op.name.clone()).or_default();
            e.0 += op.sim_ns;
            e.1 += op.tuples_in;
            if op.name == "bloom-probe" {
                self.bloom_in += op.tuples_in;
                self.bloom_out += op.tuples_out;
            }
        }
    }

    pub fn observe_volume(&mut self, db: &GhostDb) {
        let free = db.volume().usage().free_blocks;
        self.free_blocks_min = Some(self.free_blocks_min.map_or(free, |m| m.min(free)));
        let pins = db.volume().pin_stats();
        self.pinned_pages_max = self.pinned_pages_max.max(pins.snapshot_pinned);
        self.pin_deferred_max = self.pin_deferred_max.max(pins.snapshot_deferred);
    }

    pub fn write(&mut self, kind: &'static str, sim_ns: u64) {
        let e = self.writes.entry(kind).or_default();
        e.0 += 1;
        e.1 += sim_ns;
    }

    pub fn at_rest(&mut self, db: &GhostDb) {
        self.ram_at_rest = db.ram().used();
        self.cache_charge = db.volume().page_cache_stats().charged_bytes;
    }
}

/// One benchmark-side span. Spans of one statement share `stmt`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    pub parent: u32,
    pub stmt: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub sim_ns: u64,
}

/// In-memory span recorder, written out when the run ends. Ids start at
/// 1; parent 0 is "no parent".
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &str,
        parent: u32,
        stmt: u64,
        start: Instant,
        end: Instant,
        sim_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            id,
            parent,
            stmt,
            name: name.to_string(),
            start_ns,
            end_ns,
            sim_ns,
        });
        id
    }

    /// Attach the engine's flight-recorder tree under `parent`. Its
    /// offsets count from the statement's own start inside the engine,
    /// which is placed at the call's start.
    pub fn attach_flight(&mut self, parent: u32, stmt: u64, call_start: Instant, span: &Span) {
        let base = self.ns(call_start);
        self.attach_rec(parent, stmt, base, span);
    }

    fn attach_rec(&mut self, parent: u32, stmt: u64, base: u64, span: &Span) {
        let id = self.spans.len() as u32 + 1;
        let name = match span.name.as_str() {
            "statement" => "flight.statement".to_string(),
            "parse" | "bind" | "plan" | "execute" => format!("flight.{}", span.name),
            op => format!("flight.op.{op}"),
        };
        self.spans.push(SpanRec {
            id,
            parent,
            stmt,
            name,
            start_ns: base + span.start_ns,
            end_ns: base + span.end_ns,
            sim_ns: span.attr("sim_ns").unwrap_or(0),
        });
        for child in &span.children {
            self.attach_rec(id, stmt, base, child);
        }
    }

    /// Per span name: (count, total host ns, self host ns, sim ns). Self
    /// time is the span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered[s.id as usize]);
            e.3 += s.sim_ns;
        }
        out
    }

    /// One JSON object per line, for the first `limit` spans.
    pub fn to_jsonl(&self, limit: usize) -> String {
        let mut out = String::new();
        for s in self.spans.iter().take(limit) {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"sim_ns\":{}}}",
                s.id, s.parent, s.stmt, s.name, s.start_ns, s.end_ns, s.sim_ns
            );
        }
        out
    }
}
