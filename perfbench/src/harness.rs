//! The closed loop's engine-call wrappers: every statement goes through
//! here, is timed in host and simulated time, lands in the end-to-end
//! tally, and — in a traced run — leaves benchmark-side spans plus the
//! engine's flight-recorder tree.

use std::time::Instant;

use ghostdb_core::{GhostDb, QueryOutcome, Snapshot};
use ghostdb_types::{Result, Value};

use crate::measure::{Counters, Kind, Layers, Rng, Tally, Tracer};

/// When the measured loop stops: after `--seconds` of host time spent
/// inside engine calls (the oracle's checks do not count, so a costly
/// check does not shrink the sample), or after a fixed statement count
/// (the repeatability check, where the work must not depend on host
/// speed).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Statements(u64),
}

pub struct Harness {
    pub trace: bool,
    pub tally: Tally,
    pub layers: Layers,
    pub tracer: Tracer,
    budget: Budget,
    stmt: u64,
    rows_since_flush: u64,
    coin: Rng,
}

/// Rows of one result, in the order the engine returned them.
pub type Rows = Vec<Vec<Value>>;

impl Harness {
    pub fn new(trace: bool, budget: Budget) -> Harness {
        Harness {
            trace,
            tally: Tally::default(),
            layers: Layers::default(),
            tracer: Tracer::new(),
            budget,
            stmt: 0,
            rows_since_flush: 0,
            coin: Rng::new(0x7ace),
        }
    }

    /// Whether the measured loop should issue another statement.
    pub fn more(&self) -> bool {
        match self.budget {
            Budget::Seconds(s) => (self.tally.engine_ns() as f64) < s * 1e9,
            Budget::Statements(n) => self.stmt < n,
        }
    }

    /// In a traced run a seeded coin leaves half the statements
    /// untraced, so the tracing overhead is measured on the same stream,
    /// interleaved (a coin, not parity: the workloads repeat fixed-length
    /// patterns that parity would split unevenly).
    fn traced_now(&mut self) -> bool {
        self.trace && self.coin.below(2) == 1
    }

    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.tally.failed += 1;
        eprintln!("perfbench: {what} failed: {e}");
        if self.tally.notes.len() < 20 {
            self.tally.notes.push(format!("{what}: {e}"));
        }
    }

    /// Run a SELECT on the live database.
    pub fn select(&mut self, db: &GhostDb, sql: &str) -> Option<Rows> {
        let traced = self.traced_now();
        db.set_tracing(traced);
        let sim0 = db.clock().now();
        let start = Instant::now();
        let out = db.query(sql);
        let end = Instant::now();
        let sim = db.clock().now().since(sim0);
        let flight = if traced { db.last_trace() } else { None };
        db.set_tracing(false);
        db.clear_trace();
        let out = self.finish_select(out, sim, start, end, traced, "GhostDb::query")?;
        if traced {
            let id = self.tracer.spans.len() as u32; // the call span just recorded
            if let Some(span) = flight {
                self.tracer.attach_flight(id, self.stmt, start, &span);
            }
            let p0 = Instant::now();
            match db.plans(sql) {
                Ok(plans) => self.layers.plans_enumerated.push(plans.len() as f64),
                Err(e) => self.fail("plans", e),
            }
            self.layers
                .plan_calls_host_us
                .push(p0.elapsed().as_nanos() as f64 / 1e3);
            self.layers.observe_volume(db);
        }
        Some(out)
    }

    /// Run a SELECT on a snapshot session.
    pub fn select_snapshot(&mut self, db: &GhostDb, snap: &Snapshot, sql: &str) -> Option<Rows> {
        let traced = self.traced_now();
        let sim0 = db.clock().now();
        let start = Instant::now();
        let out = snap.query(sql);
        let end = Instant::now();
        let sim = db.clock().now().since(sim0);
        db.clear_trace();
        self.finish_select(out, sim, start, end, traced, "Snapshot::query")
    }

    fn finish_select(
        &mut self,
        out: Result<QueryOutcome>,
        sim: u64,
        start: Instant,
        end: Instant,
        traced: bool,
        call: &str,
    ) -> Option<Rows> {
        self.stmt += 1;
        self.tally.attempted += 1;
        let host = (end - start).as_nanos() as u64;
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                self.fail(call, e);
                return None;
            }
        };
        self.tally.record(Kind::Select, sim, host);
        if self.trace {
            self.layers.exec(&out.report, sim);
            let host_ms = host as f64 / 1e6;
            if traced {
                self.layers.traced_select_host.push(host_ms);
                let root = self
                    .tracer
                    .record("stmt.select", 0, self.stmt, start, end, sim);
                self.tracer.record(call, root, self.stmt, start, end, sim);
            } else {
                self.layers.untraced_select_host.push(host_ms);
            }
        }
        Some(out.rows.rows)
    }

    /// Run one DML call. `f` returns (rows affected, flush tripped), and
    /// so does this, or `None` when the call failed (counted). `call`
    /// names the public method for the span, `kind` (insert, update or
    /// delete) the statement class for the per-layer write costs;
    /// `user_bytes` is what the statement asks to be stored.
    pub fn mutate(
        &mut self,
        db: &mut GhostDb,
        call: &str,
        kind: &'static str,
        user_bytes: u64,
        f: impl FnOnce(&mut GhostDb) -> Result<(u64, bool)>,
    ) -> Option<(u64, bool)> {
        let traced = self.traced_now();
        let programmed0 = db.nand().stats().bytes_programmed;
        let sim0 = db.clock().now();
        let start = Instant::now();
        let out = f(db);
        let end = Instant::now();
        let sim = db.clock().now().since(sim0);
        db.clear_trace();
        self.stmt += 1;
        self.tally.attempted += 1;
        let (rows, flushed) = match out {
            Ok(r) => r,
            Err(e) => {
                self.fail(kind, e);
                return None;
            }
        };
        let host = (end - start).as_nanos() as u64;
        self.tally
            .record(if flushed { Kind::Flush } else { Kind::Write }, sim, host);
        self.tally.user_bytes(user_bytes);
        self.rows_since_flush += rows;
        if self.trace {
            if flushed {
                let l = &mut self.layers;
                l.flush_count += 1;
                l.flush_sim_ns += sim;
                l.flush_programmed += db.nand().stats().bytes_programmed - programmed0;
                l.flush_delta_rows += self.rows_since_flush;
            } else {
                self.layers.write(kind, sim);
            }
            if traced {
                let name = if flushed { "stmt.flush" } else { "stmt.write" };
                let root = self.tracer.record(name, 0, self.stmt, start, end, sim);
                self.tracer.record(call, root, self.stmt, start, end, sim);
            }
            self.layers.observe_volume(db);
        }
        if flushed {
            self.rows_since_flush = 0;
        }
        Some((rows, flushed))
    }

    /// Capture a snapshot session (timed as overhead, not a statement).
    pub fn capture(&mut self, db: &GhostDb) -> Option<Snapshot> {
        let start = Instant::now();
        let snap = db.snapshot();
        let end = Instant::now();
        let host = (end - start).as_nanos() as u64;
        self.tally.overhead(host);
        if self.trace {
            self.layers.capture_host_us.push(host as f64 / 1e3);
            self.tracer
                .record("GhostDb::snapshot", 0, self.stmt, start, end, 0);
        }
        match snap {
            Ok(s) => Some(s),
            Err(e) => {
                self.fail("snapshot", e);
                None
            }
        }
    }

    /// Drop a snapshot session, timed as overhead.
    pub fn release(&mut self, db: &GhostDb, snap: Snapshot) {
        if self.trace {
            self.layers.observe_volume(db);
        }
        let start = Instant::now();
        drop(snap);
        self.tally.overhead(start.elapsed().as_nanos() as u64);
    }

    /// Unplug and remount: drop the database keeping only its NAND part,
    /// then `GhostDb::mount` it. Counter movement of the old instance is
    /// folded into the per-layer totals first. Returns the new instance.
    pub fn unplug_and_mount(
        &mut self,
        db: GhostDb,
        since: &Counters,
        replayed_records: u64,
    ) -> Option<GhostDb> {
        if self.trace {
            self.layers.absorb(since, &Counters::read(&db));
        }
        let nand = db.nand().clone();
        let config = db.config().clone();
        let clock = db.clock().clone();
        let start = Instant::now();
        drop(db);
        let dropped = Instant::now();
        self.tally.overhead((dropped - start).as_nanos() as u64);
        let reads0 = nand.stats().page_reads;
        let sim0 = clock.now();
        let mounted = GhostDb::mount(nand.clone(), config);
        let end = Instant::now();
        let sim = clock.now().since(sim0);
        let db = match mounted {
            Ok(db) => db,
            Err(e) => {
                self.fail("mount", e);
                return None;
            }
        };
        self.tally
            .record(Kind::Mount, sim, (end - dropped).as_nanos() as u64);
        if self.trace {
            self.layers
                .mount_page_reads
                .push((nand.stats().page_reads - reads0) as f64);
            self.layers.mount_replayed.push(replayed_records as f64);
            self.tracer
                .record("GhostDb::mount", 0, self.stmt, dropped, end, sim);
        }
        Some(db)
    }
}
