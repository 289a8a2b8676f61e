//! `durable_cycle`: the medical schema at 20k prescriptions, sealed once
//! during set-up, then looping
//!
//! 1. a trickle of WAL-logged INSERT / UPDATE / DELETE statements,
//! 2. a fixed set of verification SELECTs,
//! 3. unplug: drop the `GhostDb`, keep only its `nand()`,
//! 4. `GhostDb::mount`,
//! 5. the verification SELECTs again, which must return the same rows.
//!
//! One trickle mutates exactly `delta_flush_rows` rows, and set-up runs
//! half a trickle after the seal, so every cycle trips exactly one
//! automatic flush (a re-seal) halfway through and unplugs with half a
//! flush period in the WAL for mount to replay.
//!
//! Besides comparing answers across the unplug, the loop keeps a
//! host-side mirror of `Prescription.Quantity` and checks the count and
//! sum the engine reports against it.

use std::time::Instant;

use ghostdb_core::{ExecOutcome, GhostDb};
use ghostdb_types::{Date, DeviceConfig, GhostError, Result, Value};
use ghostdb_workload::{
    game_queries, generate_medical, medical_schema, MedicalConfig, MEDICAL_DDL,
};

use crate::harness::{Harness, Rows};
use crate::measure::{median, Counters, Deck, Rng};
use crate::{dataset_bytes, live_flash_bytes, Opts, SETUP_REPS};

/// Root cardinality. The image must fit the default 1 MiB metadata
/// slot: 20k seals to about 485 KB, 50k does not seal at all.
pub const PRESCRIPTIONS: usize = 20_000;

/// Rows per DML statement.
const BATCH: usize = 32;

/// Logical width of one `Prescription` row: three integers, two foreign
/// keys and one date (8 + 8 + 8 + 4 + 8 + 8 bytes).
const PRESCRIPTION_BYTES: u64 = 44;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dml {
    Insert,
    Update,
    Delete,
}

/// Statements in one trickle.
const TRICKLE: usize = 128;

/// One trickle: 40 inserts, 48 updates and 40 deletes of `BATCH` rows —
/// 4096 rows, the default flush threshold, with a stable table size.
fn trickle_deck() -> Deck<Dml> {
    let mut cards = vec![Dml::Insert; 40];
    cards.extend([Dml::Update; 48]);
    cards.extend([Dml::Delete; 40]);
    Deck::new(cards)
}

/// The fixed verification set: a count/sum the mirror can check, the
/// five plan-game queries, two GROUP BYs over the hidden purpose, and a
/// hidden/visible selection on the root. Nine statements, an odd count:
/// each statement is its own cluster of latencies, and with an even
/// count the median would sit on the edge between two of them.
fn verification(cfg: &MedicalConfig) -> Vec<String> {
    let mut v = vec!["SELECT COUNT(*), SUM(Pre.Quantity) FROM Prescription Pre".to_string()];
    v.extend(
        game_queries(cfg.date_start, cfg.date_span_days)
            .into_iter()
            .map(|q| q.sql),
    );
    v.push(
        "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity) \
         FROM Prescription Pre, Visit Vis WHERE Vis.VisID = Pre.VisID \
         GROUP BY Vis.Purpose ORDER BY Vis.Purpose"
            .to_string(),
    );
    v.push(
        "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre \
         WHERE Pre.Quantity = 9 AND Pre.Frequency = 4"
            .to_string(),
    );
    v.push(
        "SELECT Vis.Purpose, COUNT(*) FROM Visit Vis \
         GROUP BY Vis.Purpose ORDER BY Vis.Purpose"
            .to_string(),
    );
    v
}

/// One generated DML statement and what the mirror needs to apply it.
struct Op {
    kind: Dml,
    sql: String,
    /// Bytes the statement asks to store (the write-amplification base).
    user_bytes: u64,
    /// First logical id an UPDATE or DELETE touches.
    first: usize,
    /// Quantities of the inserted rows, or the one an UPDATE sets.
    quantities: Vec<i64>,
}

/// The DML generator and the host-side mirror of `Prescription.Quantity`
/// (one entry per live row, in logical-id order).
struct Trickle {
    rng: Rng,
    deck: Deck<Dml>,
    quantity: Vec<i64>,
    cfg: MedicalConfig,
}

impl Trickle {
    fn next(&mut self) -> Op {
        let kind = self.deck.deal(&mut self.rng);
        let live = self.quantity.len();
        let first = self.rng.below((live - BATCH) as u64) as usize;
        let last = first + BATCH - 1;
        match kind {
            Dml::Insert => {
                let mut quantities = Vec::with_capacity(BATCH);
                let rows: Vec<String> = (0..BATCH)
                    .map(|i| {
                        let q = 1 + self.rng.below(9) as i64;
                        quantities.push(q);
                        let day = self.rng.below(self.cfg.date_span_days as u64) as i32;
                        format!(
                            "({}, {q}, {}, '{}', {}, {})",
                            live + i,
                            1 + self.rng.below(4),
                            Date(self.cfg.date_start.0 + day),
                            self.rng.below(self.cfg.medicines as u64),
                            self.rng.below(self.cfg.visits() as u64),
                        )
                    })
                    .collect();
                Op {
                    kind,
                    sql: format!("INSERT INTO Prescription VALUES {}", rows.join(", ")),
                    user_bytes: BATCH as u64 * PRESCRIPTION_BYTES,
                    first: live,
                    quantities,
                }
            }
            Dml::Update => {
                let q = 1 + self.rng.below(9) as i64;
                Op {
                    kind,
                    sql: format!(
                        "UPDATE Prescription SET Quantity = {q} \
                         WHERE PreID BETWEEN {first} AND {last}"
                    ),
                    user_bytes: BATCH as u64 * 8,
                    first,
                    quantities: vec![q],
                }
            }
            Dml::Delete => Op {
                kind,
                sql: format!("DELETE FROM Prescription WHERE PreID BETWEEN {first} AND {last}"),
                user_bytes: BATCH as u64 * 8,
                first,
                quantities: Vec::new(),
            },
        }
    }

    /// Apply a statement the engine accepted to the mirror.
    fn apply(&mut self, op: &Op) {
        let range = op.first..op.first + BATCH;
        match op.kind {
            Dml::Insert => self.quantity.extend(&op.quantities),
            Dml::Update => self.quantity[range].fill(op.quantities[0]),
            Dml::Delete => {
                self.quantity.drain(range);
            }
        }
    }
}

/// Run one trickle statement through the harness.
fn dml(h: &mut Harness, db: &mut GhostDb, t: &mut Trickle) -> Option<bool> {
    let op = t.next();
    let name = match op.kind {
        Dml::Insert => "insert",
        Dml::Update => "update",
        Dml::Delete => "delete",
    };
    let (rows, flushed) = h.mutate(db, "GhostDb::execute", name, op.user_bytes, |db| {
        match db.execute(&op.sql)?.pop() {
            Some(ExecOutcome::Insert(r)) => Ok((r.rows, r.flushed)),
            Some(ExecOutcome::Update(r) | ExecOutcome::Delete(r)) => Ok((r.rows, r.flushed)),
            _ => Err(GhostError::exec(
                "DML statement returned no mutation report",
            )),
        }
    })?;
    h.tally.check(rows == BATCH as u64, || {
        format!("{}: touched {rows} rows, expected {BATCH}", op.sql)
    });
    t.apply(&op);
    Some(flushed)
}

/// Run the verification set; `None` entries failed to execute.
fn verify(h: &mut Harness, db: &GhostDb, set: &[String]) -> Vec<Option<Rows>> {
    set.iter().map(|sql| h.select(db, sql)).collect()
}

pub fn run(opts: &Opts, h: &mut Harness) -> Result<()> {
    h.tally.tail_cap = 0.9;
    let cfg = MedicalConfig::scaled(PRESCRIPTIONS).with_seed(opts.input_seed);
    let config = DeviceConfig::default_2007();
    let rows_per_trickle = TRICKLE * BATCH;
    if rows_per_trickle != config.delta_flush_rows {
        return Err(GhostError::exec(format!(
            "one trickle mutates {rows_per_trickle} rows, the flush threshold is {}",
            config.delta_flush_rows
        )));
    }
    let mut loaded = None;
    let (mut seal_sim, mut seal_host) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let t0 = Instant::now();
        let data = generate_medical(&cfg)?;
        let mut db = GhostDb::create(MEDICAL_DDL, config.clone(), &data)?;
        let s0 = Instant::now();
        let seal = db.seal()?;
        let end = Instant::now();
        h.tally.setup_s.push((end - t0).as_secs_f64());
        seal_sim.push(seal.sim_ns as f64 / 1e6);
        seal_host.push((end - s0).as_secs_f64() * 1e3);
        h.layers.seal_image_bytes = Some(seal.image_bytes);
        loaded = Some((db, data));
    }
    let (mut db, data) = loaded.expect("at least one set-up");
    h.layers.seal_sim_ms = Some(median(&seal_sim));
    h.layers.seal_host_ms = Some(median(&seal_host));
    let schema = medical_schema()?;
    let base_bytes = dataset_bytes(&data, &schema);
    let base_rows = PRESCRIPTIONS as u64;

    let prescription = schema.resolve_table("Prescription")?;
    let mut t = Trickle {
        rng: Rng::new(opts.input_seed ^ 0xd0_0ab1e),
        deck: trickle_deck(),
        quantity: (0..data.row_count(prescription))
            .map(|r| {
                let v = data.value(prescription, 1, ghostdb_types::RowId(r as u32));
                v.as_int().expect("integer quantity")
            })
            .collect(),
        cfg: cfg.clone(),
    };
    drop(data);
    // Warm-up, outside the measurement: half a trickle puts the flush
    // halfway through every measured cycle.
    for _ in 0..TRICKLE / 2 {
        let op = t.next();
        db.execute(&op.sql)?;
        t.apply(&op);
    }
    db.clear_trace();

    let set = verification(&cfg);
    let mut since = Counters::read(&db);
    let mut committed_programmed = db.nand().stats().bytes_programmed;
    while (h.more() || !h.tally.has_committed()) && h.tally.failed == 0 {
        let mut logged = 0u64;
        for _ in 0..TRICKLE {
            let Some(flushed) = dml(h, &mut db, &mut t) else {
                break;
            };
            // Each statement is one WAL record; a flush re-seals and
            // truncates the log.
            logged = if flushed { 0 } else { logged + 1 };
        }
        if h.tally.failed > 0 {
            break;
        }
        let before = verify(h, &db, &set);
        let Some(mounted) = h.unplug_and_mount(db, &since, logged) else {
            return Err(GhostError::exec("mount failed"));
        };
        db = mounted;
        since = Counters::read(&db);
        let after = verify(h, &db, &set);
        for ((sql, b), a) in set.iter().zip(&before).zip(&after) {
            h.tally.check(b == a, || {
                format!("{sql}: answer changed across unplug/mount")
            });
        }
        let want = vec![vec![
            Value::Int(t.quantity.len() as i64),
            Value::Int(t.quantity.iter().sum()),
        ]];
        h.tally.check(after[0].as_ref() == Some(&want), || {
            format!("{}: engine {:?}, mirror {want:?}", set[0], after[0])
        });
        let programmed = db.nand().stats().bytes_programmed;
        h.tally.commit(programmed - committed_programmed);
        committed_programmed = programmed;
    }
    if h.trace {
        h.layers.absorb(&since, &Counters::read(&db));
        h.layers.at_rest(&db);
    }
    let live_rows = t.quantity.len() as u64;
    let logical = base_bytes + live_rows * PRESCRIPTION_BYTES - base_rows * PRESCRIPTION_BYTES;
    h.tally.live_bytes = live_flash_bytes(&db);
    h.tally.logical_bytes = logical;
    Ok(())
}
