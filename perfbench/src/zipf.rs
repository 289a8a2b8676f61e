//! `zipf_mixed`: the one-million-row `Event` table under the read-heavy
//! zipfian operation stream (80 % point reads, 10 % inserts, 8 %
//! updates, 2 % deletes, θ = 0.99). Flushes fire through the engine's
//! own `delta_flush_rows` threshold and are charged to the statement
//! that trips them. Once per flush cycle the loop captures a snapshot,
//! queries it, keeps it open across the next flush, queries it again and
//! drops it.
//!
//! Reads are checked against a host-side mirror of the table (every
//! snapshot read, and every `READ_CHECK_EVERY`-th live read: a full
//! check scans a million rows, which would cost more than the read).

use std::time::Instant;

use ghostdb_core::{GhostDb, Snapshot};
use ghostdb_types::{ColumnId, DeviceConfig, Result, RowId, TableId, Value};
use ghostdb_workload::{
    generate_scale, scale_point_query, scale_row, OpStream, ScaleConfig, ScaleMix, ScaleOp,
    SCALE_DDL,
};

use crate::harness::{Harness, Rows};
use crate::measure::Counters;
use crate::{row_bytes, Opts, SETUP_REPS};

/// The paper's root cardinality.
pub const ROWS: usize = 1_000_000;

const EVENT: TableId = TableId(0);
const PAYLOAD: ColumnId = ColumnId(2);

/// Statements after a flush at which the cycle's snapshot is captured.
const SNAPSHOT_AT: u64 = 2_000;

/// Live reads checked against the mirror: one in this many.
const READ_CHECK_EVERY: u64 = 32;

/// Logical ids whose payload is `v`, as the point query returns them.
fn expected(mirror: &[i32], v: i64) -> Rows {
    mirror
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p as i64 == v)
        .map(|(i, _)| vec![Value::Int(i as i64)])
        .collect()
}

/// A snapshot held across one flush, with the answer it must keep.
struct Held {
    snap: Snapshot,
    sql: String,
    want: Rows,
}

pub fn run(opts: &Opts, h: &mut Harness) -> Result<()> {
    h.tally.tail_cap = 0.999;
    let cfg = ScaleConfig::scaled(ROWS).with_seed(opts.input_seed);
    let mut loaded: Option<GhostDb> = None;
    let mut mirror: Vec<i32> = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let t0 = Instant::now();
        let data = generate_scale(&cfg)?;
        let db = GhostDb::create(SCALE_DDL, DeviceConfig::default_2007(), &data)?;
        h.tally.setup_s.push(t0.elapsed().as_secs_f64());
        mirror = (0..data.row_count(EVENT))
            .map(|r| data.value(EVENT, PAYLOAD.index(), RowId(r as u32)))
            .map(|v| v.as_int().expect("integer payload") as i32)
            .collect();
        loaded = Some(db);
    }
    let mut db = loaded.expect("at least one set-up");
    db.clear_trace();

    let mut ops = OpStream::new(&cfg, ScaleMix::read_heavy(), opts.input_seed ^ 0x00dd_ba11);
    let before = Counters::read(&db);
    let mut committed_programmed = db.nand().stats().bytes_programmed;
    let mut since_flush = 0u64;
    let mut reads = 0u64;
    let mut last_read = 0i64;
    let mut held: Option<Held> = None;
    // Throughput counts whole flush cycles only, so the loop always
    // finishes the first one.
    while (h.more() || !h.tally.has_committed()) && h.tally.failed == 0 {
        let op = ops.next_op();
        let flushed = match op {
            ScaleOp::Read(v) => {
                last_read = v;
                let sql = scale_point_query(v);
                if let Some(rows) = h.select(&db, &sql) {
                    reads += 1;
                    if reads.is_multiple_of(READ_CHECK_EVERY) {
                        let want = expected(&mirror, v);
                        h.tally.check(rows == want, || {
                            format!("{sql}: engine {} rows, mirror {}", rows.len(), want.len())
                        });
                    }
                }
                false
            }
            ScaleOp::Insert => {
                let row = scale_row(&cfg, mirror.len() as i64);
                let payload = row[PAYLOAD.index()].as_int().expect("integer payload") as i32;
                let bytes = row_bytes(&row);
                let Some((_, flushed)) =
                    h.mutate(&mut db, "GhostDb::insert_rows", "insert", bytes, |db| {
                        db.insert_rows(EVENT, vec![row])
                            .map(|r| (r.rows, r.flushed))
                    })
                else {
                    break;
                };
                mirror.push(payload);
                flushed
            }
            ScaleOp::Update(row, val) => {
                let Some((_, flushed)) =
                    h.mutate(&mut db, "GhostDb::update_rows", "update", 8, |db| {
                        db.update_rows(EVENT, vec![RowId(row)], vec![(PAYLOAD, Value::Int(val))])
                            .map(|r| (r.rows, r.flushed))
                    })
                else {
                    break;
                };
                mirror[row as usize] = val as i32;
                flushed
            }
            ScaleOp::Delete(row) => {
                let Some((_, flushed)) =
                    h.mutate(&mut db, "GhostDb::delete_rows", "delete", 8, |db| {
                        db.delete_rows(EVENT, vec![RowId(row)])
                            .map(|r| (r.rows, r.flushed))
                    })
                else {
                    break;
                };
                mirror.remove(row as usize);
                flushed
            }
        };
        if flushed {
            let programmed = db.nand().stats().bytes_programmed;
            h.tally.commit(programmed - committed_programmed);
            committed_programmed = programmed;
            since_flush = 0;
            if let Some(Held { snap, sql, want }) = held.take() {
                if let Some(rows) = h.select_snapshot(&db, &snap, &sql) {
                    h.tally.check(rows == want, || {
                        format!("{sql}: snapshot answer changed across a flush")
                    });
                }
                h.release(&db, snap);
            }
            continue;
        }
        since_flush += 1;
        if since_flush == SNAPSHOT_AT && held.is_none() {
            let Some(snap) = h.capture(&db) else { break };
            let sql = scale_point_query(last_read);
            let want = expected(&mirror, last_read);
            if let Some(rows) = h.select_snapshot(&db, &snap, &sql) {
                h.tally.check(rows == want, || {
                    format!("{sql}: snapshot {} rows, mirror {}", rows.len(), want.len())
                });
            }
            held = Some(Held { snap, sql, want });
        }
    }
    if let Some(Held { snap, .. }) = held.take() {
        h.release(&db, snap);
    }
    if h.trace {
        h.layers.absorb(&before, &Counters::read(&db));
        h.layers.at_rest(&db);
    }
    // Every Event row has the same width (fixed-width tag).
    let event_bytes = row_bytes(&scale_row(&cfg, 0)) * mirror.len() as u64;
    h.tally.live_bytes = crate::live_flash_bytes(&db);
    h.tally.logical_bytes = event_bytes;
    Ok(())
}
