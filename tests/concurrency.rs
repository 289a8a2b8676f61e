//! PR 8 acceptance: snapshot isolation under a live writer.
//!
//! One writer thread owns the `&mut GhostDb` and keeps applying random
//! insert/delete/update batches and delta flushes, mirroring every
//! mutation into the host-side `Vec`-semantics oracle from
//! `properties.rs`. At random points it captures an epoch-stamped
//! [`Snapshot`] together with the mirror's dataset *at that instant*
//! and ships the pair to one of N reader threads. Each reader loads the
//! dataset into a fresh `GhostDb::create` — the ground truth for that
//! epoch — and checks that every query on the snapshot returns exactly
//! what the fresh load returns, while the writer keeps mutating and
//! flushing underneath it. After all readers drain and drop their
//! snapshots, the volume must hold zero snapshot pins (no leaked
//! deferred frees) and the writer's own state must still match the
//! mirror.

use std::sync::mpsc;
use std::thread;

use ghostdb::{GhostDb, Snapshot};
use ghostdb_storage::Dataset;
use ghostdb_types::{ColumnId, DeviceConfig, RowId, TableId, Value};

const DDL: &str = "\
    CREATE TABLE Child (
      cid INTEGER PRIMARY KEY,
      vis INTEGER,
      hid INTEGER HIDDEN,
      tag CHAR(12) HIDDEN);
    CREATE TABLE Root (
      rid INTEGER PRIMARY KEY,
      amt INTEGER HIDDEN,
      cid REFERENCES Child(cid) HIDDEN);";

const QUERIES: &[&str] = &[
    "SELECT Root.rid, Child.tag FROM Root, Child \
     WHERE Child.tag = 'tag-3' AND Root.cid = Child.cid",
    "SELECT Root.rid, Child.hid FROM Root, Child \
     WHERE Child.hid >= 20 AND Child.vis < 40 AND Root.cid = Child.cid",
    "SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-3'",
    "SELECT Root.rid, Root.cid FROM Root WHERE Root.amt <= 25",
];

/// Host-side oracle: plain vectors mutated with `Vec::remove`
/// semantics — the logical view a snapshot of the same instant must
/// expose (same shape as the `properties.rs` mutation oracle).
#[derive(Clone, Default)]
struct Mirror {
    /// (vis, hid, tag) per live child, dense.
    children: Vec<(i64, i64, String)>,
    /// (amt, cid) per live root, dense; cid indexes `children`.
    roots: Vec<(i64, i64)>,
}

impl Mirror {
    fn dataset(&self, schema: &ghostdb_catalog::Schema) -> Dataset {
        let mut d = Dataset::empty(schema);
        for (i, (vis, hid, tag)) in self.children.iter().enumerate() {
            d.push_row(
                TableId(0),
                vec![
                    Value::Int(i as i64),
                    Value::Int(*vis),
                    Value::Int(*hid),
                    Value::Text(tag.clone()),
                ],
            )
            .unwrap();
        }
        for (i, (amt, cid)) in self.roots.iter().enumerate() {
            d.push_row(
                TableId(1),
                vec![Value::Int(i as i64), Value::Int(*amt), Value::Int(*cid)],
            )
            .unwrap();
        }
        d
    }

    fn referenced(&self, cid: i64) -> bool {
        self.roots.iter().any(|(_, c)| *c == cid)
    }
}

/// Apply `steps` random mutation batches to both the engine and the
/// mirror (insert children/roots, delete roots, RESTRICT-safe child
/// deletes, visible + hidden updates).
fn mutate(db: &mut GhostDb, mirror: &mut Mirror, next: &mut impl FnMut() -> i64, steps: usize) {
    for _ in 0..steps {
        match next().rem_euclid(6) {
            0 => {
                let n = 1 + next().rem_euclid(3) as usize;
                let start = mirror.children.len();
                let mut batch = Vec::new();
                for k in 0..n {
                    let (vis, hid) = (next() % 50, next() % 50);
                    let tag = format!("tag-{}", next().rem_euclid(6));
                    batch.push(vec![
                        Value::Int((start + k) as i64),
                        Value::Int(vis),
                        Value::Int(hid),
                        Value::Text(tag.clone()),
                    ]);
                    mirror.children.push((vis, hid, tag));
                }
                db.insert_rows(TableId(0), batch).unwrap();
            }
            1 => {
                if mirror.children.is_empty() {
                    continue;
                }
                let n = 1 + next().rem_euclid(4) as usize;
                let start = mirror.roots.len();
                let mut batch = Vec::new();
                for k in 0..n {
                    let amt = next() % 50;
                    let cid = next().rem_euclid(mirror.children.len() as i64);
                    batch.push(vec![
                        Value::Int((start + k) as i64),
                        Value::Int(amt),
                        Value::Int(cid),
                    ]);
                    mirror.roots.push((amt, cid));
                }
                db.insert_rows(TableId(1), batch).unwrap();
            }
            2 => {
                if mirror.roots.is_empty() {
                    continue;
                }
                let mut picks: Vec<u32> = (0..1 + next().rem_euclid(3))
                    .map(|_| next().rem_euclid(mirror.roots.len() as i64) as u32)
                    .collect();
                picks.sort_unstable();
                picks.dedup();
                db.delete_rows(TableId(1), picks.iter().map(|&r| RowId(r)).collect())
                    .unwrap();
                for &r in picks.iter().rev() {
                    mirror.roots.remove(r as usize);
                }
            }
            3 => {
                let free: Vec<usize> = (0..mirror.children.len())
                    .filter(|&c| !mirror.referenced(c as i64))
                    .collect();
                if free.is_empty() {
                    continue;
                }
                let c = free[next().rem_euclid(free.len() as i64) as usize];
                db.delete_rows(TableId(0), vec![RowId(c as u32)]).unwrap();
                mirror.children.remove(c);
                for (_, cid) in mirror.roots.iter_mut() {
                    if *cid > c as i64 {
                        *cid -= 1;
                    }
                }
            }
            4 => {
                if mirror.children.is_empty() {
                    continue;
                }
                let c = next().rem_euclid(mirror.children.len() as i64) as usize;
                let vis = next() % 50;
                let tag = format!("tag-{}", next().rem_euclid(12));
                db.update_rows(
                    TableId(0),
                    vec![RowId(c as u32)],
                    vec![
                        (ColumnId(1), Value::Int(vis)),
                        (ColumnId(3), Value::Text(tag.clone())),
                    ],
                )
                .unwrap();
                mirror.children[c].0 = vis;
                mirror.children[c].2 = tag;
            }
            _ => {
                if mirror.roots.is_empty() {
                    continue;
                }
                let mut picks: Vec<u32> = (0..1 + next().rem_euclid(2))
                    .map(|_| next().rem_euclid(mirror.roots.len() as i64) as u32)
                    .collect();
                picks.sort_unstable();
                picks.dedup();
                let amt = next() % 50;
                db.update_rows(
                    TableId(1),
                    picks.iter().map(|&r| RowId(r)).collect(),
                    vec![(ColumnId(1), Value::Int(amt))],
                )
                .unwrap();
                for &r in &picks {
                    mirror.roots[r as usize].0 = amt;
                }
            }
        }
    }
}

/// One reader thread: for every (snapshot, dataset, epoch) triple it
/// receives, load the dataset fresh (the epoch's ground truth) and
/// check the snapshot answers every query identically — racing the
/// writer the whole time. Returns how many snapshots it verified.
fn reader(
    rx: mpsc::Receiver<(Snapshot, Dataset, u64)>,
    config: DeviceConfig,
) -> thread::JoinHandle<usize> {
    thread::spawn(move || {
        let mut served = 0usize;
        while let Ok((snap, data, epoch)) = rx.recv() {
            assert_eq!(snap.epoch(), epoch, "snapshot carries its capture epoch");
            assert!(snap.pinned_pages() > 0, "a loaded db pins base segments");
            let oracle = GhostDb::create(DDL, config.clone(), &data).unwrap();
            for sql in QUERIES {
                let got = snap.query(sql).unwrap().rows.rows;
                let want = oracle.query(sql).unwrap().rows.rows;
                assert_eq!(got, want, "epoch {epoch}: {sql}");
            }
            // Explicit plans: P1 and P2 over the snapshot must agree.
            let spec = snap.bind(QUERIES[1]).unwrap();
            let pre = snap
                .query_with_plan(QUERIES[1], &snap.plan_pre(&spec))
                .unwrap();
            let post = snap
                .query_with_plan(QUERIES[1], &snap.plan_post(&spec))
                .unwrap();
            assert_eq!(pre.rows.rows, post.rows.rows, "epoch {epoch}: P1 vs P2");
            served += 1;
        }
        served
    })
}

#[test]
fn snapshots_stay_isolated_under_a_live_writer() {
    const READERS: usize = 4;
    const ROUNDS: usize = 16;

    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    // A small flush threshold so the writer's batches trip automatic
    // delta flushes (segment rewrites + frees) while snapshots are out.
    let config = DeviceConfig::default_2007().with_delta_flush_rows(24);

    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || -> i64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };

    // Base load.
    let mut mirror = Mirror::default();
    for _ in 0..8 {
        let (vis, hid) = (next() % 50, next() % 50);
        let tag = format!("tag-{}", next().rem_euclid(6));
        mirror.children.push((vis, hid, tag));
    }
    for _ in 0..16 {
        let amt = next() % 50;
        let cid = next().rem_euclid(mirror.children.len() as i64);
        mirror.roots.push((amt, cid));
    }
    let mut db = GhostDb::create(DDL, config.clone(), &mirror.dataset(&schema)).unwrap();

    let mut txs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..READERS {
        let (tx, rx) = mpsc::channel();
        txs.push(tx);
        handles.push(reader(rx, config.clone()));
    }

    // The writer: mutate, flush, capture, ship — the captured snapshot
    // is verified by a reader thread *while* later rounds mutate and
    // flush the same volume.
    let mut epochs = Vec::new();
    for round in 0..ROUNDS {
        mutate(&mut db, &mut mirror, &mut next, 3);
        if round % 4 == 3 {
            db.flush_deltas().unwrap();
        }
        let snap = db.snapshot().unwrap();
        let epoch = db.epoch();
        assert_eq!(snap.epoch(), epoch);
        epochs.push(epoch);
        txs[round % READERS]
            .send((snap, mirror.dataset(&schema), epoch))
            .unwrap();
    }
    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "every round commits mutations, so epochs strictly increase"
    );
    drop(txs);
    let verified: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(verified, ROUNDS, "every shipped snapshot was verified");

    // Leak check: with every snapshot dropped, no snapshot pin (and no
    // deferred-by-pin page) may remain on the volume.
    assert_eq!(db.open_snapshots(), 0, "all sessions deregistered");
    let pins = db.volume().pin_stats();
    assert_eq!(pins.snapshot_pinned, 0, "no leaked snapshot pins");
    assert_eq!(pins.snapshot_deferred, 0, "no leaked deferred frees");

    // And the writer's own state is still exactly the mirror.
    let fresh = GhostDb::create(DDL, config, &mirror.dataset(&schema)).unwrap();
    for sql in QUERIES {
        assert_eq!(
            db.query(sql).unwrap().rows.rows,
            fresh.query(sql).unwrap().rows.rows,
            "writer state after the run: {sql}"
        );
    }
}

/// PR 10: N snapshot readers hammer *overlapping* zipfian payload keys
/// through the shared page cache while the writer inserts, rewrites
/// payloads, and flushes underneath them. Isolation says every reader
/// keeps seeing its frozen epoch (the host-side census of the generated
/// dataset) no matter what the mirror absorbs or invalidates; the
/// shared-cache bookkeeping says the run ends with zero snapshot pins,
/// a hit counter that actually moved (the hot keys collide by
/// construction), and a scrape that agrees with the volume.
#[test]
fn zipfian_readers_share_the_page_cache_under_writer_churn() {
    use ghostdb_workload::{
        generate_scale, scale_point_query, scale_row, ScaleConfig, Zipfian, SCALE_DDL,
    };

    const READERS: usize = 4;
    const QUERIES_PER_READER: usize = 120;
    const EVENT: TableId = TableId(0);
    const PAYLOAD: ColumnId = ColumnId(2);

    let cfg = ScaleConfig::scaled(4_000);
    let data = generate_scale(&cfg).unwrap();
    let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
    let mut db = GhostDb::create(SCALE_DDL, config, &data).unwrap();
    assert!(
        db.volume().page_cache_stats().capacity_pages > 0,
        "default config arms the cache"
    );
    let hits_before = db.volume().page_cache_stats().hits;

    // Host-side census of the frozen dataset: rows per payload value.
    let mut census = std::collections::HashMap::new();
    for id in 0..cfg.rows as i64 {
        if let Value::Int(p) = scale_row(&cfg, id)[2] {
            *census.entry(p).or_insert(0usize) += 1;
        }
    }
    let census = std::sync::Arc::new(census);

    // All readers draw from the same zipfian distribution with different
    // seeds: distinct streams, identical hot set — cache-line contention
    // on the pages that hold the popular payload runs.
    let snap_epoch = {
        let mut handles = Vec::new();
        let epoch = db.epoch();
        for r in 0..READERS {
            let snap = db.snapshot().unwrap();
            assert_eq!(snap.epoch(), epoch);
            let census = census.clone();
            let mut zipf = Zipfian::new(
                cfg.payload_cardinality as u64,
                cfg.theta,
                0xd1ce ^ (r as u64) << 8,
            );
            handles.push(thread::spawn(move || {
                for _ in 0..QUERIES_PER_READER {
                    let p = zipf.next() as i64;
                    let got = snap.query(&scale_point_query(p)).unwrap().rows.len();
                    let want = census.get(&p).copied().unwrap_or(0);
                    assert_eq!(got, want, "frozen count for payload {p} drifted");
                }
            }));
        }

        // The writer churns the same table the whole time: appends (new
        // payload runs), payload rewrites (hidden-column updates dirty
        // exactly the pages the readers hammer), and delta flushes
        // (segment rewrites -> cache invalidation storms).
        let mut state = 0xace0_fba5eu64;
        let mut next = move || -> i64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let mut live = cfg.rows as i64;
        for round in 0..8 {
            let batch: Vec<Vec<Value>> = (0..16).map(|k| scale_row(&cfg, live + k)).collect();
            db.insert_rows(EVENT, batch).unwrap();
            live += 16;
            let picks: Vec<RowId> = (0..8)
                .map(|_| RowId(next().rem_euclid(live) as u32))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let fresh = next().rem_euclid(cfg.payload_cardinality as i64);
            db.update_rows(EVENT, picks, vec![(PAYLOAD, Value::Int(fresh))])
                .unwrap();
            if round % 2 == 1 {
                db.flush_deltas().unwrap();
            }
        }

        for h in handles {
            h.join().unwrap();
        }
        epoch
    };
    assert!(db.epoch() > snap_epoch, "the writer committed mutations");

    // Pin ledger: every reader dropped its snapshot on exit.
    assert_eq!(db.open_snapshots(), 0, "all reader sessions deregistered");
    let pins = db.volume().pin_stats();
    assert_eq!(pins.snapshot_pinned, 0, "no leaked snapshot pins");
    assert_eq!(pins.snapshot_deferred, 0, "no leaked deferred frees");

    // Cache sanity: the overlapping hot sets must have produced real
    // sharing, and the scrape must agree with the volume's own ledger.
    let cache = db.volume().page_cache_stats();
    assert!(
        cache.hits > hits_before,
        "overlapping zipfian readers never hit the shared mirror"
    );
    assert!(cache.resident_pages <= cache.capacity_pages);
    let snap_metrics = db.metrics();
    assert_eq!(
        snap_metrics.counter("ghostdb_page_cache_hits_total"),
        cache.hits
    );
    assert_eq!(
        snap_metrics.counter("ghostdb_page_cache_misses_total"),
        cache.misses
    );
    assert!(db.device_report().contains("page cache:"));
}

/// A snapshot captured at epoch E sees exactly epoch-E state even after
/// the writer mutates, flushes, and the volume garbage-collects — and a
/// snapshot captured *after* those mutations sees the new state. The
/// single-threaded distillation of the isolation property.
#[test]
fn snapshot_pins_its_epoch_across_flush_and_gc() {
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let config = DeviceConfig::default_2007().with_delta_flush_rows(0);

    let mut mirror = Mirror::default();
    for i in 0..6 {
        mirror.children.push((i, 10 * i, format!("tag-{i}")));
    }
    for i in 0..12 {
        mirror.roots.push((i, i % 6));
    }
    let mut db = GhostDb::create(DDL, config.clone(), &mirror.dataset(&schema)).unwrap();

    let before = mirror.clone();
    let snap = db.snapshot().unwrap();
    let epoch = db.epoch();

    // Mutate heavily and flush: old segments are freed (deferred by the
    // snapshot's pins), new ones written.
    let mut state = 7u64;
    let mut next = move || -> i64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    mutate(&mut db, &mut mirror, &mut next, 12);
    db.flush_deltas().unwrap();
    assert!(db.epoch() > epoch, "mutations advanced the epoch");

    // The old snapshot still answers with epoch-E state...
    let frozen = GhostDb::create(DDL, config.clone(), &before.dataset(&schema)).unwrap();
    for sql in QUERIES {
        assert_eq!(
            snap.query(sql).unwrap().rows.rows,
            frozen.query(sql).unwrap().rows.rows,
            "epoch {epoch} snapshot after writer moved on: {sql}"
        );
    }
    // ...and a fresh snapshot sees the new state.
    let now = db.snapshot().unwrap();
    let current = GhostDb::create(DDL, config, &mirror.dataset(&schema)).unwrap();
    for sql in QUERIES {
        assert_eq!(
            now.query(sql).unwrap().rows.rows,
            current.query(sql).unwrap().rows.rows,
            "fresh snapshot tracks the writer: {sql}"
        );
    }
    drop(now);
    drop(snap);
    let pins = db.volume().pin_stats();
    assert_eq!((pins.snapshot_pinned, pins.snapshot_deferred), (0, 0));
}
