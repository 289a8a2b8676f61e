//! Leak-freedom (the paper's core guarantee): plant unique sentinel
//! values in hidden columns, run a battery of queries, and grep every
//! spy-visible byte for them.

mod common;

use ghostdb::GhostDb;
use ghostdb_storage::Dataset;
use ghostdb_types::{DeviceConfig, TableId, Value};

const DDL: &str = "\
CREATE TABLE Clinic (
  ClinicID INTEGER PRIMARY KEY,
  City CHAR(24));
CREATE TABLE Record (
  RecID INTEGER PRIMARY KEY,
  Vitals INTEGER,
  Diagnosis CHAR(40) HIDDEN,
  SecretScore INTEGER HIDDEN,
  ClinicID REFERENCES Clinic(ClinicID) HIDDEN);";

/// Sentinels that exist nowhere else (neither in query texts nor in
/// visible data).
const SENTINEL_TEXT: &str = "XQZ-SENTINEL-DIAGNOSIS-77319";
const SENTINEL_INT: i64 = -776_655_443_322;

fn build() -> GhostDb {
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let mut data = Dataset::empty(&schema);
    for i in 0..5i64 {
        data.push_row(
            TableId(0),
            vec![Value::Int(i), Value::Text(format!("City{i}"))],
        )
        .unwrap();
    }
    for i in 0..400i64 {
        let diag = if i == 137 {
            SENTINEL_TEXT.to_string()
        } else {
            format!("diag-{}", i % 7)
        };
        let score = if i == 201 { SENTINEL_INT } else { i * 3 };
        data.push_row(
            TableId(1),
            vec![
                Value::Int(i),
                Value::Int(i % 50),
                Value::Text(diag),
                Value::Int(score),
                Value::Int(i % 5),
            ],
        )
        .unwrap();
    }
    GhostDb::create(DDL, DeviceConfig::default_2007(), &data).unwrap()
}

fn assert_no_sentinel(db: &GhostDb, context: &str) {
    assert!(
        !db.spy_sees_value(&Value::Text(SENTINEL_TEXT.into())),
        "text sentinel leaked during {context}"
    );
    assert!(
        !db.spy_sees_value(&Value::Int(SENTINEL_INT)),
        "int sentinel leaked during {context}"
    );
}

/// The observability surfaces are operator-facing text an admin may
/// paste anywhere, so they get the same bar as the bus: counts, times,
/// and sizes only — zero hidden bytes.
fn assert_surface_clean(surface: &str, name: &str) {
    assert!(
        !surface.contains(SENTINEL_TEXT),
        "text sentinel appeared in {name}:\n{surface}"
    );
    assert!(
        !surface.contains(&SENTINEL_INT.to_string()),
        "int sentinel appeared in {name}:\n{surface}"
    );
}

/// PR 9: statement traces, the metrics expositions (Prometheus text and
/// JSON), `EXPLAIN ANALYZE` output, and `device_report()` must carry
/// zero hidden bytes — under every enumerated plan (the traced query
/// projects both sentinels), and again after mutations churned the
/// deltas and a flush compacted them.
#[test]
fn observability_surfaces_expose_no_hidden_bytes() {
    let mut db = build();
    db.set_tracing(true);
    // Projects both sentinels and selects on a hidden column: the worst
    // case for any surface that leaked operator payloads.
    let sql = "SELECT Rec.Diagnosis, Rec.SecretScore, Clinic.City \
               FROM Record Rec, Clinic \
               WHERE Rec.SecretScore <= 1000000000 \
                 AND Rec.Vitals >= 0 \
                 AND Rec.ClinicID = Clinic.ClinicID";
    let spec = db.bind(sql).unwrap();
    for cp in db.plans_for(&spec).unwrap() {
        let label = &cp.plan.label;
        let (tree, out) = db.analyze_with_plan(&spec, &cp.plan).unwrap();
        assert!(
            out.rows
                .rows
                .iter()
                .any(|r| r[0] == Value::Text(SENTINEL_TEXT.into())),
            "the probe query must surface the sentinel on the display"
        );
        assert_surface_clean(
            &ghostdb_exec::render_plan(label, &tree),
            &format!("EXPLAIN ANALYZE output, plan {label}"),
        );
        assert_surface_clean(
            &out.report.render(),
            &format!("operator report, plan {label}"),
        );
        // The same query through the traced path: the span tree renders
        // names, times and counters only.
        let _ = db.query(sql).unwrap();
        let trace = db.last_trace().expect("tracing is on");
        assert_surface_clean(&trace.render(), &format!("statement trace, plan {label}"));
    }
    assert_surface_clean(&db.explain(sql).unwrap(), "EXPLAIN output");
    assert_surface_clean(&db.metrics_text(), "Prometheus exposition");
    assert_surface_clean(&db.metrics_json(), "JSON exposition");
    assert_surface_clean(&db.device_report(), "device report");

    // Mutations touch the sentinels directly; flush compacts. Every
    // surface stays clean afterwards.
    db.execute("DELETE FROM Record WHERE RecID = 137").unwrap();
    db.execute("UPDATE Record SET Vitals = 555 WHERE RecID = 200")
        .unwrap();
    // PKs are dense logical ids: the delete re-densified 0..=398, so
    // the next insert takes 399.
    db.execute("INSERT INTO Record VALUES (399, 12, 'diag-x', 42, 1)")
        .unwrap();
    db.flush_deltas().unwrap();
    db.seal().unwrap();
    let _ = db.query(sql).unwrap();
    assert_surface_clean(
        &db.last_trace().unwrap().render(),
        "post-mutation statement trace",
    );
    assert_surface_clean(&db.metrics_text(), "post-mutation Prometheus exposition");
    assert_surface_clean(&db.metrics_json(), "post-mutation JSON exposition");
    assert_surface_clean(&db.device_report(), "post-mutation device report");
    assert_surface_clean(
        &db.explain_analyze(sql).unwrap(),
        "post-mutation EXPLAIN ANALYZE",
    );
    // The bus-level guarantee still holds underneath it all.
    assert_no_sentinel(&db, "observability sweep");
}

#[test]
fn sentinels_never_cross_even_when_selected() {
    let db = build();
    db.clear_trace();
    // Query that returns BOTH sentinels to the secure display.
    let out = db
        .query(
            "SELECT Rec.Diagnosis, Rec.SecretScore FROM Record Rec \
             WHERE Rec.RecID >= 0",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 400);
    assert!(out
        .rows
        .rows
        .iter()
        .any(|r| r[0] == Value::Text(SENTINEL_TEXT.into())));
    assert!(out
        .rows
        .rows
        .iter()
        .any(|r| r[1] == Value::Int(SENTINEL_INT)));
    assert_no_sentinel(&db, "full projection of hidden columns");
}

#[test]
fn sentinels_never_cross_under_any_plan() {
    let db = build();
    let sql = "SELECT Rec.RecID, Rec.Diagnosis, Clinic.City \
               FROM Record Rec, Clinic \
               WHERE Rec.Vitals >= 10 \
                 AND Rec.SecretScore >= 0 \
                 AND Rec.ClinicID = Clinic.ClinicID";
    let plans = db.plans(sql).unwrap();
    assert!(plans.len() >= 4);
    for cp in &plans {
        db.clear_trace();
        let _ = db.query_with_plan(sql, &cp.plan).unwrap();
        assert_no_sentinel(&db, &format!("plan {}", cp.plan.label));
    }
}

#[test]
fn predicates_on_hidden_columns_do_not_delegate() {
    let db = build();
    db.clear_trace();
    // Selecting directly on the sentinel value: the predicate constant is
    // part of the (public) query text by the paper's model, but the
    // *evaluation* must stay on-device: no EvalPredicate/FetchColumn for
    // a hidden column may appear in the trace.
    let out = db
        .query(&format!(
            "SELECT Rec.RecID FROM Record Rec WHERE Rec.SecretScore = {SENTINEL_INT}"
        ))
        .unwrap();
    assert_eq!(out.rows.len(), 1);
    for ev in db.trace().spy_frames() {
        if ev.kind == "EvalPredicate" || ev.kind == "FetchColumn" {
            // Any delegated work must be about the visible columns only
            // (c0=RecID pk or c1=Vitals).
            assert!(
                ev.summary.contains("c0") || ev.summary.contains("c1"),
                "hidden column delegated: {}",
                ev.summary
            );
        }
    }
}

#[test]
fn spy_does_see_visible_traffic() {
    // The guarantee is not "nothing crosses" — visible data crosses by
    // design. Verify the spy sees exactly that.
    let db = build();
    db.clear_trace();
    let _ = db
        .query("SELECT Rec.RecID FROM Record Rec WHERE Rec.Vitals = 7")
        .unwrap();
    let frames = db.trace().spy_frames();
    assert!(frames.iter().any(|e| e.kind == "Query"));
    assert!(frames.iter().any(|e| e.kind == "EvalPredicate"));
    assert!(frames.iter().any(|e| e.kind == "IdChunk"));
    // And the spy report renders.
    assert!(db.spy_report().contains("EvalPredicate"));
}

/// Post-load inserts: hidden values ride the device's secure port, so a
/// spy watching the bus sees the visible halves (public by design) but
/// never the hidden ones — before or after the LSM delta flush.
#[test]
fn inserted_hidden_values_never_cross_the_bus() {
    const INS_TEXT: &str = "XQZ-SENTINEL-INSERTED-55107";
    const INS_INT: i64 = -991_188_227_744;
    let mut db = build();
    db.clear_trace();
    db.execute(&format!(
        "INSERT INTO Record VALUES (400, 13, '{INS_TEXT}', {INS_INT}, 2)"
    ))
    .unwrap();
    db.execute("INSERT INTO Clinic VALUES (5, 'City5')")
        .unwrap();
    db.execute(&format!(
        "INSERT INTO Record VALUES (401, 14, 'diag-1', {}, 5)",
        INS_INT + 1
    ))
    .unwrap();

    // The visible half did cross (that is the protocol), the hidden
    // half did not.
    assert!(
        db.spy_sees_value(&Value::Int(13)),
        "visible insert traffic should be spy-visible"
    );
    assert!(
        !db.spy_sees_value(&Value::Text(INS_TEXT.into())),
        "inserted hidden text leaked on append"
    );
    assert!(!db.spy_sees_value(&Value::Int(INS_INT)));

    // Query the inserted sentinels through every plan, un-flushed...
    let sql = "SELECT Rec.Diagnosis, Rec.SecretScore, Clinic.City \
               FROM Record Rec, Clinic \
               WHERE Rec.Vitals >= 13 AND Rec.ClinicID = Clinic.ClinicID";
    for cp in db.plans(sql).unwrap() {
        db.clear_trace();
        let out = db.query_with_plan(sql, &cp.plan).unwrap();
        assert!(out
            .rows
            .rows
            .iter()
            .any(|r| r[0] == Value::Text(INS_TEXT.into())));
        assert!(
            !db.spy_sees_value(&Value::Text(INS_TEXT.into())),
            "inserted hidden text leaked during plan {}",
            cp.plan.label
        );
        assert!(!db.spy_sees_value(&Value::Int(INS_INT)));
        assert_no_sentinel(&db, &format!("insert-phase plan {}", cp.plan.label));
    }
    // ...and again after the delta merge rebuilt the flash segments.
    assert!(db.flush_deltas().unwrap() > 0);
    db.clear_trace();
    let out = db
        .query_with_plan(sql, &db.plans(sql).unwrap()[0].plan)
        .unwrap();
    assert!(out.rows.rows.iter().any(|r| r[1] == Value::Int(INS_INT)));
    assert!(!db.spy_sees_value(&Value::Text(INS_TEXT.into())));
    assert!(!db.spy_sees_value(&Value::Int(INS_INT)));
}

/// The mutation protocol's disclosure set is row **identities** only:
/// delete a row whose hidden half holds a sentinel, overwrite another
/// with a fresh sentinel, flush (physical compaction + PC mirror
/// compaction), seal — at every point the spy trace carries
/// `DeleteRows`/`UpdateVisible`/`CompactRows` frames with ids and
/// visible halves, and zero hidden bytes.
#[test]
fn deleted_hidden_values_never_cross_the_bus() {
    const UPD_TEXT: &str = "XQZ-SENTINEL-UPDATED-31415";
    const UPD_INT: i64 = -227_755_889_911;
    let mut db = build();
    db.clear_trace();

    // Row 137 holds the text sentinel, row 201 the int sentinel.
    db.execute("DELETE FROM Record WHERE RecID = 137").unwrap();
    db.execute(&format!(
        "UPDATE Record SET Diagnosis = '{UPD_TEXT}', SecretScore = {UPD_INT}, \
         Vitals = 999 WHERE RecID = 150"
    ))
    .unwrap();
    db.execute("DELETE FROM Record WHERE Vitals = 20").unwrap();

    // The spy saw the churn (frames with row ids), never the values.
    let kinds: Vec<&str> = db.trace().spy_frames().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"DeleteRows"), "{kinds:?}");
    assert!(kinds.contains(&"UpdateVisible"), "{kinds:?}");
    assert_no_sentinel(&db, "delete/update batches");
    assert!(!db.spy_sees_value(&Value::Text(UPD_TEXT.into())));
    assert!(!db.spy_sees_value(&Value::Int(UPD_INT)));

    // Queries over the tombstone-resident state stay clean on every plan.
    let sql = "SELECT Rec.RecID, Rec.Diagnosis FROM Record Rec WHERE Rec.SecretScore <= -1";
    for cp in db.plans(sql).unwrap() {
        db.clear_trace();
        let out = db.query_with_plan(sql, &cp.plan).unwrap();
        assert!(out
            .rows
            .rows
            .iter()
            .any(|r| r[1] == Value::Text(UPD_TEXT.into())));
        assert_no_sentinel(&db, &format!("tombstone-resident plan {}", cp.plan.label));
        assert!(!db.spy_sees_value(&Value::Text(UPD_TEXT.into())));
    }

    // The merge: dead rows physically dropped, PC compacted in lockstep.
    db.clear_trace();
    assert!(db.flush_deltas().is_ok());
    let kinds: Vec<&str> = db.trace().spy_frames().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"CompactRows"), "{kinds:?}");
    assert_no_sentinel(&db, "post-delete flush");
    assert!(!db.spy_sees_value(&Value::Text(UPD_TEXT.into())));
    assert!(!db.spy_sees_value(&Value::Int(UPD_INT)));

    // Seal after the mutations: still zero hidden bytes on the link.
    db.clear_trace();
    db.seal().unwrap();
    assert_eq!(db.trace().spy_bytes(), 0, "seal is off-bus");
    assert_no_sentinel(&db, "post-mutation seal");

    // And the updated sentinel still answers queries (display only).
    let out = db
        .query(&format!(
            "SELECT Rec.Diagnosis FROM Record Rec WHERE Rec.SecretScore = {UPD_INT}"
        ))
        .unwrap();
    assert_eq!(out.rows.rows.len(), 1);
    assert!(!db.spy_sees_value(&Value::Int(UPD_INT)));
}

/// A script's SELECT discloses its own text and nothing else: the
/// UPDATE before it in the same `execute` call enters through the
/// secure port, so its new hidden value must not ride along on the
/// SELECT's `Query` frame.
#[test]
fn script_selects_disclose_only_their_own_text() {
    const SECRET: &str = "QQSECRETQQ";
    let (mut db, _) = common::medical_db(300);
    db.clear_trace();
    let out = db
        .execute(&format!(
            "UPDATE Visit SET Purpose = '{SECRET}' WHERE VisID = 4; \
             SELECT COUNT(*) FROM Visit Vis"
        ))
        .unwrap();
    assert_eq!(out.len(), 2);
    assert!(
        !db.spy_sees_value(&Value::Text(SECRET.into())),
        "the UPDATE's hidden value crossed the bus inside the next SELECT's text"
    );
    // The SELECT itself is public and did cross, exactly as written.
    assert!(db.spy_sees_value(&Value::Text("SELECT COUNT(*) FROM Visit Vis".into())));
}

/// Durability stays entirely on the device side of the spied link:
/// `seal()` programs the NAND directly (zero bus frames), and a
/// mount's WAL replay re-transmits only the visible halves — the
/// sentinels never appear in either instance's trace.
#[test]
fn seal_mount_and_wal_replay_leak_nothing() {
    const INS_TEXT: &str = "XQZ-SENTINEL-WAL-88403";
    const INS_INT: i64 = -337_799_551_100;
    let mut db = build();
    db.clear_trace();

    // Sealing moves every hidden structure into the image, off-bus.
    db.seal().unwrap();
    assert_no_sentinel(&db, "seal");
    assert_eq!(
        db.trace().spy_bytes(),
        0,
        "seal must not touch the PC \u{2194} device link"
    );

    // Post-seal inserts: hidden halves go to the WAL (device NAND),
    // visible halves cross the bus as usual.
    db.execute(&format!(
        "INSERT INTO Record VALUES (400, 77, '{INS_TEXT}', {INS_INT}, 3)"
    ))
    .unwrap();
    assert!(!db.spy_sees_value(&Value::Text(INS_TEXT.into())));
    assert!(!db.spy_sees_value(&Value::Int(INS_INT)));
    assert!(db.spy_sees_value(&Value::Int(77)), "visible half crosses");

    // Unplug, remount: the replay runs on a fresh bus with an empty
    // trace, so anything hidden it transmitted would be caught here.
    let nand = db.nand().clone();
    let config = db.config().clone();
    drop(db);
    let db = GhostDb::mount(nand, config.clone()).unwrap();
    assert_no_sentinel(&db, "mount + WAL replay");
    assert!(
        !db.spy_sees_value(&Value::Text(INS_TEXT.into())),
        "replayed hidden text leaked"
    );
    assert!(!db.spy_sees_value(&Value::Int(INS_INT)));

    // The replayed hidden data is queryable (secure display only)...
    let sql = "SELECT Rec.Diagnosis, Rec.SecretScore FROM Record Rec \
               WHERE Rec.Vitals = 77";
    for cp in db.plans(sql).unwrap() {
        let out = db.query_with_plan(sql, &cp.plan).unwrap();
        assert_eq!(out.rows.rows.len(), 1);
        assert_eq!(out.rows.rows[0][0], Value::Text(INS_TEXT.into()));
        assert_no_sentinel(&db, &format!("mounted plan {}", cp.plan.label));
        assert!(!db.spy_sees_value(&Value::Text(INS_TEXT.into())));
    }

    // ...and the flush + re-seal + second power cycle stay clean too.
    let mut db = db;
    assert!(db.flush_deltas().unwrap() > 0);
    let nand = db.nand().clone();
    drop(db);
    let db = GhostDb::mount(nand, config).unwrap();
    assert_eq!(
        db.trace().spy_bytes(),
        0,
        "a replay-free mount is entirely off-bus"
    );
    let out = db.query(sql).unwrap();
    assert_eq!(out.rows.rows[0][1], Value::Int(INS_INT));
    assert_no_sentinel(&db, "re-sealed mount");
    assert!(!db.spy_sees_value(&Value::Text(INS_TEXT.into())));
    assert!(!db.spy_sees_value(&Value::Int(INS_INT)));
}

/// The PR's acceptance bar: `SELECT SUM(hidden) … GROUP BY visible`
/// folds the hidden operands inside the device; the bus carries the
/// (public) query text, the visible group keys and nothing else. The
/// MIN lands *on* the text sentinel — the scalar result reaches the
/// secure display and still never crosses the spied link.
#[test]
fn aggregates_over_hidden_keep_operands_off_the_bus() {
    let db = build();
    let sql = "SELECT Rec.Vitals, SUM(Rec.SecretScore), MIN(Rec.Diagnosis), COUNT(*) \
               FROM Record Rec WHERE Rec.RecID >= 0 \
               GROUP BY Rec.Vitals ORDER BY Rec.Vitals";

    // Host-side reference: 8 records per Vitals value (i % 50).
    let mut expect: Vec<Vec<Value>> = Vec::new();
    for v in 0..50i64 {
        let ids: Vec<i64> = (0..8).map(|k| v + 50 * k).collect();
        let sum: i64 = ids
            .iter()
            .map(|&i| if i == 201 { SENTINEL_INT } else { i * 3 })
            .sum();
        let min_diag = ids
            .iter()
            .map(|&i| {
                if i == 137 {
                    SENTINEL_TEXT.to_string()
                } else {
                    format!("diag-{}", i % 7)
                }
            })
            .min()
            .unwrap();
        expect.push(vec![
            Value::Int(v),
            Value::Int(sum),
            Value::Text(min_diag),
            Value::Int(8),
        ]);
    }

    for cp in db.plans(sql).unwrap() {
        db.clear_trace();
        let out = db.query_with_plan(sql, &cp.plan).unwrap();
        assert_eq!(
            out.rows.rows, expect,
            "wrong aggregates under plan {}",
            cp.plan.label
        );
        // Both sentinels are aggregate *operands* here — SENTINEL_INT
        // feeds the SUM of group 1, SENTINEL_TEXT feeds (and wins) the
        // MIN of group 37 — so this single check is the acceptance bar:
        // operands folded device-side, only group keys and totals out.
        assert_no_sentinel(&db, &format!("grouped aggregation, plan {}", cp.plan.label));
    }
    assert!(out_has_sentinel_min(&db, sql));

    // A global aggregate (no GROUP BY) reduces to one scalar row.
    db.clear_trace();
    let out = db
        .query("SELECT COUNT(*), MAX(Rec.SecretScore) FROM Record Rec")
        .unwrap();
    assert_eq!(
        out.rows.rows,
        vec![vec![Value::Int(400), Value::Int(399 * 3)]]
    );
    assert_no_sentinel(&db, "global aggregate");
}

fn out_has_sentinel_min(db: &GhostDb, sql: &str) -> bool {
    db.query(sql)
        .unwrap()
        .rows
        .rows
        .iter()
        .any(|r| r[2] == Value::Text(SENTINEL_TEXT.into()))
}

/// PR 8: the snapshot read path rides the same spied link as the
/// writer handle (clones share the trace), so the leak guarantee must
/// hold for reader sessions too — at capture, through every plan, and
/// from another thread racing the writer's handle.
#[test]
fn snapshot_reads_leak_nothing() {
    let db = build();
    db.clear_trace();
    let snap = db.snapshot().unwrap();
    assert_eq!(
        db.trace().spy_bytes(),
        0,
        "snapshot capture is a device-internal pin, off-bus"
    );

    // Full hidden projection through the snapshot: both sentinels reach
    // the secure display, zero hidden bytes cross the link.
    let out = snap
        .query(
            "SELECT Rec.Diagnosis, Rec.SecretScore FROM Record Rec \
             WHERE Rec.RecID >= 0",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 400);
    assert!(out
        .rows
        .rows
        .iter()
        .any(|r| r[0] == Value::Text(SENTINEL_TEXT.into())));
    assert_no_sentinel(&db, "snapshot projection of hidden columns");

    // Every enumerated plan, both entry points, stays clean.
    let sql = "SELECT Rec.RecID, Rec.Diagnosis, Clinic.City \
               FROM Record Rec, Clinic \
               WHERE Rec.Vitals >= 10 \
                 AND Rec.SecretScore >= 0 \
                 AND Rec.ClinicID = Clinic.ClinicID";
    let spec = snap.bind(sql).unwrap();
    for cp in snap.plans_for(&spec).unwrap() {
        db.clear_trace();
        let _ = snap.query_with_plan(sql, &cp.plan).unwrap();
        let _ = snap.run(&spec, &cp.plan).unwrap();
        assert_no_sentinel(&db, &format!("snapshot plan {}", cp.plan.label));
    }

    // Cross-thread: the snapshot moves to a reader thread; the shared
    // trace still proves nothing hidden crossed.
    db.clear_trace();
    let handle = std::thread::spawn(move || {
        snap.query("SELECT Rec.Diagnosis FROM Record Rec WHERE Rec.SecretScore <= -1")
            .unwrap()
            .rows
            .rows
            .len()
    });
    assert_eq!(handle.join().unwrap(), 1, "the int-sentinel row");
    assert_no_sentinel(&db, "cross-thread snapshot read");
}

/// PR 10: the page cache mirrors raw NAND pages — including the pages
/// that hold both sentinels — in device RAM. Two obligations follow.
/// The cache must be invisible on the spied link: a hit replaces a
/// device-internal NAND transfer, never a bus frame, so a repeated
/// query produces byte-identical bus traffic whether it faulted or hit.
/// And the cache's observability (the `device_report()` section, the
/// `ghostdb_page_cache_*` counters) must expose counts and sizes only,
/// even while sentinel-bearing pages are resident in the mirror.
#[test]
fn page_cache_exposes_counts_only_and_stays_off_the_bus() {
    let db = build();
    assert!(
        db.volume().page_cache_stats().capacity_pages > 0,
        "default config arms the cache"
    );

    // Cold run faults the sentinel-bearing pages into the mirror.
    let sql = format!("SELECT Rec.RecID FROM Record Rec WHERE Rec.SecretScore = {SENTINEL_INT}");
    db.clear_trace();
    assert_eq!(db.query(&sql).unwrap().rows.len(), 1);
    let cold_frames = db.trace().spy_frames().len();
    let cold_bytes = db.trace().spy_bytes();

    // Warm run: the device answers from the mirror. The bus must look
    // *identical*, not merely sentinel-free — a frame-count or byte
    // delta between hit and miss would itself be a side channel.
    let warm0 = db.volume().page_cache_stats();
    db.clear_trace();
    assert_eq!(db.query(&sql).unwrap().rows.len(), 1);
    let warm1 = db.volume().page_cache_stats();
    assert!(
        warm1.hits > warm0.hits,
        "the repeated probe must hit the mirror ({} -> {} hits)",
        warm0.hits,
        warm1.hits
    );
    assert_eq!(
        db.trace().spy_frames().len(),
        cold_frames,
        "a cache hit altered the bus frame sequence"
    );
    assert_eq!(
        db.trace().spy_bytes(),
        cold_bytes,
        "a cache hit altered the bus byte count"
    );
    assert_no_sentinel(&db, "page-cache warm repeat");

    // Sentinel pages are resident right now; every surface that renders
    // cache state stays counts-and-sizes only.
    assert!(warm1.resident_pages > 0 && warm1.charged_bytes > 0);
    let report = db.device_report();
    assert!(
        report.contains("page cache:"),
        "device report lost its cache section:\n{report}"
    );
    assert_surface_clean(&report, "device report with sentinel pages resident");
    let text = db.metrics_text();
    assert!(text.contains("ghostdb_page_cache_hits_total"));
    assert_surface_clean(&text, "Prometheus exposition with sentinel pages resident");
    assert_surface_clean(
        &db.metrics_json(),
        "JSON exposition with sentinel pages resident",
    );

    // The scrape and the volume agree — the counters are the *only*
    // thing the cache publishes, so they had better be the real ones.
    let snap = db.metrics();
    assert_eq!(snap.counter("ghostdb_page_cache_hits_total"), warm1.hits);
    assert_eq!(
        snap.counter("ghostdb_page_cache_misses_total"),
        warm1.misses
    );
}

#[test]
fn results_only_reach_the_display_channel() {
    let db = build();
    db.clear_trace();
    let _ = db
        .query("SELECT Rec.Diagnosis FROM Record Rec WHERE Rec.Vitals = 1")
        .unwrap();
    let all = db.trace().events();
    let result_frames: Vec<_> = all.iter().filter(|e| e.kind == "Result").collect();
    assert!(!result_frames.is_empty(), "no display delivery recorded");
    for f in result_frames {
        assert!(!f.spy_visible(), "result frame is spy-visible");
        assert!(f.payload.is_none());
    }
}
