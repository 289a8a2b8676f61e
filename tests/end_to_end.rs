//! End-to-end correctness: SQL in, rows out, checked against the naive
//! reference engine on the medical workload.

mod common;

use common::{assert_matches_reference, medical_db_with_data};
use ghostdb::ExecOutcome;
use ghostdb_types::{Date, GhostError, Value};
use ghostdb_workload::paper_query;

#[test]
fn paper_example_query_matches_reference() {
    let (db, cfg, data) = medical_db_with_data(4_000);
    let cutoff = Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32);
    let sql = paper_query(cutoff);
    let out = db.query(&sql).unwrap();
    assert_matches_reference(&db, &data, &sql, &out);
}

#[test]
fn hidden_only_query() {
    let (db, _cfg, data) = medical_db_with_data(2_000);
    let sql = "SELECT Vis.VisID, Vis.Purpose FROM Visit Vis \
               WHERE Vis.Purpose = 'Sclerosis'";
    let out = db.query(sql).unwrap();
    assert!(!out.rows.rows.is_empty());
    assert_matches_reference(&db, &data, sql, &out);
}

#[test]
fn visible_only_query() {
    let (db, _cfg, data) = medical_db_with_data(2_000);
    let sql = "SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'Spain'";
    let out = db.query(sql).unwrap();
    assert_matches_reference(&db, &data, sql, &out);
}

#[test]
fn no_predicate_full_join() {
    let (db, _cfg, data) = medical_db_with_data(600);
    let sql = "SELECT Pre.PreID, Med.Name FROM Prescription Pre, Medicine Med \
               WHERE Med.MedID = Pre.MedID";
    let out = db.query(sql).unwrap();
    assert_eq!(out.rows.len(), 600);
    assert_matches_reference(&db, &data, sql, &out);
}

#[test]
fn deep_join_doctor_to_prescription() {
    let (db, _cfg, data) = medical_db_with_data(3_000);
    let sql = "SELECT Pre.PreID, Doc.Country FROM Prescription Pre, Visit Vis, Doctor Doc \
               WHERE Doc.Country = 'France' \
                 AND Vis.Purpose = 'Checkup' \
                 AND Vis.VisID = Pre.VisID \
                 AND Vis.DocID = Doc.DocID";
    let out = db.query(sql).unwrap();
    assert_matches_reference(&db, &data, sql, &out);
}

#[test]
fn range_predicates_on_hidden_columns() {
    let (db, _cfg, data) = medical_db_with_data(2_000);
    for sql in [
        "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity >= 8",
        "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity < 2",
        "SELECT Pat.PatID FROM Patient Pat WHERE Pat.BodyMassIndex > 40",
        "SELECT Pat.PatID, Pat.Name FROM Patient Pat WHERE Pat.Name >= 'z'",
    ] {
        let out = db.query(sql).unwrap();
        assert_matches_reference(&db, &data, sql, &out);
    }
}

#[test]
fn range_predicates_on_hidden_dates() {
    let (db, cfg, data) = medical_db_with_data(2_000);
    let mid = Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32);
    let sql = format!("SELECT Pre.PreID FROM Prescription Pre WHERE Pre.WhenWritten <= '{mid}'");
    let out = db.query(&sql).unwrap();
    assert!(!out.rows.rows.is_empty());
    assert_matches_reference(&db, &data, &sql, &out);
}

#[test]
fn empty_results_are_clean() {
    let (db, _cfg, data) = medical_db_with_data(500);
    let sql = "SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'NoSuchPurpose'";
    let out = db.query(sql).unwrap();
    assert!(out.rows.is_empty());
    assert_matches_reference(&db, &data, sql, &out);
}

#[test]
fn projection_mixes_every_kind_of_column() {
    let (db, _cfg, data) = medical_db_with_data(1_000);
    // pk, hidden attr, visible attr, hidden fk, hidden date — all at once.
    let sql = "SELECT Pre.PreID, Pre.Quantity, Pre.Frequency, Pre.MedID, \
                      Pre.WhenWritten, Vis.Date, Vis.Purpose \
               FROM Prescription Pre, Visit Vis \
               WHERE Pre.Quantity = 5 AND Vis.VisID = Pre.VisID";
    let out = db.query(sql).unwrap();
    assert_matches_reference(&db, &data, sql, &out);
}

#[test]
fn retail_schema_end_to_end() {
    use ghostdb_types::DeviceConfig;
    use ghostdb_workload::{generate_retail, RetailConfig, RETAIL_DDL};
    let cfg = RetailConfig::scaled(2_000);
    let data = generate_retail(&cfg).unwrap();
    let db = ghostdb::GhostDb::create(RETAIL_DDL, DeviceConfig::default_2007(), &data).unwrap();
    let sql = "SELECT Sale.SaleID, Store.City, Region.Name \
               FROM Sale, Store, Region \
               WHERE Store.City = 'Rome' \
                 AND Sale.Amount >= 900 \
                 AND Region.Climate = 'Alpine' \
                 AND Sale.StoreID = Store.StoreID \
                 AND Store.RegID = Region.RegID";
    let out = db.query(sql).unwrap();
    let spec = db.bind(sql).unwrap();
    let expect = ghostdb_workload::reference_execute(
        db.schema(),
        db.tree(),
        &data,
        spec.anchor,
        &spec.projections,
        &spec.predicates,
    )
    .unwrap();
    assert_eq!(out.rows.rows, expect);
}

#[test]
fn mid_tree_anchor_query() {
    // Query anchored at Visit (not the root): Doctor joined below it.
    let (db, _cfg, data) = medical_db_with_data(1_000);
    let sql = "SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc \
               WHERE Doc.Country = 'Spain' AND Vis.Purpose = 'Checkup' \
                 AND Vis.DocID = Doc.DocID";
    let out = db.query(sql).unwrap();
    assert_matches_reference(&db, &data, sql, &out);
}

#[test]
fn sql_errors_are_reported() {
    let (db, _cfg) = common::medical_db(200);
    assert!(db.query("SELECT Nope.X FROM Nope").is_err());
    assert!(db
        .query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 3")
        .is_err());
    // Missing join condition.
    assert!(db
        .query(
            "SELECT Pre.PreID FROM Prescription Pre, Visit Vis \
                WHERE Vis.Purpose = 'Checkup'"
        )
        .is_err());
}

/// Each SELECT of a multi-statement script answers its own statement,
/// not the first one in the script.
#[test]
fn script_selects_answer_their_own_statement() {
    let (mut db, _cfg) = common::medical_db(300);
    let pre = "SELECT COUNT(*) FROM Prescription Pre";
    let vis = "SELECT COUNT(*) FROM Visit Vis";
    let want_vis = db.query(vis).unwrap().rows.rows;
    assert_ne!(want_vis, vec![vec![Value::Int(300)]]);
    let out = db.execute(&format!("{pre}; {vis}")).unwrap();
    let rows: Vec<_> = out
        .into_iter()
        .map(|o| match o {
            ExecOutcome::Query(q) => q.rows.rows,
            other => panic!("expected query outcomes, got {other:?}"),
        })
        .collect();
    assert_eq!(rows, vec![vec![vec![Value::Int(300)]], want_vis]);
}

/// The read surface takes exactly one SELECT: a script (which would
/// silently skip its DML) or an `EXPLAIN ANALYZE` (which would return
/// rows instead of a plan) is a clean SQL error, on the live handle and
/// on a snapshot alike — and the skipped DELETE really never ran.
#[test]
fn read_handles_take_exactly_one_select() {
    let (db, _cfg) = common::medical_db(300);
    let snap = db.snapshot().unwrap();
    let count = "SELECT COUNT(*) FROM Prescription Pre";
    let rejected = [
        format!("DELETE FROM Prescription WHERE Quantity >= 0; {count}"),
        format!("{count}; {count}"),
        format!("EXPLAIN ANALYZE {count}"),
    ];
    for sql in &rejected {
        for (handle, result) in [("db", db.query(sql)), ("snapshot", snap.query(sql))] {
            assert!(
                matches!(result, Err(GhostError::Sql { .. })),
                "{handle}.query({sql:?}) = {result:?}"
            );
        }
        assert!(matches!(db.bind(sql), Err(GhostError::Sql { .. })), "{sql}");
        assert!(
            matches!(snap.bind(sql), Err(GhostError::Sql { .. })),
            "{sql}"
        );
    }
    let all = vec![vec![Value::Int(300)]];
    assert_eq!(db.query(count).unwrap().rows.rows, all);
    assert_eq!(snap.query(count).unwrap().rows.rows, all);
}

/// The attribute `name` of the executor operator `op`, if reported.
fn op_attr(out: &ghostdb::QueryOutcome, op: &str, name: &str) -> Option<u64> {
    let stats = out.report.ops.iter().find(|o| o.name == op)?;
    stats
        .attrs
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
}

/// Late materialization, SKT side: a plan whose later stages read no
/// table but the anchor never opens the Subtree Key Table. The first
/// plan-game query projects only `Pre.PreID` under one hidden predicate;
/// its chosen plan renders `anchor-rows` and reads zero SKT pages, and
/// the answer still matches the reference engine.
#[test]
fn anchor_only_plan_reads_no_skt_pages() {
    let (db, cfg, data) = medical_db_with_data(2_000);
    let sql = &ghostdb_workload::game_queries(cfg.date_start, cfg.date_span_days)[0].sql;
    let explained = db.explain_analyze(sql).unwrap();
    assert!(explained.contains("anchor-rows"), "{explained}");
    assert!(!explained.contains("access-skt"), "{explained}");
    let out = db.query(sql).unwrap();
    assert!(!out.rows.rows.is_empty());
    assert_eq!(op_attr(&out, "anchor-rows", "pages"), Some(0));
    assert_matches_reference(&db, &data, sql, &out);

    // A projected non-anchor column makes the same query read the SKT.
    let wide = sql.replace("SELECT Pre.PreID", "SELECT Pre.PreID, Vis.VisID");
    let out = db.query(&wide).unwrap();
    assert!(op_attr(&out, "access-skt", "pages").unwrap() > 0);
    assert_matches_reference(&db, &data, &wide, &out);
}

/// A bare `LIMIT k` caps the SKT batch at the rows it still wants: with
/// a non-anchor projection and no post step, at most `k` candidates go
/// through the SKT (a full RAM-sized batch would pull thousands), and
/// the rows are the first `k` of the unlimited answer.
#[test]
fn bare_limit_pulls_at_most_k_rows_past_the_skt() {
    let (db, _cfg, data) = medical_db_with_data(3_000);
    let base = "SELECT Pre.PreID, Vis.Date, Vis.Purpose FROM Prescription Pre, Visit Vis \
                WHERE Vis.VisID = Pre.VisID";
    let all = db.query(base).unwrap();
    assert_matches_reference(&db, &data, base, &all);
    for k in [1usize, 7, 40] {
        let out = db.query(&format!("{base} LIMIT {k}")).unwrap();
        assert_eq!(out.rows.rows, all.rows.rows[..k], "LIMIT {k}");
        let skt = out
            .report
            .ops
            .iter()
            .find(|o| o.name == "access-skt")
            .expect("the projection needs the SKT");
        assert!(
            skt.tuples_in <= k as u64,
            "LIMIT {k} pulled {} rows through the SKT",
            skt.tuples_in
        );
    }
}
