//! PR 9 observability invariants.
//!
//! (a) **Oracle recount**: the actuals `EXPLAIN ANALYZE` grafts onto the
//! plan tree must equal an independent recount over the raw load-time
//! [`Dataset`] — for *every* enumerated plan, on fixed paper queries and
//! on randomly generated predicate mixes. The recount shares no code
//! with the executor: it climbs foreign keys row by row and re-evaluates
//! each predicate subset with [`ScalarOp::matches`].
//!
//! (b) **Golden skeleton**: `EXPLAIN` and `EXPLAIN ANALYZE` render the
//! same operator names and tree shape; stripping annotations from one
//! recovers the other exactly.

mod common;

use common::medical_db_with_data;
use ghostdb::GhostDb;
use ghostdb_catalog::Predicate;
use ghostdb_exec::{render_plan, Plan, PlanNode, PostStep, QuerySpec};
use ghostdb_storage::Dataset;
use ghostdb_types::{Date, RowId, TableId};
use ghostdb_workload::{game_queries, paper_query, selectivity_query};
use proptest::prelude::*;

/// Resolve the subtree-table row joined to `anchor_row` by walking raw
/// foreign keys (same climb as the reference engine, reimplemented here
/// so the oracle stays independent of library helpers under test).
fn id_of(db: &GhostDb, data: &Dataset, anchor: TableId, anchor_row: u32, table: TableId) -> u32 {
    let tree = db.tree();
    let mut path = vec![table];
    let mut cur = table;
    while cur != anchor {
        let (p, _) = tree.parent(cur).expect("predicate table under anchor");
        path.push(p);
        cur = p;
    }
    let mut id = anchor_row;
    for pair in path.windows(2).rev() {
        let (_, fk_col) = tree.parent(pair[0]).expect("tree edge");
        let v = data.value(pair[1], fk_col.index(), RowId(id));
        id = v.as_int().expect("integer fk") as u32;
    }
    id
}

fn pred_holds(db: &GhostDb, data: &Dataset, anchor: TableId, row: u32, pred: &Predicate) -> bool {
    let t = pred.column.table;
    let id = id_of(db, data, anchor, row, t);
    let v = data.value(t, pred.column.column.index(), RowId(id));
    pred.op.matches(v, &pred.value).expect("comparable pred")
}

/// The oracle: how many anchor rows satisfy the predicate subset `idxs`.
fn recount(db: &GhostDb, data: &Dataset, spec: &QuerySpec, idxs: &[usize]) -> u64 {
    (0..data.row_count(spec.anchor) as u32)
        .filter(|&r| {
            idxs.iter()
                .all(|&i| pred_holds(db, data, spec.anchor, r, &spec.predicates[i]))
        })
        .count() as u64
}

fn actual_rows(node: &PlanNode, what: &str, label: &str) -> u64 {
    node.actual
        .as_ref()
        .unwrap_or_else(|| panic!("{what} node carries no actuals in plan {label}"))
        .rows
}

/// Walk one annotated plan tree top-down alongside the [`Plan`] that
/// produced it and compare every operator's actual row count against
/// the recount oracle:
///
/// * `project` — anchor rows passing **all** predicates (also the
///   result-set size);
/// * each post step, nearest the root last-applied — pre predicates
///   plus the post prefix up to and including that step;
/// * `access-skt` / `anchor-rows` — candidates: all pre predicates;
/// * a single source (or the merge of several) — the same candidate
///   count; with several sources the merge gallops, so an individual
///   source emits somewhere between the intersection and its own match
///   count (bounds-checked, the set-valued nodes stay exact).
fn check_plan_actuals(
    db: &GhostDb,
    data: &Dataset,
    spec: &QuerySpec,
    plan: &Plan,
    tree: &PlanNode,
    result_rows: u64,
) {
    let label = &plan.label;
    let all: Vec<usize> = (0..spec.predicates.len()).collect();
    let pre: Vec<usize> = plan.sources.iter().flat_map(|s| s.preds()).collect();

    assert_eq!(tree.name, "project", "root operator in plan {label}");
    let final_rows = recount(db, data, spec, &all);
    assert_eq!(
        actual_rows(tree, "project", label),
        final_rows,
        "project actuals vs oracle in plan {label}"
    );
    assert_eq!(
        result_rows, final_rows,
        "result set vs oracle in plan {label}"
    );

    // Post chain: the last-applied step renders nearest the root.
    let mut node = &tree.children[0];
    for (i, step) in plan.post.iter().enumerate().rev() {
        let expect_name = match step {
            PostStep::BloomVisible { .. } => "bloom-probe",
            PostStep::HiddenVerify { .. } => "hidden-verify",
        };
        assert_eq!(node.name, expect_name, "post step {i} in plan {label}");
        let mut keep = pre.clone();
        keep.extend(plan.post[..=i].iter().map(|s| s.pred()));
        assert_eq!(
            actual_rows(node, expect_name, label),
            recount(db, data, spec, &keep),
            "{expect_name} actuals vs oracle in plan {label}"
        );
        node = &node.children[0];
    }

    // SKT access over the candidate list.
    assert!(
        node.name == "access-skt" || node.name == "anchor-rows",
        "expected the SKT access, found {} in plan {label}",
        node.name
    );
    let candidates = recount(db, data, spec, &pre);
    assert_eq!(
        actual_rows(node, node.name, label),
        candidates,
        "candidate count vs oracle in plan {label}"
    );

    // The feed: full scan, one source, or a galloping merge.
    let feed = &node.children[0];
    if plan.sources.is_empty() {
        assert_eq!(feed.name, "full-anchor-scan", "feed in plan {label}");
    } else if plan.sources.len() == 1 {
        assert_eq!(
            actual_rows(feed, feed.name, label),
            recount(db, data, spec, &plan.sources[0].preds()),
            "single source actuals vs oracle in plan {label}"
        );
    } else {
        assert_eq!(feed.name, "merge-intersect", "feed in plan {label}");
        assert_eq!(
            actual_rows(feed, "merge-intersect", label),
            candidates,
            "merge actuals vs oracle in plan {label}"
        );
        assert_eq!(feed.children.len(), plan.sources.len());
        for (s, child) in plan.sources.iter().zip(&feed.children) {
            let own = recount(db, data, spec, &s.preds());
            let got = actual_rows(child, child.name, label);
            assert!(
                got >= candidates && got <= own,
                "source {} emitted {got} rows in plan {label}: outside \
                 [{candidates}, {own}] (intersection, own matches)",
                child.name
            );
        }
    }
}

/// Run the oracle over **every** enumerated plan of `sql`.
fn check_all_plans(db: &GhostDb, data: &Dataset, sql: &str) {
    let spec = db.bind(sql).expect("bind");
    let plans = db.plans_for(&spec).expect("plans");
    assert!(!plans.is_empty(), "no plans for {sql}");
    for cp in &plans {
        let (tree, out) = db.analyze_with_plan(&spec, &cp.plan).expect("analyze");
        check_plan_actuals(db, data, &spec, &cp.plan, &tree, out.rows.rows.len() as u64);
    }
}

#[test]
fn explain_analyze_actuals_match_oracle_on_fixed_queries() {
    let (db, cfg, data) = medical_db_with_data(1_500);
    let mid = Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32);
    let mut queries = vec![
        paper_query(mid),
        selectivity_query(cfg.date_start, cfg.date_span_days, 0.05),
        selectivity_query(cfg.date_start, cfg.date_span_days, 0.8),
    ];
    queries.extend(
        game_queries(cfg.date_start, cfg.date_span_days)
            .into_iter()
            .map(|q| q.sql),
    );
    for sql in &queries {
        check_all_plans(&db, &data, sql);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case recounts every plan of a query on a real db
        .. ProptestConfig::default()
    })]

    /// Random conjunctive queries: every plan's `EXPLAIN ANALYZE`
    /// actuals agree with the oracle recount.
    #[test]
    fn explain_analyze_actuals_match_oracle_on_random_queries(
        quantity in 1i64..10,
        q_op in 0usize..3,
        date_frac in 0.0f64..1.0,
        purpose_sel in prop::sample::select(vec!["Sclerosis", "Checkup", "Diabetes", "Nothing"]),
        use_type in any::<bool>(),
    ) {
        let (db, cfg, data) = medical_db_with_data(600);
        let ops = ["=", ">", "<="];
        let cutoff = Date(cfg.date_start.0 + ((cfg.date_span_days as f64) * date_frac) as i32);
        let mut sql = format!(
            "SELECT Pre.PreID, Vis.Purpose, Med.Name \
             FROM Prescription Pre, Visit Vis, Medicine Med \
             WHERE Pre.Quantity {} {} \
               AND Vis.Date > '{}' \
               AND Vis.Purpose = '{}' ",
            ops[q_op], quantity, cutoff, purpose_sel,
        );
        if use_type {
            sql.push_str("AND Med.Type = 'Antibiotic' ");
        }
        sql.push_str("AND Vis.VisID = Pre.VisID AND Med.MedID = Pre.MedID");
        check_all_plans(&db, &data, &sql);
    }
}

/// Strip the trailing `  (annotations)` from every rendered line,
/// leaving the operator skeleton.
fn skeleton(rendered: &str) -> Vec<String> {
    rendered
        .lines()
        .map(|l| l.split("  (").next().unwrap_or(l).to_string())
        .collect()
}

/// Golden test for the unified plan view: `EXPLAIN` prints exactly the
/// operator names and tree shape that `EXPLAIN ANALYZE` renders — the
/// analyzed skeleton of each plan appears verbatim inside the stripped
/// `EXPLAIN` output.
#[test]
fn explain_and_explain_analyze_share_one_skeleton() {
    let (db, cfg, _data) = medical_db_with_data(400);
    let sql = paper_query(Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32));
    let spec = db.bind(&sql).unwrap();
    let stripped_explain = skeleton(&db.explain(&sql).unwrap()).join("\n");
    for cp in db.plans_for(&spec).unwrap().iter().take(8) {
        let (tree, _) = db.analyze_with_plan(&spec, &cp.plan).unwrap();
        let analyzed = skeleton(&render_plan(&cp.plan.label, &tree)).join("\n");
        assert!(
            stripped_explain.contains(&analyzed),
            "EXPLAIN skeleton drifted from EXPLAIN ANALYZE for plan {}:\n\
             --- analyzed ---\n{analyzed}\n--- explain ---\n{stripped_explain}",
            cp.plan.label
        );
    }
}

/// A fully pinned skeleton for the canonical Post-filtering plan (the
/// hidden predicate stays pre-filtered through its climbing index; the
/// visible one is Bloom-post-filtered): the shape is determined by the
/// query alone, so this golden catches accidental renames or
/// re-parenting in either rendering path.
#[test]
fn post_plan_skeleton_is_golden() {
    let (db, cfg, _data) = medical_db_with_data(300);
    let sql = selectivity_query(cfg.date_start, cfg.date_span_days, 0.5);
    let spec = db.bind(&sql).unwrap();
    let plan = db.plan_post(&spec);
    let (tree, _) = db.analyze_with_plan(&spec, &plan).unwrap();
    let names: Vec<(usize, String)> = skeleton(&render_plan(&plan.label, &tree))
        .iter()
        .skip(1) // "plan P2" header
        .filter(|l| !l.is_empty())
        .map(|l| {
            let indent = l.len() - l.trim_start().len();
            let name = l.trim_start().split(" [").next().unwrap_or("");
            (indent / 2, name.to_string())
        })
        .collect();
    let expect: Vec<(usize, String)> = [
        (1, "project"),
        (2, "bloom-probe"),
        (3, "access-skt"),
        (4, "climbing-index"),
    ]
    .into_iter()
    .map(|(d, n)| (d, n.to_string()))
    .collect();
    assert_eq!(names, expect, "the canonical post plan's skeleton changed");
}
