//! Every enumerated plan must return exactly the same rows — the
//! property that makes the demo's plan game playable (only *speed*
//! differs) and a strong whole-engine invariant, exercised here both on
//! fixed queries and property-test style on random predicate mixes.

mod common;

use common::{assert_matches_reference, medical_db_with_data};
use ghostdb_exec::{Plan, Source};
use ghostdb_types::Date;
use proptest::prelude::*;

#[test]
fn all_plans_agree_on_the_paper_query() {
    let (db, cfg, data) = medical_db_with_data(3_000);
    let cutoff = Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32);
    let sql = ghostdb_workload::paper_query(cutoff);
    let plans = db.plans(&sql).unwrap();
    assert!(
        plans.len() >= 10,
        "the paper promises a large panel of plans; got {}",
        plans.len()
    );
    let mut first = None;
    for cp in &plans {
        let out = db.query_with_plan(&sql, &cp.plan).unwrap();
        match &first {
            None => {
                assert_matches_reference(&db, &data, &sql, &out);
                first = Some(out.rows.rows);
            }
            Some(expect) => assert_eq!(&out.rows.rows, expect, "plan {} disagrees", cp.plan.label),
        }
    }
}

#[test]
fn all_plans_agree_across_selectivities() {
    let (db, cfg, _data) = medical_db_with_data(2_000);
    for frac in [0.001, 0.05, 0.5, 0.95] {
        let sql = ghostdb_workload::selectivity_query(cfg.date_start, cfg.date_span_days, frac);
        let plans = db.plans(&sql).unwrap();
        let mut first: Option<usize> = None;
        for cp in plans.iter() {
            let out = db.query_with_plan(&sql, &cp.plan).unwrap();
            match first {
                None => first = Some(out.rows.len()),
                Some(n) => assert_eq!(out.rows.len(), n, "frac {frac}"),
            }
        }
    }
}

/// Plan enumeration depends only on the query: two predicates on each
/// of two non-anchor tables give a cross-filtering plan with two
/// `CrossGroup` sources, and repeated `plans()` calls list the same
/// plans with the same source order.
#[test]
fn plan_enumeration_is_deterministic() {
    let (db, cfg, _data) = medical_db_with_data(2_000);
    let cutoff = Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32);
    let sql = format!(
        "SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Medicine Med \
         WHERE Vis.Date > '{cutoff}' AND Vis.Purpose = 'Sclerosis' \
           AND Med.Type = 'Antibiotic' AND Med.Effect = 'Analgesic' \
           AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID"
    );
    let plans = || -> Vec<Plan> {
        db.plans(&sql)
            .unwrap()
            .into_iter()
            .map(|c| c.plan)
            .collect()
    };
    let first = plans();
    assert!(
        first.iter().any(|p| p
            .sources
            .iter()
            .filter(|s| matches!(s, Source::CrossGroup { .. }))
            .count()
            == 2),
        "no plan cross-filters both tables"
    );
    for _ in 0..8 {
        assert_eq!(plans(), first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs every plan of a query on a real db
        .. ProptestConfig::default()
    })]

    /// Random conjunctive queries over the medical schema: every
    /// enumerated plan agrees with the naive reference engine.
    #[test]
    fn random_queries_all_plans_match_reference(
        quantity in 1i64..10,
        q_op in 0usize..3,
        date_frac in 0.0f64..1.0,
        purpose_sel in prop::sample::select(vec!["Sclerosis", "Checkup", "Diabetes", "Nothing"]),
        use_type in any::<bool>(),
    ) {
        // One shared database per process run would be nicer, but a
        // small one is cheap enough and keeps cases independent.
        let (db, cfg, data) = medical_db_with_data(800);
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

        let plans = db.plans(&sql).unwrap();
        prop_assert!(!plans.is_empty());
        let out = db.query_with_plan(&sql, &plans[0].plan).unwrap();
        assert_matches_reference(&db, &data, &sql, &out);
        // Sample a few other plans (first, last, middle) for agreement.
        let picks = [plans.len() / 2, plans.len() - 1];
        for &i in &picks {
            let other = db.query_with_plan(&sql, &plans[i].plan).unwrap();
            prop_assert_eq!(&other.rows.rows, &out.rows.rows, "plan {} disagrees", &plans[i].plan.label);
        }
    }
}
