//! Plan enumeration: the "large panel of candidate plans based on
//! Pre-filtering, Post-filtering and Cross-Pre/Post-filtering" (§4).

use ghostdb_catalog::{ColumnRef, Schema, SchemaStats, TreeSchema};
use ghostdb_types::{DeviceConfig, Result, TableId};

use crate::cost::CostModel;
use crate::plan::{Plan, PostStep, Source};
use crate::query::QuerySpec;

/// A plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct CostedPlan {
    /// The physical plan.
    pub plan: Plan,
    /// Estimated simulated nanoseconds.
    pub est_ns: f64,
}

/// The canonical all-Pre-filtering plan (Figure 6's "P1"): every hidden
/// predicate climbs its value index (scan when no index exists), every
/// visible predicate is delegated and translated.
pub fn plan_all_pre(
    spec: &QuerySpec,
    schema: &Schema,
    has_index: impl Fn(ColumnRef) -> bool,
) -> Plan {
    let mut sources = Vec::new();
    for (i, p) in spec.predicates.iter().enumerate() {
        if schema.is_hidden(p.column) {
            if has_index(p.column) {
                sources.push(Source::HiddenIndexClimb { pred: i });
            } else {
                sources.push(Source::HiddenScanTranslate { pred: i });
            }
        } else {
            sources.push(Source::VisibleDelegate { pred: i });
        }
    }
    Plan {
        sources,
        post: vec![],
        label: "P1".into(),
    }
}

/// The canonical Post-filtering plan (Figure 6's "P2", shaped like
/// Figure 5): hidden predicates climb, visible predicates become Bloom
/// filters probed after the hidden joins.
pub fn plan_all_post(
    spec: &QuerySpec,
    schema: &Schema,
    has_index: impl Fn(ColumnRef) -> bool,
) -> Plan {
    let mut sources = Vec::new();
    let mut post = Vec::new();
    for (i, p) in spec.predicates.iter().enumerate() {
        if schema.is_hidden(p.column) {
            if has_index(p.column) {
                sources.push(Source::HiddenIndexClimb { pred: i });
            } else {
                sources.push(Source::HiddenScanTranslate { pred: i });
            }
        } else {
            post.push(PostStep::BloomVisible { pred: i });
        }
    }
    Plan {
        sources,
        post,
        label: "P2".into(),
    }
}

/// Enumerate candidate plans (bounded) and cost them, cheapest first.
pub fn enumerate_plans(
    schema: &Schema,
    tree: &TreeSchema,
    stats: &SchemaStats,
    config: &DeviceConfig,
    spec: &QuerySpec,
    has_index: impl Fn(ColumnRef) -> bool + Copy,
) -> Result<Vec<CostedPlan>> {
    let model = CostModel::new(schema, tree, stats, config);
    let n = spec.predicates.len();

    // Per-predicate placement options.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Place {
        Climb,
        Scan,
        HiddenPost,
        Delegate,
        BloomPost,
    }
    let options: Vec<Vec<Place>> = spec
        .predicates
        .iter()
        .map(|p| {
            if schema.is_hidden(p.column) {
                if has_index(p.column) {
                    vec![Place::Climb, Place::Scan, Place::HiddenPost]
                } else {
                    vec![Place::Scan, Place::HiddenPost]
                }
            } else {
                vec![Place::Delegate, Place::BloomPost]
            }
        })
        .collect();

    // Cartesian product, bounded.
    const MAX_COMBOS: usize = 512;
    let mut combos: Vec<Vec<Place>> = vec![vec![]];
    for opts in &options {
        let mut next = Vec::new();
        for c in &combos {
            for &o in opts {
                let mut c2 = c.clone();
                c2.push(o);
                next.push(c2);
                if next.len() >= MAX_COMBOS {
                    break;
                }
            }
            if next.len() >= MAX_COMBOS {
                break;
            }
        }
        combos = next;
    }

    let mut plans: Vec<Plan> = Vec::new();
    for combo in &combos {
        let mut sources = Vec::new();
        let mut post = Vec::new();
        for (i, place) in combo.iter().enumerate() {
            match place {
                Place::Climb => sources.push(Source::HiddenIndexClimb { pred: i }),
                Place::Scan => sources.push(Source::HiddenScanTranslate { pred: i }),
                Place::Delegate => sources.push(Source::VisibleDelegate { pred: i }),
                Place::HiddenPost => post.push(PostStep::HiddenVerify { pred: i }),
                Place::BloomPost => post.push(PostStep::BloomVisible { pred: i }),
            }
        }
        plans.push(Plan {
            sources,
            post,
            label: String::new(),
        });

        // Cross-filtering variant: group pre-placed predicates sharing a
        // non-anchor table (climbable hidden ones + delegated visible
        // ones) into one CrossGroup.
        let mut by_table: std::collections::BTreeMap<TableId, (Vec<usize>, Vec<usize>)> =
            std::collections::BTreeMap::new();
        for (i, place) in combo.iter().enumerate() {
            let t = spec.predicates[i].column.table;
            if t == spec.anchor {
                continue;
            }
            match place {
                Place::Climb => by_table.entry(t).or_default().0.push(i),
                Place::Delegate => by_table.entry(t).or_default().1.push(i),
                _ => {}
            }
        }
        type Grouped = Vec<(TableId, (Vec<usize>, Vec<usize>))>;
        let groupable: Grouped = by_table
            .into_iter()
            .filter(|(_, (h, v))| h.len() + v.len() >= 2)
            .collect();
        if !groupable.is_empty() {
            let mut sources = Vec::new();
            let mut post = Vec::new();
            let grouped: Vec<usize> = groupable
                .iter()
                .flat_map(|(_, (h, v))| h.iter().chain(v).copied())
                .collect();
            for (t, (h, v)) in &groupable {
                sources.push(Source::CrossGroup {
                    table: *t,
                    hidden: h.clone(),
                    visible: v.clone(),
                });
            }
            for (i, place) in combo.iter().enumerate() {
                if grouped.contains(&i) {
                    continue;
                }
                match place {
                    Place::Climb => sources.push(Source::HiddenIndexClimb { pred: i }),
                    Place::Scan => sources.push(Source::HiddenScanTranslate { pred: i }),
                    Place::Delegate => sources.push(Source::VisibleDelegate { pred: i }),
                    Place::HiddenPost => post.push(PostStep::HiddenVerify { pred: i }),
                    Place::BloomPost => post.push(PostStep::BloomVisible { pred: i }),
                }
            }
            plans.push(Plan {
                sources,
                post,
                label: String::new(),
            });
        }
    }
    // De-duplicate structurally identical plans.
    plans.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    plans.dedup_by(|a, b| a.sources == b.sources && a.post == b.post);

    let mut costed: Vec<CostedPlan> = plans
        .into_iter()
        .filter(|p| p.validate(schema, spec).is_ok())
        .map(|p| {
            let est = model.plan_cost(spec, &p);
            CostedPlan {
                plan: p,
                est_ns: est,
            }
        })
        .collect();
    costed.sort_by(|a, b| a.est_ns.total_cmp(&b.est_ns));
    for (i, cp) in costed.iter_mut().enumerate() {
        cp.plan.label = format!("plan-{i:03}");
    }
    let _ = n;
    Ok(costed)
}

/// Convenience facade over enumeration.
#[derive(Debug)]
pub struct Optimizer<'a> {
    schema: &'a Schema,
    tree: &'a TreeSchema,
    stats: &'a SchemaStats,
    config: &'a DeviceConfig,
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer over catalog state.
    pub fn new(
        schema: &'a Schema,
        tree: &'a TreeSchema,
        stats: &'a SchemaStats,
        config: &'a DeviceConfig,
    ) -> Self {
        Optimizer {
            schema,
            tree,
            stats,
            config,
        }
    }

    /// All candidate plans, cheapest first.
    pub fn plans(
        &self,
        spec: &QuerySpec,
        has_index: impl Fn(ColumnRef) -> bool + Copy,
    ) -> Result<Vec<CostedPlan>> {
        enumerate_plans(
            self.schema,
            self.tree,
            self.stats,
            self.config,
            spec,
            has_index,
        )
    }

    /// The cheapest plan.
    pub fn best(
        &self,
        spec: &QuerySpec,
        has_index: impl Fn(ColumnRef) -> bool + Copy,
    ) -> Result<Plan> {
        let mut plans = self.plans(spec, has_index)?;
        if plans.is_empty() {
            // No predicates: a bare full-scan plan.
            return Ok(Plan {
                sources: vec![],
                post: vec![],
                label: "scan-all".into(),
            });
        }
        let mut best = plans.remove(0);
        best.plan.label = "best".into();
        Ok(best.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_catalog::{ColumnStats, Predicate, SchemaBuilder, TableStats, Visibility};
    use ghostdb_types::{ColumnId, DataType, ScalarOp, Value};

    fn setup() -> (Schema, TreeSchema, SchemaStats, DeviceConfig, QuerySpec) {
        let mut b = SchemaBuilder::new();
        b.table("Visit", "VisID")
            .column("Weight", DataType::Integer, Visibility::Visible)
            .column("Purpose", DataType::Char(20), Visibility::Hidden);
        b.table("Prescription", "PreID")
            .foreign_key("VisID", "Visit", Visibility::Hidden);
        let schema = b.build().unwrap();
        let tree = TreeSchema::analyze(&schema).unwrap();
        let mut stats = SchemaStats::empty(2);
        let weights: Vec<Value> = (0..1000).map(|i| Value::Int(i % 100)).collect();
        let purposes: Vec<Value> = (0..1000)
            .map(|i| Value::Text(format!("p{}", i % 50)))
            .collect();
        stats.tables[0] = TableStats {
            rows: 1000,
            columns: vec![
                None,
                Some(ColumnStats::build(&weights, 16)),
                Some(ColumnStats::build(&purposes, 16)),
            ],
        };
        stats.tables[1] = TableStats {
            rows: 10_000,
            columns: vec![None, None],
        };
        let vis = schema.resolve_table("Visit").unwrap();
        let pre = schema.resolve_table("Prescription").unwrap();
        let spec = QuerySpec::bind(
            &schema,
            &tree,
            "...",
            vec![vis, pre],
            vec![],
            vec![
                Predicate::new(vis, ColumnId(1), ScalarOp::Lt, Value::Int(5)),
                Predicate::new(vis, ColumnId(2), ScalarOp::Eq, Value::Text("p1".into())),
            ],
            vec![(
                schema.resolve_column(pre, "VisID").unwrap(),
                schema.resolve_column(vis, "VisID").unwrap(),
            )],
        )
        .unwrap();
        (schema, tree, stats, DeviceConfig::default_2007(), spec)
    }

    #[test]
    fn enumeration_covers_pre_post_and_cross() {
        let (schema, tree, stats, config, spec) = setup();
        let plans = enumerate_plans(&schema, &tree, &stats, &config, &spec, |_| true).unwrap();
        assert!(plans.len() >= 6, "only {} plans", plans.len());
        // All valid, sorted by cost.
        assert!(plans.windows(2).all(|w| w[0].est_ns <= w[1].est_ns));
        let has_cross = plans.iter().any(|p| {
            p.plan
                .sources
                .iter()
                .any(|s| matches!(s, Source::CrossGroup { .. }))
        });
        assert!(has_cross, "no cross-filtering variant enumerated");
        let has_post = plans.iter().any(|p| {
            p.plan
                .post
                .iter()
                .any(|s| matches!(s, PostStep::BloomVisible { .. }))
        });
        assert!(has_post);
    }

    #[test]
    fn canonical_plans_validate() {
        let (schema, _tree, _stats, _config, spec) = setup();
        let p1 = plan_all_pre(&spec, &schema, |_| true);
        p1.validate(&schema, &spec).unwrap();
        assert_eq!(p1.sources.len(), 2);
        assert!(p1.post.is_empty());
        let p2 = plan_all_post(&spec, &schema, |_| true);
        p2.validate(&schema, &spec).unwrap();
        assert_eq!(p2.sources.len(), 1);
        assert_eq!(p2.post.len(), 1);
    }

    #[test]
    fn no_index_falls_back_to_scan() {
        let (schema, _tree, _stats, _config, spec) = setup();
        let p1 = plan_all_pre(&spec, &schema, |_| false);
        assert!(p1
            .sources
            .iter()
            .any(|s| matches!(s, Source::HiddenScanTranslate { .. })));
    }

    #[test]
    fn best_returns_valid_plan() {
        let (schema, tree, stats, config, spec) = setup();
        let opt = Optimizer::new(&schema, &tree, &stats, &config);
        let best = opt.best(&spec, |_| true).unwrap();
        best.validate(&schema, &spec).unwrap();
        assert_eq!(best.label, "best");
    }
}
