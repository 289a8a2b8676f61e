//! Query processing: plans, operators, cost model, optimizer, executor.
//!
//! This crate implements the paper's §4 end to end:
//!
//! * **Pre-filtering** — push selections before the (index-precomputed)
//!   joins: hidden predicates probe climbing indexes; visible predicates
//!   are delegated to the PC and their id lists *translated* to the
//!   query anchor through the climbing key indexes; all anchor-id lists
//!   are merge-intersected; the SKT delivers the joined rows.
//! * **Post-filtering** — unselective visible predicates are instead
//!   turned into device-RAM Bloom filters probed while streaming SKT
//!   rows, with an exact flash-temp verification so false positives never
//!   reach results.
//! * **Cross-filtering** — predicates on the same table combine *before*
//!   climbing: the hidden index is probed at the table's own level,
//!   intersected with the delegated visible ids, and the (smaller)
//!   combined list is translated once.
//!
//! * **Analytic epilogue** — aggregates (`COUNT`/`SUM`/`AVG`/`MIN`/
//!   `MAX`), `GROUP BY`, `ORDER BY` and `LIMIT` fold the projected rows
//!   *on the device* before anything is sealed for the PC, so hidden
//!   aggregate operands never cross the bus; the epilogue's group table
//!   and top-k buffer are charged to the 64 KB RAM budget like every
//!   other operator (see [`agg`](Epilogue)).
//!
//! The optimizer enumerates the "large panel of candidate plans" the
//! paper describes and costs them against the device model; the executor
//! runs any of them — including hand-built ones, which is what the demo's
//! phase 2/3 GUI (and our `plan_game` example) exposes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod analyze;
mod baseline;
mod cost;
mod executor;
mod ops;
mod optimizer;
mod pc;
mod plan;
mod query;
mod stats;
mod temp;

pub use agg::Epilogue;
pub use analyze::{attach_actuals, plan_nodes, render_plan, NodeActuals, PlanNode};
pub use baseline::{
    climbing_translate_count, grace_hash_join_count, join_index_count, BaselineReport,
};
pub use cost::{CostModel, PlanCardinalities};
pub use executor::{execute, ExecContext};
pub use ops::{FullScanSource, MergeIntersect, ScalarMergeIntersect};
pub use optimizer::{enumerate_plans, plan_all_post, plan_all_pre, CostedPlan, Optimizer};
pub use pc::{PairStream, PcLink, VecPairStream};
pub use plan::{Plan, PostStep, Source};
pub use query::{OutputExpr, QuerySpec};
pub use stats::{ExecReport, OpStats, ResultSet};
pub use temp::{IdTemp, TempCursor, VisibleTemp};
