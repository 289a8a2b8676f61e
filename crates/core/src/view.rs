//! The read surface, written once: [`ReadView`] holds everything a
//! `SELECT` needs and implements every read method over it.
//!
//! Both handles hand the same type out through `Deref`:
//!
//! * [`GhostDb`](crate::GhostDb) owns the **live** view and mutates it
//!   in place (inserts, deletes, updates, flushes), so `db.query(…)`
//!   reads the current state;
//! * a [`Snapshot`](crate::Snapshot) owns a **forked** view captured at
//!   its epoch — the state cloned (`ReadView::fork`), a fresh
//!   device RAM slice and its own bus endpoint — plus the page pins
//!   that keep the view's flash bases alive.
//!
//! A fix to the read path therefore lands once for both.

use std::sync::Arc;

use ghostdb_bus::{Bus, BusTrace, Endpoint, Message};
use ghostdb_catalog::{Schema, SchemaStats, TreeSchema};
use ghostdb_exec::{
    attach_actuals, execute, plan_nodes, render_plan, CostModel, CostedPlan, ExecContext,
    Optimizer, Plan, PlanNode, QuerySpec,
};
use ghostdb_flash::Volume;
use ghostdb_index::IndexSet;
use ghostdb_obs::{Span, TraceRecorder};
use ghostdb_ram::RamBudget;
use ghostdb_sql::{bind_select, parse_statements, Statement};
use ghostdb_storage::HiddenStore;
use ghostdb_types::{format_ns, DeviceConfig, GhostError, Result, Sealed, SimClock, Value};

use crate::flight::{build_statement_trace, CoreMetrics, StageClock};
use crate::{BusPcLink, QueryOutcome};

/// The device and PC state one read session answers against, with the
/// whole `SELECT` surface (bind, plan, run, explain, trace) on it.
///
/// Not constructed directly: [`GhostDb`](crate::GhostDb) and
/// [`Snapshot`](crate::Snapshot) both dereference to one, so every
/// method below is callable on either handle.
pub struct ReadView {
    /// Immutable after load; `Arc`ed so forks share them for free.
    pub(crate) schema: Arc<Schema>,
    pub(crate) tree: Arc<TreeSchema>,
    pub(crate) config: Arc<DeviceConfig>,
    pub(crate) clock: SimClock,
    pub(crate) bus: Bus,
    pub(crate) volume: Volume,
    /// This session's device RAM slice.
    pub(crate) ram: RamBudget,
    /// Hidden store: shared flash bases + RAM deltas.
    pub(crate) hidden: HiddenStore,
    /// Index set: shared flash bases + RAM deltas.
    pub(crate) indexes: IndexSet,
    /// Planner statistics.
    pub(crate) stats: SchemaStats,
    /// This session's PC endpoint over the shared bus, with the visible
    /// store.
    pub(crate) pc_link: BusPcLink,
    /// Commit epoch: bumped by every committed mutation statement and
    /// every delta flush; equal epochs mean identical logical state.
    pub(crate) epoch: u64,
    /// The engine's flight recorder (shared by every fork, so snapshot
    /// traces land in the same slot).
    pub(crate) recorder: TraceRecorder,
    /// The engine's metric handles (shared by every fork).
    pub(crate) metrics: Arc<CoreMetrics>,
}

impl ReadView {
    /// A copy of this view for an independent read session: deltas,
    /// statistics and the visible store are cloned (bounded by the
    /// flush threshold), flash bases and the engine-wide handles are
    /// shared, and the session gets a fresh device RAM slice of the
    /// configured size plus its own PC endpoint over the shared bus.
    pub(crate) fn fork(&self) -> ReadView {
        ReadView {
            schema: self.schema.clone(),
            tree: self.tree.clone(),
            config: self.config.clone(),
            clock: self.clock.clone(),
            bus: self.bus.clone(),
            volume: self.volume.clone(),
            ram: RamBudget::new(self.config.ram_bytes),
            hidden: self.hidden.clone(),
            indexes: self.indexes.clone(),
            stats: self.stats.clone(),
            pc_link: BusPcLink::new(self.bus.clone(), self.pc_link.visible().clone()),
            epoch: self.epoch,
            recorder: self.recorder.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// The bound schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tree analysis of the schema.
    pub fn tree(&self) -> &TreeSchema {
        &self.tree
    }

    /// Catalog statistics the planner costs against.
    pub fn stats(&self) -> &SchemaStats {
        &self.stats
    }

    /// The hardware configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The device's flash volume (for space/stat reports).
    pub fn volume(&self) -> &Volume {
        &self.volume
    }

    /// This session's device RAM budget.
    pub fn ram(&self) -> &RamBudget {
        &self.ram
    }

    /// The device's index set.
    pub fn indexes(&self) -> &IndexSet {
        &self.indexes
    }

    /// The MVCC epoch this view answers at: bumped by every committed
    /// mutation statement and every delta flush.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The spy-visible bus trace.
    pub fn trace(&self) -> &BusTrace {
        self.bus.trace()
    }

    /// Forget the trace (between experiment phases).
    pub fn clear_trace(&self) {
        self.bus.trace().clear();
    }

    /// Demo phase 1: the pirate's view of the last transfers.
    pub fn spy_report(&self) -> String {
        self.bus.trace().spy_report()
    }

    /// Would a spy have seen this value on the PC ↔ device link?
    pub fn spy_sees_value(&self, v: &Value) -> bool {
        self.bus.trace().spy_sees_value(v)
    }

    /// Bind exactly one `SELECT` statement into an executable
    /// [`QuerySpec`]. Scripts, DML and `EXPLAIN ANALYZE` are rejected:
    /// they run through [`GhostDb::execute`](crate::GhostDb::execute).
    pub fn bind(&self, sql: &str) -> Result<QuerySpec> {
        self.bind_parsed(&parse_statements(sql)?)
    }

    /// The bind half of [`bind`](Self::bind), over already-parsed
    /// statements (the traced query path times parse and bind apart).
    fn bind_parsed(&self, stmts: &[Statement]) -> Result<QuerySpec> {
        let [Statement::Select(sel)] = stmts else {
            return Err(GhostError::sql(
                "expected exactly one SELECT statement (scripts, DML and EXPLAIN ANALYZE \
                 run through execute)",
            ));
        };
        let bound = bind_select(&self.schema, &self.tree, sel)?;
        QuerySpec::bind(
            &self.schema,
            &self.tree,
            bound.sql,
            bound.tables,
            bound.projections,
            bound.predicates,
            bound.joins,
        )?
        .with_analytics(&self.schema, &bound.analytics)
    }

    /// Everything the executor needs, over this view's state.
    pub(crate) fn exec_context(&self) -> ExecContext<'_> {
        ExecContext {
            schema: &self.schema,
            config: &self.config,
            clock: self.clock.clone(),
            volume: &self.volume,
            ram: &self.ram,
            hidden: &self.hidden,
            indexes: &self.indexes,
            pc: &self.pc_link,
        }
    }

    fn optimizer(&self) -> Optimizer<'_> {
        Optimizer::new(&self.schema, &self.tree, &self.stats, &self.config)
    }

    fn cost_model(&self) -> CostModel<'_> {
        CostModel::new(&self.schema, &self.tree, &self.stats, &self.config)
    }

    /// All candidate plans for a statement, cheapest first (demo phases
    /// 2 and 3).
    pub fn plans(&self, sql: &str) -> Result<Vec<CostedPlan>> {
        self.plans_for(&self.bind(sql)?)
    }

    /// All candidate plans for an already-bound spec, cheapest first.
    pub fn plans_for(&self, spec: &QuerySpec) -> Result<Vec<CostedPlan>> {
        self.optimizer()
            .plans(spec, |c| self.indexes.has_value_index(c))
    }

    /// The optimizer's cheapest plan for a bound spec.
    pub(crate) fn best_plan(&self, spec: &QuerySpec) -> Result<Plan> {
        self.optimizer()
            .best(spec, |c| self.indexes.has_value_index(c))
    }

    /// The canonical all-Pre-filtering plan ("P1").
    pub fn plan_pre(&self, spec: &QuerySpec) -> Plan {
        ghostdb_exec::plan_all_pre(spec, &self.schema, |c| self.indexes.has_value_index(c))
    }

    /// The canonical Post-filtering plan ("P2", Figure 5).
    pub fn plan_post(&self, spec: &QuerySpec) -> Plan {
        ghostdb_exec::plan_all_post(spec, &self.schema, |c| self.indexes.has_value_index(c))
    }

    /// Execute a statement with the optimizer's best plan.
    ///
    /// With the flight recorder on
    /// ([`GhostDb::set_tracing`](crate::GhostDb::set_tracing)) the
    /// statement leaves a span tree — parse → bind → plan → execute with
    /// per-operator actuals — retrievable via
    /// [`last_trace`](Self::last_trace). Recorder off costs one relaxed
    /// atomic load.
    pub fn query(&self, sql: &str) -> Result<QueryOutcome> {
        if !self.recorder.is_enabled() {
            let spec = self.bind(sql)?;
            let plan = self.best_plan(&spec)?;
            return self.run(&spec, &plan);
        }
        let stage = StageClock::start();
        let stmts = parse_statements(sql)?;
        let parse_end = stage.now_ns();
        let spec = self.bind_parsed(&stmts)?;
        let bind_end = stage.now_ns();
        let plan = self.best_plan(&spec)?;
        let plan_end = stage.now_ns();
        let out = self.run(&spec, &plan)?;
        self.recorder.record(build_statement_trace(
            stmts.len() as u64,
            parse_end,
            bind_end,
            plan_end,
            stage.now_ns(),
            &plan.label,
            &out.report,
        ));
        Ok(out)
    }

    /// Execute a statement with a caller-chosen plan (demo phase 2/3).
    pub fn query_with_plan(&self, sql: &str, plan: &Plan) -> Result<QueryOutcome> {
        self.run(&self.bind(sql)?, plan)
    }

    /// Execute an already-bound spec with a plan.
    pub fn run(&self, spec: &QuerySpec, plan: &Plan) -> Result<QueryOutcome> {
        // The query text is public: the PC poses it to the device.
        self.bus.transmit(
            Endpoint::Pc,
            Endpoint::Device,
            &Message::Query {
                sql: spec.sql.clone(),
            },
        )?;
        let (rows, report) = execute(&self.exec_context(), spec, plan)?;
        self.metrics.select_latency.observe(report.total_ns);
        // Results exist only sealed on the device...
        let sealed = Sealed::new(rows);
        // ...and are opened by the secure display alone.
        let ticket = self.bus.present(&sealed.peek_on_device().rows);
        let rows = sealed.open(ticket);
        Ok(QueryOutcome { rows, report })
    }

    /// `EXPLAIN ANALYZE`: run `sql` with the optimizer's best plan, then
    /// render the plan tree annotated with the cost model's estimated
    /// cardinalities next to the measured actuals (rows, simulated time,
    /// blocks pulled, gallops, Bloom probes, liveness drops). The query
    /// really executes — its frames cross the spied bus like any
    /// `SELECT`'s, and the annotations are counts/times/sizes only.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let spec = self.bind(sql)?;
        let plan = self.best_plan(&spec)?;
        let (tree, _) = self.analyze_with_plan(&spec, &plan)?;
        Ok(render_plan(&plan.label, &tree))
    }

    /// Structured `EXPLAIN ANALYZE` for a caller-chosen plan: the
    /// annotated [`PlanNode`] tree plus the outcome it was measured
    /// from. This is the oracle-facing API — tests recount cardinalities
    /// independently and compare them to the tree's actuals.
    pub fn analyze_with_plan(
        &self,
        spec: &QuerySpec,
        plan: &Plan,
    ) -> Result<(PlanNode, QueryOutcome)> {
        let out = self.run(spec, plan)?;
        let cards = self.cost_model().cardinalities(spec, plan);
        let mut tree = plan_nodes(&self.schema, spec, plan, Some(&cards));
        attach_actuals(&mut tree, &out.report);
        Ok((tree, out))
    }

    /// Multi-line explain: the plan list with costs for a statement,
    /// each plan rendered as the same operator tree `EXPLAIN ANALYZE`
    /// prints (annotated with the cost model's estimated cardinalities —
    /// no execution happens here).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let spec = self.bind(sql)?;
        let plans = self.plans_for(&spec)?;
        let cost = self.cost_model();
        let mut out = format!("{} candidate plan(s)\n", plans.len());
        for cp in plans.iter().take(8) {
            let cards = cost.cardinalities(&spec, &cp.plan);
            let tree = plan_nodes(&self.schema, &spec, &cp.plan, Some(&cards));
            out.push_str(&format!(
                "-- estimated {}\n{}",
                format_ns(cp.est_ns as u64),
                render_plan(&cp.plan.label, &tree)
            ));
        }
        Ok(out)
    }

    /// The last completed statement trace, if tracing was on for it
    /// (the slot is shared by the engine and every snapshot).
    pub fn last_trace(&self) -> Option<Span> {
        self.recorder.last()
    }
}
