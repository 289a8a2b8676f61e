//! The device-side plan executor: a **block-at-a-time pull pipeline**
//! with O(pages) device RAM.
//!
//! The unit of exchange on the hot path is an [`IdBlock`] (up to
//! [`BLOCK_CAP`](ghostdb_types::BLOCK_CAP) ids), not a single id: each
//! stage moves a block per virtual call, and clock/stat charges are
//! accumulated per block instead of per id. Stages:
//!
//! 1. **Prologue** — for every Bloom post-filter and every projected
//!    visible column, fetch the (predicate-filtered) column from the PC
//!    once into a flash temp. Bloom filters fill from the same transfer,
//!    buffered into batches and inserted via
//!    [`BlockedBloomFilter::insert_batch`] with one clock charge per
//!    batch.
//! 2. **Sources** — each pre-filtering source yields an ascending
//!    anchor-id stream (climbing probe, delegate+translate, scan, or
//!    cross-filter group). Posting streams serve whole blocks with
//!    chunked flash reads.
//! 3. **Merge** — sources are merge-intersected by the galloping
//!    [`MergeIntersect`]: the pivot advances via
//!    [`seek_at_least`](IdStream::seek_at_least), which binary-searches
//!    fixed-width posting lists on flash instead of pulling one id per
//!    virtual call, and the CPU clock is charged once per output block.
//! 4. **SKT access** — candidate blocks fill a RAM-budget-sized batch.
//!    A batch row carries the anchor id plus only the Subtree Key Table
//!    columns a later stage reads ([`Plan::skt_tables`]), so batches
//!    grow when a plan needs fewer keys; when it needs none the SKT is
//!    never opened and the stage reports as `anchor-rows`. A bare
//!    `LIMIT` caps each batch at the rows it still wants.
//! 5. **Post steps** — Bloom probes run over the whole batch
//!    ([`BlockedBloomFilter::probe_batch`]: one cache-line touch per
//!    probe, one clock charge per batch); the positives, sorted by
//!    member id, are confirmed exactly through the verifier temp's
//!    forward sorted-probe [`TempCursor`], which reads the pages
//!    holding a positive plus a few search probes instead of scanning
//!    the temp; hidden verifies drop the rest.
//! 6. **Project** — late and in page order. Each visible column and
//!    each hidden column of another table is fetched per batch in
//!    ascending member-id order (hidden cells as their stored keys,
//!    visible values through the temp's sorted-probe cursor) into a
//!    buffer charged to the RAM budget; visible columns go first, so a
//!    temp miss drops the row before any hidden read. Rows are then
//!    emitted in anchor order — the anchor's own hidden columns read
//!    directly, in their storage order — so result order is unchanged.
//! 7. **Epilogue** (analytic queries only) — aggregates, `GROUP BY`,
//!    `ORDER BY` and `LIMIT` fold the projected rows device-side
//!    through [`crate::Epilogue`] before the result is sealed, so
//!    hidden aggregate operands never reach the bus; plain SPJ queries
//!    skip this stage entirely and keep the seed's operator list. A
//!    bare `LIMIT` saturates the epilogue and stops the candidate pull
//!    early.
//!
//! Every stage records the demo's per-operator statistics (tuples, RAM,
//! simulated time). The id-at-a-time operators
//! ([`ScalarMergeIntersect`](crate::ScalarMergeIntersect),
//! `ScalarFallback`) are standalone references for operator-level tests
//! and benchmarks; the executor never wires them in. Plan-level
//! correctness is checked against independent oracles
//! (`workload::reference_execute`, fresh-load mirrors, and the
//! `EXPLAIN ANALYZE` recount in `tests/observability.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ghostdb_bloom::BlockedBloomFilter;
use ghostdb_catalog::{ColumnRole, Predicate, Schema};
use ghostdb_flash::Volume;
use ghostdb_index::{IndexSet, TRANSLATE_SORT_RAM};
use ghostdb_ram::{RamBudget, RamScope};
use ghostdb_storage::{Cell, HiddenStore, KeyRange};
use ghostdb_types::{
    ColumnId, DataType, DeviceConfig, GhostError, IdBlock, IdStream, LiveFilter, Result, RowId,
    SimClock, TableId, Value, BLOCK_CAP,
};

use crate::agg::Epilogue;
use crate::ops::{FullScanSource, MergeIntersect};
use crate::pc::PcLink;
use crate::plan::{Plan, PostStep, Source};
use crate::query::QuerySpec;
use crate::stats::{ExecReport, OpStats, ResultSet};
use crate::temp::{value_width, IdTemp, TempCursor, VisibleTemp};

/// Everything the executor needs about one device + PC pairing.
pub struct ExecContext<'a> {
    /// The schema.
    pub schema: &'a Schema,
    /// Hardware model.
    pub config: &'a DeviceConfig,
    /// The device clock (shared with flash and bus).
    pub clock: SimClock,
    /// Device flash volume.
    pub volume: &'a Volume,
    /// Device RAM budget.
    pub ram: &'a RamBudget,
    /// Hidden column store.
    pub hidden: &'a HiddenStore,
    /// SKTs and climbing indexes.
    pub indexes: &'a IndexSet,
    /// Handle to the untrusted PC.
    pub pc: &'a dyn PcLink,
}

impl ExecContext<'_> {
    fn sort_ram(&self) -> usize {
        (self.ram.available() / 4).clamp(1024, TRANSLATE_SORT_RAM)
    }

    fn bloom_ram(&self) -> usize {
        (self.ram.available() / 4).clamp(512, 8 * 1024)
    }

    fn pred_str(&self, p: &Predicate) -> String {
        format!("{} {} {}", self.schema.column_name(p.column), p.op, p.value)
    }
}

/// Shared instrumentation for a boxed stream.
#[derive(Debug, Default)]
struct StreamMeter {
    ns: AtomicU64,
    out: AtomicU64,
    /// Blocks pulled through `next_block`.
    blocks: AtomicU64,
    /// `seek_at_least` calls (the merge's gallops into this stream).
    seeks: AtomicU64,
}

/// Instrumented id stream: measures simulated time spent inside (its own
/// work plus upstream flash/bus pulls) and counts emitted ids.
struct Timed<'a> {
    inner: Box<dyn IdStream + 'a>,
    clock: SimClock,
    meter: Arc<StreamMeter>,
}

impl IdStream for Timed<'_> {
    fn next_id(&mut self) -> Result<Option<RowId>> {
        let t0 = self.clock.now();
        let r = self.inner.next_id();
        self.meter
            .ns
            .fetch_add(self.clock.now().since(t0), Ordering::Relaxed);
        if let Ok(Some(_)) = r {
            self.meter.out.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn next_block(&mut self, block: &mut IdBlock) -> Result<()> {
        let t0 = self.clock.now();
        let r = self.inner.next_block(block);
        self.meter
            .ns
            .fetch_add(self.clock.now().since(t0), Ordering::Relaxed);
        if r.is_ok() {
            self.meter.blocks.fetch_add(1, Ordering::Relaxed);
            self.meter
                .out
                .fetch_add(block.len() as u64, Ordering::Relaxed);
        }
        r
    }

    fn seek_at_least(&mut self, target: RowId) -> Result<Option<RowId>> {
        // Forward so galloping reaches the wrapped stream; the merge
        // above us owns the tuple accounting for skipped ids.
        self.meter.seeks.fetch_add(1, Ordering::Relaxed);
        let t0 = self.clock.now();
        let r = self.inner.seek_at_least(target);
        self.meter
            .ns
            .fetch_add(self.clock.now().since(t0), Ordering::Relaxed);
        if let Ok(Some(_)) = r {
            self.meter.out.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

struct BuiltSource<'a> {
    stream: Box<dyn IdStream + 'a>,
    meter: Arc<StreamMeter>,
    stats: OpStats,
}

/// Feeds ids into a Bloom filter in [`BLOCK_CAP`] batches: one
/// `insert_batch` and one hash-cost clock charge per batch instead of
/// per id. All three executor fill sites share this. Callers must
/// [`flush`](Self::flush) after the last id.
struct BatchedBloomFill<'b> {
    bloom: &'b mut BlockedBloomFilter,
    clock: SimClock,
    /// Clock cost per inserted key (`hash_ns * k`).
    key_ns: u64,
    pending: Vec<u64>,
}

impl<'b> BatchedBloomFill<'b> {
    fn new(bloom: &'b mut BlockedBloomFilter, clock: SimClock, hash_ns: u64) -> Self {
        let key_ns = hash_ns * bloom.k() as u64;
        BatchedBloomFill {
            bloom,
            clock,
            key_ns,
            pending: Vec::with_capacity(BLOCK_CAP),
        }
    }

    fn push(&mut self, key: u64) {
        self.pending.push(key);
        if self.pending.len() == BLOCK_CAP {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.bloom.insert_batch(&self.pending);
        self.clock.advance(self.key_ns * self.pending.len() as u64);
        self.pending.clear();
    }
}

/// The galloping block merge-intersect over `inputs`.
fn make_merge<'a>(
    ctx: &ExecContext<'_>,
    inputs: Vec<Box<dyn IdStream + 'a>>,
) -> Box<dyn IdStream + 'a> {
    Box::new(MergeIntersect::new(
        inputs,
        ctx.clock.clone(),
        ctx.config.cpu.tuple_op_ns,
    ))
}

/// Execute `plan` for `spec` and return results plus the report.
pub fn execute(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    plan: &Plan,
) -> Result<(ResultSet, ExecReport)> {
    plan.validate(ctx.schema, spec)?;
    ctx.ram.reset_peak();
    let t_start = ctx.clock.now();
    let flash_start = ctx.volume.nand().stats();
    let bus_start = ctx.pc.bus_stats();
    let mut report_ops: Vec<OpStats> = Vec::new();

    // The query text speaks the *logical* id space (dense primary keys
    // over live rows); stored data — flash segments, postings, the PC's
    // columns — lives in the *physical* space tombstones are defined
    // over. Translate every PK/FK predicate constant once, up front
    // (identity unless rows have been deleted since the last flush), and
    // use the translated set everywhere below.
    let preds: Vec<Predicate> = spec
        .predicates
        .iter()
        .map(|p| ctx.hidden.physical_predicate(ctx.schema, p))
        .collect();

    // ---- Prologue: fetch visible columns into flash temps ----
    // One visible predicate per table may restrict that table's fetches
    // (any conjunct is a sound filter).
    let filter_pred_of: BTreeMap<TableId, &Predicate> = {
        let mut m = BTreeMap::new();
        for p in &preds {
            if !ctx.schema.is_hidden(p.column) {
                m.entry(p.column.table).or_insert(p);
            }
        }
        m
    };

    let fetch_scope = RamScope::new(ctx.ram);
    let fetch_one = |cref: ghostdb_catalog::ColumnRef,
                     filter: Option<&Predicate>,
                     bloom: Option<&mut BlockedBloomFilter>|
     -> Result<(VisibleTemp, OpStats)> {
        let def = ctx.schema.column_def(cref);
        let t0 = ctx.clock.now();
        let mut pairs = ctx.pc.fetch_column(cref.table, cref.column, filter)?;
        let temp = match bloom {
            Some(b) => {
                let mut fill = BatchedBloomFill::new(b, ctx.clock.clone(), ctx.config.cpu.hash_ns);
                let temp = {
                    let mut hook = |id: RowId| fill.push(id.0 as u64);
                    VisibleTemp::build(
                        ctx.volume,
                        &fetch_scope,
                        def.ty,
                        pairs.as_mut(),
                        Some(&mut hook),
                    )?
                };
                fill.flush();
                temp
            }
            None => VisibleTemp::build(ctx.volume, &fetch_scope, def.ty, pairs.as_mut(), None)?,
        };
        let stats = OpStats {
            name: "fetch-column".into(),
            detail: format!(
                "{}{}",
                ctx.schema.column_name(cref),
                filter
                    .map(|p| format!(" where {}", ctx.pred_str(p)))
                    .unwrap_or_default()
            ),
            tuples_in: temp.len(),
            tuples_out: temp.len(),
            sim_ns: ctx.clock.now().since(t0),
            ram_peak: fetch_scope.peak(),
            attrs: Vec::new(),
        };
        Ok((temp, stats))
    };

    // Projection temps, keyed by column.
    let mut proj_temps: BTreeMap<(u16, u16), VisibleTemp> = BTreeMap::new();
    for cref in &spec.projections {
        let def = ctx.schema.column_def(*cref);
        if def.visibility.is_hidden() || matches!(def.role, ColumnRole::PrimaryKey) {
            continue;
        }
        let key = (cref.table.0, cref.column.0);
        if proj_temps.contains_key(&key) {
            continue;
        }
        let filter = filter_pred_of.get(&cref.table).copied();
        let (temp, stats) = fetch_one(*cref, filter, None)?;
        report_ops.push(stats);
        proj_temps.insert(key, temp);
    }

    // Bloom post-filters: filter + an exact-verify temp per predicate.
    struct BloomStep<'p> {
        pred: &'p Predicate,
        bloom: BlockedBloomFilter,
        /// Temp holding exactly the ids satisfying the predicate. Either
        /// shared with a projection temp (same filter) or private.
        verify: VerifySource,
        build_stats: OpStats,
    }
    enum VerifySource {
        /// A projection temp fetched with this very predicate as filter.
        Shared((u16, u16)),
        /// A private id-only temp (ids delegated via EvalPredicate).
        Own(usize),
    }
    let bloom_scope = RamScope::new(ctx.ram);
    let mut own_verify_temps: Vec<IdTemp> = Vec::new();
    let mut bloom_steps: Vec<BloomStep<'_>> = Vec::new();
    for step in &plan.post {
        let PostStep::BloomVisible { pred } = step else {
            continue;
        };
        let p = &preds[*pred];
        let n_est = ctx.hidden.row_count(p.column.table) as usize;
        let mut bloom =
            BlockedBloomFilter::within_ram(&bloom_scope, n_est.max(16), ctx.bloom_ram())?;
        let key = (p.column.table.0, p.column.column.0);
        let shared = proj_temps.contains_key(&key)
            && filter_pred_of.get(&p.column.table).copied() == Some(p);
        let t0 = ctx.clock.now();
        let verify;
        let inserted;
        if shared {
            // The projection temp already holds exactly the qualifying
            // ids; replay them into the bloom from flash (cheaper than a
            // second bus transfer).
            let temp = proj_temps.get(&key).expect("checked");
            let mut replay = temp.cursor(&bloom_scope)?;
            let mut fill =
                BatchedBloomFill::new(&mut bloom, ctx.clock.clone(), ctx.config.cpu.hash_ns);
            for i in 0..temp.len() {
                fill.push(replay.id_at(i)?.0 as u64);
            }
            fill.flush();
            inserted = temp.len();
            verify = VerifySource::Shared(key);
        } else {
            // Ids only: EvalPredicate is a far smaller transfer than
            // fetching (id, value) pairs, and membership is all the
            // verification needs.
            let mut ids = ctx.pc.eval_predicate(p)?;
            let mut fill =
                BatchedBloomFill::new(&mut bloom, ctx.clock.clone(), ctx.config.cpu.hash_ns);
            let temp = {
                let mut hook = |id: RowId| fill.push(id.0 as u64);
                IdTemp::build(ctx.volume, &fetch_scope, ids.as_mut(), Some(&mut hook))?
            };
            fill.flush();
            inserted = temp.len();
            own_verify_temps.push(temp);
            verify = VerifySource::Own(own_verify_temps.len() - 1);
        }
        let build_stats = OpStats {
            name: "bloom-build".into(),
            detail: format!(
                "{} ({} ids, {} B, fpr~{:.4})",
                ctx.pred_str(p),
                inserted,
                bloom.bytes(),
                bloom.estimated_fpr()
            ),
            tuples_in: inserted,
            tuples_out: inserted,
            sim_ns: ctx.clock.now().since(t0),
            ram_peak: bloom.bytes(),
            attrs: Vec::new(),
        };
        bloom_steps.push(BloomStep {
            pred: p,
            bloom,
            verify,
            build_stats,
        });
    }

    // Hidden verify steps: precompute key ranges.
    struct VerifyStep<'p> {
        pred: &'p Predicate,
        range: Option<KeyRange>,
        checked: u64,
        passed: u64,
        ns: u64,
    }
    let mut verify_steps: Vec<VerifyStep<'_>> = Vec::new();
    for step in &plan.post {
        if let PostStep::HiddenVerify { pred } = step {
            let p = &preds[*pred];
            let range = ctx
                .hidden
                .key_range(p.column.table, p.column.column, p.op, &p.value)?;
            verify_steps.push(VerifyStep {
                pred: p,
                range,
                checked: 0,
                passed: 0,
                ns: 0,
            });
        }
    }

    // Post steps run (and report) in the plan's declared order — the
    // same order the cost model estimates and the plan tree renders —
    // so a hidden verify placed before a Bloom probe really does shrink
    // that probe's batch.
    enum PostOp {
        /// Index into `bloom_steps`.
        Bloom(usize),
        /// Index into `verify_steps`.
        Verify(usize),
    }
    let post_order: Vec<PostOp> = {
        let (mut b, mut v) = (0usize, 0usize);
        plan.post
            .iter()
            .map(|s| match s {
                PostStep::BloomVisible { .. } => {
                    b += 1;
                    PostOp::Bloom(b - 1)
                }
                PostStep::HiddenVerify { .. } => {
                    v += 1;
                    PostOp::Verify(v - 1)
                }
            })
            .collect()
    };

    // ---- Sources ----
    let mut built: Vec<BuiltSource<'_>> = Vec::new();
    for source in &plan.sources {
        built.push(build_source(ctx, spec, &preds, source)?);
    }
    let anchor_rows = ctx.hidden.row_count(spec.anchor);
    let mut source_meta: Vec<(OpStats, Arc<StreamMeter>)> = Vec::new();
    let merge_meter = Arc::new(StreamMeter::default());
    let n_sources = built.len();
    let candidates_inner: Box<dyn IdStream + '_> = if built.is_empty() {
        Box::new(FullScanSource::new(anchor_rows))
    } else if built.len() == 1 {
        let s = built.pop().expect("one source");
        source_meta.push((s.stats, s.meter));
        s.stream
    } else {
        let mut inputs = Vec::new();
        for s in built {
            source_meta.push((s.stats, s.meter));
            inputs.push(s.stream);
        }
        make_merge(ctx, inputs)
    };
    // Tombstone-resident deletes: drop dead anchors block-at-a-time
    // before any SKT fetch. (RESTRICT semantics guarantee a live anchor
    // joins only live subtree rows, so this one choke point covers the
    // whole pipeline; a no-op while everything is live.)
    let anchor_live = ctx.hidden.liveness(spec.anchor);
    // When tombstones are in play, meter the stream *below* the live
    // filter too: drops = ids entering it minus ids surviving it.
    let live_meter: Option<Arc<StreamMeter>> = if anchor_live.all_live() {
        None
    } else {
        Some(Arc::new(StreamMeter::default()))
    };
    let candidates_inner: Box<dyn IdStream + '_> = match &live_meter {
        None => candidates_inner,
        Some(meter) => Box::new(LiveFilter::new(
            Box::new(Timed {
                inner: candidates_inner,
                clock: ctx.clock.clone(),
                meter: meter.clone(),
            }),
            anchor_live,
        )),
    };
    let mut candidates = Timed {
        inner: candidates_inner,
        clock: ctx.clock.clone(),
        meter: merge_meter.clone(),
    };

    // ---- Late materialization: the keys a batch row carries ----
    // The anchor id, plus the SKT columns of the tables a later stage
    // reads; with none, the SKT is never opened (`anchor-rows`).
    let skt_tables = plan.skt_tables(spec);
    let skt_scope = RamScope::new(ctx.ram);
    let (mut skt_cursor, skt_cols) = if skt_tables.is_empty() {
        (None, Vec::new())
    } else {
        let skt = ctx.indexes.skt(spec.anchor)?;
        let cols = skt_tables
            .iter()
            .map(|&t| skt.column_of(t))
            .collect::<Result<Vec<usize>>>()?;
        (Some(skt.cursor(&skt_scope)?), cols)
    };
    let n_cols = 1 + skt_tables.len();
    let col_of = |table: TableId| -> Result<usize> {
        if table == spec.anchor {
            return Ok(0);
        }
        skt_tables
            .iter()
            .position(|&t| t == table)
            .map(|i| i + 1)
            .ok_or_else(|| GhostError::exec(format!("{table} is not carried by this plan")))
    };

    // Sorted-probe cursors: one per projection temp, one per Bloom
    // step's exact verifier.
    let probe_scope = RamScope::new(ctx.ram);
    let mut proj_cursors: BTreeMap<(u16, u16), TempCursor<'_>> = BTreeMap::new();
    for (key, temp) in &proj_temps {
        proj_cursors.insert(*key, temp.cursor(&probe_scope)?);
    }
    let mut verify_cursors: Vec<TempCursor<'_>> = Vec::new();
    for b in &bloom_steps {
        verify_cursors.push(match &b.verify {
            VerifySource::Shared(key) => proj_temps
                .get(key)
                .ok_or_else(|| GhostError::exec("missing shared verify temp"))?
                .cursor(&probe_scope)?,
            VerifySource::Own(i) => own_verify_temps[*i].cursor(&probe_scope)?,
        });
    }

    // Precompute projection dispatch. Stored PK/FK values are physical
    // ids; results present the logical (live-rank) view, so key
    // projections carry the table whose liveness renumbers them.
    enum Proj {
        Pk {
            table: TableId,
            col: usize,
        },
        /// Anchor column on the device: read at emit, in anchor order
        /// (which is its storage order).
        AnchorHidden {
            column: ColumnId,
            fk_target: Option<TableId>,
        },
        /// Any other column: fetched per batch in member order into
        /// `fetches[slot]`.
        Fetched {
            slot: usize,
            fk_target: Option<TableId>,
        },
    }
    /// One column fetched per batch, in ascending member-id order, into
    /// `cells` (indexed by batch row).
    struct MemberFetch {
        table: TableId,
        column: ColumnId,
        /// Batch column holding the member ids.
        col: usize,
        /// Projection temp of a visible column; `None` for hidden.
        temp: Option<(u16, u16)>,
        /// RAM charged per batch row.
        width: usize,
        cells: Vec<Option<Cell>>,
    }
    let mut fetches: Vec<MemberFetch> = Vec::new();
    let mut projs: Vec<Proj> = Vec::new();
    for cref in &spec.projections {
        let def = ctx.schema.column_def(*cref);
        let col = col_of(cref.table)?;
        let fk_target = match def.role {
            ColumnRole::ForeignKey(t) => Some(t),
            _ => None,
        };
        let hidden = def.visibility.is_hidden();
        projs.push(match def.role {
            ColumnRole::PrimaryKey => Proj::Pk {
                table: cref.table,
                col,
            },
            _ if col == 0 && hidden => Proj::AnchorHidden {
                column: cref.column,
                fk_target,
            },
            _ => {
                fetches.push(MemberFetch {
                    table: cref.table,
                    column: cref.column,
                    col,
                    temp: (!hidden).then_some((cref.table.0, cref.column.0)),
                    // A hidden cell is buffered as its stored key (a
                    // dictionary code for `CHAR`) and decoded at emit; a
                    // visible one as its value.
                    width: match def.ty {
                        _ if !hidden => value_width(def.ty),
                        DataType::Char(_) => 4,
                        _ => 8,
                    },
                    cells: Vec::new(),
                });
                Proj::Fetched {
                    slot: fetches.len() - 1,
                    fk_target,
                }
            }
        });
    }
    // Visible fetches first: a temp miss drops the row before any
    // hidden read is spent on it.
    let mut fetch_order: Vec<usize> = (0..fetches.len()).collect();
    fetch_order.sort_by_key(|&i| fetches[i].temp.is_none());
    // Present a stored (physical) key value in the logical space.
    let logical_key = |target: Option<TableId>, v: Value| -> Value {
        match (target, &v) {
            (Some(t), Value::Int(id)) if !ctx.hidden.liveness(t).all_live() => {
                Value::Int(ctx.hidden.live_rank(t, RowId(*id as u32)) as i64)
            }
            _ => v,
        }
    };

    // ---- Stream candidates in RAM-sized batches ----
    //
    // A batch row costs its carried keys, one sort slot (member id, row)
    // when a Bloom step or a member fetch reorders the batch, and the
    // member fetches' buffered cells. Three quarters of the remaining RAM
    // go to the batch (the rest is headroom for the epilogue's state);
    // everything is preallocated so nothing grows past its share.
    let sort_slot = if bloom_steps.is_empty() && fetches.is_empty() {
        0
    } else {
        std::mem::size_of::<(RowId, u32)>()
    };
    let fetch_bytes: usize = fetches.iter().map(|f| f.width).sum();
    let row_bytes = n_cols * std::mem::size_of::<RowId>() + sort_slot + fetch_bytes;
    let batch_cap = (ctx.ram.available() / 4 * 3 / row_bytes).clamp(16, 8192);
    let batch_scope = RamScope::new(ctx.ram);
    let mut batch: ghostdb_ram::TrackedVec<RowId> =
        ghostdb_ram::TrackedVec::with_capacity(&batch_scope, batch_cap * n_cols)?;
    let mut order: ghostdb_ram::TrackedVec<(RowId, u32)> = ghostdb_ram::TrackedVec::with_capacity(
        &batch_scope,
        if sort_slot == 0 { 0 } else { batch_cap },
    )?;
    let _fetch_ram = probe_scope.alloc(batch_cap * fetch_bytes)?;
    for f in &mut fetches {
        f.cells = vec![None; batch_cap];
    }

    let mut skt_ns = 0u64;
    let mut skt_in = 0u64;
    // Per Bloom step: (probes, bloom hits, exact-confirmed, sim ns).
    let mut bloom_runtime = vec![(0u64, 0u64, 0u64, 0u64); bloom_steps.len()];
    let mut project_ns = 0u64;
    let mut rows_out = 0u64;
    let mut result = ResultSet {
        columns: spec.output_columns(ctx.schema),
        rows: Vec::new(),
    };
    // Analytic epilogue: present only when the query aggregates, groups,
    // orders or limits. `None` keeps the plain SPJ fast path (and its
    // exact operator list) untouched.
    let mut epilogue =
        Epilogue::for_spec(spec, ctx.clock.clone(), ctx.config.cpu.tuple_op_ns, ctx.ram)?;

    // Candidate ids arrive block-at-a-time; the block outlives one batch
    // (a batch may be smaller or larger than a block).
    let mut cand_block = IdBlock::new();
    let mut cand_pos = 0usize;
    // Scratch for the batched Bloom probes, reused across batches.
    let mut probe_keys: Vec<u64> = Vec::new();
    let mut probe_rows: Vec<usize> = Vec::new();
    let mut probe_hits: Vec<bool> = Vec::new();
    let mut exhausted = false;
    while !exhausted {
        // Phase 1: fill the batch with each candidate's carried keys. A
        // bare LIMIT caps the batch at the rows it still wants.
        let cap = match epilogue.as_ref().and_then(Epilogue::wants) {
            Some(0) => break,
            Some(w) => batch_cap.min(w as usize),
            None => batch_cap,
        };
        batch.clear();
        let mut batch_rows = 0usize;
        while batch_rows < cap {
            if cand_pos == cand_block.len() {
                candidates.next_block(&mut cand_block)?;
                cand_pos = 0;
                if cand_block.is_empty() {
                    exhausted = true;
                    break;
                }
            }
            let id = cand_block.as_slice()[cand_pos];
            cand_pos += 1;
            let t0 = ctx.clock.now();
            skt_in += 1;
            batch.push(id)?;
            if let Some(cur) = skt_cursor.as_mut() {
                let start = batch.len();
                for _ in &skt_cols {
                    batch.push(RowId(0))?;
                }
                cur.fetch_cols(id, &skt_cols, &mut batch.as_mut_slice()[start..])?;
            }
            batch_rows += 1;
            skt_ns += ctx.clock.now().since(t0);
        }
        if batch_rows == 0 {
            break;
        }
        let key_at = |i: usize, col: usize| batch.as_slice()[i * n_cols + col];
        let mut alive = vec![true; batch_rows];

        // Phases 2+3: post steps in plan order. A Bloom step
        // batch-probes then batch-confirms; a hidden verify
        // random-reads each survivor.
        for post_op in &post_order {
            match *post_op {
                PostOp::Bloom(bi) => {
                    let b = &mut bloom_steps[bi];
                    let t0 = ctx.clock.now();
                    let member_col = col_of(b.pred.column.table)?;
                    // Gather the surviving members and probe them in one
                    // batch: one cache-line touch per key, one clock
                    // charge for all.
                    probe_keys.clear();
                    probe_rows.clear();
                    for (i, a) in alive.iter().enumerate() {
                        if *a {
                            probe_keys.push(key_at(i, member_col).0 as u64);
                            probe_rows.push(i);
                        }
                    }
                    bloom_runtime[bi].0 += probe_keys.len() as u64;
                    ctx.clock.advance(
                        ctx.config.cpu.hash_ns * b.bloom.k() as u64 * probe_keys.len() as u64,
                    );
                    b.bloom.probe_batch(&probe_keys, &mut probe_hits);
                    order.clear();
                    for ((&key, &row), &hit) in probe_keys.iter().zip(&probe_rows).zip(&probe_hits)
                    {
                        if hit {
                            order.push((RowId(key as u32), row as u32))?;
                        } else {
                            alive[row] = false;
                        }
                    }
                    bloom_runtime[bi].1 += order.len() as u64;
                    // Exact confirmation: the positives in member order
                    // through the verifier's sorted-probe cursor (no read
                    // at all when the Bloom filter cleared the whole
                    // batch), so false positives never reach results.
                    if !order.is_empty() {
                        order.as_mut_slice().sort_unstable();
                        ctx.clock
                            .advance(ctx.config.cpu.tuple_op_ns * order.len() as u64);
                        let cur = &mut verify_cursors[bi];
                        for &(member, i) in order.iter() {
                            if cur.contains(member)? {
                                bloom_runtime[bi].2 += 1;
                            } else {
                                alive[i as usize] = false;
                            }
                        }
                    }
                    bloom_runtime[bi].3 += ctx.clock.now().since(t0);
                }
                PostOp::Verify(vi) => {
                    let v = &mut verify_steps[vi];
                    let t0 = ctx.clock.now();
                    let member_col = col_of(v.pred.column.table)?;
                    for (i, a) in alive.iter_mut().enumerate() {
                        if !*a {
                            continue;
                        }
                        v.checked += 1;
                        let member = key_at(i, member_col);
                        ctx.clock.advance(ctx.config.cpu.tuple_op_ns);
                        // Base rows test their stored key against the
                        // precomputed range; delta rows compare values in
                        // RAM (exact even for delta-dictionary strings).
                        let pass = ctx.hidden.matches_at(
                            v.pred.column.table,
                            v.pred.column.column,
                            member,
                            v.pred.op,
                            &v.pred.value,
                            v.range,
                        )?;
                        if pass {
                            v.passed += 1;
                        } else {
                            *a = false;
                        }
                    }
                    v.ns += ctx.clock.now().since(t0);
                }
            }
        }

        // Phase 4: projection of survivors. Each fetched column is read
        // in ascending member order (equal members share one read) into
        // its buffer; then rows are emitted in anchor order.
        let t0 = ctx.clock.now();
        for &fi in &fetch_order {
            let f = &mut fetches[fi];
            order.clear();
            for (i, a) in alive.iter().enumerate() {
                if *a {
                    order.push((key_at(i, f.col), i as u32))?;
                }
            }
            order.as_mut_slice().sort_unstable();
            ctx.clock
                .advance(ctx.config.cpu.tuple_op_ns * order.len() as u64);
            let mut last: Option<(RowId, Option<Cell>)> = None;
            for &(member, i) in order.iter() {
                let cell = match &last {
                    Some((m, c)) if *m == member => c.clone(),
                    _ => {
                        let c = match f.temp {
                            None => Some(ctx.hidden.cell(f.table, f.column, member)?),
                            Some(key) => proj_cursors
                                .get_mut(&key)
                                .ok_or_else(|| GhostError::exec("missing projection temp"))?
                                .value(member)?
                                .map(Cell::Value),
                        };
                        last = Some((member, c.clone()));
                        c
                    }
                };
                match cell {
                    Some(c) => f.cells[i as usize] = Some(c),
                    // The fetch was filtered by a predicate this row
                    // fails — drop it (exactness net).
                    None => alive[i as usize] = false,
                }
            }
        }
        for (i, a) in alive.iter().enumerate() {
            if !*a {
                continue;
            }
            let anchor_id = key_at(i, 0);
            let mut row: Vec<Value> = Vec::with_capacity(projs.len());
            for p in &projs {
                ctx.clock.advance(ctx.config.cpu.tuple_op_ns);
                let (v, fk_target) = match p {
                    Proj::Pk { table, col } => {
                        let rank = ctx.hidden.live_rank(*table, key_at(i, *col));
                        (Value::Int(rank as i64), None)
                    }
                    Proj::AnchorHidden { column, fk_target } => (
                        ctx.hidden
                            .value(&probe_scope, spec.anchor, *column, anchor_id)?,
                        *fk_target,
                    ),
                    Proj::Fetched { slot, fk_target } => {
                        let f = &mut fetches[*slot];
                        let v = match f.cells[i].take() {
                            Some(Cell::Value(v)) => v,
                            Some(key) => ctx.hidden.decode(f.table, f.column, key)?,
                            None => return Err(GhostError::exec("member column not fetched")),
                        };
                        (v, *fk_target)
                    }
                };
                row.push(logical_key(fk_target, v));
            }
            rows_out += 1;
            match epilogue.as_mut() {
                Some(epi) => {
                    if !epi.push(row)? {
                        // A bare LIMIT is satisfied — stop pulling.
                        exhausted = true;
                        break;
                    }
                }
                None => result.rows.push(row),
            }
        }
        project_ns += ctx.clock.now().since(t0);
    }
    drop(batch);
    drop(order);

    // ---- Assemble the report ----
    let total_gallops: u64 = source_meta
        .iter()
        .map(|(_, m)| m.seeks.load(Ordering::Relaxed))
        .sum();
    for (mut stats, meter) in source_meta {
        stats.sim_ns += meter.ns.load(Ordering::Relaxed);
        stats.tuples_out = meter.out.load(Ordering::Relaxed);
        stats.tuples_in = stats.tuples_out;
        stats.attrs = vec![
            ("blocks", meter.blocks.load(Ordering::Relaxed)),
            ("gallops", meter.seeks.load(Ordering::Relaxed)),
        ];
        report_ops.push(stats);
    }
    if n_sources > 1 {
        report_ops.push(OpStats {
            name: "merge-intersect".into(),
            detail: format!("{n_sources} source(s)"),
            tuples_in: merge_meter.out.load(Ordering::Relaxed),
            tuples_out: merge_meter.out.load(Ordering::Relaxed),
            sim_ns: merge_meter.ns.load(Ordering::Relaxed),
            ram_peak: 0,
            attrs: vec![
                ("blocks", merge_meter.blocks.load(Ordering::Relaxed)),
                ("gallops", total_gallops),
            ],
        });
    }
    let mut skt_attrs = vec![("blocks", merge_meter.blocks.load(Ordering::Relaxed))];
    if let Some(m) = &live_meter {
        let entered = m.out.load(Ordering::Relaxed);
        let survived = merge_meter.out.load(Ordering::Relaxed);
        skt_attrs.push(("live_drops", entered.saturating_sub(survived)));
    }
    skt_attrs.push(("pages", skt_cursor.as_ref().map_or(0, |c| c.page_reads())));
    report_ops.push(OpStats {
        name: if skt_cursor.is_some() {
            "access-skt"
        } else {
            "anchor-rows"
        }
        .into(),
        detail: ctx.schema.table(spec.anchor).name.clone(),
        tuples_in: skt_in,
        tuples_out: skt_in,
        sim_ns: skt_ns,
        ram_peak: skt_scope.peak(),
        attrs: skt_attrs,
    });
    for post_op in &post_order {
        match *post_op {
            PostOp::Bloom(bi) => {
                let b = &bloom_steps[bi];
                report_ops.push(b.build_stats.clone());
                let (probes, hits, confirmed, ns) = bloom_runtime[bi];
                report_ops.push(OpStats {
                    name: "bloom-probe".into(),
                    detail: ctx.pred_str(b.pred),
                    tuples_in: probes,
                    tuples_out: confirmed,
                    sim_ns: ns,
                    ram_peak: 0,
                    attrs: vec![("probes", probes), ("hits", hits), ("confirmed", confirmed)],
                });
            }
            PostOp::Verify(vi) => {
                let v = &verify_steps[vi];
                report_ops.push(OpStats {
                    name: "hidden-verify".into(),
                    detail: ctx.pred_str(v.pred),
                    tuples_in: v.checked,
                    tuples_out: v.passed,
                    sim_ns: v.ns,
                    ram_peak: 0,
                    attrs: Vec::new(),
                });
            }
        }
    }
    report_ops.push(OpStats {
        name: "project".into(),
        detail: result.columns.join(", "),
        tuples_in: rows_out,
        tuples_out: rows_out,
        sim_ns: project_ns,
        ram_peak: probe_scope.peak(),
        attrs: Vec::new(),
    });
    if let Some(epi) = epilogue {
        let (rows, epi_ops) = epi.finish()?;
        result.rows = rows;
        report_ops.extend(epi_ops);
    }

    drop(proj_cursors);
    drop(verify_cursors);
    for (_, temp) in proj_temps.into_iter() {
        temp.free()?;
    }
    for temp in own_verify_temps.into_iter() {
        temp.free()?;
    }

    let bus_end = ctx.pc.bus_stats();
    let report = ExecReport {
        plan_label: plan.label.clone(),
        ops: report_ops,
        total_ns: ctx.clock.now().since(t_start),
        ram_peak: ctx.ram.peak(),
        result_rows: result.rows.len() as u64,
        bus_bytes_to_device: bus_end.0 - bus_start.0,
        bus_bytes_to_pc: bus_end.1 - bus_start.1,
        flash: ctx.volume.nand().stats().since(&flash_start),
    };
    Ok((result, report))
}

fn build_source<'a>(
    ctx: &'a ExecContext<'_>,
    spec: &QuerySpec,
    preds: &[Predicate],
    source: &Source,
) -> Result<BuiltSource<'a>> {
    let scope = RamScope::new(ctx.ram);
    let t0 = ctx.clock.now();
    let anchor = spec.anchor;
    let (stream, name, detail): (Box<dyn IdStream + 'a>, &str, String) = match source {
        Source::HiddenIndexClimb { pred } => {
            let p = &preds[*pred];
            let idx = ctx.indexes.value_index(p.column)?;
            // Base key range for the flash directory; the index's RAM
            // delta is matched by value inside lookup_pred, so rows
            // inserted after load (even with strings outside the base
            // dictionary) are found too.
            let range = ctx
                .hidden
                .key_range(p.column.table, p.column.column, p.op, &p.value)?;
            let stream: Box<dyn IdStream + 'a> =
                Box::new(idx.lookup_pred(&scope, p.op, &p.value, range, anchor, ctx.sort_ram())?);
            (stream, "climbing-index", ctx.pred_str(p))
        }
        Source::HiddenScanTranslate { pred } => {
            let p = &preds[*pred];
            // Delta-aware scan: flash base filtered through the key
            // range, RAM delta by value comparison.
            let mut scan = ctx.hidden.predicate_scan(
                &scope,
                p.column.table,
                p.column.column,
                p.op,
                &p.value,
            )?;
            // One comparison per tuple the scan actually examines (zero
            // base rows when the key range proves emptiness).
            ctx.clock
                .advance(ctx.config.cpu.tuple_op_ns * scan.planned_rows());
            let stream: Box<dyn IdStream + 'a> = if p.column.table == anchor {
                Box::new(scan)
            } else {
                let kidx = ctx.indexes.key_index(p.column.table)?;
                Box::new(kidx.translate(&scope, &mut scan, anchor, ctx.sort_ram())?)
            };
            (stream, "scan+translate", ctx.pred_str(p))
        }
        Source::VisibleDelegate { pred } => {
            let p = &preds[*pred];
            let mut delegated = ctx.pc.eval_predicate(p)?;
            let stream: Box<dyn IdStream + 'a> = if p.column.table == anchor {
                delegated
            } else {
                let kidx = ctx.indexes.key_index(p.column.table)?;
                Box::new(kidx.translate(&scope, delegated.as_mut(), anchor, ctx.sort_ram())?)
            };
            (stream, "delegate+translate", ctx.pred_str(p))
        }
        Source::CrossGroup {
            table,
            hidden,
            visible,
        } => {
            let mut level_streams: Vec<Box<dyn IdStream + 'a>> = Vec::new();
            for &i in hidden {
                let p = &preds[i];
                let idx = ctx.indexes.value_index(p.column)?;
                let range =
                    ctx.hidden
                        .key_range(p.column.table, p.column.column, p.op, &p.value)?;
                level_streams.push(Box::new(idx.lookup_pred(
                    &scope,
                    p.op,
                    &p.value,
                    range,
                    *table,
                    ctx.sort_ram(),
                )?));
            }
            for &i in visible {
                let p = &preds[i];
                level_streams.push(ctx.pc.eval_predicate(p)?);
            }
            let mut combined: Box<dyn IdStream + 'a> = if level_streams.len() == 1 {
                level_streams.pop().expect("one")
            } else {
                make_merge(ctx, level_streams)
            };
            let stream: Box<dyn IdStream + 'a> = if *table == anchor {
                combined
            } else {
                let kidx = ctx.indexes.key_index(*table)?;
                Box::new(kidx.translate(&scope, combined.as_mut(), anchor, ctx.sort_ram())?)
            };
            (
                stream,
                "cross-filter",
                format!(
                    "{} ({} hidden, {} visible)",
                    ctx.schema.table(*table).name,
                    hidden.len(),
                    visible.len()
                ),
            )
        }
    };
    let setup_ns = ctx.clock.now().since(t0);
    let meter = Arc::new(StreamMeter::default());
    Ok(BuiltSource {
        stream: Box::new(Timed {
            inner: stream,
            clock: ctx.clock.clone(),
            meter: meter.clone(),
        }),
        meter,
        stats: OpStats {
            name: name.into(),
            detail,
            tuples_in: 0,
            tuples_out: 0,
            sim_ns: setup_ns,
            ram_peak: scope.peak(),
            attrs: Vec::new(),
        },
    })
}
