//! The analytic epilogue: device-side aggregation, ordering and LIMIT.
//!
//! Projected rows leave the pipeline's Phase 4 one at a time; when the
//! query carries aggregates, `GROUP BY`, `ORDER BY` or `LIMIT`, they are
//! folded here — **on the device** — before anything is sealed for the
//! PC. That placement is the point: for `SELECT SUM(hidden) … GROUP BY
//! visible`, hidden operands are consumed inside the fold and only the
//! group keys plus the scalar results ever reach the bus
//! (`tests/leak_freedom.rs` greps every frame to prove it).
//!
//! # RAM contract
//!
//! The epilogue's state is charged to the 64 KB device budget through a
//! [`RamScope`] guard that is resized as state grows:
//!
//! * the **fold** holds one accumulator row per distinct group;
//! * **`ORDER BY` + `LIMIT k`** holds a bounded top-k buffer of at most
//!   `k` rows (the eviction order is exactly equivalent to a stable sort
//!   followed by truncation);
//! * **`ORDER BY`** without `LIMIT` buffers the full result — the only
//!   unbounded case, and it fails with `OutOfDeviceRam` rather than
//!   silently spilling.
//!
//! # Reference semantics
//!
//! * Groups are emitted in **first-seen order** (insertion order of the
//!   group key) unless `ORDER BY` says otherwise.
//! * Sorting is **stable**: ties keep arrival order.
//! * `AVG` is integer division **truncating toward zero**; `SUM`/`AVG`
//!   accumulate in 128 bits and error (rather than wrap) if the total
//!   leaves the 64-bit `INTEGER` range.
//! * With **zero qualifying rows** and no `GROUP BY`, the query yields
//!   one all-zero row if every SELECT item is a `COUNT`, and no rows
//!   otherwise (this dialect has no NULL to return for an empty `SUM`).

use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;

use ghostdb_catalog::OrderKey;
use ghostdb_ram::{RamBudget, RamScope, ScopedGuard};
use ghostdb_types::{AggFunc, GhostError, Result, SimClock, Value};

use crate::query::{OutputExpr, QuerySpec};
use crate::stats::OpStats;

/// One running aggregate.
enum Acc {
    Count(u64),
    Sum(i128),
    Avg { sum: i128, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(0),
            AggFunc::Avg => Acc::Avg { sum: 0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, arg: Option<&Value>) -> Result<()> {
        let int = || -> Result<i128> {
            arg.and_then(Value::as_int)
                .map(i128::from)
                .ok_or_else(|| GhostError::exec("aggregate operand is not an INTEGER"))
        };
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(s) => *s += int()?,
            Acc::Avg { sum, n } => {
                *sum += int()?;
                *n += 1;
            }
            Acc::Min(cur) => {
                let v = arg.ok_or_else(|| GhostError::exec("MIN needs an operand"))?;
                let replace = match cur {
                    None => true,
                    Some(c) => v.cmp_same_type(c)? == CmpOrdering::Less,
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                let v = arg.ok_or_else(|| GhostError::exec("MAX needs an operand"))?;
                let replace = match cur {
                    None => true,
                    Some(c) => v.cmp_same_type(c)? == CmpOrdering::Greater,
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Value> {
        match self {
            Acc::Count(n) => Ok(Value::Int(n as i64)),
            Acc::Sum(s) => i64::try_from(s)
                .map(Value::Int)
                .map_err(|_| GhostError::exec("SUM exceeds the INTEGER range")),
            Acc::Avg { sum, n } => {
                // Groups only exist once a row arrived, so n > 0 here.
                Ok(Value::Int((sum / n as i128) as i64))
            }
            Acc::Min(v) | Acc::Max(v) => {
                v.ok_or_else(|| GhostError::exec("MIN/MAX finished with no input"))
            }
        }
    }
}

/// One output slot of a group: either the (constant) group-key column
/// value captured from the group's first row, or a running aggregate.
enum Slot {
    Val(Value),
    Acc(Acc),
}

struct Group {
    slots: Vec<Slot>,
}

enum State {
    /// No aggregates, no GROUP BY: rows pass through the output mapping
    /// (and, with ORDER BY/LIMIT, a buffer). `(row, arrival)` pairs keep
    /// ties stable.
    Pass { rows: Vec<(Vec<Value>, u64)> },
    /// Aggregate fold keyed by the GROUP BY values; `groups` preserves
    /// first-seen order, `index` finds a key's group in O(1).
    Fold {
        groups: Vec<Group>,
        index: HashMap<Vec<Value>, usize>,
    },
}

/// Rough device-RAM footprint of a value (enum + payload).
fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Text(s) => 32 + s.len(),
        _ => 16,
    }
}

fn row_bytes(row: &[Value]) -> usize {
    24 + row.iter().map(value_bytes).sum::<usize>()
}

/// Compare two buffered rows by the ORDER BY keys, arrival breaking ties
/// (types within an output item are uniform post-binding, so a mismatch
/// cannot occur; `Equal` is the safe fallback).
fn cmp_rows(order_by: &[OrderKey], a: &(Vec<Value>, u64), b: &(Vec<Value>, u64)) -> CmpOrdering {
    for k in order_by {
        let o = a.0[k.item]
            .cmp_same_type(&b.0[k.item])
            .unwrap_or(CmpOrdering::Equal);
        let o = if k.desc { o.reverse() } else { o };
        if o != CmpOrdering::Equal {
            return o;
        }
    }
    a.1.cmp(&b.1)
}

/// The epilogue operator. Built per query when the spec needs one;
/// plain SPJ queries skip it entirely and keep the seed's exact
/// operator list.
pub struct Epilogue {
    clock: SimClock,
    tuple_ns: u64,
    output: Vec<OutputExpr>,
    group_by: Vec<usize>,
    order_by: Vec<OrderKey>,
    limit: Option<u64>,
    state: State,
    scope: RamScope,
    guard: ScopedGuard,
    bytes: usize,
    rows_in: u64,
    ns: u64,
}

impl Epilogue {
    /// Build the epilogue for `spec`, or `None` when the query is plain
    /// SPJ (identity output, no grouping, ordering or limit) and rows
    /// can stream straight into the result set.
    pub fn for_spec(
        spec: &QuerySpec,
        clock: SimClock,
        tuple_ns: u64,
        ram: &RamBudget,
    ) -> Result<Option<Epilogue>> {
        if spec.is_plain_output()
            && spec.group_by.is_empty()
            && spec.order_by.is_empty()
            && spec.limit.is_none()
        {
            return Ok(None);
        }
        let fold = spec.has_aggregates() || !spec.group_by.is_empty();
        let state = if fold {
            State::Fold {
                groups: Vec::new(),
                index: HashMap::new(),
            }
        } else {
            State::Pass { rows: Vec::new() }
        };
        let scope = RamScope::new(ram);
        let guard = scope.alloc(0)?;
        Ok(Some(Epilogue {
            clock,
            tuple_ns,
            output: spec.output.clone(),
            group_by: spec.group_by.clone(),
            order_by: spec.order_by.clone(),
            limit: spec.limit,
            state,
            scope,
            guard,
            bytes: 0,
            rows_in: 0,
            ns: 0,
        }))
    }

    fn charge(&mut self, items: u64) {
        let ns = self.tuple_ns * items;
        self.clock.advance(ns);
        self.ns += ns;
    }

    /// Rows a bare `LIMIT` (no `ORDER BY`, no fold) still wants before
    /// it saturates; `None` when every qualifying row matters.
    pub fn wants(&self) -> Option<u64> {
        match (&self.state, self.limit) {
            (State::Pass { rows }, Some(k)) if self.order_by.is_empty() => {
                Some(k.saturating_sub(rows.len() as u64))
            }
            _ => None,
        }
    }

    /// Consume one projected row. Returns `false` once the epilogue is
    /// saturated — a plain `LIMIT k` without `ORDER BY` needs no more
    /// input after `k` rows, and the executor may stop pulling.
    pub fn push(&mut self, row: Vec<Value>) -> Result<bool> {
        self.rows_in += 1;
        self.charge(self.output.len() as u64);
        let arrival = self.rows_in;
        match &mut self.state {
            State::Fold { groups, index } => {
                let key: Vec<Value> = self.group_by.iter().map(|&i| row[i].clone()).collect();
                let gi = match index.get(&key) {
                    Some(&gi) => gi,
                    None => {
                        let slots = self
                            .output
                            .iter()
                            .map(|item| match item {
                                OutputExpr::Column(i) => Slot::Val(row[*i].clone()),
                                OutputExpr::Agg { func, .. } => Slot::Acc(Acc::new(*func)),
                            })
                            .collect();
                        groups.push(Group { slots });
                        self.bytes += row_bytes(&key) + 24 * self.output.len();
                        self.guard.resize(self.bytes)?;
                        index.insert(key, groups.len() - 1);
                        groups.len() - 1
                    }
                };
                for (slot, item) in groups[gi].slots.iter_mut().zip(&self.output) {
                    if let (Slot::Acc(acc), OutputExpr::Agg { arg, .. }) = (slot, item) {
                        acc.update(arg.map(|i| &row[i]))?;
                    }
                }
                Ok(true)
            }
            State::Pass { rows } => {
                let out: Vec<Value> = self
                    .output
                    .iter()
                    .map(|item| match item {
                        OutputExpr::Column(i) => row[*i].clone(),
                        // Pass mode has no aggregates by construction.
                        OutputExpr::Agg { .. } => unreachable!("aggregate in pass-through"),
                    })
                    .collect();
                if self.order_by.is_empty() {
                    rows.push((out, arrival));
                    self.bytes += row_bytes(&rows.last().expect("just pushed").0);
                    self.guard.resize(self.bytes)?;
                    // Saturate a bare LIMIT: order is arrival order, so
                    // the first k rows are the answer.
                    Ok(match self.limit {
                        Some(k) => (rows.len() as u64) < k,
                        None => true,
                    })
                } else {
                    rows.push((out, arrival));
                    self.bytes += row_bytes(&rows.last().expect("just pushed").0);
                    if let Some(k) = self.limit {
                        if rows.len() as u64 > k {
                            // Bounded top-k: evict the worst row (the
                            // arrival tiebreak makes this equivalent to
                            // a stable sort + truncate).
                            let ns = self.tuple_ns * rows.len() as u64;
                            self.clock.advance(ns);
                            self.ns += ns;
                            let worst = (0..rows.len())
                                .max_by(|&a, &b| cmp_rows(&self.order_by, &rows[a], &rows[b]))
                                .expect("non-empty");
                            let evicted = rows.swap_remove(worst);
                            self.bytes -= row_bytes(&evicted.0);
                        }
                    }
                    self.guard.resize(self.bytes)?;
                    Ok(true)
                }
            }
        }
    }

    /// Finish the fold/sort and return the result rows plus the
    /// per-operator statistics to append to the report.
    pub fn finish(self) -> Result<(Vec<Vec<Value>>, Vec<OpStats>)> {
        let mut ops = Vec::new();
        let is_pass = matches!(self.state, State::Pass { .. });
        let mut rows: Vec<(Vec<Value>, u64)> = match self.state {
            State::Fold { groups, .. } => {
                let n_aggs = self
                    .output
                    .iter()
                    .filter(|i| matches!(i, OutputExpr::Agg { .. }))
                    .count();
                let mut out = Vec::with_capacity(groups.len());
                if groups.is_empty() && self.group_by.is_empty() {
                    // Zero qualifying rows, global aggregate: COUNTs are
                    // zero; anything else has no value to report.
                    let all_count = self.output.iter().all(|i| {
                        matches!(
                            i,
                            OutputExpr::Agg {
                                func: AggFunc::Count,
                                ..
                            }
                        )
                    });
                    if all_count {
                        out.push((vec![Value::Int(0); self.output.len()], 0));
                    }
                } else {
                    for (gi, g) in groups.into_iter().enumerate() {
                        let row = g
                            .slots
                            .into_iter()
                            .map(|s| match s {
                                Slot::Val(v) => Ok(v),
                                Slot::Acc(a) => a.finish(),
                            })
                            .collect::<Result<Vec<Value>>>()?;
                        out.push((row, gi as u64));
                    }
                }
                ops.push(OpStats {
                    name: "aggregate".into(),
                    detail: format!(
                        "{} group key(s), {} aggregate(s)",
                        self.group_by.len(),
                        n_aggs
                    ),
                    tuples_in: self.rows_in,
                    tuples_out: out.len() as u64,
                    sim_ns: self.ns,
                    ram_peak: self.scope.peak(),
                    attrs: Vec::new(),
                });
                out
            }
            State::Pass { rows } => rows,
        };

        if !self.order_by.is_empty() {
            let n = rows.len() as u64;
            let sort_cost = self.tuple_ns * n * (64 - n.leading_zeros() as u64);
            self.clock.advance(sort_cost);
            rows.sort_by(|a, b| cmp_rows(&self.order_by, a, b));
            let considered = if is_pass { self.rows_in } else { n };
            let mut out_n = n;
            if let Some(k) = self.limit {
                rows.truncate(k as usize);
                out_n = rows.len() as u64;
            }
            ops.push(OpStats {
                name: if self.limit.is_some() {
                    "top-k"
                } else {
                    "sort"
                }
                .into(),
                detail: format!(
                    "{} key(s){}",
                    self.order_by.len(),
                    self.limit
                        .map(|k| format!(", limit {k}"))
                        .unwrap_or_default()
                ),
                tuples_in: considered,
                tuples_out: out_n,
                sim_ns: self.ns + sort_cost,
                ram_peak: self.scope.peak(),
                attrs: Vec::new(),
            });
        } else if let Some(k) = self.limit {
            rows.truncate(k as usize);
        }

        Ok((rows.into_iter().map(|(r, _)| r).collect(), ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> SimClock {
        SimClock::new()
    }

    fn push_all(e: &mut Epilogue, rows: Vec<Vec<Value>>) {
        for r in rows {
            e.push(r).unwrap();
        }
    }

    fn spec_like(
        output: Vec<OutputExpr>,
        group_by: Vec<usize>,
        order_by: Vec<OrderKey>,
        limit: Option<u64>,
    ) -> Epilogue {
        // Build an Epilogue directly (bypassing QuerySpec) for unit tests.
        let ram = RamBudget::new(64 * 1024);
        let scope = RamScope::new(&ram);
        let guard = scope.alloc(0).unwrap();
        Epilogue {
            clock: clock(),
            tuple_ns: 1,
            output,
            group_by,
            order_by,
            limit,
            state: State::Fold {
                groups: Vec::new(),
                index: HashMap::new(),
            },
            scope,
            guard,
            bytes: 0,
            rows_in: 0,
            ns: 0,
        }
    }

    #[test]
    fn grouped_sum_first_seen_order() {
        let mut e = spec_like(
            vec![
                OutputExpr::Column(0),
                OutputExpr::Agg {
                    func: AggFunc::Sum,
                    arg: Some(1),
                },
            ],
            vec![0],
            vec![],
            None,
        );
        push_all(
            &mut e,
            vec![
                vec![Value::Int(2), Value::Int(10)],
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(2), Value::Int(7)],
            ],
        );
        let (rows, ops) = e.finish().unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(2), Value::Int(17)],
                vec![Value::Int(1), Value::Int(5)],
            ]
        );
        assert_eq!(ops[0].name, "aggregate");
        assert_eq!(ops[0].tuples_in, 3);
        assert_eq!(ops[0].tuples_out, 2);
    }

    #[test]
    fn avg_truncates_toward_zero() {
        let mut e = spec_like(
            vec![OutputExpr::Agg {
                func: AggFunc::Avg,
                arg: Some(0),
            }],
            vec![],
            vec![],
            None,
        );
        push_all(&mut e, vec![vec![Value::Int(-3)], vec![Value::Int(-4)]]);
        let (rows, _) = e.finish().unwrap();
        assert_eq!(rows, vec![vec![Value::Int(-3)]]); // -7/2 == -3 (trunc)
    }

    #[test]
    fn empty_input_count_vs_sum() {
        let e = spec_like(
            vec![OutputExpr::Agg {
                func: AggFunc::Count,
                arg: None,
            }],
            vec![],
            vec![],
            None,
        );
        let (rows, _) = e.finish().unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0)]]);

        let e = spec_like(
            vec![OutputExpr::Agg {
                func: AggFunc::Sum,
                arg: Some(0),
            }],
            vec![],
            vec![],
            None,
        );
        let (rows, _) = e.finish().unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn sum_overflow_is_an_error() {
        let mut e = spec_like(
            vec![OutputExpr::Agg {
                func: AggFunc::Sum,
                arg: Some(0),
            }],
            vec![],
            vec![],
            None,
        );
        push_all(
            &mut e,
            vec![vec![Value::Int(i64::MAX)], vec![Value::Int(i64::MAX)]],
        );
        assert!(e.finish().unwrap_err().to_string().contains("SUM"));
    }

    #[test]
    fn top_k_equals_stable_sort_truncate() {
        // Build the bounded buffer via Pass state with ORDER BY + LIMIT.
        let ram = RamBudget::new(64 * 1024);
        let scope = RamScope::new(&ram);
        let mk = |limit| Epilogue {
            clock: clock(),
            tuple_ns: 1,
            output: vec![OutputExpr::Column(0), OutputExpr::Column(1)],
            group_by: vec![],
            order_by: vec![OrderKey {
                item: 0,
                desc: false,
            }],
            limit,
            state: State::Pass { rows: Vec::new() },
            scope: scope.clone(),
            guard: scope.alloc(0).unwrap(),
            bytes: 0,
            rows_in: 0,
            ns: 0,
        };
        let data: Vec<Vec<Value>> = (0..50)
            .map(|i| {
                vec![
                    Value::Int((i * 37) % 11), // duplicate sort keys
                    Value::Int(i),             // payload marks arrival
                ]
            })
            .collect();
        let mut bounded = mk(Some(7));
        push_all(&mut bounded, data.clone());
        let (got, ops) = bounded.finish().unwrap();
        assert_eq!(ops[0].name, "top-k");

        let mut full = mk(None);
        push_all(&mut full, data);
        let (mut want, _) = full.finish().unwrap();
        want.truncate(7);
        assert_eq!(got, want, "top-k must equal stable sort + truncate");
    }

    #[test]
    fn bare_limit_saturates() {
        let ram = RamBudget::new(64 * 1024);
        let scope = RamScope::new(&ram);
        let mut e = Epilogue {
            clock: clock(),
            tuple_ns: 1,
            output: vec![OutputExpr::Column(0)],
            group_by: vec![],
            order_by: vec![],
            limit: Some(2),
            state: State::Pass { rows: Vec::new() },
            guard: scope.alloc(0).unwrap(),
            scope,
            bytes: 0,
            rows_in: 0,
            ns: 0,
        };
        assert!(e.push(vec![Value::Int(1)]).unwrap());
        assert!(!e.push(vec![Value::Int(2)]).unwrap(), "saturated at limit");
        let (rows, _) = e.finish().unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn min_max_over_text() {
        let mut e = spec_like(
            vec![
                OutputExpr::Agg {
                    func: AggFunc::Min,
                    arg: Some(0),
                },
                OutputExpr::Agg {
                    func: AggFunc::Max,
                    arg: Some(0),
                },
            ],
            vec![],
            vec![],
            None,
        );
        for s in ["pear", "apple", "quince"] {
            e.push(vec![Value::Text(s.into())]).unwrap();
        }
        let (rows, _) = e.finish().unwrap();
        assert_eq!(
            rows,
            vec![vec![
                Value::Text("apple".into()),
                Value::Text("quince".into())
            ]]
        );
    }
}
