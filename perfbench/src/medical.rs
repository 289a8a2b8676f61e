//! `medical_paper`: the paper's Figure 3 schema at one million
//! prescriptions, read-only, running a seeded stream of the plan-game
//! templates plus GROUP BY aggregates.
//!
//! Every answer is checked against a fold over the generated `Dataset`
//! written here (no engine code). The first statement of each
//! select-project-join template is also run through the workload
//! crate's naive `reference_execute`, which cross-checks the fold.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use ghostdb_catalog::{ColumnRef, Predicate, Schema, TreeSchema};
use ghostdb_core::GhostDb;
use ghostdb_storage::Dataset;
use ghostdb_types::{ColumnId, Date, DeviceConfig, Result, RowId, ScalarOp, TableId, Value};
use ghostdb_workload::{
    game_queries, generate_medical, medical_schema, reference_execute, MedicalConfig, MEDICAL_DDL,
};

use crate::harness::{Harness, Rows};
use crate::measure::{stratified, summarize, Counters, Deck, Rng};
use crate::{dataset_bytes, live_flash_bytes, Opts, SETUP_REPS};

/// Root cardinality: the paper's §5 scale.
pub const PRESCRIPTIONS: usize = 1_000_000;

/// Every hidden `Visit.Purpose` the generator can emit.
const PURPOSES: [&str; 17] = [
    "Sclerosis",
    "Checkup",
    "Diabetes",
    "Hypertension",
    "Influenza",
    "Asthma",
    "Migraine",
    "Fracture",
    "Allergy",
    "Bronchitis",
    "Arthritis",
    "Depression",
    "Insomnia",
    "Anemia",
    "Obesity",
    "Dermatitis",
    "Gastritis",
];

/// Hidden purposes the selective templates draw from: the paper's
/// `Sclerosis` (1 % of visits) and the nine rarest generated purposes
/// (1.9–3.7 % each). Drawing from all seventeen would put a 30x cost
/// spread on a coin flip and make short runs disagree.
const RARE: [&str; 10] = [
    "Sclerosis",
    "Allergy",
    "Bronchitis",
    "Arthritis",
    "Depression",
    "Insomnia",
    "Anemia",
    "Obesity",
    "Dermatitis",
    "Gastritis",
];

/// The common purposes (7–30 % each) of the plan game's
/// "cross-candidate" query, Q4, and of the `Med.Type` aggregate.
const COMMON: [&str; 4] = ["Checkup", "Diabetes", "Hypertension", "Influenza"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Template {
    /// Plan-game Q1..Q5 (`game_queries`, Q5 is the §4 `paper_query`).
    Game(usize),
    /// `GROUP BY Vis.Purpose` with a visible date cutoff.
    AggPurpose,
    /// `GROUP BY Med.Type` under a hidden purpose and a date cutoff.
    AggType,
}

/// The statement deck. The clusters of simulated latency, low to high,
/// are Q3 < Q1 < Q2 < `AggType` ≈ Q4 < Q5 < `AggPurpose`; the card
/// counts put the median inside the `AggType`/Q4/Q5 cluster and the p90
/// tail near the middle of the `AggPurpose` cluster (3 cards in 16),
/// not on the edge between two clusters, where either would jump from
/// run to run. The §4 paper query gets the most cards.
const DECK: [Template; 16] = [
    Template::Game(0),
    Template::Game(0),
    Template::Game(1),
    Template::Game(1),
    Template::Game(2),
    Template::Game(2),
    Template::Game(3),
    Template::Game(3),
    Template::Game(4),
    Template::Game(4),
    Template::Game(4),
    Template::Game(4),
    Template::AggPurpose,
    Template::AggPurpose,
    Template::AggPurpose,
    Template::AggType,
];

impl Template {
    /// Position in [`ALL`], the slot of the template's parameter decks.
    fn slot(self) -> usize {
        match self {
            Template::Game(i) => i,
            Template::AggPurpose => 5,
            Template::AggType => 6,
        }
    }

    fn name(self) -> &'static str {
        [
            "Q1",
            "Q2",
            "Q3",
            "Q4",
            "Q5-paper",
            "agg-purpose",
            "agg-type",
        ][self.slot()]
    }

    /// Date-cutoff range as fractions of the Visit.Date span (`None`: no
    /// date predicate). Q2 keeps the visible predicate unselective, Q3
    /// selective. The aggregates fold 3–5 % (`AggPurpose`) and 3–8 %
    /// (`AggType`, under a common purpose) of the prescriptions.
    fn cutoff_range(self) -> Option<(f64, f64)> {
        match self {
            Template::Game(0) => None,
            Template::Game(1) => Some((0.0, 0.5)),
            Template::Game(2) => Some((0.9, 0.98)),
            Template::Game(3) => Some((0.25, 0.75)),
            Template::Game(_) => Some((0.4, 0.8)),
            Template::AggPurpose => Some((0.95, 0.97)),
            Template::AggType => Some((0.5, 0.8)),
        }
    }

    fn purposes(self) -> &'static [&'static str] {
        match self {
            Template::Game(3) | Template::AggType => &COMMON,
            _ => &RARE,
        }
    }
}

/// Every template, in slot order.
const ALL: [Template; 7] = [
    Template::Game(0),
    Template::Game(1),
    Template::Game(2),
    Template::Game(3),
    Template::Game(4),
    Template::AggPurpose,
    Template::AggType,
];

const STRATA: u32 = 8;

/// One generated statement and what the oracle needs to check it.
struct Stmt {
    template: Template,
    sql: String,
    purpose: &'static str,
    cutoff: Option<Date>,
}

/// Replace every quoted `YYYY-MM-DD` literal in `sql` with `date`.
fn with_date(sql: &str, date: Date) -> String {
    let bytes = sql.as_bytes();
    let mut out = String::with_capacity(sql.len());
    let mut i = 0;
    while i < sql.len() {
        let is_date = i + 12 <= sql.len()
            && bytes[i] == b'\''
            && bytes[i + 11] == b'\''
            && bytes[i + 5] == b'-'
            && bytes[i + 8] == b'-'
            && bytes[i + 1..i + 5].iter().all(u8::is_ascii_digit);
        if is_date {
            out.push_str(&format!("'{date}'"));
            i += 12;
        } else {
            let c = sql[i..].chars().next().expect("in bounds");
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

struct Generator {
    rng: Rng,
    deck: Deck<Template>,
    /// Per-template decks, so each template covers its purposes and
    /// cutoff strata evenly however the templates interleave.
    purposes: Vec<Deck<&'static str>>,
    strata: Vec<Deck<u32>>,
    games: Vec<String>,
    start: Date,
    span: u32,
}

impl Generator {
    fn new(cfg: &MedicalConfig, seed: u64) -> Generator {
        Generator {
            rng: Rng::new(seed ^ 0x03ed_1ca1),
            deck: Deck::new(DECK.to_vec()),
            purposes: ALL
                .iter()
                .map(|t| Deck::new(t.purposes().to_vec()))
                .collect(),
            strata: ALL
                .iter()
                .map(|_| Deck::new((0..STRATA).collect()))
                .collect(),
            games: game_queries(cfg.date_start, cfg.date_span_days)
                .into_iter()
                .map(|q| q.sql)
                .collect(),
            start: cfg.date_start,
            span: cfg.date_span_days,
        }
    }

    fn next(&mut self) -> Stmt {
        let template = self.deck.deal(&mut self.rng);
        let slot = template.slot();
        let purpose = self.purposes[slot].deal(&mut self.rng);
        let cutoff = template.cutoff_range().map(|(lo, hi)| {
            let u = stratified(&mut self.strata[slot], STRATA, &mut self.rng);
            Date(self.start.0 + ((lo + u * (hi - lo)) * self.span as f64) as i32)
        });
        let sql = match template {
            Template::Game(i) => {
                let mut sql = self.games[i]
                    .replace("'Sclerosis'", &format!("'{purpose}'"))
                    .replace("'Checkup'", &format!("'{purpose}'"));
                if let Some(c) = cutoff {
                    sql = with_date(&sql, c);
                }
                sql
            }
            Template::AggPurpose => format!(
                "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity) \
                 FROM Prescription Pre, Visit Vis \
                 WHERE Vis.Date > '{}' AND Vis.VisID = Pre.VisID \
                 GROUP BY Vis.Purpose ORDER BY Vis.Purpose",
                cutoff.expect("aggregate has a cutoff")
            ),
            Template::AggType => format!(
                "SELECT Med.Type, COUNT(*), MAX(Pre.Quantity) \
                 FROM Prescription Pre, Medicine Med, Visit Vis \
                 WHERE Vis.Purpose = '{purpose}' AND Vis.Date > '{}' \
                   AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID \
                 GROUP BY Med.Type ORDER BY Med.Type",
                cutoff.expect("aggregate has a cutoff")
            ),
        };
        Stmt {
            template,
            sql,
            purpose,
            cutoff,
        }
    }
}

/// Table ids of the Figure 3 schema, resolved by name once (column
/// positions follow `MEDICAL_DDL`).
struct Ids {
    medicine: TableId,
    visit: TableId,
    prescription: TableId,
}

/// The oracle: the generated dataset flattened into per-prescription
/// arrays (the visit's date and purpose code joined in once).
struct Mirror {
    pre_qty: Vec<i64>,
    pre_med: Vec<u32>,
    pre_date: Vec<Date>,
    /// Index into `PURPOSES` of the prescription's visit.
    pre_purpose: Vec<u8>,
    med_name: Vec<String>,
    med_type: Vec<String>,
}

fn purpose_code(p: &str) -> u8 {
    PURPOSES
        .iter()
        .position(|&x| x == p)
        .unwrap_or_else(|| panic!("unknown purpose {p}")) as u8
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("integer column")
}

fn text(v: &Value) -> String {
    v.as_text().expect("text column").to_string()
}

impl Mirror {
    fn new(data: &Dataset, ids: &Ids) -> Mirror {
        let col = |t: TableId, c: usize| (0..data.row_count(t)).map(move |r| (t, c, r));
        let get = |(t, c, r): (TableId, usize, usize)| data.value(t, c, RowId(r as u32));
        let vis_date: Vec<Date> = col(ids.visit, 1)
            .map(|x| match get(x) {
                Value::Date(d) => *d,
                other => panic!("Visit.Date holds {other:?}"),
            })
            .collect();
        let vis_purpose: Vec<u8> = col(ids.visit, 2)
            .map(|x| purpose_code(&text(get(x))))
            .collect();
        let pre_vis: Vec<usize> = col(ids.prescription, 5)
            .map(|x| int(get(x)) as usize)
            .collect();
        Mirror {
            pre_qty: col(ids.prescription, 1).map(|x| int(get(x))).collect(),
            pre_med: col(ids.prescription, 4)
                .map(|x| int(get(x)) as u32)
                .collect(),
            pre_date: pre_vis.iter().map(|&v| vis_date[v]).collect(),
            pre_purpose: pre_vis.iter().map(|&v| vis_purpose[v]).collect(),
            med_name: col(ids.medicine, 1).map(|x| text(get(x))).collect(),
            med_type: col(ids.medicine, 3).map(|x| text(get(x))).collect(),
        }
    }

    /// Prescriptions whose visit matches the purpose and the cutoff, in
    /// ascending id order (the order the engine documents).
    fn matching(&self, purpose: Option<&str>, cutoff: Option<Date>) -> Vec<usize> {
        let code = purpose.map(purpose_code);
        let after = cutoff.unwrap_or(Date(i32::MIN));
        (0..self.pre_qty.len())
            .filter(|&p| code.is_none_or(|c| self.pre_purpose[p] == c) && self.pre_date[p] > after)
            .collect()
    }

    fn expected(&self, s: &Stmt) -> Rows {
        match s.template {
            Template::Game(4) => self
                .matching(Some(s.purpose), s.cutoff)
                .into_iter()
                .filter(|&p| self.med_type[self.pre_med[p] as usize] == "Antibiotic")
                .map(|p| {
                    vec![
                        Value::Text(self.med_name[self.pre_med[p] as usize].clone()),
                        Value::Int(self.pre_qty[p]),
                        Value::Date(self.pre_date[p]),
                    ]
                })
                .collect(),
            Template::Game(_) => self
                .matching(Some(s.purpose), s.cutoff)
                .into_iter()
                .map(|p| vec![Value::Int(p as i64)])
                .collect(),
            Template::AggPurpose => {
                let mut groups: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
                for p in self.matching(None, s.cutoff) {
                    let g = groups
                        .entry(PURPOSES[self.pre_purpose[p] as usize])
                        .or_default();
                    g.0 += 1;
                    g.1 += self.pre_qty[p];
                }
                groups
                    .into_iter()
                    .map(|(k, (n, sum))| {
                        vec![Value::Text(k.to_string()), Value::Int(n), Value::Int(sum)]
                    })
                    .collect()
            }
            Template::AggType => {
                let mut groups: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
                for p in self.matching(Some(s.purpose), s.cutoff) {
                    let g = groups
                        .entry(&self.med_type[self.pre_med[p] as usize])
                        .or_insert((0, i64::MIN));
                    g.0 += 1;
                    g.1 = g.1.max(self.pre_qty[p]);
                }
                groups
                    .into_iter()
                    .map(|(k, (n, max))| {
                        vec![Value::Text(k.to_string()), Value::Int(n), Value::Int(max)]
                    })
                    .collect()
            }
        }
    }
}

/// The same statement through `reference_execute`, with its predicates
/// and projections built by hand (not by the engine's binder).
fn reference(
    schema: &Schema,
    tree: &TreeSchema,
    data: &Dataset,
    ids: &Ids,
    s: &Stmt,
) -> Result<Rows> {
    let c = |table, i| ColumnRef {
        table,
        column: ColumnId(i),
    };
    let mut predicates = vec![Predicate {
        column: c(ids.visit, 2),
        op: ScalarOp::Eq,
        value: Value::Text(s.purpose.to_string()),
    }];
    if let Some(cut) = s.cutoff {
        predicates.push(Predicate {
            column: c(ids.visit, 1),
            op: ScalarOp::Gt,
            value: Value::Date(cut),
        });
    }
    let projections = if s.template == Template::Game(4) {
        predicates.push(Predicate {
            column: c(ids.medicine, 3),
            op: ScalarOp::Eq,
            value: Value::Text("Antibiotic".into()),
        });
        vec![c(ids.medicine, 1), c(ids.prescription, 1), c(ids.visit, 1)]
    } else {
        vec![c(ids.prescription, 0)]
    };
    reference_execute(
        schema,
        tree,
        data,
        ids.prescription,
        &projections,
        &predicates,
    )
}

pub fn run(opts: &Opts, h: &mut Harness) -> Result<()> {
    h.tally.tail_cap = 0.9;
    let cfg = MedicalConfig::scaled(PRESCRIPTIONS).with_seed(opts.input_seed);
    let mut loaded: Option<(GhostDb, Dataset)> = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let t0 = Instant::now();
        let data = generate_medical(&cfg)?;
        let db = GhostDb::create(MEDICAL_DDL, DeviceConfig::default_2007(), &data)?;
        h.tally.setup_s.push(t0.elapsed().as_secs_f64());
        loaded = Some((db, data));
    }
    let (db, data) = loaded.expect("at least one set-up");
    db.clear_trace();

    let schema = medical_schema()?;
    let tree = TreeSchema::analyze(&schema)?;
    let ids = Ids {
        medicine: schema.resolve_table("Medicine")?,
        visit: schema.resolve_table("Visit")?,
        prescription: schema.resolve_table("Prescription")?,
    };
    let mirror = Mirror::new(&data, &ids);
    let mut gen = Generator::new(&cfg, opts.input_seed);
    let mut referenced: HashSet<Template> = HashSet::new();

    let before = Counters::read(&db);
    let mut per_template = vec![Vec::new(); ALL.len()];
    // Whole deck passes only: every run holds the deck's exact mix, and
    // each pass is one throughput cycle.
    let mut dealt = 0usize;
    while h.more() || !dealt.is_multiple_of(DECK.len()) {
        let s = gen.next();
        dealt += 1;
        let out = h.select(&db, &s.sql);
        if dealt.is_multiple_of(DECK.len()) {
            h.tally.commit(0);
        }
        let Some(rows) = out else {
            continue;
        };
        if let (Some(&sim), Some(&host)) = (h.tally.select_sim.last(), h.tally.select_host.last()) {
            per_template[s.template.slot()].push((sim, host));
        }
        let expected = mirror.expected(&s);
        h.tally.check(rows == expected, || {
            format!(
                "{}: engine {} rows, oracle {} rows",
                s.sql,
                rows.len(),
                expected.len()
            )
        });
        let spj = !matches!(s.template, Template::AggPurpose | Template::AggType);
        if spj && referenced.insert(s.template) {
            let naive = reference(&schema, &tree, &data, &ids, &s)?;
            h.tally.check(naive == expected, || {
                format!(
                    "{}: reference_execute {} rows, fold {} rows",
                    s.sql,
                    naive.len(),
                    expected.len()
                )
            });
        }
    }
    for (t, samples) in ALL.iter().zip(&per_template) {
        let sims: Vec<f64> = samples.iter().map(|x| x.0).collect();
        let hosts: Vec<f64> = samples.iter().map(|x| x.1).collect();
        if let (Some(s), Some(hs)) = (summarize(&sims, 0.5), summarize(&hosts, 0.5)) {
            println!(
                "  template {:<12} n={:<4} sim p50 {:>10.1} ms  host p50 {:>8.1} ms",
                t.name(),
                s.n,
                s.p50,
                hs.p50
            );
        }
    }
    if h.trace {
        h.layers.absorb(&before, &Counters::read(&db));
        h.layers.at_rest(&db);
    }
    h.tally.live_bytes = live_flash_bytes(&db);
    h.tally.logical_bytes = dataset_bytes(&data, &schema);
    Ok(())
}
