//! The perf-trajectory record: the one module that knows the
//! `BENCH_PR*.json` format.
//!
//! Every perf PR records its headline numbers in a `BENCH_PR<n>.json`
//! at the repo root: `pr`, `title`, one or two description strings,
//! flat `results` records, and a flat `"acceptance"` object naming the
//! measured values and their gates. Runners write it through
//! [`Report`]; the `check_bench` binary (CI's bench-smoke job) reads it
//! back through [`parse_acceptance`] and [`check_gates`]. A runner's
//! verdict is [`check_gates`] over the object it just built, so the
//! runner and CI apply one rule.
//!
//! Gate naming convention inside `"acceptance"`:
//!
//! * `<name>_gate_min`: the sibling key `<name>` must be **≥** the gate
//!   (throughputs, speedups).
//! * `<name>_gate_max`: the sibling key `<name>` must be **≤** the gate
//!   (write amplification, wear spread).
//! * `pass`: must be present and `true` (the runner's own verdict).
//!
//! Any other key ending in `_gate` is a violation, so a gate can never
//! be dropped silently by misspelling its form.
//!
//! The parser handles exactly the flat number/bool acceptance objects
//! [`Report`] emits — no external JSON crate (the build is offline).

/// A value in an acceptance object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateValue {
    /// A JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
}

/// Extract the flat `"acceptance": { ... }` object from a bench JSON
/// file as `(key, value)` pairs. Errors on a missing or malformed
/// object.
pub fn parse_acceptance(json: &str) -> Result<Vec<(String, GateValue)>, String> {
    let start = json
        .find("\"acceptance\"")
        .ok_or_else(|| "no \"acceptance\" object".to_string())?;
    let open = json[start..]
        .find('{')
        .map(|i| start + i)
        .ok_or_else(|| "no '{' after \"acceptance\"".to_string())?;
    let close = json[open..]
        .find('}')
        .map(|i| open + i)
        .ok_or_else(|| "unterminated acceptance object".to_string())?;
    let body = &json[open + 1..close];

    let mut entries = Vec::new();
    for field in body.split(',') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| format!("malformed acceptance field {field:?}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        let parsed = match value {
            "true" => GateValue::Bool(true),
            "false" => GateValue::Bool(false),
            num => GateValue::Num(
                num.parse::<f64>()
                    .map_err(|_| format!("non-numeric acceptance value {num:?} for {key}"))?,
            ),
        };
        entries.push((key, parsed));
    }
    Ok(entries)
}

fn num_of(entries: &[(String, GateValue)], key: &str) -> Option<f64> {
    entries.iter().find_map(|(k, v)| match v {
        GateValue::Num(n) if k == key => Some(*n),
        _ => None,
    })
}

/// Apply the gate rules to one parsed acceptance object; returns the
/// list of violations (empty = all gates hold).
pub fn check_gates(entries: &[(String, GateValue)]) -> Vec<String> {
    let mut violations = Vec::new();

    match entries.iter().find(|(k, _)| k == "pass") {
        Some((_, GateValue::Bool(true))) => {}
        Some((_, v)) => violations.push(format!("\"pass\" is {v:?}, expected true")),
        None => violations.push("acceptance object has no \"pass\" verdict".to_string()),
    }

    for (key, value) in entries {
        if key.ends_with("_gate") {
            violations.push(format!(
                "{key}: unknown gate form, use _gate_min or _gate_max"
            ));
            continue;
        }
        let GateValue::Num(gate) = *value else {
            continue;
        };
        let (name, holds, word): (_, fn(f64, f64) -> bool, _) =
            if let Some(name) = key.strip_suffix("_gate_min") {
                (name, |m, g| m >= g, "below")
            } else if let Some(name) = key.strip_suffix("_gate_max") {
                (name, |m, g| m <= g, "above")
            } else {
                continue;
            };
        match num_of(entries, name) {
            Some(measured) if holds(measured, gate) => {}
            Some(measured) => {
                violations.push(format!("{name} = {measured} regressed {word} gate {gate}"))
            }
            None => violations.push(format!("gate {key} has no measured sibling {name}")),
        }
    }
    violations
}

/// A JSON scalar, rendered exactly as [`Report`] writes it.
#[derive(Debug, Clone)]
pub struct Val(String);

/// A number written with `decimals` digits after the point.
pub fn fixed(value: f64, decimals: usize) -> Val {
    Val(format!("{value:.decimals$}"))
}

impl From<&str> for Val {
    fn from(s: &str) -> Val {
        Val(format!(
            "\"{}\"",
            s.replace('\\', "\\\\").replace('"', "\\\"")
        ))
    }
}

impl From<String> for Val {
    fn from(s: String) -> Val {
        Val::from(s.as_str())
    }
}

macro_rules! int_val {
    ($($t:ty),*) => {$(
        impl From<$t> for Val {
            fn from(n: $t) -> Val {
                Val(n.to_string())
            }
        }
    )*};
}
int_val!(u32, u64, usize, i64);

/// One `"key": value` entry.
fn entry(key: &str, value: Val) -> String {
    format!("\"{key}\": {}", value.0)
}

/// One `BENCH_PR*.json` under construction: top-level fields, flat
/// result records, and gates declared next to the measurement they
/// bound. [`Report::finish`] writes it and enforces its gates. Every
/// entry is kept rendered, exactly as it will be written.
#[derive(Debug)]
pub struct Report {
    fields: Vec<String>,
    results: Vec<String>,
    gates: Vec<String>,
}

impl Report {
    /// A report for perf PR `pr`.
    pub fn new(pr: u32, title: &str) -> Report {
        Report {
            fields: vec![entry("pr", pr.into()), entry("title", title.into())],
            results: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// A top-level description field (`workload`, `geometry`, …).
    pub fn field(&mut self, key: &str, value: impl Into<Val>) -> &mut Report {
        self.fields.push(entry(key, value.into()));
        self
    }

    /// One flat `results` record named `name`.
    pub fn result(&mut self, name: &str, fields: &[(&str, Val)]) -> &mut Report {
        let rest = fields.iter().map(|(k, v)| entry(k, v.clone()));
        let record: Vec<String> = std::iter::once(entry("name", name.into()))
            .chain(rest)
            .collect();
        self.results.push(format!("{{{}}}", record.join(", ")));
        self
    }

    /// Gate: the measured `name` must be **≥** `bound`.
    pub fn gate_min(&mut self, name: &str, value: impl Into<Val>, bound: f64) -> &mut Report {
        self.gate(name, value.into(), "min", bound)
    }

    /// Gate: the measured `name` must be **≤** `bound`.
    pub fn gate_max(&mut self, name: &str, value: impl Into<Val>, bound: f64) -> &mut Report {
        self.gate(name, value.into(), "max", bound)
    }

    fn gate(&mut self, name: &str, value: Val, side: &str, bound: f64) -> &mut Report {
        self.gates.push(entry(name, value));
        // `{:?}` is the shortest round-trip form, with a decimal point.
        let bound = Val(format!("{bound:?}"));
        self.gates
            .push(entry(&format!("{name}_gate_{side}"), bound));
        self
    }

    /// The file body with the given `"pass"` verdict.
    fn render(&self, pass: bool) -> String {
        let mut gates = self.gates.clone();
        gates.push(format!("\"pass\": {pass}"));
        format!(
            "{{\n  {},\n  \"results\": [\n    {}\n  ],\n  \"acceptance\": {{\n    {}\n  }}\n}}\n",
            self.fields.join(",\n  "),
            self.results.join(",\n    "),
            gates.join(",\n    ")
        )
    }

    /// [`check_gates`] over the acceptance object as written (with a
    /// `true` verdict, so only the gates themselves can fail).
    fn violations(&self) -> Vec<String> {
        let entries = parse_acceptance(&self.render(true))
            .unwrap_or_else(|e| panic!("report renders a malformed acceptance object: {e}"));
        check_gates(&entries)
    }

    /// Write the report to `path` (the current directory's
    /// `BENCH_PR<n>.json`), then [`check`](Self::check) it.
    pub fn finish(&self, path: &str) {
        let body = self.render(self.violations().is_empty());
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
        self.check();
    }

    /// Print the report and panic listing the violations if any gate
    /// failed, without writing a file (smoke runs that must not
    /// overwrite the committed record).
    pub fn check(&self) {
        let violations = self.violations();
        println!("{}", self.render(violations.is_empty()));
        assert!(
            violations.is_empty(),
            "acceptance gates failed:\n  {}",
            violations.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PR1_STYLE: &str = r#"{
  "pr": 1,
  "results": [],
  "acceptance": {
    "merge_speedup_100k": 34.42,
    "merge_speedup_100k_gate_min": 3.0,
    "bloom_speedup_100k": 2.11,
    "bloom_speedup_100k_gate_min": 2.0,
    "pass": true
  }
}"#;

    #[test]
    fn pr1_file_parses_and_passes() {
        let entries = parse_acceptance(PR1_STYLE).unwrap();
        assert_eq!(entries.len(), 5);
        assert_eq!(num_of(&entries, "merge_speedup_100k"), Some(34.42));
        assert!(check_gates(&entries).is_empty());
    }

    #[test]
    fn legacy_gate_form_is_a_violation() {
        let json = PR1_STYLE.replace("merge_speedup_100k_gate_min", "merge_gate");
        let v = check_gates(&parse_acceptance(&json).unwrap());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("merge_gate"), "{v:?}");
    }

    #[test]
    fn min_and_max_gates() {
        let json = r#"{"acceptance": {
            "gc_reclaim_mb_per_s": 120.5,
            "gc_reclaim_mb_per_s_gate_min": 10.0,
            "write_amp": 1.4,
            "write_amp_gate_max": 2.0,
            "pass": true
        }}"#;
        let entries = parse_acceptance(json).unwrap();
        assert!(check_gates(&entries).is_empty());

        let worse = json.replace("1.4", "2.5");
        let v = check_gates(&parse_acceptance(&worse).unwrap());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("write_amp"), "{v:?}");

        let slower = json.replace("120.5", "3.0");
        let v = check_gates(&parse_acceptance(&slower).unwrap());
        assert!(v[0].contains("gc_reclaim_mb_per_s"), "{v:?}");
    }

    #[test]
    fn pass_false_or_missing_fails() {
        let json = PR1_STYLE.replace("\"pass\": true", "\"pass\": false");
        assert!(!check_gates(&parse_acceptance(&json).unwrap()).is_empty());
        let json = r#"{"acceptance": {"x": 1.0}}"#;
        assert!(!check_gates(&parse_acceptance(json).unwrap()).is_empty());
    }

    #[test]
    fn pr8_style_concurrency_gates() {
        // The shape bench_concurrency emits: a min-gated scaling
        // factor, a min-gated overlap count, and a max-gated p99.
        let json = r#"{"acceptance": {
            "read_scaling_4t": 3.91,
            "read_scaling_4t_gate_min": 2.0,
            "flush_overlap_reads": 2036,
            "flush_overlap_reads_gate_min": 1.0,
            "flush_p99_ms": 0.06,
            "flush_p99_ms_gate_max": 500.0,
            "pass": true
        }}"#;
        let entries = parse_acceptance(json).unwrap();
        assert!(check_gates(&entries).is_empty());

        let flat = json.replace("3.91", "1.3");
        let v = check_gates(&parse_acceptance(&flat).unwrap());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("read_scaling_4t"), "{v:?}");

        let stalled = json.replace("0.06", "1200.0");
        let v = check_gates(&parse_acceptance(&stalled).unwrap());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("flush_p99_ms"), "{v:?}");
    }

    #[test]
    fn missing_acceptance_is_an_error() {
        assert!(parse_acceptance("{\"pr\": 9}").is_err());
        assert!(parse_acceptance("{\"acceptance\": 3}").is_err());
    }

    #[test]
    fn dangling_gate_is_a_violation() {
        let json = r#"{"acceptance": {"lonely_gate_min": 5.0, "pass": true}}"#;
        let v = check_gates(&parse_acceptance(json).unwrap());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("lonely"), "{v:?}");
    }

    fn sample(write_amp: f64) -> Report {
        let mut r = Report::new(2, "Flash \"GC\"");
        r.field("geometry", "2 KiB pages")
            .result(
                "steady_churn",
                &[
                    ("rounds", 200u64.into()),
                    ("write_amp", fixed(write_amp, 3)),
                ],
            )
            .gate_min("wear_spread", 3u32, 0.0)
            .gate_max("write_amp", fixed(write_amp, 3), 2.0);
        r
    }

    #[test]
    fn report_round_trips_through_parse_acceptance() {
        let body = sample(1.14).render(true);
        assert!(body.starts_with("{\n  \"pr\": 2,\n  \"title\": \"Flash \\\"GC\\\"\",\n"));
        assert!(body
            .contains("    {\"name\": \"steady_churn\", \"rounds\": 200, \"write_amp\": 1.140}\n"));
        let entries = parse_acceptance(&body).unwrap();
        assert_eq!(
            entries,
            vec![
                ("wear_spread".to_string(), GateValue::Num(3.0)),
                ("wear_spread_gate_min".to_string(), GateValue::Num(0.0)),
                ("write_amp".to_string(), GateValue::Num(1.14)),
                ("write_amp_gate_max".to_string(), GateValue::Num(2.0)),
                ("pass".to_string(), GateValue::Bool(true)),
            ]
        );
        assert!(check_gates(&entries).is_empty());
        sample(1.14).check();
    }

    #[test]
    fn verdict_is_check_gates_on_the_written_object() {
        let report = sample(2.5);
        let v = report.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("write_amp"), "{v:?}");
        // The written verdict is false, so CI rejects the file too.
        let entries = parse_acceptance(&report.render(v.is_empty())).unwrap();
        assert_eq!(check_gates(&entries).len(), 2);
    }

    #[test]
    #[should_panic(expected = "write_amp = 2.5 regressed above gate 2")]
    fn report_with_one_failing_gate_panics() {
        sample(2.5).check();
    }
}
