//! Perf-trajectory gate checker: reads every `BENCH_PR*.json` in the
//! current directory and fails (exit 1) if any recorded gate regressed.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin check_bench`
//! from the repo root (CI's bench-smoke job). Gate semantics live in
//! [`ghostdb_bench::gates`].

use ghostdb_bench::gates::{check_gates, parse_acceptance};

/// The number of gates that hold in `name`, or every problem found.
fn check_file(name: &str) -> Result<usize, Vec<String>> {
    let body = std::fs::read_to_string(name).map_err(|e| vec![format!("unreadable: {e}")])?;
    let entries = parse_acceptance(&body).map_err(|e| vec![e])?;
    let violations = check_gates(&entries);
    if !violations.is_empty() {
        return Err(violations);
    }
    Ok(entries
        .iter()
        .filter(|(k, _)| k.contains("_gate") || k == "pass")
        .count())
}

fn main() {
    let mut files: Vec<String> = std::fs::read_dir(".")
        .expect("read current directory")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_PR") && n.ends_with(".json"))
        .collect();
    files.sort();

    if files.is_empty() {
        eprintln!("check_bench: no BENCH_PR*.json files found in the current directory");
        std::process::exit(1);
    }

    let mut failed = false;
    for name in &files {
        match check_file(name) {
            Ok(gates) => println!("OK   {name}: {gates} gate(s) hold"),
            Err(problems) => {
                failed = true;
                for p in problems {
                    eprintln!("FAIL {name}: {p}");
                }
            }
        }
    }

    if failed {
        eprintln!("check_bench: perf trajectory regressed");
        std::process::exit(1);
    }
    println!("check_bench: all {} file(s) pass", files.len());
}
