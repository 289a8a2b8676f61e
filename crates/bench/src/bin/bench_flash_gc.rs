//! Perf-trajectory runner for the flash garbage collector: measures
//! reclaim throughput, write amplification, and wear spread under the
//! fragmentation workload the GC exists to fix, and writes
//! `BENCH_PR2.json` to the current directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_flash_gc`
//!
//! Two phases on a 32 MiB part (2 KiB pages, 64 pages/block, 256
//! blocks):
//!
//! 1. **Reclaim**: fragment the whole part (1 persistent page : 7 temp
//!    pages interleaved per block, temps freed), then time explicit
//!    [`Volume::gc`] passes until nothing is left to reclaim. Reports
//!    reclaimed MB per host second.
//! 2. **Churn**: steady-state rounds of the same interleaving with the
//!    allocation-time watermark trigger doing all the work. Reports
//!    write amplification (total programs / user programs) and the
//!    final wear spread.

use std::time::Instant;

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_flash::{Nand, Segment, Volume};
use ghostdb_ram::{RamBudget, RamScope};
use ghostdb_types::{FlashConfig, Result, SimClock};

const PAGE: usize = 2048;
const PPB: usize = 64;

fn volume(num_blocks: usize, watermark: usize) -> Volume {
    let cfg = FlashConfig {
        page_size: PAGE,
        pages_per_block: PPB,
        num_blocks,
        gc_low_watermark_blocks: watermark,
        ..FlashConfig::default_2007()
    };
    Volume::new(Nand::new(cfg, SimClock::new()))
}

/// Write `blocks` erase blocks' worth of pages; every 8 pages hold one
/// page for each of `keep` persistent segments and `8 - keep` temp
/// pages. Frees the temp segment and returns the persistent ones.
fn fragment(
    vol: &Volume,
    scope: &RamScope,
    blocks: usize,
    tag: u8,
    keep: usize,
) -> Result<Vec<Segment>> {
    let page = vec![tag; PAGE];
    let temp_pages = vec![0xEE; PAGE * (8 - keep)];
    let mut keepers = (0..keep)
        .map(|_| vol.writer(scope))
        .collect::<Result<Vec<_>>>()?;
    let mut temp = vol.writer(scope)?;
    for _ in 0..blocks * PPB / 8 {
        for w in &mut keepers {
            w.write(&page)?;
        }
        temp.write(&temp_pages)?;
    }
    // Finish the persistent writers last-opened first.
    let mut segments = keepers
        .into_iter()
        .rev()
        .map(|w| w.finish())
        .collect::<Result<Vec<_>>>()?;
    segments.reverse();
    vol.free(temp.finish()?)?;
    Ok(segments)
}

/// Phase 1: reclaim throughput of explicit GC passes over a maximally
/// fragmented part.
fn reclaim_phase(report: &mut Report) -> Result<()> {
    let vol = volume(256, 0); // explicit GC only
    let scope = RamScope::new(&RamBudget::new(64 * 1024));
    // Fragment 240 of 256 blocks; the rest stage migrations.
    let keepers: Vec<_> = (0..24)
        .map(|i| fragment(&vol, &scope, 10, i as u8, 1))
        .collect::<Result<_>>()?;

    let t0 = Instant::now();
    let mut reclaimed = 0u64;
    let mut migrated = 0u64;
    loop {
        let report = vol.gc(&scope)?;
        if report.blocks_reclaimed == 0 {
            break;
        }
        reclaimed += report.pages_reclaimed;
        migrated += report.pages_migrated;
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    for k in keepers.into_iter().flatten() {
        vol.free(k)?;
    }
    let mb_per_s = (reclaimed * PAGE as u64) as f64 / (1024.0 * 1024.0) / secs;
    report.result(
        "gc_reclaim",
        &[
            ("mb_per_s", fixed(mb_per_s, 1)),
            ("pages_reclaimed", reclaimed.into()),
            ("pages_migrated", migrated.into()),
        ],
    );
    report.gate_min("gc_reclaim_mb_per_s", fixed(mb_per_s, 1), 10.0);
    Ok(())
}

/// Phase 2: steady-state churn with the watermark trigger. A 64-block
/// slice of the part keeps space pressure real: medium-lived segments
/// retire after 4 rounds, long-lived ones after 24, temps immediately —
/// so every block mixes lifetimes and only the GC can reclaim it.
fn churn_phase(report: &mut Report, rounds: usize) -> Result<()> {
    let vol = volume(64, 16); // 8 MiB: full enough that the watermark bites
    let scope = RamScope::new(&RamBudget::new(64 * 1024));
    let mut medium = std::collections::VecDeque::new();
    let mut long = std::collections::VecDeque::new();
    for round in 0..rounds {
        // One long-lived page, one medium-lived page, six temp pages.
        let mut segments = fragment(&vol, &scope, 4, (round % 251) as u8, 2)?;
        medium.push_back(segments.pop().expect("medium"));
        long.push_back(segments.pop().expect("long"));
        if medium.len() > 4 {
            vol.free(medium.pop_front().expect("non-empty"))?;
        }
        if long.len() > 24 {
            vol.free(long.pop_front().expect("non-empty"))?;
        }
    }
    let stats = vol.nand().stats();
    let gc = vol.gc_stats();
    let user_programs = stats.page_programs - gc.pages_migrated;
    let write_amp = stats.page_programs as f64 / user_programs as f64;
    let (min_wear, max_wear) = vol.nand().wear_spread();
    report.result(
        "steady_churn",
        &[
            ("rounds", rounds.into()),
            ("write_amp", fixed(write_amp, 3)),
            ("wear_spread", (max_wear - min_wear).into()),
            ("gc_blocks_reclaimed", gc.blocks_reclaimed.into()),
        ],
    );
    report
        .gate_max("write_amp", fixed(write_amp, 3), 2.0)
        .gate_max("wear_spread", max_wear - min_wear, 8.0);
    Ok(())
}

fn main() {
    let mut report = Report::new(
        2,
        "Flash garbage collection, wear-aware allocation, and a CI pipeline that gates on \
         the perf trajectory",
    );
    report
        .field(
            "geometry",
            "2 KiB pages, 64 pages/block; 256-block part for reclaim, 64-block part for \
             steady churn",
        )
        .field(
            "payload",
            "persistent pages interleaved with temp spills in every block; churn mixes \
             4-round, 24-round, and immediate lifetimes so only the GC can reclaim",
        );
    reclaim_phase(&mut report).expect("reclaim phase");
    churn_phase(&mut report, 200).expect("churn phase");
    report.finish("BENCH_PR2.json");
}
