//! Perf-trajectory runner for the durability subsystem: mount latency
//! vs. a fresh bulk load, WAL replay throughput, and the flash overhead
//! of the sealed image, written to `BENCH_PR4.json` in the current
//! directory.
//!
//! Usage: `cargo run --release -p ghostdb-bench --bin bench_mount`
//!
//! Workload: the shared [`ghostdb_bench::purchases`] tree (Customer ←
//! Purchase), 20 000 base purchases. The base is sealed once; mounts
//! are then timed against repeated fresh `GhostDb::create` loads of the
//! same dataset. A second phase appends 2 000 post-seal rows (WAL-only)
//! and times the mount that must replay them.

use std::time::Instant;

use ghostdb_bench::gates::{fixed, Report};
use ghostdb_bench::latency::best_of;
use ghostdb_bench::purchases::{self, PROBE};
use ghostdb_core::GhostDb;
use ghostdb_types::DeviceConfig;

const BASE_ROWS: i64 = 20_000;
const WAL_ROWS: i64 = 2_000;

fn config() -> DeviceConfig {
    let mut config = DeviceConfig::default_2007().with_delta_flush_rows(0);
    // A 256 MiB part keeps the mount-time free-block scan proportionate
    // to the dataset (a 1 GiB part would mostly scan blank blocks).
    config.flash.num_blocks = 2048;
    config
}

fn main() {
    let mut report = Report::new(
        4,
        "Durable device images: seal/mount from flash, an insert WAL, and crash-injection \
         recovery",
    );
    report.field(
        "workload",
        format!(
            "Customer({}) <- Purchase({BASE_ROWS} sealed + {WAL_ROWS} WAL-only), 256 MiB \
             part, batches of {}",
            purchases::CUSTOMERS,
            purchases::BATCH
        ),
    );
    let data = purchases::dataset(BASE_ROWS).expect("dataset");

    // Phase 1: fresh-load cost (min of 3, host wall time).
    let (fresh_secs, mut db) = best_of(3, || {
        GhostDb::create(purchases::DDL, config(), &data).expect("create")
    });
    let expect = db.query(PROBE).expect("probe").rows.rows;
    report.result("fresh_load", &[("host_secs", fixed(fresh_secs, 4))]);

    // Phase 2: seal, then time image-only mounts of the same part.
    let seal = db.seal().expect("seal");
    let payload_bytes = db.volume().usage().live_pages * db.config().flash.page_size as u64;
    let image_overhead = seal.image_bytes as f64 / payload_bytes as f64;
    let nand = db.nand().clone();
    drop(db);
    let (mount_secs, mut db) =
        best_of(3, || GhostDb::mount(nand.clone(), config()).expect("mount"));
    assert_eq!(
        db.query(PROBE).expect("mounted probe").rows.rows,
        expect,
        "mounted image must answer like the fresh load"
    );
    let mount_speedup = fresh_secs / mount_secs.max(1e-9);
    report.result(
        "mount",
        &[
            ("host_secs", fixed(mount_secs, 4)),
            ("image_bytes", seal.image_bytes.into()),
            ("payload_bytes", payload_bytes.into()),
        ],
    );

    // Phase 3: WAL replay throughput — append post-seal batches, then
    // time the mount that replays them.
    purchases::append(&mut db, BASE_ROWS, WAL_ROWS).expect("insert");
    let nand = db.nand().clone();
    drop(db);
    let t0 = Instant::now();
    let replayed = GhostDb::mount(nand, config()).expect("replay mount");
    let replay_secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(replayed.delta_rows(), WAL_ROWS as u64);
    let wal_replay_rows_per_s = WAL_ROWS as f64 / replay_secs;
    report.result(
        "wal_replay",
        &[
            ("rows", WAL_ROWS.into()),
            ("host_secs", fixed(replay_secs, 4)),
        ],
    );

    // Gates: a mount must never be slower than rebuilding from the
    // plaintext dataset (it skips validation, encoding, and index
    // construction); replay keeps a wide margin over any host; the
    // image must stay a fraction of the payload it describes.
    report
        .gate_min("mount_speedup", fixed(mount_speedup, 2), 1.0)
        .gate_min(
            "wal_replay_rows_per_s",
            fixed(wal_replay_rows_per_s, 0),
            1_000.0,
        )
        .gate_max("image_overhead", fixed(image_overhead, 3), 1.0)
        .finish("BENCH_PR4.json");
}
