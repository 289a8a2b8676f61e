//! Durable device images: what makes the USB key actually pluggable.
//!
//! The paper's whole premise is a NAND key that *carries* the hidden
//! database, yet every layer below this one is rebuilt from a plaintext
//! `Dataset` on each run. This crate closes the loop: it serializes the
//! complete device state onto the flash part and mounts it back with no
//! dataset in sight.
//!
//! # On-flash layout
//!
//! The part's head is a **reserved region** the log-structured
//! [`Volume`](ghostdb_flash::Volume) never touches (see
//! [`FlashConfig::reserved_blocks`](ghostdb_types::FlashConfig::reserved_blocks)):
//!
//! ```text
//! blocks [0, M)        metadata slot A ┐ written alternately, so a power
//! blocks [M, 2M)       metadata slot B ┘ cut mid-seal leaves one intact
//! blocks [2M, 2M + W)  write-ahead log (one record per insert batch)
//! blocks [2M + W, ..)  the log-structured volume (everything else)
//! ```
//!
//! A **seal** writes one [`DeviceImage`] — superblock header page, then
//! CRC-checked metadata encoded with the existing
//! [`Wire`](ghostdb_types::Wire) codec: the bound schema, catalog
//! statistics, hidden-column segment manifests (dictionary layouts
//! included), climbing-index directories and SKT layouts, the PC's
//! visible snapshot, and the volume's logical→physical translation
//! table — into the slot `epoch % 2`. Mount reads both slots and trusts
//! the CRC-valid image with the highest epoch, so the transition is
//! atomic at every program/erase boundary.
//!
//! # Crash-consistency invariants
//!
//! 1. **A sealed image is immutable until superseded.** Every page the
//!    image references is *held* by the volume: the GC will not migrate
//!    it (its physical address is recorded in the sealed l2p), and a
//!    free against it only enters the volume's one deferred-free
//!    ledger (shared with snapshot pins) until
//!    [`Volume::commit_seal`](ghostdb_flash::Volume::commit_seal) runs —
//!    which the facade only calls after the *next* image is durable.
//! 2. **Post-seal inserts are WAL-only.** Their deltas live in RAM plus
//!    one [`Wal`] record per batch; nothing else on flash moves, so a
//!    cut at any boundary mounts the sealed image and replays a prefix
//!    of whole batches (records are CRC-framed; a torn tail drops the
//!    interrupted batch, never a committed one).
//! 3. **A delta flush re-seals.** The merge writes new segments first
//!    (old ones only *deferred*-freed), seals an image describing them,
//!    then commits the deferred frees and truncates the WAL. A cut
//!    before the new superblock completes mounts the old image + full
//!    WAL; after, the new image.
//!
//! # Page format
//!
//! This crate frames no page itself: image and WAL pages go through the
//! part's page codec ([`Nand::frame`](ghostdb_flash::Nand::frame) /
//! [`Nand::check`](ghostdb_flash::Nand::check), usable size
//! [`Nand::payload_size`](ghostdb_flash::Nand::payload_size)), exactly
//! like the volume's, and every CRC here is
//! [`ghostdb_flash::ecc::crc32`] (CRC-32/IEEE).
//!
//! Like the secure bulk load, seal and mount are maintenance operations
//! performed on the device outside query processing; their working
//! memory is host-side in this simulation and nothing they touch ever
//! crosses the spied PC ↔ device link (`tests/leak_freedom.rs` checks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod image;
mod wal;

pub use image::{read_latest_image, write_image, DeviceImage, LoadedImage, IMAGE_VERSION};
pub use wal::{Wal, WalOpen};

use ghostdb_types::FlashConfig;

/// First WAL block (right after the two metadata slots).
pub fn wal_first_block(cfg: &FlashConfig) -> usize {
    2 * cfg.meta_slot_blocks
}

/// True when the configuration reserves space for durability (both the
/// metadata slots and the WAL region are non-empty).
pub fn durability_enabled(cfg: &FlashConfig) -> bool {
    cfg.reserved_blocks() > 0 && cfg.reserved_blocks() < cfg.num_blocks
}
