//! NAND flash simulator for the smart USB device's external store.
//!
//! Paper §3: the device couples a secure chip to "a large external Flash
//! memory (Gigabyte sized)" whose costs are asymmetric — "writes are
//! between 3 to 10 times slower than reads depending on the portion of the
//! page to be read (full page vs. single word) and writes in place are
//! precluded."
//!
//! The simulator enforces real NAND semantics:
//!
//! * reads and programs operate on **pages** (partial reads are cheaper,
//!   matching the quote above),
//! * a page must be **erased before it is programmed**, and erase happens
//!   at **block** granularity,
//! * every operation advances the shared [`SimClock`](ghostdb_types::SimClock) by its cost from
//!   [`ghostdb_types::FlashConfig`] and is tallied in [`FlashStats`].
//!
//! On top of raw NAND, [`Volume`] provides the log-structured segment
//! store the upper layers use: append-only [`SegmentWriter`]s, streaming
//! [`SegmentReader`]s, random [`Volume::read_at`] access, and block
//! reclamation when segments are freed — this is where the "no in-place
//! writes" constraint becomes visible to the query engine (sort runs are
//! written once and never updated).
//!
//! Segments address their pages through a volume-owned **translation
//! table** (logical page numbers, not physical addresses), which lets the
//! [`Volume::gc`] garbage collector compact fragmented blocks — migrating
//! live pages out from under open readers and long-lived datasets — with
//! wear-aware victim and destination selection. See the `volume` module
//! docs for the full design.
//!
//! # Error model (who assumes what)
//!
//! Real USB-key flash dies slowly, and each layer of this crate assumes a
//! precisely bounded slice of that decay:
//!
//! * **[`Nand`]** is the fault *injector*, never a corrector. Armed via
//!   [`Nand::arm_bit_rot`] (per-read retention flips plus read-disturb),
//!   [`Nand::arm_program_failures`] / [`Nand::arm_erase_failures`] (blocks
//!   grow bad mid-operation), and the PR 4 power cut, it delivers raw bits
//!   exactly as stored — rotted or not — and reports program/erase
//!   failures as errors after marking the block grown-bad. The built-in
//!   rot injector self-bounds at **one flip per page per program cycle**;
//!   [`Nand::corrupt_page`] is the unbounded escape hatch for past-budget
//!   tests.
//! * **[`Volume`]** assumes at most one flipped bit per page between
//!   programs (the [`ecc`] codeword's correction budget), that a grown-bad
//!   block's already-programmed pages stay *readable* (the defect is in
//!   program/erase), and that failures are per-block, bounded by
//!   [`spare_blocks`](ghostdb_types::FlashConfig::spare_blocks). Within
//!   those assumptions every read is served corrected, bad blocks are
//!   retired and their live pages evacuated, and pages nearing the rot
//!   budget are scrubbed to fresh cells. Past them, reads fail with a
//!   clean `corrupt` error ("uncorrectable bit errors") and retirement
//!   fails with "flash part worn out" — never silent corruption.
//! * **`ghostdb-persist` and above** assume the volume's usable page
//!   ([`Volume::page_size`]) is reliable-or-error: layers above the volume
//!   never see a flipped bit. The durability layer seals the same
//!   codeword onto its own (reserved-region) meta and WAL pages, so a
//!   rotted superblock falls back to the older epoch slot and a rotted
//!   WAL page ends replay at the last good record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ecc;
mod nand;
mod volume;

pub use nand::{
    BlockId, FlashStats, Nand, PageAddr, PageState, ERASE_FAIL_MSG, POWER_CUT_MSG, PROGRAM_FAIL_MSG,
};
pub use volume::{
    GcStats, PageCacheStats, ReliabilityStats, ScrubReport, Segment, SegmentManifest,
    SegmentReader, SegmentWriter, Volume, VolumeMetrics, VolumeUsage, GC_MAX_VICTIMS_PER_PASS,
    SCRUB_THRESHOLD,
};
