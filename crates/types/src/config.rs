//! Hardware cost model of the smart USB device (paper §3, Figure 2).
//!
//! The constants default to the platform the paper describes:
//!
//! * secure chip: 32-bit RISC, **64 KB** static RAM ("e.g., 64 KB"),
//! * external NAND flash, gigabyte-sized, with **writes 3–10× slower than
//!   reads** and no in-place writes (erase-before-program),
//! * **USB 2.0 full speed**: 12 Mb/s, with 480 Mb/s "envisioned for future
//!   platforms".
//!
//! Every figure-regeneration bench sweeps these knobs (experiment
//! `EXP-S3`), so they live here rather than being buried in the
//! substrates.

/// Geometry and timing of the simulated NAND flash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashConfig {
    /// Bytes per flash page (unit of read/program).
    pub page_size: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
    /// Number of erase blocks in the part.
    pub num_blocks: usize,
    /// Fixed latency to open a page for reading (array-to-register), ns.
    pub read_latency_ns: u64,
    /// Serial transfer cost per byte read out of the page register, ns.
    /// This models the paper's observation that reading a single word is
    /// cheaper than a full page.
    pub read_byte_ns: u64,
    /// Fixed latency to program a page, ns.
    pub program_latency_ns: u64,
    /// Serial transfer cost per byte programmed, ns.
    pub program_byte_ns: u64,
    /// Cost of erasing one block, ns.
    pub erase_block_ns: u64,
    /// Garbage-collection trigger: when a segment writer needs a fresh
    /// erase block and the free list holds at most this many blocks, the
    /// volume runs a GC pass before allocating. `0` disables the
    /// allocation-time trigger (explicit `Volume::gc` calls still work).
    pub gc_low_watermark_blocks: usize,
    /// Erase blocks reserved per **metadata slot** at the head of the
    /// part. The durability layer keeps two slots (written alternately,
    /// so a power cut during one seal leaves the other intact); each
    /// slot must hold one serialized device image (superblock page +
    /// metadata segments + l2p table). `0` disables durability:
    /// `GhostDb::seal` fails cleanly and no blocks are reserved.
    pub meta_slot_blocks: usize,
    /// Erase blocks reserved for the flash-resident write-ahead log
    /// right after the two metadata slots. Each post-seal insert batch
    /// appends one WAL record; the region is erased when a delta flush
    /// seals a fresh image. `0` disables durability together with
    /// `meta_slot_blocks`.
    pub wal_blocks: usize,
    /// Store an out-of-band error-control codeword (CRC-32 detection +
    /// single-bit correction) in the tail of every programmed page. The
    /// usable page payload shrinks by the codeword size; every page
    /// fault verifies (and corrects) before data is served.
    pub ecc_enabled: bool,
    /// Cost of computing/checking the codeword, ns per byte covered
    /// (models a small hardware ECC engine on the secure chip).
    pub ecc_byte_ns: u64,
    /// Grown-bad-block budget: how many blocks may be retired to the
    /// bad-block table before the volume reports the part worn out.
    pub spare_blocks: usize,
    /// Capacity, in raw flash pages, of the device-RAM page cache that
    /// mirrors recently faulted NAND pages. The engine charges the
    /// mirror's bytes (`page_cache_pages × raw page size`) to the
    /// device `RamBudget` when it opens the volume, so the secure
    /// chip's 64 KB invariant still binds — and clamps the capacity so
    /// the mirror never claims more than half of `ram_bytes` and the
    /// query operators keep at least 12 KiB of working space (tiny-RAM
    /// sweep configurations degrade instead of failing).
    /// `0` disables the cache and every page fault pays the full NAND
    /// transfer.
    pub page_cache_pages: usize,
}

impl FlashConfig {
    /// A 2007-era 1 Gbit-class NAND part: 2 KB pages, 64 pages/block.
    /// Full-page program ≈ 8.8× full-page read, inside the paper's 3–10×
    /// envelope.
    pub fn default_2007() -> Self {
        FlashConfig {
            page_size: 2048,
            pages_per_block: 64,
            num_blocks: 8192, // 1 GiB part
            read_latency_ns: 25_000,
            read_byte_ns: 30,
            program_latency_ns: 600_000,
            program_byte_ns: 30,
            erase_block_ns: 2_000_000,
            gc_low_watermark_blocks: 16,
            meta_slot_blocks: 8,
            wal_blocks: 8,
            ecc_enabled: true,
            ecc_byte_ns: 2,
            spare_blocks: 64,
            // 16 raw pages ≈ 32 KiB of mirror: half the 64 KB device
            // RAM. A paper-scale point probe touches ~11 pages (index
            // climb + clustered matches), so a smaller mirror thrashes
            // on its own footprint; the query operators' sort/bloom/
            // batch buffers adapt to the remaining half.
            page_cache_pages: 16,
        }
    }

    /// Cost of computing or checking one page codeword covering `bytes`
    /// of payload, ns. Zero when ECC is disabled.
    pub fn ecc_cost_ns(&self, bytes: usize) -> u64 {
        if !self.ecc_enabled {
            return 0;
        }
        self.ecc_byte_ns * bytes as u64
    }

    /// Erase blocks the durability layer claims at the head of the part
    /// (two metadata slots plus the WAL region); the volume's
    /// log-structured store owns everything above. Zero when either
    /// knob disables durability.
    pub fn reserved_blocks(&self) -> usize {
        if self.meta_slot_blocks == 0 || self.wal_blocks == 0 {
            return 0;
        }
        2 * self.meta_slot_blocks + self.wal_blocks
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.page_size * self.pages_per_block * self.num_blocks
    }

    /// Cost of reading `bytes` from one page, ns.
    pub fn read_cost_ns(&self, bytes: usize) -> u64 {
        self.read_latency_ns + self.read_byte_ns * bytes as u64
    }

    /// Cost of programming `bytes` into one page, ns.
    pub fn program_cost_ns(&self, bytes: usize) -> u64 {
        self.program_latency_ns + self.program_byte_ns * bytes as u64
    }

    /// The full-page write/read cost ratio this configuration realizes.
    pub fn write_read_ratio(&self) -> f64 {
        self.program_cost_ns(self.page_size) as f64 / self.read_cost_ns(self.page_size) as f64
    }

    /// Derive a configuration with the given full-page write/read ratio
    /// (the paper quotes 3–10×), holding read costs fixed. Used by the
    /// `EXP-S3` hardware sweep.
    pub fn with_write_read_ratio(mut self, ratio: f64) -> Self {
        let read_full = self.read_cost_ns(self.page_size) as f64;
        let target_program = read_full * ratio;
        let byte_part = self.program_byte_ns * self.page_size as u64;
        self.program_latency_ns = (target_program as u64).saturating_sub(byte_part).max(1);
        self
    }
}

impl Default for FlashConfig {
    fn default() -> Self {
        Self::default_2007()
    }
}

/// Timing of the PC ↔ device link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusConfig {
    /// Raw link throughput in bits per second.
    pub bits_per_sec: u64,
    /// Maximum payload carried by one frame, bytes.
    pub frame_payload: usize,
    /// Fixed per-frame overhead (scheduling, handshake), ns.
    pub frame_overhead_ns: u64,
}

impl BusConfig {
    /// USB 2.0 full speed: 12 Mb/s, ~1 ms frame period amortized over
    /// bulk transfers.
    pub fn usb_full_speed() -> Self {
        BusConfig {
            bits_per_sec: 12_000_000,
            frame_payload: 4096,
            frame_overhead_ns: 50_000,
        }
    }

    /// USB 2.0 high speed: 480 Mb/s ("envisioned for future platforms").
    pub fn usb_high_speed() -> Self {
        BusConfig {
            bits_per_sec: 480_000_000,
            frame_payload: 16 * 1024,
            frame_overhead_ns: 10_000,
        }
    }

    /// Time to move `bytes` across the link, ns.
    pub fn transfer_cost_ns(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let frames = bytes.div_ceil(self.frame_payload) as u64;
        let wire_ns = (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bits_per_sec;
        frames * self.frame_overhead_ns + wire_ns
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        Self::usb_full_speed()
    }
}

/// CPU cost constants of the secure chip (32-bit RISC, ~50 MHz class).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuConfig {
    /// Cost of one per-tuple operation (comparison, move, id merge step), ns.
    pub tuple_op_ns: u64,
    /// Cost of one hash evaluation (Bloom filter probe/insert uses two), ns.
    pub hash_ns: u64,
}

impl CpuConfig {
    /// Defaults matching a ~50 MHz smartcard-class RISC core.
    pub fn default_2007() -> Self {
        CpuConfig {
            tuple_op_ns: 200,
            hash_ns: 400,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::default_2007()
    }
}

/// Full device configuration: the tuple every experiment parameterizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Secure-chip RAM available to query operators, bytes.
    pub ram_bytes: usize,
    /// NAND flash geometry and timing.
    pub flash: FlashConfig,
    /// PC ↔ device link timing.
    pub bus: BusConfig,
    /// Secure-chip CPU cost constants.
    pub cpu: CpuConfig,
    /// Post-load write path: once the RAM-resident delta (rows inserted
    /// since the last flush, summed over all tables) reaches this many
    /// rows, the engine merges the deltas into rebuilt flash segments
    /// (the LSM-style flush). `0` disables the automatic trigger;
    /// explicit `flush_deltas` calls still work.
    pub delta_flush_rows: usize,
}

impl DeviceConfig {
    /// The paper's platform: 64 KB RAM, 2007 NAND, USB full speed.
    pub fn default_2007() -> Self {
        DeviceConfig {
            ram_bytes: 64 * 1024,
            flash: FlashConfig::default_2007(),
            bus: BusConfig::usb_full_speed(),
            cpu: CpuConfig::default_2007(),
            delta_flush_rows: 4096,
        }
    }

    /// Override the delta flush threshold (builder style).
    pub fn with_delta_flush_rows(mut self, rows: usize) -> Self {
        self.delta_flush_rows = rows;
        self
    }

    /// Override the RAM budget (builder style).
    pub fn with_ram(mut self, bytes: usize) -> Self {
        self.ram_bytes = bytes;
        self
    }

    /// Override the bus configuration (builder style).
    pub fn with_bus(mut self, bus: BusConfig) -> Self {
        self.bus = bus;
        self
    }

    /// Override the flash configuration (builder style).
    pub fn with_flash(mut self, flash: FlashConfig) -> Self {
        self.flash = flash;
        self
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::default_2007()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_ratio_in_paper_envelope() {
        let f = FlashConfig::default_2007();
        let r = f.write_read_ratio();
        assert!((3.0..=10.0).contains(&r), "ratio {r} outside 3-10x");
    }

    #[test]
    fn flash_ratio_override() {
        for target in [3.0, 5.0, 10.0] {
            let f = FlashConfig::default_2007().with_write_read_ratio(target);
            let got = f.write_read_ratio();
            assert!(
                (got - target).abs() / target < 0.05,
                "target {target}, got {got}"
            );
        }
    }

    #[test]
    fn partial_page_read_is_cheaper() {
        let f = FlashConfig::default_2007();
        assert!(f.read_cost_ns(4) < f.read_cost_ns(f.page_size));
    }

    #[test]
    fn bus_full_speed_throughput() {
        let b = BusConfig::usb_full_speed();
        // 1.5 MB at 12 Mb/s is 1 s of wire time, plus frame overheads.
        let ns = b.transfer_cost_ns(1_500_000);
        assert!(ns >= 1_000_000_000);
        assert!(ns < 1_100_000_000);
        assert_eq!(b.transfer_cost_ns(0), 0);
    }

    #[test]
    fn high_speed_is_faster() {
        let full = BusConfig::usb_full_speed();
        let high = BusConfig::usb_high_speed();
        assert!(high.transfer_cost_ns(1 << 20) < full.transfer_cost_ns(1 << 20) / 10);
    }

    #[test]
    fn capacity_is_gigabyte_class() {
        let f = FlashConfig::default_2007();
        assert_eq!(f.capacity(), 1 << 30);
    }

    #[test]
    fn device_builders() {
        let d = DeviceConfig::default_2007()
            .with_ram(128 * 1024)
            .with_bus(BusConfig::usb_high_speed());
        assert_eq!(d.ram_bytes, 128 * 1024);
        assert_eq!(d.bus.bits_per_sec, 480_000_000);
    }
}
