//! Flash-temp tables of fetched visible columns.
//!
//! Before streaming candidate rows, the executor fetches each visible
//! column it needs **once** from the PC — requesting specific row ids
//! would reveal which rows qualified, so the whole (predicate-filtered)
//! column crosses the bus and lands in a fixed-width flash segment of
//! records sorted by row id.
//!
//! The same structure doubles as the **exact verifier** behind Bloom
//! post-filters: a Bloom positive is confirmed by looking its id up in
//! the temp (a miss drops the row), so Bloom false positives never reach
//! results.
//!
//! Both lookups go through one [`TempCursor`]: a forward **sorted
//! probe**. The executor hands it a batch's ids in ascending order; the
//! cursor keeps the record position reached so far and finds each next
//! id's page by interpolation between what it already knows — the first
//! and last stored ids, the pages it has read, and the fact that ids are
//! distinct integers, which bounds how far away an id can sit. A step
//! that fails to halve the search range is followed by a bisection, so
//! a skewed distribution still costs `O(log n)` page reads per lookup at
//! worst; on the near-uniform ids of a fetched column the first guess
//! usually lands on the right page. An id on the buffered page costs no
//! read at all, so a batch reads the pages that hold its ids plus a few
//! search probes, and never scans the pages between them. That replaces
//! both a per-row root-to-leaf binary search and a full rescan of the
//! temp per batch.
//!
//! Temps are the volume's churn workload: built per query, freed when
//! the query ends, and frequently sharing erase blocks with long-lived
//! dataset segments. Cursors address pages through the volume's
//! logical→physical translation table, so the flash garbage collector
//! can compact a temp's blocks *while a cursor is open* — nothing here
//! may cache physical page locations.

use ghostdb_flash::{Segment, Volume};
use ghostdb_ram::{RamScope, ScopedGuard};
use ghostdb_types::{DataType, GhostError, IdBlock, IdStream, Result, RowId, Value};

use crate::pc::PairStream;

/// Encoded width of one value in a temp record (4-byte id excluded).
pub(crate) fn value_width(ty: DataType) -> usize {
    match ty {
        DataType::Integer | DataType::Date => 8,
        // 2-byte length prefix + capacity bytes.
        DataType::Char(n) => 2 + n as usize,
    }
}

fn encode_value(ty: DataType, v: &Value, out: &mut [u8]) -> Result<()> {
    match (ty, v) {
        (DataType::Integer, Value::Int(_)) | (DataType::Date, Value::Date(_)) => {
            let key = v.order_key().expect("numeric");
            out[..8].copy_from_slice(&key.to_le_bytes());
            Ok(())
        }
        (DataType::Char(cap), Value::Text(s)) => {
            if s.len() > cap as usize {
                return Err(GhostError::value("string exceeds column capacity"));
            }
            out[..2].copy_from_slice(&(s.len() as u16).to_le_bytes());
            out[2..2 + s.len()].copy_from_slice(s.as_bytes());
            out[2 + s.len()..].fill(0);
            Ok(())
        }
        _ => Err(GhostError::value("value/type mismatch in temp encode")),
    }
}

fn decode_value(ty: DataType, buf: &[u8]) -> Result<Value> {
    match ty {
        DataType::Integer | DataType::Date => {
            let key = u64::from_le_bytes(buf[..8].try_into().expect("8B"));
            Value::from_order_key(ty, key)
        }
        DataType::Char(_) => {
            let len = u16::from_le_bytes(buf[..2].try_into().expect("2B")) as usize;
            if 2 + len > buf.len() {
                return Err(GhostError::corrupt("temp string length out of range"));
            }
            String::from_utf8(buf[2..2 + len].to_vec())
                .map(Value::Text)
                .map_err(|_| GhostError::corrupt("non-utf8 temp string"))
        }
    }
}

/// Fixed-width records on flash, ascending by their 4-byte id prefix:
/// the layout both temp kinds share.
#[derive(Debug)]
struct Records {
    volume: Volume,
    segment: Segment,
    /// Bytes per record: 4 (id) + value width.
    width: usize,
    count: u64,
    /// First and last stored ids (interpolation bounds; 0 when empty).
    first: u32,
    last: u32,
}

/// Appends ascending-id records and remembers the bounds.
struct RecordsWriter {
    volume: Volume,
    writer: ghostdb_flash::SegmentWriter,
    width: usize,
    count: u64,
    first: u32,
    last: Option<RowId>,
}

impl RecordsWriter {
    fn new(volume: &Volume, scope: &RamScope, width: usize) -> Result<RecordsWriter> {
        Ok(RecordsWriter {
            volume: volume.clone(),
            writer: volume.writer(scope)?,
            width,
            count: 0,
            first: 0,
            last: None,
        })
    }

    /// Append one record (`rec` starts with the id's 4 bytes). Ids must
    /// strictly ascend: the PC is untrusted, so order is checked here.
    fn push(&mut self, id: RowId, rec: &[u8]) -> Result<()> {
        match self.last {
            Some(prev) if id <= prev => {
                return Err(GhostError::bus(
                    "PC sent temp records out of order".to_string(),
                ))
            }
            None => self.first = id.0,
            _ => {}
        }
        self.last = Some(id);
        self.writer.write(rec)?;
        self.count += 1;
        Ok(())
    }

    fn finish(self) -> Result<Records> {
        Ok(Records {
            volume: self.volume,
            segment: self.writer.finish()?,
            width: self.width,
            count: self.count,
            first: self.first,
            last: self.last.map_or(0, |id| id.0),
        })
    }
}

/// Fixed-width encoded `(row id, value)` records on flash, sorted by id.
#[derive(Debug)]
pub struct VisibleTemp {
    records: Records,
    ty: DataType,
}

impl VisibleTemp {
    /// Drain `pairs` (ascending by id) into a temp segment. The optional
    /// `on_id` callback sees every id as it lands — the Bloom build hooks
    /// in here so the single bus transfer feeds both structures.
    pub fn build(
        volume: &Volume,
        scope: &RamScope,
        ty: DataType,
        pairs: &mut dyn PairStream,
        mut on_id: Option<&mut dyn FnMut(RowId)>,
    ) -> Result<VisibleTemp> {
        let mut w = RecordsWriter::new(volume, scope, 4 + value_width(ty))?;
        let mut rec = vec![0u8; w.width];
        while let Some((id, v)) = pairs.next_pair()? {
            rec[..4].copy_from_slice(&id.0.to_le_bytes());
            encode_value(ty, &v, &mut rec[4..])?;
            w.push(id, &rec)?;
            if let Some(f) = on_id.as_deref_mut() {
                f(id);
            }
        }
        Ok(VisibleTemp {
            records: w.finish()?,
            ty,
        })
    }

    /// Records stored.
    pub fn len(&self) -> u64 {
        self.records.count
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.count == 0
    }

    /// Flash bytes held.
    pub fn flash_bytes(&self) -> u64 {
        self.records.segment.len()
    }

    /// Open a sorted-probe cursor (one page of RAM).
    pub fn cursor(&self, scope: &RamScope) -> Result<TempCursor<'_>> {
        TempCursor::new(&self.records, Some(self.ty), scope)
    }

    /// Release the flash space.
    pub fn free(self) -> Result<()> {
        self.records.volume.free(self.records.segment)
    }
}

/// An id-only flash temp: 4-byte records, ascending.
///
/// This is the exact-verification side of a Bloom post-filter when the
/// predicate column itself is not projected: the device asks the PC only
/// for the matching *ids* (`EvalPredicate`), never the values — a 3–6×
/// smaller transfer than fetching `(id, value)` pairs.
#[derive(Debug)]
pub struct IdTemp {
    records: Records,
}

impl IdTemp {
    /// Drain an ascending id stream into a temp; `on_id` sees each id
    /// (Bloom build hook).
    pub fn build(
        volume: &Volume,
        scope: &RamScope,
        ids: &mut dyn IdStream,
        mut on_id: Option<&mut dyn FnMut(RowId)>,
    ) -> Result<IdTemp> {
        let mut w = RecordsWriter::new(volume, scope, 4)?;
        let mut block = IdBlock::new();
        loop {
            ids.next_block(&mut block)?;
            if block.is_empty() {
                break;
            }
            for &id in block.as_slice() {
                w.push(id, &id.0.to_le_bytes())?;
                if let Some(f) = on_id.as_deref_mut() {
                    f(id);
                }
            }
        }
        Ok(IdTemp {
            records: w.finish()?,
        })
    }

    /// Ids stored.
    pub fn len(&self) -> u64 {
        self.records.count
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.count == 0
    }

    /// Open a sorted-probe cursor (one page of RAM).
    pub fn cursor(&self, scope: &RamScope) -> Result<TempCursor<'_>> {
        TempCursor::new(&self.records, None, scope)
    }

    /// Release the flash space.
    pub fn free(self) -> Result<()> {
        self.records.volume.free(self.records.segment)
    }
}

/// Forward sorted-probe cursor over a [`VisibleTemp`] or an [`IdTemp`]
/// (see the module docs). Lookups are cheapest when their ids ascend; an
/// id below the previous one restarts the search from the first record,
/// so any order stays correct.
#[derive(Debug)]
pub struct TempCursor<'a> {
    records: &'a Records,
    /// Value type; `None` for an id-only temp.
    ty: Option<DataType>,
    buf: Vec<u8>,
    /// Page held in `buf` (`u64::MAX`: none).
    buf_page: u64,
    /// Every record below `lo` holds an id below the previous target.
    lo: u64,
    /// A lower bound of the id at record `lo`.
    lo_id: u64,
    prev: Option<RowId>,
    page_reads: u64,
    _ram: ScopedGuard,
}

impl<'a> TempCursor<'a> {
    fn new(records: &'a Records, ty: Option<DataType>, scope: &RamScope) -> Result<Self> {
        let page = records.volume.page_size();
        let guard = scope.alloc(page)?;
        Ok(TempCursor {
            records,
            ty,
            buf: vec![0u8; page],
            buf_page: u64::MAX,
            lo: 0,
            lo_id: records.first as u64,
            prev: None,
            page_reads: 0,
            _ram: guard,
        })
    }

    /// Pages this cursor has read from flash.
    pub fn page_reads(&self) -> u64 {
        self.page_reads
    }

    fn page_size(&self) -> u64 {
        self.buf.len() as u64
    }

    fn load(&mut self, page: u64) -> Result<()> {
        if self.buf_page != page {
            let start = page * self.page_size();
            let len = self.page_size().min(self.records.segment.len() - start) as usize;
            self.records
                .volume
                .read_at(&self.records.segment, start, &mut self.buf[..len])?;
            self.buf_page = page;
            self.page_reads += 1;
        }
        Ok(())
    }

    /// Copy `out.len()` bytes at segment offset `at`, page by page
    /// through the buffer.
    fn read(&mut self, mut at: u64, out: &mut [u8]) -> Result<()> {
        let ps = self.page_size();
        let mut done = 0;
        while done < out.len() {
            self.load(at / ps)?;
            let off = (at % ps) as usize;
            let n = (out.len() - done).min(ps as usize - off);
            out[done..done + n].copy_from_slice(&self.buf[off..off + n]);
            done += n;
            at += n as u64;
        }
        Ok(())
    }

    /// The id stored at record `idx` (sequential replay reads each page
    /// once).
    pub fn id_at(&mut self, idx: u64) -> Result<RowId> {
        if idx >= self.records.count {
            return Err(GhostError::exec("temp record index out of range"));
        }
        let mut b = [0u8; 4];
        self.read(idx * self.records.width as u64, &mut b)?;
        Ok(RowId(u32::from_le_bytes(b)))
    }

    /// Records `[a, b)` whose id bytes lie wholly inside `page`.
    fn page_span(&self, page: u64) -> (u64, u64) {
        let (ps, w) = (self.page_size(), self.records.width as u64);
        let a = (page * ps).div_ceil(w);
        let b = (((page + 1) * ps - 4) / w + 1).min(self.records.count);
        (a, b.max(a))
    }

    /// Id of record `r`, which must lie in the buffered page's span.
    fn buffered_id(&self, r: u64) -> u64 {
        let off = (r * self.records.width as u64 - self.buf_page * self.page_size()) as usize;
        u32::from_le_bytes(self.buf[off..off + 4].try_into().expect("4B")) as u64
    }

    /// Record index holding `id`, if stored.
    pub fn seek(&mut self, id: RowId) -> Result<Option<u64>> {
        if self.prev.is_some_and(|p| id < p) {
            self.lo = 0;
            self.lo_id = self.records.first as u64;
        }
        self.prev = Some(id);
        let t = id.0 as u64;
        let (first, last) = (self.records.first as u64, self.records.last as u64);
        if self.records.count == 0 || t < first {
            return Ok(None);
        }
        if t > last {
            self.lo = self.records.count;
            self.lo_id = last + 1;
            return Ok(None);
        }
        // Invariants: every record below `l` holds an id < t, every
        // record from `h` on an id > t; `l_id <= id(l)` and
        // `id(h) <= h_id` (the end acts as a record with id last + 1).
        let (mut l, mut l_id) = (self.lo, self.lo_id.max(first));
        let (mut h, mut h_id) = (self.records.count, last + 1);
        let mut bisect = false;
        let found = loop {
            // Distinct ascending ids: `t` sits at most `t - l_id` records
            // after `l` and at least `h_id - t` records before `h`.
            let nh = l + (t - l_id) + 1;
            if nh < h {
                h_id -= h - nh;
                h = nh;
            }
            let nl = h.saturating_sub(h_id - t);
            if nl > l {
                l_id += nl - l;
                l = nl;
            }
            if l >= h {
                break None;
            }
            let before = h - l;
            // Probe the buffered page for free when it overlaps [l, h);
            // otherwise read the page the interpolation (or, after a
            // step that did not halve the range, the bisection) picks.
            let span = (self.buf_page != u64::MAX).then(|| self.page_span(self.buf_page));
            let (a, b) = if let Some((a, b)) = span.filter(|&(a, b)| a.max(l) < b.min(h)) {
                (a.max(l), b.min(h))
            } else {
                let m = if bisect {
                    l + (h - l) / 2
                } else {
                    let guess = (t - l_id) as u128 * (h - l) as u128 / (h_id - l_id) as u128;
                    l + (guess as u64).min(h - l - 1)
                };
                let start = m * self.records.width as u64;
                let page = start / self.page_size();
                if start % self.page_size() + 4 > self.page_size() {
                    // The id straddles two pages: compare it alone.
                    let mid = self.id_at(m)?.0 as u64;
                    match mid.cmp(&t) {
                        std::cmp::Ordering::Equal => break Some(m),
                        std::cmp::Ordering::Less => (l, l_id) = (m + 1, mid + 1),
                        std::cmp::Ordering::Greater => (h, h_id) = (m, mid),
                    }
                    bisect = h - l > before / 2;
                    continue;
                }
                self.load(page)?;
                let (a, b) = self.page_span(page);
                (a.max(l), b.min(h))
            };
            let (ida, idb) = (self.buffered_id(a), self.buffered_id(b - 1));
            if t < ida {
                (h, h_id) = (a, ida);
            } else if t > idb {
                (l, l_id) = (b, idb + 1);
            } else {
                // Inside this page: binary search the buffer.
                let (mut x, mut y) = (a, b);
                while x < y {
                    let mid = x + (y - x) / 2;
                    if self.buffered_id(mid) < t {
                        x = mid + 1;
                    } else {
                        y = mid;
                    }
                }
                l = x;
                break (self.buffered_id(x) == t).then_some(x);
            }
            bisect = h - l > before / 2;
        };
        // Record `l` holds `t` or, when absent, the first id above it.
        self.lo = l;
        self.lo_id = t;
        Ok(found)
    }

    /// Is `id` stored?
    pub fn contains(&mut self, id: RowId) -> Result<bool> {
        Ok(self.seek(id)?.is_some())
    }

    /// The value stored for `id`, or `None` if absent.
    pub fn value(&mut self, id: RowId) -> Result<Option<Value>> {
        let ty = self
            .ty
            .ok_or_else(|| GhostError::exec("value lookup on an id-only temp"))?;
        let Some(idx) = self.seek(id)? else {
            return Ok(None);
        };
        let mut raw = vec![0u8; self.records.width - 4];
        self.read(idx * self.records.width as u64 + 4, &mut raw)?;
        decode_value(ty, &raw).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pc::VecPairStream;
    use ghostdb_flash::Nand;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{Date, FlashConfig, SimClock};

    fn setup() -> (Volume, RamScope) {
        let cfg = FlashConfig {
            page_size: 128,
            pages_per_block: 8,
            num_blocks: 128,
            ..FlashConfig::default_2007()
        };
        (
            Volume::new(Nand::new(cfg, SimClock::new())),
            RamScope::new(&RamBudget::new(64 * 1024)),
        )
    }

    #[test]
    fn int_column_probe() {
        let (vol, scope) = setup();
        let pairs: Vec<(RowId, Value)> = (0..50u32)
            .filter(|i| i % 3 == 0)
            .map(|i| (RowId(i), Value::Int(i as i64 * 10)))
            .collect();
        let mut stream = VecPairStream::new(pairs);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Integer, &mut stream, None).unwrap();
        assert_eq!(temp.len(), 17);
        let mut p = temp.cursor(&scope).unwrap();
        assert_eq!(p.value(RowId(9)).unwrap(), Some(Value::Int(90)));
        assert_eq!(p.value(RowId(10)).unwrap(), None);
        assert_eq!(p.value(RowId(0)).unwrap(), Some(Value::Int(0)));
        assert_eq!(p.value(RowId(48)).unwrap(), Some(Value::Int(480)));
        assert_eq!(p.value(RowId(49)).unwrap(), None);
    }

    #[test]
    fn text_column_roundtrip_with_padding() {
        let (vol, scope) = setup();
        let pairs = vec![
            (RowId(2), Value::Text("ab".into())),
            (RowId(5), Value::Text("".into())),
            (RowId(9), Value::Text("0123456789".into())),
        ];
        let mut stream = VecPairStream::new(pairs);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Char(10), &mut stream, None).unwrap();
        let mut p = temp.cursor(&scope).unwrap();
        assert_eq!(p.value(RowId(2)).unwrap(), Some(Value::Text("ab".into())));
        assert_eq!(p.value(RowId(5)).unwrap(), Some(Value::Text("".into())));
        assert_eq!(
            p.value(RowId(9)).unwrap(),
            Some(Value::Text("0123456789".into()))
        );
    }

    #[test]
    fn date_column_roundtrip() {
        let (vol, scope) = setup();
        let pairs = vec![(RowId(1), Value::Date(Date(13_456)))];
        let mut stream = VecPairStream::new(pairs);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Date, &mut stream, None).unwrap();
        let mut p = temp.cursor(&scope).unwrap();
        assert_eq!(p.value(RowId(1)).unwrap(), Some(Value::Date(Date(13_456))));
    }

    #[test]
    fn on_id_hook_sees_every_id() {
        let (vol, scope) = setup();
        let pairs: Vec<(RowId, Value)> =
            (0..10u32).map(|i| (RowId(i * 2), Value::Int(0))).collect();
        let mut stream = VecPairStream::new(pairs);
        let mut seen = Vec::new();
        let mut hook = |id: RowId| seen.push(id.0);
        VisibleTemp::build(
            &vol,
            &scope,
            DataType::Integer,
            &mut stream,
            Some(&mut hook),
        )
        .unwrap();
        assert_eq!(seen, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_input_rejected() {
        let (vol, scope) = setup();
        struct Bad(usize);
        impl PairStream for Bad {
            fn next_pair(&mut self) -> Result<Option<(RowId, Value)>> {
                self.0 += 1;
                Ok(match self.0 {
                    1 => Some((RowId(5), Value::Int(0))),
                    2 => Some((RowId(3), Value::Int(0))),
                    _ => None,
                })
            }
        }
        let err =
            VisibleTemp::build(&vol, &scope, DataType::Integer, &mut Bad(0), None).unwrap_err();
        assert!(err.to_string().contains("out of order"));
    }

    /// Tiny deterministic generator (no RNG dependency in unit tests).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn int_temp(vol: &Volume, scope: &RamScope, ids: &[u32]) -> VisibleTemp {
        let pairs = ids
            .iter()
            .map(|&i| (RowId(i), Value::Int(i as i64 * 7)))
            .collect();
        let mut stream = VecPairStream::new(pairs);
        VisibleTemp::build(vol, scope, DataType::Integer, &mut stream, None).unwrap()
    }

    #[test]
    fn sorted_probe_matches_a_set_for_every_record_width() {
        let (vol, scope) = setup();
        let mut rng = 7u64;
        let mut stored: Vec<u32> = (0..400).map(|_| (lcg(&mut rng) % 5_000) as u32).collect();
        stored.sort_unstable();
        stored.dedup();
        let set: std::collections::BTreeSet<u32> = stored.iter().copied().collect();
        // 12-byte (INTEGER), 13-byte (CHAR(7): ids straddle pages) and
        // 4-byte (id-only) records.
        let int = int_temp(&vol, &scope, &stored);
        let pairs = stored
            .iter()
            .map(|&i| (RowId(i), Value::Text(format!("s{}", i % 1000))))
            .collect();
        let text = VisibleTemp::build(
            &vol,
            &scope,
            DataType::Char(7),
            &mut VecPairStream::new(pairs),
            None,
        )
        .unwrap();
        let ids: Vec<RowId> = stored.iter().map(|&i| RowId(i)).collect();
        let id_temp = IdTemp::build(
            &vol,
            &scope,
            &mut ghostdb_types::VecIdStream::new(ids),
            None,
        )
        .unwrap();
        for round in 0..6 {
            // Ascending probe batches with duplicates and absent ids.
            let mut wanted: Vec<u32> = (0..60).map(|_| (lcg(&mut rng) % 5_100) as u32).collect();
            wanted.extend(stored.iter().step_by(17 + round).copied());
            wanted.sort_unstable();
            let mut ci = int.cursor(&scope).unwrap();
            let mut ct = text.cursor(&scope).unwrap();
            let mut cid = id_temp.cursor(&scope).unwrap();
            for &w in &wanted {
                let present = set.contains(&w);
                assert_eq!(
                    ci.value(RowId(w)).unwrap(),
                    present.then(|| Value::Int(w as i64 * 7)),
                    "int {w}"
                );
                assert_eq!(
                    ct.value(RowId(w)).unwrap(),
                    present.then(|| Value::Text(format!("s{}", w % 1000))),
                    "text {w}"
                );
                assert_eq!(cid.contains(RowId(w)).unwrap(), present, "id {w}");
            }
        }
    }

    #[test]
    fn sorted_probe_handles_duplicates_bounds_and_restarts() {
        let (vol, scope) = setup();
        let stored: Vec<u32> = (10..300).map(|i| i * 3).collect();
        let temp = int_temp(&vol, &scope, &stored);
        let mut c = temp.cursor(&scope).unwrap();
        let (first, last) = (stored[0], *stored.last().unwrap());
        for id in [
            first,
            first,
            first + 1,
            last - 3,
            last - 3,
            last,
            last,
            last + 1,
        ] {
            let expect =
                (id % 3 == 0 && (first..=last).contains(&id)).then(|| Value::Int(id as i64 * 7));
            assert_eq!(c.value(RowId(id)).unwrap(), expect, "{id}");
        }
        // Below the first id, and a backwards probe that restarts.
        assert_eq!(c.value(RowId(0)).unwrap(), None);
        assert_eq!(
            c.value(RowId(first)).unwrap(),
            Some(Value::Int(first as i64 * 7))
        );
        assert_eq!(c.id_at(0).unwrap(), RowId(first));
        assert!(c.id_at(stored.len() as u64).is_err());
    }

    #[test]
    fn straddling_char_records_decode() {
        let (vol, scope) = setup();
        // CHAR(7) records are 13 bytes, so both values and ids cross
        // page boundaries.
        let pairs: Vec<(RowId, Value)> = (0..200u32)
            .map(|i| (RowId(i * 2), Value::Text("x".repeat((i % 8) as usize))))
            .collect();
        let temp = VisibleTemp::build(
            &vol,
            &scope,
            DataType::Char(7),
            &mut VecPairStream::new(pairs.clone()),
            None,
        )
        .unwrap();
        let mut c = temp.cursor(&scope).unwrap();
        for (id, v) in &pairs {
            assert_eq!(c.value(*id).unwrap().as_ref(), Some(v), "{id}");
            assert_eq!(c.value(RowId(id.0 + 1)).unwrap(), None);
        }
        // Sequential replay reads every page once.
        let mut r = temp.cursor(&scope).unwrap();
        for i in 0..temp.len() {
            assert_eq!(r.id_at(i).unwrap(), pairs[i as usize].0);
        }
        let pages = temp.flash_bytes().div_ceil(vol.page_size() as u64);
        assert_eq!(r.page_reads(), pages);
    }

    #[test]
    fn sorted_probe_reads_only_pages_it_needs_on_skewed_ids() {
        let (vol, scope) = setup();
        // Skew: a dense run of 2,000 ids, then 500 ids spread over a
        // million: 12-byte records over ~250 small pages.
        let mut stored: Vec<u32> = (0..2_000).collect();
        stored.extend((0..500).map(|i| 10_000 + i * 2_000));
        let temp = int_temp(&vol, &scope, &stored);
        let ps = vol.page_size() as u64;
        let pages = temp.flash_bytes().div_ceil(ps);
        let page_of = |idx: usize| (idx as u64 * 12) / ps;
        let mut rng = 3u64;
        for n in [1usize, 8, 40] {
            let mut idxs: Vec<usize> = (0..n)
                .map(|_| (lcg(&mut rng) % stored.len() as u64) as usize)
                .collect();
            idxs.sort_unstable();
            let mut c = temp.cursor(&scope).unwrap();
            for &i in &idxs {
                assert!(c.contains(RowId(stored[i])).unwrap());
            }
            let mut needed: Vec<u64> = idxs.iter().map(|&i| page_of(i)).collect();
            needed.dedup();
            let log = (pages as f64).log2().ceil() as u64;
            assert!(
                c.page_reads() <= needed.len() as u64 * (2 * log + 2),
                "{n} probes read {} pages ({} needed, {pages} total)",
                c.page_reads(),
                needed.len()
            );
            assert!(c.page_reads() < pages, "a sorted probe must not scan");
        }
        // Absent ids in the sparse tail cost a bounded search, not a scan.
        let mut c = temp.cursor(&scope).unwrap();
        for i in 0..20u32 {
            assert!(!c.contains(RowId(10_001 + i * 50_000)).unwrap());
        }
        assert!(c.page_reads() <= 20 * 2 * (pages as f64).log2().ceil() as u64);
    }

    #[test]
    fn empty_temp_probes_none() {
        let (vol, scope) = setup();
        let mut stream = VecPairStream::new(vec![]);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Integer, &mut stream, None).unwrap();
        assert!(temp.is_empty());
        let mut p = temp.cursor(&scope).unwrap();
        assert_eq!(p.value(RowId(0)).unwrap(), None);
        assert!(p.id_at(0).is_err());
        let ids = IdTemp::build(
            &vol,
            &scope,
            &mut ghostdb_types::VecIdStream::new(vec![]),
            None,
        )
        .unwrap();
        assert!(ids.is_empty());
        let mut c = ids.cursor(&scope).unwrap();
        assert!(!c.contains(RowId(0)).unwrap());
        assert!(!c.contains(RowId(u32::MAX)).unwrap());
        assert_eq!(c.page_reads(), 0);
    }

    #[test]
    fn free_releases_flash() {
        let (vol, scope) = setup();
        let pairs: Vec<(RowId, Value)> = (0..100u32).map(|i| (RowId(i), Value::Int(1))).collect();
        let mut stream = VecPairStream::new(pairs);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Integer, &mut stream, None).unwrap();
        assert!(vol.usage().live_pages > 0);
        temp.free().unwrap();
        assert_eq!(vol.usage().live_pages, 0);
    }
}
