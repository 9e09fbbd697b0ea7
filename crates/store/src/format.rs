//! The self-describing column file format.
//!
//! One file persists one unit-behavior column: the behaviors of a single
//! hidden unit over every record of a dataset, `nd * ns` f32 values in
//! record-position-major order. The v3 layout (all integers
//! little-endian):
//!
//! ```text
//! header   magic "DBSBCOL\0" (8) | version u16 | flags u16 | crc32 u32
//! schema   model_fp u64 | dataset_fp u64 | unit u64 | nd u64 | ns u64
//!          | block_records u64 | completed_records u64 | crc32 u32
//!          | access_stamp u64 (NOT covered by the crc — see below)
//! zones    per data block: min f32 | max f32 | rows u32 | codec u8
//!          | flags u8 (bit0 = has_non_finite) | reserved u16 (zero)
//!          | comp_len u32 | payload crc32 u32
//!          then crc32 u32 over the zone table
//! coverage (only when completed_records < nd)
//!          ceil(nd / 8) bitmap bytes (bit p set = record position p is
//!          valid) | crc32 u32
//! data     per block: `comp_len` bytes of encoded payload, blocks
//!          back-to-back in index order (offsets are the prefix sums of
//!          the zone table's `comp_len` fields)
//! ```
//!
//! ## Per-block codecs (v3)
//!
//! Each block is stored under the smallest of three encodings, named by
//! the zone entry's codec tag:
//!
//! * [`Codec::Raw`] (0) — `rows * ns` little-endian f32.
//! * [`Codec::Constant`] (1) — every value in the block shares one bit
//!   pattern; the payload is that single f32 (4 bytes). For a *finite*
//!   constant the zone `min`/`max` carry the exact same bits, which is
//!   what lets a scan serve the block straight from the zone map without
//!   reading the file at all (predicate pushdown).
//! * [`Codec::Dict`] (2) — at most 255 distinct bit patterns: a one-byte
//!   dictionary size, the dictionary (4 bytes per entry, first-seen
//!   order), then bit-packed indices (`ceil(log2(entries))` bits each,
//!   little-endian bit order, zero slack bits). Chosen only when
//!   strictly smaller than raw — saturated activations (±1 under tanh)
//!   pack 32x.
//!
//! The per-block CRC32 covers the **encoded payload bytes**, so bit rot
//! in compressed data is detected before decoding. Decoders additionally
//! validate exact payload lengths, dictionary index ranges, slack bits
//! and the constant/zone cross-consistency, so a flipped codec tag or
//! length can never decode to plausible-but-wrong values.
//!
//! ## NaN-safe zone maps
//!
//! Zone `min`/`max` aggregate **finite** values only, and the zone flag
//! bit0 (`has_non_finite`) records whether the block contains any NaN or
//! ±Inf. A block with no finite values writes `min = max = 0.0` with the
//! flag set — never the inverted `+inf/-inf` a naive `f32::min` fold
//! produces over all-NaN input. Every prune predicate refuses a flagged
//! block ([`ZoneEntry::constant_value`] is `None`), so NaN-bearing data
//! is always read and served bit-exactly, never skipped.
//!
//! ## Access stamps
//!
//! The schema's trailing `access_stamp` (milliseconds since the Unix
//! epoch) records when the column was last written or first scanned by a
//! process. It is deliberately **excluded from the schema checksum**: the
//! store refreshes it with an in-place 8-byte write
//! (`write_access_stamp`), and a torn or lost stamp update must never
//! make a healthy column read as corrupt. The stamp is an eviction hint
//! for the disk-space budget (LRU over cold columns), not data.
//!
//! ## Partial columns (the watermark)
//!
//! `completed_records` is the column's **watermark**: how many record
//! positions hold real extractor output. A *complete* column has
//! `completed_records == nd` and no coverage section. A *partial* column —
//! the persisted prefix of an early-stopped streaming pass — declares
//! `completed_records < nd` and carries a coverage bitmap naming exactly
//! which positions are valid (streaming passes visit records in shuffled
//! order, so the valid set is not a positional prefix). The data region
//! holds **only** the valid records, densely packed in ascending position
//! order: a record's data row is its rank among the covered positions.
//!
//! ## Other versions
//!
//! Only version 3 is read. A file declaring any other version (the
//! pre-codec versions 1 and 2 included) reads as corrupt, is quarantined
//! under a read-write policy, and re-materializes from live extraction —
//! the store is a cache of recomputable data, so there is no migration.

use crate::StoreError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic for behavior-column files.
pub(crate) const MAGIC: [u8; 8] = *b"DBSBCOL\0";
/// The one format version written and read (3 added per-block codecs,
/// NaN-safe zone flags and access stamps; 2 added the completed-record
/// watermark + coverage bitmap; files of other versions read as corrupt
/// and re-materialize).
pub(crate) const VERSION: u16 = 3;

const HEADER_LEN: u64 = 8 + 2 + 2 + 4;
/// The CRC-covered schema fields (7 u64).
const SCHEMA_FIELDS_LEN: usize = 7 * 8;
/// The schema fields plus their checksum.
const SCHEMA_CHECKED_LEN: u64 = SCHEMA_FIELDS_LEN as u64 + 4;
/// The whole schema section: checked part, then the access stamp.
const SCHEMA_LEN: u64 = SCHEMA_CHECKED_LEN + 8;
/// Fixed file offset of the access stamp (after the schema CRC so the
/// CRC-covered prefix stays contiguous).
const ACCESS_STAMP_OFFSET: u64 = HEADER_LEN + SCHEMA_CHECKED_LEN;
const ZONE_ENTRY_LEN: u64 = 4 + 4 + 4 + 1 + 1 + 2 + 4 + 4;
/// Zone flag bit0: the block contains at least one NaN or ±Inf value.
const ZONE_FLAG_NON_FINITE: u8 = 0x01;
/// Largest dictionary [`Codec::Dict`] can name (a one-byte size field).
const DICT_MAX_ENTRIES: usize = 255;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — implemented here so the crate stays
// dependency-free.
// ---------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets [`crc32`] fold eight input bytes per step with eight
/// independent lookups instead of eight dependent ones.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of a byte slice, eight bytes per step (slicing-by-8).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------

/// The schema section of a column file: the column's key and shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Model content fingerprint.
    pub model_fp: u64,
    /// Dataset content fingerprint.
    pub dataset_fp: u64,
    /// Hidden-unit index within the model.
    pub unit: u64,
    /// Records in the dataset.
    pub nd: u64,
    /// Symbols per record (rows per record in the column).
    pub ns: u64,
    /// Records per data block (the zone-map / checksum granularity).
    pub block_records: u64,
    /// The watermark: record positions holding real extractor output.
    /// `== nd` for a complete column; `< nd` for the persisted prefix of
    /// an early-stopped pass (the coverage bitmap names which positions).
    pub completed_records: u64,
}

impl ColumnMeta {
    /// True when every record position is valid (no coverage section).
    pub(crate) fn is_complete(&self) -> bool {
        self.completed_records == self.nd
    }

    /// Records actually stored in the data region (`nd` for a complete
    /// column, the watermark for a partial one — valid records are
    /// densely packed).
    pub(crate) fn data_records(&self) -> u64 {
        self.completed_records
    }

    /// Number of data blocks (`ceil(data_records / block_records)`).
    pub fn n_blocks(&self) -> usize {
        if self.data_records() == 0 {
            0
        } else {
            self.data_records().div_ceil(self.block_records) as usize
        }
    }

    /// Records stored in block `b` (the last block may be short).
    pub(crate) fn rows_in_block(&self, b: usize) -> usize {
        let start = b as u64 * self.block_records;
        (self.data_records().saturating_sub(start)).min(self.block_records) as usize
    }

    /// Block holding data row `row` (for a complete column the row *is*
    /// the record position; for a partial column it is the position's
    /// rank among the covered positions).
    pub fn block_of(&self, row: usize) -> usize {
        row / self.block_records as usize
    }

    /// Bytes of the coverage section (bitmap + crc32), zero when
    /// complete.
    fn coverage_len(&self) -> u64 {
        if self.is_complete() {
            0
        } else {
            coverage_bytes(self.nd as usize) as u64 + 4
        }
    }

    /// The CRC-covered schema fields plus their checksum (60 bytes; the
    /// writer appends the uncovered access stamp after this).
    fn to_bytes(self) -> [u8; SCHEMA_CHECKED_LEN as usize] {
        let mut out = [0u8; SCHEMA_CHECKED_LEN as usize];
        let fields = [
            self.model_fp,
            self.dataset_fp,
            self.unit,
            self.nd,
            self.ns,
            self.block_records,
            self.completed_records,
        ];
        for (i, f) in fields.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&f.to_le_bytes());
        }
        let crc = crc32(&out[..SCHEMA_FIELDS_LEN]);
        out[SCHEMA_FIELDS_LEN..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn from_bytes(bytes: &[u8; SCHEMA_CHECKED_LEN as usize]) -> Result<ColumnMeta, StoreError> {
        let stored_crc = u32::from_le_bytes(bytes[SCHEMA_FIELDS_LEN..].try_into().unwrap());
        if crc32(&bytes[..SCHEMA_FIELDS_LEN]) != stored_crc {
            return Err(StoreError::Corrupt("schema checksum mismatch".into()));
        }
        let field = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        let meta = ColumnMeta {
            model_fp: field(0),
            dataset_fp: field(1),
            unit: field(2),
            nd: field(3),
            ns: field(4),
            block_records: field(5),
            completed_records: field(6),
        };
        if meta.block_records == 0 || meta.ns == 0 {
            return Err(StoreError::Corrupt(
                "schema declares a zero-sized block or record".into(),
            ));
        }
        if meta.completed_records > meta.nd {
            return Err(StoreError::Corrupt(format!(
                "watermark {} exceeds the declared record count {}",
                meta.completed_records, meta.nd
            )));
        }
        Ok(meta)
    }
}

// ---------------------------------------------------------------------
// Zone entries and codecs
// ---------------------------------------------------------------------

/// How one data block's payload is encoded (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Codec {
    /// `rows * ns` little-endian f32.
    Raw = 0,
    /// Every value shares one bit pattern; payload is that f32 (4 bytes).
    Constant = 1,
    /// Bit-packed indices into a ≤255-entry dictionary of f32 patterns.
    Dict = 2,
}

impl Codec {
    fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::Raw),
            1 => Some(Codec::Constant),
            2 => Some(Codec::Dict),
            _ => None,
        }
    }
}

/// One zone-map entry: per-block statistics, encoding, and the payload
/// checksum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEntry {
    /// Minimum **finite** value in the block (0.0 when none are finite).
    pub min: f32,
    /// Maximum **finite** value in the block (0.0 when none are finite).
    pub max: f32,
    /// Records in the block.
    pub rows: u32,
    /// Payload encoding.
    pub codec: Codec,
    /// True when the block contains any NaN or ±Inf value. A flagged
    /// block is never pruned: its zone statistics cannot speak for the
    /// non-finite values.
    pub has_non_finite: bool,
    /// Stored payload length in bytes.
    pub comp_len: u32,
    /// CRC32 of the stored (encoded) payload bytes.
    pub crc: u32,
}

impl ZoneEntry {
    /// The single finite value this block provably consists of, when the
    /// zone map alone reconstructs the block bit-exactly: codec is
    /// [`Codec::Constant`] (writer verified every value shares one bit
    /// pattern) and no non-finite value hides behind the statistics.
    /// This is the store's prune predicate — `Some(v)` means a scan may
    /// serve the block as `v` repeated, with zero reads and zero
    /// checksumming, bit-identical to reading it.
    pub fn constant_value(&self) -> Option<f32> {
        (self.codec == Codec::Constant && !self.has_non_finite).then_some(self.min)
    }

    fn to_bytes(self) -> [u8; ZONE_ENTRY_LEN as usize] {
        let mut out = [0u8; ZONE_ENTRY_LEN as usize];
        out[0..4].copy_from_slice(&self.min.to_bits().to_le_bytes());
        out[4..8].copy_from_slice(&self.max.to_bits().to_le_bytes());
        out[8..12].copy_from_slice(&self.rows.to_le_bytes());
        out[12] = self.codec as u8;
        out[13] = if self.has_non_finite {
            ZONE_FLAG_NON_FINITE
        } else {
            0
        };
        // out[14..16] reserved, zero.
        out[16..20].copy_from_slice(&self.comp_len.to_le_bytes());
        out[20..24].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    fn from_bytes(e: &[u8], b: usize) -> Result<ZoneEntry, StoreError> {
        let codec = Codec::from_tag(e[12])
            .ok_or_else(|| StoreError::Corrupt(format!("block {b} has unknown codec tag")))?;
        if e[13] & !ZONE_FLAG_NON_FINITE != 0 {
            return Err(StoreError::Corrupt(format!(
                "block {b} zone entry sets unknown flag bits"
            )));
        }
        if e[14] != 0 || e[15] != 0 {
            return Err(StoreError::Corrupt(format!(
                "block {b} zone entry has non-zero reserved bytes"
            )));
        }
        Ok(ZoneEntry {
            min: f32::from_bits(u32::from_le_bytes(e[0..4].try_into().unwrap())),
            max: f32::from_bits(u32::from_le_bytes(e[4..8].try_into().unwrap())),
            rows: u32::from_le_bytes(e[8..12].try_into().unwrap()),
            codec,
            has_non_finite: e[13] & ZONE_FLAG_NON_FINITE != 0,
            comp_len: u32::from_le_bytes(e[16..20].try_into().unwrap()),
            crc: u32::from_le_bytes(e[20..24].try_into().unwrap()),
        })
    }
}

/// Index bits per value for an `entries`-entry dictionary (`entries >= 2`).
fn dict_bit_width(entries: usize) -> usize {
    (usize::BITS - (entries - 1).leading_zeros()) as usize
}

/// Dictionary-encodes a block when it is strictly smaller than raw:
/// `[entries u8][entries * 4B f32 bits, first-seen order][bit-packed
/// indices, zero slack]`. `None` when the block has too many distinct
/// patterns or the encoding would not shrink it.
fn try_dict_encode(values: &[f32]) -> Option<Vec<u8>> {
    let mut dict: Vec<u32> = Vec::new();
    let mut indices: Vec<u8> = Vec::with_capacity(values.len());
    for &v in values {
        let bits = v.to_bits();
        let idx = match dict.iter().position(|&d| d == bits) {
            Some(i) => i,
            None => {
                if dict.len() == DICT_MAX_ENTRIES {
                    return None;
                }
                dict.push(bits);
                dict.len() - 1
            }
        };
        indices.push(idx as u8);
    }
    if dict.len() < 2 {
        return None; // a one-pattern block is Codec::Constant's job
    }
    let width = dict_bit_width(dict.len());
    let packed_len = (values.len() * width).div_ceil(8);
    let total = 1 + 4 * dict.len() + packed_len;
    if total >= values.len() * 4 {
        return None;
    }
    let mut out = Vec::with_capacity(total);
    out.push(dict.len() as u8);
    for &bits in &dict {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    let mut acc: u32 = 0;
    let mut nbits = 0;
    for &i in &indices {
        acc |= (i as u32) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
    debug_assert_eq!(out.len(), total);
    Some(out)
}

fn decode_dict(payload: &[u8], n_values: usize, b: usize) -> Result<Vec<f32>, StoreError> {
    let entries = *payload
        .first()
        .ok_or_else(|| StoreError::Corrupt(format!("block {b} dict payload is empty")))?
        as usize;
    if entries < 2 {
        return Err(StoreError::Corrupt(format!(
            "block {b} dict has {entries} entries (constant codec expected)"
        )));
    }
    let dict_end = 1 + entries * 4;
    let width = dict_bit_width(entries);
    let packed_len = (n_values * width).div_ceil(8);
    if payload.len() != dict_end + packed_len {
        return Err(StoreError::Corrupt(format!(
            "block {b} dict payload length {} disagrees with its shape",
            payload.len()
        )));
    }
    let dict: Vec<f32> = payload[1..dict_end]
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
        .collect();
    let packed = &payload[dict_end..];
    let mut out = Vec::with_capacity(n_values);
    let mask = (1u32 << width) - 1;
    let mut acc: u32 = 0;
    let mut nbits = 0;
    let mut byte_i = 0;
    for _ in 0..n_values {
        while nbits < width {
            acc |= (packed[byte_i] as u32) << nbits;
            byte_i += 1;
            nbits += 8;
        }
        let idx = (acc & mask) as usize;
        acc >>= width;
        nbits -= width;
        let v = *dict.get(idx).ok_or_else(|| {
            StoreError::Corrupt(format!("block {b} dict index {idx} out of range"))
        })?;
        out.push(v);
    }
    if acc != 0 {
        return Err(StoreError::Corrupt(format!(
            "block {b} dict payload has non-zero slack bits"
        )));
    }
    Ok(out)
}

/// Encodes one block: NaN-safe zone statistics plus the smallest payload
/// of the three codecs. `rows` is filled in by the caller.
fn encode_block(values: &[f32]) -> (ZoneEntry, Vec<u8>) {
    let mut has_non_finite = false;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    let mut any_finite = false;
    for &v in values {
        if v.is_finite() {
            any_finite = true;
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        } else {
            has_non_finite = true;
        }
    }
    if !any_finite {
        // Never serialize the inverted +inf/-inf a NaN-blind fold leaves.
        min = 0.0;
        max = 0.0;
    }
    let constant = !values.is_empty() && values.iter().all(|v| v.to_bits() == values[0].to_bits());
    let (codec, payload) = if constant {
        if values[0].is_finite() {
            // The zone min/max carry the constant's exact bits: that is
            // the invariant pruning reconstructs blocks from.
            min = values[0];
            max = values[0];
        }
        (Codec::Constant, values[0].to_le_bytes().to_vec())
    } else if let Some(p) = try_dict_encode(values) {
        (Codec::Dict, p)
    } else {
        let mut p = Vec::with_capacity(values.len() * 4);
        for &v in values {
            p.extend_from_slice(&v.to_le_bytes());
        }
        (Codec::Raw, p)
    };
    let zone = ZoneEntry {
        min,
        max,
        rows: 0,
        codec,
        has_non_finite,
        comp_len: payload.len() as u32,
        crc: crc32(&payload),
    };
    (zone, payload)
}

/// Decodes one block payload (already CRC-verified) into `n_values` f32.
fn decode_block(
    zone: &ZoneEntry,
    payload: &[u8],
    n_values: usize,
    b: usize,
) -> Result<Vec<f32>, StoreError> {
    match zone.codec {
        Codec::Raw => {
            if payload.len() != n_values * 4 {
                return Err(StoreError::Corrupt(format!(
                    "block {b} raw payload holds {} bytes for {n_values} values",
                    payload.len()
                )));
            }
            Ok(payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
        Codec::Constant => {
            if payload.len() != 4 {
                return Err(StoreError::Corrupt(format!(
                    "block {b} constant payload is {} bytes",
                    payload.len()
                )));
            }
            let v = f32::from_le_bytes(payload.try_into().unwrap());
            if v.is_finite() == zone.has_non_finite {
                return Err(StoreError::Corrupt(format!(
                    "block {b} constant finiteness disagrees with its zone flag"
                )));
            }
            if v.is_finite()
                && (v.to_bits() != zone.min.to_bits() || v.to_bits() != zone.max.to_bits())
            {
                return Err(StoreError::Corrupt(format!(
                    "block {b} constant payload disagrees with its zone bounds"
                )));
            }
            Ok(vec![v; n_values])
        }
        Codec::Dict => decode_dict(payload, n_values, b),
    }
}

// ---------------------------------------------------------------------
// Coverage bitmaps
// ---------------------------------------------------------------------

/// Bytes needed for an `nd`-position coverage bitmap.
pub(crate) fn coverage_bytes(nd: usize) -> usize {
    nd.div_ceil(8)
}

/// Whether position `pos` is set in a coverage bitmap.
pub(crate) fn coverage_covers(bits: &[u8], pos: usize) -> bool {
    bits.get(pos / 8).is_some_and(|b| b & (1 << (pos % 8)) != 0)
}

/// Packs a per-position validity slice into a bitmap.
pub fn coverage_from_filled(filled: &[bool]) -> Vec<u8> {
    let mut bits = vec![0u8; coverage_bytes(filled.len())];
    for (pos, &f) in filled.iter().enumerate() {
        if f {
            bits[pos / 8] |= 1 << (pos % 8);
        }
    }
    bits
}

fn coverage_popcount(bits: &[u8]) -> u64 {
    bits.iter().map(|b| b.count_ones() as u64).sum()
}

/// Packs the filled rows of a full `nd * ns` record-major buffer into
/// the dense ascending-position layout a partial column stores.
pub fn pack_rows(data: &[f32], filled: &[bool], ns: usize) -> Vec<f32> {
    let mut packed = Vec::with_capacity(filled.iter().filter(|&&f| f).count() * ns);
    for (pos, &f) in filled.iter().enumerate() {
        if f {
            packed.extend_from_slice(&data[pos * ns..(pos + 1) * ns]);
        }
    }
    packed
}

/// Rank table of a coverage bitmap: `ranks[pos]` is the data row of
/// position `pos` (its rank among covered positions; meaningful only
/// when `pos` is covered).
pub(crate) fn coverage_ranks(bits: &[u8], nd: usize) -> Vec<u32> {
    let mut ranks = Vec::with_capacity(nd);
    let mut rank = 0u32;
    for pos in 0..nd {
        ranks.push(rank);
        if coverage_covers(bits, pos) {
            rank += 1;
        }
    }
    ranks
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// What a column write put on disk (feeds compression accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Data blocks written.
    pub n_blocks: usize,
    /// Bytes the data region would occupy raw (`values * 4`).
    pub raw_data_bytes: u64,
    /// Bytes the encoded data region actually occupies.
    pub stored_data_bytes: u64,
}

/// Serializes a column into `w` in the v3 format above. `data` holds the
/// **packed** valid records in ascending position order
/// (`data.len() == completed_records * ns`; see [`pack_rows`]). A
/// complete column (`meta.completed_records == meta.nd`) passes
/// `covered: None`; a partial column passes its coverage bitmap, whose
/// population count must equal the watermark. `access_stamp` seeds the
/// uncovered eviction hint (milliseconds since the Unix epoch).
pub(crate) fn write_column<W: Write>(
    w: &mut W,
    meta: &ColumnMeta,
    data: &[f32],
    covered: Option<&[u8]>,
    access_stamp: u64,
) -> Result<WriteSummary, StoreError> {
    debug_assert_eq!(data.len() as u64, meta.data_records() * meta.ns);
    debug_assert_eq!(
        covered.is_some(),
        !meta.is_complete(),
        "coverage bitmap iff partial"
    );
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes()); // flags
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&meta.to_bytes())?;
    w.write_all(&access_stamp.to_le_bytes())?;
    // Encode every block first; zone entries describe the payloads.
    let n_blocks = meta.n_blocks();
    let mut summary = WriteSummary {
        n_blocks,
        raw_data_bytes: data.len() as u64 * 4,
        stored_data_bytes: 0,
    };
    let mut zone_bytes = Vec::with_capacity(n_blocks * ZONE_ENTRY_LEN as usize);
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let rows = meta.rows_in_block(b);
        let start = b * meta.block_records as usize * meta.ns as usize;
        let values = &data[start..start + rows * meta.ns as usize];
        let (mut zone, payload) = encode_block(values);
        zone.rows = rows as u32;
        summary.stored_data_bytes += payload.len() as u64;
        zone_bytes.extend_from_slice(&zone.to_bytes());
        payloads.push(payload);
    }
    let zone_crc = crc32(&zone_bytes);
    zone_bytes.extend_from_slice(&zone_crc.to_le_bytes());
    w.write_all(&zone_bytes)?;
    if let Some(bits) = covered {
        debug_assert_eq!(bits.len(), coverage_bytes(meta.nd as usize));
        debug_assert_eq!(coverage_popcount(bits), meta.completed_records);
        w.write_all(bits)?;
        w.write_all(&crc32(bits).to_le_bytes())?;
    }
    for payload in &payloads {
        w.write_all(payload)?;
    }
    Ok(summary)
}

/// Writes a column file atomically ([`crate::durable::publish`]).
/// `covered` follows `write_column`'s contract (None iff the column is
/// complete).
pub fn write_column_file(
    path: &Path,
    meta: &ColumnMeta,
    data: &[f32],
    covered: Option<&[u8]>,
    access_stamp: u64,
) -> Result<WriteSummary, StoreError> {
    crate::durable::publish(path, |file| {
        write_column(file, meta, data, covered, access_stamp)
    })
}

/// Refreshes a column file's access stamp in place (an uncovered 8-byte
/// write; see the module docs) through a handle the caller holds open for
/// writing on a file [`read_meta`] has validated — the one handle a
/// metadata read already has, so stamping costs no second open.
/// Best-effort by design: no fsync — a lost update only ages the column.
pub(crate) fn write_access_stamp(file: &mut File, stamp: u64) -> Result<(), StoreError> {
    file.seek(SeekFrom::Start(ACCESS_STAMP_OFFSET))?;
    file.write_all(&stamp.to_le_bytes())?;
    Ok(())
}

/// Reads a column file's access stamp without validating the rest of the
/// file. `None` for files of another version (treated as coldest by
/// eviction).
pub(crate) fn read_access_stamp(path: &Path) -> Result<Option<u64>, StoreError> {
    let mut file = File::open(path)?;
    let mut header = [0u8; HEADER_LEN as usize];
    if file.read_exact(&mut header).is_err() || header[..8] != MAGIC {
        return Ok(None);
    }
    let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
    if version != VERSION {
        return Ok(None);
    }
    file.seek(SeekFrom::Start(ACCESS_STAMP_OFFSET))?;
    let mut stamp = [0u8; 8];
    if file.read_exact(&mut stamp).is_err() {
        return Ok(None);
    }
    Ok(Some(u64::from_le_bytes(stamp)))
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Everything [`read_meta`] validates up front: the schema, the zone
/// table with per-block payload offsets, and (for partial columns) the
/// coverage bitmap.
#[derive(Debug, Clone)]
pub struct ColumnFile {
    /// The schema section.
    pub meta: ColumnMeta,
    /// The zone table (one entry per data block).
    pub zones: Vec<ZoneEntry>,
    /// Coverage bitmap; `None` for complete columns.
    pub covered: Option<Vec<u8>>,
    /// Last-access stamp (ms since the Unix epoch).
    pub access_stamp: u64,
    /// Per-block payload offsets (prefix sums of `comp_len`).
    offsets: Vec<u64>,
}

impl ColumnFile {
    /// File offset of block `b`'s payload.
    pub fn data_offset(&self, b: usize) -> Option<u64> {
        self.offsets.get(b).copied()
    }

    /// Blocks a pruned scan can serve from the zone map alone.
    pub(crate) fn prunable_blocks(&self) -> usize {
        self.zones
            .iter()
            .filter(|z| z.constant_value().is_some())
            .count()
    }

    /// File byte ranges a pruning reader may never validate: the
    /// access stamp (outside every checksum by design — a torn stamp
    /// update must not corrupt a healthy file) and the payloads of
    /// prunable blocks (reconstructed from the CRC-protected zone table
    /// instead of being read). A bit flip confined to these ranges can
    /// go undetected, but it is provably harmless: served values cannot
    /// change. Fault-injection suites use this to tell "undetected but
    /// unread" from "silently wrong".
    pub fn unvalidated_ranges(&self) -> Vec<std::ops::Range<u64>> {
        let mut out = Vec::new();
        out.push(ACCESS_STAMP_OFFSET..ACCESS_STAMP_OFFSET + 8);
        for (b, zone) in self.zones.iter().enumerate() {
            if zone.constant_value().is_some() {
                if let Some(off) = self.data_offset(b) {
                    out.push(off..off + zone.comp_len as u64);
                }
            }
        }
        out
    }
}

/// Reads and validates the header, schema, zone table and (for partial
/// columns) coverage bitmap of a column file. Any mismatch
/// (magic, version, checksum, truncation, trailing bytes,
/// watermark/bitmap disagreement)
/// is [`StoreError::Corrupt`].
pub fn read_meta(file: &mut File) -> Result<ColumnFile, StoreError> {
    file.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut header)
        .map_err(|_| StoreError::Corrupt("file too small for header".into()))?;
    if header[..8] != MAGIC {
        return Err(StoreError::Corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let stored = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if crc32(&header[..12]) != stored {
        return Err(StoreError::Corrupt("header checksum mismatch".into()));
    }
    let mut schema = [0u8; SCHEMA_CHECKED_LEN as usize];
    file.read_exact(&mut schema)
        .map_err(|_| StoreError::Corrupt("file too small for schema".into()))?;
    let meta = ColumnMeta::from_bytes(&schema)?;
    let mut stamp = [0u8; 8];
    file.read_exact(&mut stamp)
        .map_err(|_| StoreError::Corrupt("file too small for access stamp".into()))?;
    let access_stamp = u64::from_le_bytes(stamp);
    let n_blocks = meta.n_blocks();
    // Bound the zone-table and coverage allocations by the actual file
    // length before trusting the declared shape: a schema whose CRC
    // happens to validate but declares an absurd `nd` must surface as
    // corruption, not as a giant allocation.
    let zone_len = (n_blocks as u64)
        .checked_mul(ZONE_ENTRY_LEN)
        .and_then(|z| z.checked_add(4))
        .ok_or_else(|| StoreError::Corrupt("zone table size overflows".into()))?;
    let sections = zone_len
        .checked_add(meta.coverage_len())
        .and_then(|s| s.checked_add(HEADER_LEN + SCHEMA_LEN))
        .ok_or_else(|| StoreError::Corrupt("section sizes overflow".into()))?;
    let file_len = file.metadata()?.len();
    if sections > file_len {
        return Err(StoreError::Corrupt(format!(
            "declared shape needs {sections} bytes of zone table and \
             coverage but the file holds {file_len} bytes"
        )));
    }
    let mut zone_bytes = vec![0u8; zone_len as usize];
    file.read_exact(&mut zone_bytes)
        .map_err(|_| StoreError::Corrupt("file too small for zone table".into()))?;
    let (table, crc_bytes) = zone_bytes.split_at(n_blocks * ZONE_ENTRY_LEN as usize);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(table) != stored {
        return Err(StoreError::Corrupt("zone table checksum mismatch".into()));
    }
    let zones = table
        .chunks_exact(ZONE_ENTRY_LEN as usize)
        .enumerate()
        .map(|(b, e)| ZoneEntry::from_bytes(e, b))
        .collect::<Result<Vec<_>, _>>()?;
    // Coverage bitmap: present exactly when the watermark is short of nd.
    let covered = if meta.is_complete() {
        None
    } else {
        let n_bits_bytes = coverage_bytes(meta.nd as usize);
        let mut section = vec![0u8; n_bits_bytes + 4];
        file.read_exact(&mut section)
            .map_err(|_| StoreError::Corrupt("file too small for coverage bitmap".into()))?;
        let (bits, crc_bytes) = section.split_at(n_bits_bytes);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(bits) != stored {
            return Err(StoreError::Corrupt(
                "coverage bitmap checksum mismatch".into(),
            ));
        }
        if coverage_popcount(bits) != meta.completed_records {
            return Err(StoreError::Corrupt(format!(
                "coverage bitmap covers {} positions but the watermark says {}",
                coverage_popcount(bits),
                meta.completed_records
            )));
        }
        // Slack bits past nd must be zero so the bitmap has one canonical
        // encoding (and any flip in the slack is detected, not ignored).
        for pos in meta.nd as usize..n_bits_bytes * 8 {
            if coverage_covers(bits, pos) {
                return Err(StoreError::Corrupt(
                    "coverage bitmap sets a position past the record count".into(),
                ));
            }
        }
        Some(bits.to_vec())
    };
    // Per-block payload offsets: prefix sums of the (CRC-protected)
    // comp_len fields. The declared data region must end exactly where
    // the file does: a short file is a truncation, and no writer leaves
    // a tail (columns are published whole by temp file + rename, the
    // access stamp is rewritten in place), so bytes past the last block
    // are not ours either.
    let mut offsets = Vec::with_capacity(n_blocks);
    let mut off = sections;
    for zone in &zones {
        offsets.push(off);
        off = off
            .checked_add(zone.comp_len as u64)
            .ok_or_else(|| StoreError::Corrupt("data region size overflows".into()))?;
    }
    if off != file_len {
        return Err(StoreError::Corrupt(format!(
            "declared data region ends at byte {off} but the file holds {file_len} bytes"
        )));
    }
    Ok(ColumnFile {
        meta,
        zones,
        covered,
        access_stamp,
        offsets,
    })
}

/// Reads the data blocks `blocks` (ascending, distinct) through one
/// handle, verifying each payload's checksum against its zone entry and
/// decoding it per the zone's codec. Runs of consecutive block indices sit
/// back to back in the file, so each run costs one seek and one read.
pub(crate) fn read_blocks(
    file: &mut File,
    col: &ColumnFile,
    blocks: &[u32],
) -> Result<Vec<Vec<f32>>, StoreError> {
    debug_assert!(blocks.windows(2).all(|w| w[0] < w[1]), "blocks ascending");
    let mut pages = Vec::with_capacity(blocks.len());
    let mut payload = Vec::new();
    let mut run_start = 0;
    while run_start < blocks.len() {
        let mut run_end = run_start + 1;
        while run_end < blocks.len() && blocks[run_end] == blocks[run_end - 1] + 1 {
            run_end += 1;
        }
        let run = &blocks[run_start..run_end];
        let mut run_len = 0usize;
        for &b in run {
            let b = b as usize;
            let zone = col
                .zones
                .get(b)
                .ok_or_else(|| StoreError::Corrupt(format!("block {b} out of range")))?;
            let rows = col.meta.rows_in_block(b);
            if zone.rows as usize != rows {
                return Err(StoreError::Corrupt(format!(
                    "block {b} zone rows {} disagree with schema ({rows})",
                    zone.rows
                )));
            }
            run_len += zone.comp_len as usize;
        }
        // `read_meta` bounded the whole declared data region by the file
        // length, so `run_len` cannot exceed what the file held then.
        let first = run[0] as usize;
        let offset = col.offsets[first];
        payload.resize(run_len, 0);
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut payload)
            .map_err(|_| StoreError::Corrupt(format!("block {first} truncated")))?;
        let mut at = 0;
        for &b in run {
            let b = b as usize;
            let zone = &col.zones[b];
            let bytes = &payload[at..at + zone.comp_len as usize];
            at += zone.comp_len as usize;
            if crc32(bytes) != zone.crc {
                return Err(StoreError::Corrupt(format!("block {b} checksum mismatch")));
            }
            let n_values = col.meta.rows_in_block(b) * col.meta.ns as usize;
            pages.push(decode_block(zone, bytes, n_values, b)?);
        }
        run_start = run_end;
    }
    Ok(pages)
}

/// Reads one data block: the one-block case of `read_blocks`.
pub fn read_block(file: &mut File, col: &ColumnFile, b: usize) -> Result<Vec<f32>, StoreError> {
    let block =
        u32::try_from(b).map_err(|_| StoreError::Corrupt(format!("block {b} out of range")))?;
    let mut pages = read_blocks(file, col, &[block])?;
    Ok(pages.pop().expect("one block requested, one page read"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ColumnMeta {
        ColumnMeta {
            model_fp: 0xAB,
            dataset_fp: 0xCD,
            unit: 3,
            nd: 10,
            ns: 4,
            block_records: 4,
            completed_records: 10,
        }
    }

    fn column_data(m: &ColumnMeta) -> Vec<f32> {
        (0..(m.nd * m.ns) as usize)
            .map(|i| (i as f32) * 0.5 - 3.0)
            .collect()
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-store-tests")
            .join(format!("fmt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_read(name: &str, m: &ColumnMeta, data: &[f32]) -> (ColumnFile, Vec<Vec<f32>>) {
        let dir = test_dir(name);
        let path = dir.join("u.col");
        write_column_file(&path, m, data, None, 7).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let blocks = (0..col.meta.n_blocks())
            .map(|b| read_block(&mut f, &col, b).unwrap())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (col, blocks)
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The polynomial applied one bit at a time: shares no table with
    /// [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bitwise_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Every length around the 8-byte step (empty, tail only, whole
        // steps, steps + every tail length), then block-sized buffers.
        let lens = (0..=70).chain((0..32).map(|i| 71 + i * 257));
        for len in lens {
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}");
            // Stored checksums sit at arbitrary offsets of a read buffer.
            for skip in 1..buf.len().min(9) {
                assert_eq!(crc32(&buf[skip..]), crc32_bitwise(&buf[skip..]));
            }
        }
    }

    #[test]
    fn read_blocks_equals_block_by_block_reads_for_any_ascending_subset() {
        let m = ColumnMeta {
            nd: 23,
            completed_records: 23,
            ..meta()
        };
        // Constant, small-alphabet and raw stretches, so runs cross codecs.
        let data: Vec<f32> = (0..(m.nd * m.ns) as usize)
            .map(|i| match i / 16 {
                0 => 2.5,
                1 | 2 => (i % 3) as f32,
                _ => i as f32 * 0.37,
            })
            .collect();
        let dir = test_dir("read-blocks");
        let path = dir.join("u.col");
        write_column_file(&path, &m, &data, None, 7).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let n = col.meta.n_blocks();
        assert_eq!(n, 6);
        let single: Vec<Vec<u32>> = (0..n)
            .map(|b| {
                let page = read_block(&mut f, &col, b).unwrap();
                page.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        // Every non-empty subset of the six blocks: single blocks, full
        // runs, runs with gaps.
        for mask in 1u32..(1 << n) {
            let blocks: Vec<u32> = (0..n as u32).filter(|b| mask & (1 << b) != 0).collect();
            let pages = read_blocks(&mut f, &col, &blocks).unwrap();
            assert_eq!(pages.len(), blocks.len());
            for (page, &b) in pages.iter().zip(&blocks) {
                let bits: Vec<u32> = page.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, single[b as usize], "mask {mask:#b} block {b}");
            }
        }
        assert!(matches!(
            read_blocks(&mut f, &col, &[5, 6]),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_preserves_bits_and_zones() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("roundtrip");
        let path = dir.join("u3.col");
        let summary = write_column_file(&path, &m, &data, None, 42).unwrap();
        assert_eq!(summary.n_blocks, 3);
        assert_eq!(summary.raw_data_bytes, data.len() as u64 * 4);
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta, m);
        assert_eq!(col.access_stamp, 42);
        assert!(col.covered.is_none(), "complete columns carry no bitmap");
        assert_eq!(col.zones.len(), 3, "10 records at 4/block = 3 blocks");
        assert_eq!(col.zones[0].rows, 4);
        assert_eq!(col.zones[2].rows, 2, "tail block is short");
        let mut all = Vec::new();
        for b in 0..col.meta.n_blocks() {
            let block = read_block(&mut f, &col, b).unwrap();
            // Zone map brackets the block (all values finite here).
            assert!(!col.zones[b].has_non_finite);
            for &v in &block {
                assert!(v >= col.zones[b].min && v <= col.zones[b].max);
            }
            all.extend(block);
        }
        assert_eq!(all, data, "bit-identical roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nan_safe_zone_maps() {
        // Block 0 mixes NaN/Inf with finite values: min/max aggregate the
        // finite ones only and the non-finite flag is set. Block 1 is all
        // NaN: bounds are 0.0/0.0, never the inverted +inf/-inf the old
        // f32::min fold serialized.
        let m = ColumnMeta {
            nd: 8,
            ns: 1,
            completed_records: 8,
            ..meta()
        };
        let data = vec![
            1.0,
            f32::NAN,
            -2.0,
            f32::INFINITY,
            f32::NAN,
            f32::NAN,
            f32::NAN,
            f32::NAN,
        ];
        let (col, blocks) = write_read("nan-zones", &m, &data);
        let z0 = &col.zones[0];
        assert!(z0.has_non_finite);
        assert_eq!((z0.min, z0.max), (-2.0, 1.0), "finite-only bounds");
        let z1 = &col.zones[1];
        assert!(z1.has_non_finite);
        assert_eq!((z1.min, z1.max), (0.0, 0.0), "no inverted infinities");
        // Neither block is prunable: flagged blocks must always be read.
        assert_eq!(col.prunable_blocks(), 0);
        assert!(z0.constant_value().is_none());
        assert!(z1.constant_value().is_none());
        // Values (including every NaN bit pattern) roundtrip bit-exactly.
        let all: Vec<f32> = blocks.into_iter().flatten().collect();
        for (got, want) in all.iter().zip(&data) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // The all-NaN block is bit-uniform, so it stores as a (flagged,
        // unprunable) constant.
        assert_eq!(z1.codec, Codec::Constant);
    }

    #[test]
    fn constant_blocks_prune_and_mixed_zero_signs_do_not() {
        let m = ColumnMeta {
            nd: 8,
            ns: 2,
            completed_records: 8,
            ..meta()
        };
        // Block 0: one bit pattern — constant, prunable, 4-byte payload.
        // Block 1: +0.0 and -0.0 differ in bits — NOT constant (a scan
        // synthesizing one pattern would flip signs).
        let mut data = vec![0.75f32; 8];
        data.extend([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0]);
        let (col, blocks) = write_read("const-zero", &m, &data);
        let z0 = &col.zones[0];
        assert_eq!(z0.codec, Codec::Constant);
        assert_eq!(z0.comp_len, 4);
        assert_eq!(z0.constant_value(), Some(0.75));
        assert_eq!((z0.min, z0.max), (0.75, 0.75));
        let z1 = &col.zones[1];
        assert_ne!(z1.codec, Codec::Constant, "±0.0 mix is not constant");
        assert!(z1.constant_value().is_none());
        let all: Vec<f32> = blocks.into_iter().flatten().collect();
        for (got, want) in all.iter().zip(&data) {
            assert_eq!(got.to_bits(), want.to_bits(), "sign bits preserved");
        }
    }

    #[test]
    fn dict_codec_shrinks_saturated_blocks_bit_exactly() {
        // Saturated activations: two patterns over a 64-value block pack
        // to 1 bit each. 1 + 2*4 + 8 = 17 bytes vs 256 raw.
        let m = ColumnMeta {
            nd: 64,
            ns: 1,
            block_records: 64,
            completed_records: 64,
            ..meta()
        };
        let data: Vec<f32> = (0..64)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let (col, blocks) = write_read("dict", &m, &data);
        let z = &col.zones[0];
        assert_eq!(z.codec, Codec::Dict);
        assert_eq!(z.comp_len, 17);
        assert_eq!((z.min, z.max), (-1.0, 1.0));
        assert!(!z.has_non_finite);
        assert!(z.constant_value().is_none(), "dict blocks are never pruned");
        assert_eq!(blocks[0], data, "bit-identical through the dictionary");
        // High-cardinality data falls back to raw: the encoder never
        // chooses a codec that would grow the block.
        let varied: Vec<f32> = (0..64).map(|i| i as f32 * 0.125).collect();
        let (col, blocks) = write_read("dict-raw", &m, &varied);
        assert_eq!(col.zones[0].codec, Codec::Raw);
        assert_eq!(col.zones[0].comp_len, 256);
        assert_eq!(blocks[0], varied);
    }

    #[test]
    fn access_stamp_updates_in_place_without_breaking_validation() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("stamp");
        let path = dir.join("u3.col");
        write_column_file(&path, &m, &data, None, 1000).unwrap();
        assert_eq!(read_access_stamp(&path).unwrap(), Some(1000));
        // Through the same read-write handle a metadata read used.
        let mut rw = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        assert_eq!(read_meta(&mut rw).unwrap().access_stamp, 1000);
        write_access_stamp(&mut rw, 2000).unwrap();
        drop(rw);
        assert_eq!(read_access_stamp(&path).unwrap(), Some(2000));
        // The stamp is outside every checksum: the file still validates
        // and serves identical data after the in-place update — and even
        // after a torn/garbage stamp write.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[ACCESS_STAMP_OFFSET as usize] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let mut all = Vec::new();
        for b in 0..col.meta.n_blocks() {
            all.extend(read_block(&mut f, &col, b).unwrap());
        }
        assert_eq!(all, data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn codec_tag_and_payload_flips_are_detected() {
        let m = ColumnMeta {
            nd: 8,
            ns: 1,
            completed_records: 8,
            ..meta()
        };
        let data = vec![0.25f32; 8]; // constant: both blocks prunable
        let dir = test_dir("codec-flip");
        let path = dir.join("u.col");
        write_column_file(&path, &m, &data, None, 0).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Flip the codec tag of block 0 (byte 12 of the first zone entry):
        // the zone-table checksum must refuse it.
        let zone_start = (HEADER_LEN + SCHEMA_LEN) as usize;
        let mut evil = pristine.clone();
        evil[zone_start + 12] ^= 0x01;
        std::fs::write(&path, &evil).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // Flip a bit inside a compressed payload: the payload CRC must
        // refuse the block.
        let mut evil = pristine.clone();
        let n = evil.len();
        evil[n - 2] ^= 0x10;
        std::fs::write(&path, &evil).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let err = read_block(&mut f, &col, col.meta.n_blocks() - 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_column_roundtrips_watermark_and_bitmap() {
        // Positions 0, 3, 7 valid (watermark 3 of 10), densely packed
        // into a single data block.
        let m = ColumnMeta {
            completed_records: 3,
            ..meta()
        };
        let ns = m.ns as usize;
        let mut filled = vec![false; m.nd as usize];
        for p in [0usize, 3, 7] {
            filled[p] = true;
        }
        let bits = coverage_from_filled(&filled);
        let mut full = vec![0.0f32; (m.nd * m.ns) as usize];
        for p in [0usize, 3, 7] {
            for t in 0..ns {
                full[p * ns + t] = (p * 10 + t) as f32;
            }
        }
        let packed = pack_rows(&full, &filled, ns);
        assert_eq!(packed.len(), 3 * ns, "only valid rows are stored");
        let dir = test_dir("partial");
        let path = dir.join("u3.part");
        write_column_file(&path, &m, &packed, Some(&bits), 0).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta, m);
        assert!(!col.meta.is_complete());
        assert_eq!(col.meta.n_blocks(), 1, "3 packed rows at 4/block = 1 block");
        let covered = col.covered.clone().expect("partial columns carry a bitmap");
        for (p, &f) in filled.iter().enumerate() {
            assert_eq!(coverage_covers(&covered, p), f, "position {p}");
        }
        // The rank table maps positions to packed rows; the stored rows
        // are bit-identical to the originals.
        let ranks = coverage_ranks(&covered, m.nd as usize);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[3], 1);
        assert_eq!(ranks[7], 2);
        let block = read_block(&mut f, &col, 0).unwrap();
        for p in [0usize, 3, 7] {
            let row = ranks[p] as usize;
            assert_eq!(
                &block[row * ns..(row + 1) * ns],
                &full[p * ns..(p + 1) * ns],
                "position {p}"
            );
        }
        // Corrupting the bitmap (set an extra bit) is detected: either
        // the checksum disagrees or the popcount/watermark check fires.
        let mut bytes = std::fs::read(&path).unwrap();
        let cov_offset = (HEADER_LEN + SCHEMA_LEN + ZONE_ENTRY_LEN + 4) as usize;
        bytes[cov_offset] ^= 0x02; // flip position 1
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermark_past_record_count_is_corrupt() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("watermark");
        let path = dir.join("u3.col");
        write_column_file(&path, &m, &data, None, 0).unwrap();
        // Rewrite the schema with completed_records > nd and a valid CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        let bad = ColumnMeta {
            completed_records: m.nd + 1,
            ..m
        };
        bytes[HEADER_LEN as usize..(HEADER_LEN + SCHEMA_CHECKED_LEN) as usize]
            .copy_from_slice(&bad.to_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let err = read_meta(&mut f).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("watermark"), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_per_block() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("corrupt");
        let path = dir.join("u3.col");
        write_column_file(&path, &m, &data, None, 0).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        // Flip one byte inside block 1's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = col.data_offset(1).unwrap() as usize + 3;
        bytes[offset] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let err = read_block(&mut f, &col, 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        // Untouched block 0 still verifies.
        assert!(read_block(&mut f, &col, 0).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_trailing_byte_is_corrupt_on_complete_and_partial_columns() {
        let complete = meta();
        let partial = ColumnMeta {
            completed_records: 3,
            ..meta()
        };
        let mut filled = vec![false; partial.nd as usize];
        for p in [0usize, 3, 7] {
            filled[p] = true;
        }
        let bits = coverage_from_filled(&filled);
        let full = column_data(&complete);
        let packed = pack_rows(&full, &filled, partial.ns as usize);
        let dir = test_dir("tail");
        for (name, m, data, covered) in [
            ("u3.col", &complete, &full, None),
            ("u3.part", &partial, &packed, Some(&bits[..])),
        ] {
            let path = dir.join(name);
            write_column_file(&path, m, data, covered, 0).unwrap();
            let mut f = File::open(&path).unwrap();
            assert_eq!(&read_meta(&mut f).unwrap().meta, m, "{name} as written");
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.push(0);
            std::fs::write(&path, &bytes).unwrap();
            let mut f = File::open(&path).unwrap();
            let err = read_meta(&mut f).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(msg) if msg.contains("data region")),
                "{name} with a trailing byte: got {err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_bad_magic_are_corrupt() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("trunc");
        let path = dir.join("u3.col");
        write_column_file(&path, &m, &data, None, 0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncate inside the last data block: v3 validates the declared
        // data region against the file length up front.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // Truncate into the zone table.
        std::fs::write(&path, &bytes[..30]).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // Bad magic.
        let mut evil = bytes.clone();
        evil[0] = b'X';
        std::fs::write(&path, &evil).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // Header checksum mismatch (flip flags without recomputing crc).
        let mut evil = bytes.clone();
        evil[10] ^= 1;
        std::fs::write(&path, &evil).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // A well-formed header of the previous format version: refused
        // by version, exactly like version 1.
        let mut old = bytes.clone();
        old[8..10].copy_from_slice(&2u16.to_le_bytes());
        let crc = crc32(&old[..12]);
        old[12..16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        let mut f = File::open(&path).unwrap();
        let err = read_meta(&mut f).unwrap_err();
        assert_eq!(err, StoreError::Corrupt("unsupported version 2".into()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absurd_declared_shape_is_corrupt_not_a_giant_allocation() {
        // A schema whose CRC validates but declares nd huge must error
        // against the actual file length before sizing the zone table.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let absurd = ColumnMeta {
            nd: 1 << 40,
            block_records: 1,
            completed_records: 1 << 40,
            ..meta()
        };
        bytes.extend_from_slice(&absurd.to_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // access stamp
        let dir = test_dir("absurd");
        let path = dir.join("u.col");
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let err = read_meta(&mut f).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("zone table"), "got {err}");
        // Overflow-sized shapes are caught too.
        let mut overflow_bytes = bytes[..HEADER_LEN as usize].to_vec();
        let overflow = ColumnMeta {
            nd: u64::MAX / 2,
            block_records: 1,
            completed_records: u64::MAX / 2,
            ..meta()
        };
        overflow_bytes.extend_from_slice(&overflow.to_bytes());
        overflow_bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &overflow_bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_column_roundtrips() {
        let m = ColumnMeta {
            nd: 0,
            completed_records: 0,
            ..meta()
        };
        let dir = test_dir("empty");
        let path = dir.join("u.col");
        write_column_file(&path, &m, &[], None, 0).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta.n_blocks(), 0);
        assert!(col.zones.is_empty());
        assert!(col.covered.is_none(), "nd == 0 is complete by definition");
        assert_eq!(col.prunable_blocks(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// A 5-of-10 partial column (positions 0, 2, 3, 7, 9; `ns` 1, 4-record
    /// blocks, stamp 7) as the parent commit's `write_column` wrote it.
    const GOLDEN_PARTIAL_COLUMN: &[u8] = &[
        0x44, 0x42, 0x53, 0x42, 0x43, 0x4f, 0x4c, 0x00, 0x03, 0x00, 0x00, 0x00, 0x63, 0x59, 0xad,
        0x1b, 0xab, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xcd, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xb9, 0x34, 0x09,
        0xa8, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00,
        0x08, 0x41, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x9a,
        0x5f, 0x8c, 0x70, 0x00, 0x00, 0x38, 0x41, 0x00, 0x00, 0x38, 0x41, 0x01, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0xe1, 0x12, 0x00, 0x37, 0x4b, 0xe2, 0xd9,
        0xf4, 0x8d, 0x02, 0xd5, 0x95, 0xfa, 0x21, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00, 0x80, 0x3f,
        0x00, 0x00, 0x20, 0x40, 0x00, 0x00, 0x08, 0x41, 0x00, 0x00, 0x38, 0x41,
    ];

    #[test]
    fn the_partial_column_bytes_did_not_move() {
        let m = ColumnMeta {
            ns: 1,
            completed_records: 5,
            ..meta()
        };
        let mut filled = vec![false; 10];
        let mut full = vec![0.0f32; 10];
        for p in [0usize, 2, 3, 7, 9] {
            filled[p] = true;
            full[p] = p as f32 * 1.5 - 2.0;
        }
        let bits = coverage_from_filled(&filled);
        let packed = pack_rows(&full, &filled, 1);
        let mut out = Vec::new();
        write_column(&mut out, &m, &packed, Some(&bits), 7).unwrap();
        assert_eq!(out, GOLDEN_PARTIAL_COLUMN);

        let dir = test_dir("golden");
        let path = dir.join("u3.part");
        std::fs::write(&path, GOLDEN_PARTIAL_COLUMN).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta, m);
        assert_eq!(col.covered.as_deref(), Some(&bits[..]));
        assert_eq!(col.access_stamp, 7);
        assert_eq!(read_block(&mut f, &col, 0).unwrap(), packed[..4]);
        assert_eq!(read_block(&mut f, &col, 1).unwrap(), packed[4..]);
        // Every truncation — header, schema, zones, coverage, data — is
        // corruption at validation time, never a panic.
        for cut in 0..GOLDEN_PARTIAL_COLUMN.len() {
            std::fs::write(&path, &GOLDEN_PARTIAL_COLUMN[..cut]).unwrap();
            let err = read_meta(&mut File::open(&path).unwrap()).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "prefix {cut}: {err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
