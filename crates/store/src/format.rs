//! The self-describing column file format.
//!
//! One file persists one unit-behavior column: the behaviors of a single
//! hidden unit over the records of a dataset (or segment), `ns` f32 values
//! per stored row and one row per record, the rows in the order they were
//! written. A pass writes its own stream order, so the rows a later pass
//! with the same order reads for one streamed block are one contiguous
//! row range. The v4 layout (all integers little-endian):
//!
//! ```text
//! header    magic "DBSBCOL\0" (8) | version u16 | flags u16 | crc32 u32
//! schema    model_fp u64 | dataset_fp u64 | unit u64 | nd u64 | ns u64
//!           | block_records u64 | completed_records u64 | crc32 u32
//!           | access_stamp u64 (NOT covered by the crc — see below)
//! zones     per data block: min f32 | max f32 | rows u32 | codec u8
//!           | flags u8 (bit0 = has_non_finite) | reserved u16 (zero)
//!           | comp_len u32 | payload crc32 u32
//!           then crc32 u32 over the zone table
//! positions rows u64 (== completed_records) | rows × u32 record position
//!           (stored row i holds record position `positions[i]`)
//!           | crc32 u32 over the count and the positions
//! data      per block: `comp_len` bytes of encoded payload, blocks
//!           back-to-back in index order (offsets are the prefix sums of
//!           the zone table's `comp_len` fields)
//! ```
//!
//! ## Stored order
//!
//! The positions section names the record behind every stored row: each
//! is below `nd` and none repeats. A streamed pass writes its stream
//! order (a column of `W` rows is always the first `W` records of that
//! stream); `BehaviorStore::write_column` writes record order, and
//! `BehaviorStore::write_columns` whatever positions it is given. A
//! column fetch reads a block's stored rows as runs: a pass compares a
//! column's positions with its own order once, and when they are its
//! prefix each stream block is one run; any other fetch inverts the
//! positions and merges consecutive stored rows into runs.
//!
//! ## Per-block codecs
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
//!   order), then bit-packed indices of `w = ceil(log2(entries))` bits
//!   each. Index `i` sits at bit `(i·w) mod 8` of packed byte
//!   `⌊i·w/8⌋`, least significant bit first, and may run on into the
//!   next byte; the bits of the final byte past the last index (slack
//!   bits) are zero. Chosen only when strictly smaller than raw —
//!   saturated activations (±1 under tanh) pack 32x. A two-entry
//!   dictionary (1-bit indices) decodes a whole packed byte per step;
//!   wider indices decode through a bit accumulator.
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
//! `completed_records` is the column's **watermark**: how many rows hold
//! real extractor output. A *complete* column has `completed_records ==
//! nd`; a *partial* column — the persisted prefix of an early-stopped
//! streaming pass — holds fewer rows, and its positions section names
//! exactly which records they are: the first `completed_records` of the
//! stream that wrote it. The watermark is the only record of
//! completeness: a partial column and a complete one share the file name
//! `u<unit>.col`, and extending or completing a partial column replaces
//! that one file.
//!
//! ## Other versions
//!
//! Only version 4 is read. A file declaring any other version (the
//! record-ordered version 3 with its coverage bitmap included) reads as
//! corrupt, is quarantined under a read-write policy, and re-materializes
//! from live extraction — the store is a cache of recomputable data, so
//! there is no migration.

use crate::StoreError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic for behavior-column files.
pub(crate) const MAGIC: [u8; 8] = *b"DBSBCOL\0";
/// The one format version written and read (4 stores rows in the writer's
/// order with a positions section; 3 added per-block codecs, NaN-safe
/// zone flags and access stamps; 2 added the completed-record watermark;
/// files of other versions read as corrupt and re-materialize).
pub(crate) const VERSION: u16 = 4;

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
/// Slots of the encoder's dictionary hash table: a power of two over
/// twice [`DICT_MAX_ENTRIES`], so a probe ends within a few slots.
const DICT_SLOTS: usize = 512;

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

/// CRC32 (IEEE) of a byte slice: 64 bytes per step by carry-less multiply
/// when the CPU has `pclmulqdq` and `sse4.1` and the input is at least
/// 128 bytes, else eight bytes per step (slicing-by-8). Both compute the
/// same checksum.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 128
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::crc32` only adds the `pclmulqdq` and `sse4.1`
        // target features to safe code, and the checks above saw that this
        // CPU supports both.
        return unsafe { clmul::crc32(bytes) };
    }
    !crc32_sliced(0xffff_ffff, bytes)
}

/// Folds `bytes` into the CRC register `crc` (not inverted) eight bytes
/// per step and returns the register.
fn crc32_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// CRC32 by carry-less multiplication (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009, in its
/// bit-reflected form): four 128-bit lanes fold 64 input bytes per step,
/// fold into one lane, fold 16 bytes per step, reduce 128 → 64 bits and
/// finish with a Barrett reduction; the tail under 16 bytes goes through
/// [`crc32_sliced`]. The constants are `x^k mod P(x)` for the reflected
/// IEEE polynomial `P`, bit-reflected and shifted as the paper derives.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold-by-4 constants: `x^(4·128+32) mod P` and `x^(4·128−32) mod P`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold-by-1 constants: `x^(128+32) mod P` and `x^(128−32) mod P`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 64 → 32-bit fold: `x^64 mod P`.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial and its Barrett constant `⌊x^64 / P⌋`, reflected.
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// The next 16 input bytes as one lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn take(bytes: &mut &[u8]) -> __m128i {
        let (head, rest) = bytes.split_at(16);
        *bytes = rest;
        let lo = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(head[8..].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `a` carried 128 (or 512) bits forward by `keys`, xor-ed into `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// CRC32 (IEEE) of `bytes`, which must hold at least 64 bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(mut bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= 64);
        let mut x3 = take(&mut bytes);
        let mut x2 = take(&mut bytes);
        let mut x1 = take(&mut bytes);
        let mut x0 = take(&mut bytes);
        // The initial register, all ones.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(-1));
        let k1k2 = _mm_set_epi64x(K2, K1);
        while bytes.len() >= 64 {
            x3 = fold(x3, take(&mut bytes), k1k2);
            x2 = fold(x2, take(&mut bytes), k1k2);
            x1 = fold(x1, take(&mut bytes), k1k2);
            x0 = fold(x0, take(&mut bytes), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while bytes.len() >= 16 {
            x = fold(x, take(&mut bytes), k3k4);
        }
        // 128 → 64 bits, then 64 → 32 + 32.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·µ, T2 = (T1 mod x^32)·P, CRC = (R ^ T2) / x^32.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        !super::crc32_sliced(crc, bytes)
    }
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
    /// The watermark: stored rows holding real extractor output, one per
    /// record. `== nd` for a complete column; `< nd` for the persisted
    /// prefix of an early-stopped pass (the positions section names which
    /// records).
    pub completed_records: u64,
}

impl ColumnMeta {
    /// True when every record has a stored row.
    pub(crate) fn is_complete(&self) -> bool {
        self.completed_records == self.nd
    }

    /// Rows stored in the data region (the watermark).
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

    /// Block holding stored row `row`.
    pub fn block_of(&self, row: usize) -> usize {
        row / self.block_records as usize
    }

    /// Bytes of the positions section (count, positions, crc32), or
    /// `None` when they overflow.
    fn positions_len(&self) -> Option<u64> {
        self.completed_records.checked_mul(4)?.checked_add(8 + 4)
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

/// The home slot of a bit pattern in the encoder's dictionary table
/// (Fibonacci hashing: the top bits of the pattern times 2^32 / φ).
fn dict_slot(bits: u32) -> usize {
    (bits.wrapping_mul(0x9e37_79b9) >> (32 - DICT_SLOTS.trailing_zeros())) as usize
}

/// The dictionary of a block's bit patterns in first-seen order and each
/// value's entry number, or `None` past [`DICT_MAX_ENTRIES`] patterns.
/// A value is found in O(1): an open-addressing table on the stack maps a
/// pattern's slot (linear probing from [`dict_slot`]) to its entry number
/// plus one, 0 marking an empty slot.
fn dict_entries(values: &[f32]) -> Option<(Vec<u32>, Vec<u8>)> {
    let mut table = [0u16; DICT_SLOTS];
    let mut dict: Vec<u32> = Vec::new();
    let mut indices: Vec<u8> = Vec::with_capacity(values.len());
    for &v in values {
        let bits = v.to_bits();
        let mut slot = dict_slot(bits);
        let idx = loop {
            match table[slot] {
                0 => {
                    if dict.len() == DICT_MAX_ENTRIES {
                        return None;
                    }
                    dict.push(bits);
                    table[slot] = dict.len() as u16;
                    break dict.len() - 1;
                }
                e if dict[e as usize - 1] == bits => break e as usize - 1,
                _ => slot = (slot + 1) % DICT_SLOTS,
            }
        };
        indices.push(idx as u8);
    }
    Some((dict, indices))
}

/// Dictionary-encodes a block when it is strictly smaller than raw:
/// `[entries u8][entries * 4B f32 bits, first-seen order][bit-packed
/// indices, zero slack]`. `None` when the block has too many distinct
/// patterns or the encoding would not shrink it.
fn try_dict_encode(values: &[f32]) -> Option<Vec<u8>> {
    let (dict, indices) = dict_entries(values)?;
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
    let packed = &payload[dict_end..];
    let entry = |k: usize| u32::from_le_bytes(payload[1 + 4 * k..5 + 4 * k].try_into().unwrap());
    if width == 1 {
        return unpack_one_bit(packed, n_values, [entry(0), entry(1)], b);
    }
    let dict: Vec<f32> = (0..entries).map(|k| f32::from_bits(entry(k))).collect();
    unpack_bits(width, packed, n_values, &dict, b)
}

/// The values of a two-entry (1-bit) dictionary block, one packed byte
/// per step: bit `k` of byte `j` selects between the two entries' bit
/// patterns for value `8j + k`, a select that vectorises where a table
/// load per value does not. Every 1-bit index is in range, so the one
/// fault left past the length check is a set slack bit in a final
/// partial byte.
fn unpack_one_bit(
    packed: &[u8],
    n_values: usize,
    entries: [u32; 2],
    b: usize,
) -> Result<Vec<f32>, StoreError> {
    let (full, tail) = (n_values / 8, n_values % 8);
    if tail > 0 && packed[full] >> tail != 0 {
        return Err(slack_bits(b));
    }
    let (first, flip) = (entries[0], entries[0] ^ entries[1]);
    let unpack = |values: &mut [f32], byte: u8| {
        for (k, v) in values.iter_mut().enumerate() {
            let bit = u32::from(byte >> k) & 1;
            *v = f32::from_bits(first ^ (flip & bit.wrapping_neg()));
        }
    };
    let mut out = vec![0f32; n_values];
    let (body, rest) = out.split_at_mut(full * 8);
    for (values, &byte) in body.chunks_exact_mut(8).zip(packed) {
        unpack(values, byte);
    }
    if tail > 0 {
        unpack(rest, packed[full]);
    }
    Ok(out)
}

/// The values of a dictionary block of any width through a refilling bit
/// accumulator, refusing the first index past the dictionary, then set
/// slack bits.
fn unpack_bits(
    width: usize,
    packed: &[u8],
    n_values: usize,
    dict: &[f32],
    b: usize,
) -> Result<Vec<f32>, StoreError> {
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
        return Err(slack_bits(b));
    }
    Ok(out)
}

/// The error of a dictionary block whose final byte sets a slack bit.
fn slack_bits(b: usize) -> StoreError {
    StoreError::Corrupt(format!("block {b} dict payload has non-zero slack bits"))
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

/// Serializes a column into `w` in the v4 format above. Stored row `i`
/// holds record position `positions[i]` and the values
/// `data[i * ns..(i + 1) * ns]`; there is one position per stored row
/// (`positions.len() == completed_records`), each below `nd` and none
/// repeated. `access_stamp` seeds the uncovered eviction hint (milliseconds since
/// the Unix epoch).
pub(crate) fn write_column<W: Write>(
    w: &mut W,
    meta: &ColumnMeta,
    data: &[f32],
    positions: &[u32],
    access_stamp: u64,
) -> Result<WriteSummary, StoreError> {
    debug_assert_eq!(data.len() as u64, meta.data_records() * meta.ns);
    debug_assert_eq!(positions.len() as u64, meta.completed_records);
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
    let mut section = Vec::with_capacity(8 + positions.len() * 4 + 4);
    section.extend_from_slice(&(positions.len() as u64).to_le_bytes());
    for &p in positions {
        section.extend_from_slice(&p.to_le_bytes());
    }
    let section_crc = crc32(&section);
    section.extend_from_slice(&section_crc.to_le_bytes());
    w.write_all(&section)?;
    for payload in &payloads {
        w.write_all(payload)?;
    }
    Ok(summary)
}

/// Writes a column file atomically (`crate::durable::publish`), under
/// `write_column`'s contract.
pub fn write_column_file(
    path: &Path,
    meta: &ColumnMeta,
    data: &[f32],
    positions: &[u32],
    access_stamp: u64,
) -> Result<WriteSummary, StoreError> {
    crate::durable::publish(path, |file| {
        write_column(file, meta, data, positions, access_stamp)
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
/// table with per-block payload offsets, and the positions section.
#[derive(Debug, Clone)]
pub struct ColumnFile {
    /// The schema section.
    pub meta: ColumnMeta,
    /// The zone table (one entry per data block).
    pub zones: Vec<ZoneEntry>,
    /// The record position of every stored row, in stored order.
    pub positions: Vec<u32>,
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

/// Reads and validates the header, schema, zone table and positions
/// section of a column file, in two positional reads: the header, schema
/// and access stamp, then the zone table and positions. Any mismatch
/// (magic, version, checksum, truncation, trailing bytes, a positions
/// section that disagrees with the watermark or the record count, or
/// that names a record twice) is [`StoreError::Corrupt`].
pub fn read_meta(file: &mut File) -> Result<ColumnFile, StoreError> {
    let too_small = |what: &str| StoreError::Corrupt(format!("file too small for {what}"));
    let mut prefix = [0u8; (HEADER_LEN + SCHEMA_LEN) as usize];
    let got = read_at_most(file, &mut prefix, 0);
    let (header, rest) = prefix.split_at(HEADER_LEN as usize);
    let (schema, stamp) = rest.split_at(SCHEMA_CHECKED_LEN as usize);
    if got < header.len() {
        return Err(too_small("header"));
    }
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
    if got < header.len() + schema.len() {
        return Err(too_small("schema"));
    }
    let meta = ColumnMeta::from_bytes(schema.try_into().expect("the schema's length"))?;
    if got < prefix.len() {
        return Err(too_small("access stamp"));
    }
    let access_stamp = u64::from_le_bytes(stamp.try_into().expect("eight stamp bytes"));
    let n_blocks = meta.n_blocks();
    // Bound the zone-table and positions allocations by the actual file
    // length before trusting the declared shape: a schema whose CRC
    // happens to validate but declares an absurd `nd` must surface as
    // corruption, not as a giant allocation.
    let zone_len = (n_blocks as u64)
        .checked_mul(ZONE_ENTRY_LEN)
        .and_then(|z| z.checked_add(4))
        .ok_or_else(|| StoreError::Corrupt("zone table size overflows".into()))?;
    let positions_len = meta
        .positions_len()
        .ok_or_else(|| StoreError::Corrupt("positions section size overflows".into()))?;
    let sections = zone_len
        .checked_add(positions_len)
        .and_then(|s| s.checked_add(HEADER_LEN + SCHEMA_LEN))
        .ok_or_else(|| StoreError::Corrupt("section sizes overflow".into()))?;
    let file_len = file.metadata()?.len();
    if sections > file_len {
        return Err(StoreError::Corrupt(format!(
            "declared shape needs {sections} bytes of zone table and \
             positions but the file holds {file_len} bytes"
        )));
    }
    let mut tail = vec![0u8; (zone_len + positions_len) as usize];
    let got = read_at_most(file, &mut tail, HEADER_LEN + SCHEMA_LEN);
    let (zone_bytes, section) = tail.split_at(zone_len as usize);
    if got < zone_bytes.len() {
        return Err(too_small("zone table"));
    }
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
    if got < tail.len() {
        return Err(too_small("positions"));
    }
    let positions = decode_positions(section, &meta)?;
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
        positions,
        access_stamp,
        offsets,
    })
}

/// Decodes and validates a positions section (count, positions, crc32):
/// the count is the watermark, every position is below `nd` and none
/// repeats.
fn decode_positions(section: &[u8], meta: &ColumnMeta) -> Result<Vec<u32>, StoreError> {
    let repeated = |p: u32| StoreError::Corrupt(format!("record position {p} is stored twice"));
    let (body, crc_bytes) = section.split_at(section.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Err(StoreError::Corrupt(
            "positions section checksum mismatch".into(),
        ));
    }
    let rows = u64::from_le_bytes(body[..8].try_into().unwrap());
    if rows != meta.completed_records {
        return Err(StoreError::Corrupt(format!(
            "positions section holds {rows} rows but the watermark says {}",
            meta.completed_records
        )));
    }
    // Repeats are caught by a bitmap over the records when it takes no
    // more words than there are stored rows (every complete column, and
    // a partial one over more than a 64th of its records), else by a
    // sort: the check allocates per stored row, never per declared
    // record.
    let words = (meta.nd as usize).div_ceil(64);
    let mut seen = vec![0u64; if words <= rows as usize { words } else { 0 }];
    let mut positions = Vec::with_capacity(rows as usize);
    for c in body[8..].chunks_exact(4) {
        let p = u32::from_le_bytes(c.try_into().unwrap());
        if p as u64 >= meta.nd {
            return Err(StoreError::Corrupt(format!(
                "a stored row names record position {p} of {}",
                meta.nd
            )));
        }
        if let Some(word) = seen.get_mut(p as usize / 64) {
            let bit = 1u64 << (p % 64);
            if *word & bit != 0 {
                return Err(repeated(p));
            }
            *word |= bit;
        }
        positions.push(p);
    }
    if seen.is_empty() {
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(repeated(w[0]));
        }
    }
    Ok(positions)
}

/// Reads the data blocks `blocks` (ascending, distinct) through one
/// handle, verifying each payload's checksum against its zone entry and
/// decoding it per the zone's codec. Runs of consecutive block indices sit
/// back to back in the file, so each run costs one positional read.
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
        if read_at_most(file, &mut payload, offset) < run_len {
            return Err(StoreError::Corrupt(format!("block {first} truncated")));
        }
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

/// Reads from byte `offset` until `buf` is full or the file ends, and
/// returns how many bytes it read. A read error ends it as the end of the
/// file does, so the caller's length check names what is missing.
fn read_at_most(file: &File, buf: &mut [u8], offset: u64) -> usize {
    let mut got = 0;
    while got < buf.len() {
        match read_at(file, &mut buf[got..], offset + got as u64) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    got
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    file.seek(SeekFrom::Start(offset))?;
    file.read(buf)
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

    /// Record order: stored row `i` holds record `i`.
    fn record_order(rows: u64) -> Vec<u32> {
        (0..rows as u32).collect()
    }

    /// Writes `data` as `m`'s rows in record order.
    fn write_ordered(path: &Path, m: &ColumnMeta, data: &[f32], stamp: u64) -> WriteSummary {
        let positions = record_order(m.completed_records);
        write_column_file(path, m, data, &positions, stamp).unwrap()
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
        write_ordered(&path, m, data, 7);
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
            let sliced = |b: &[u8]| !crc32_sliced(0xffff_ffff, b);
            assert_eq!(sliced(&buf), crc32_bitwise(&buf), "len {len}");
            // Stored checksums sit at arbitrary offsets of a read buffer.
            for skip in 1..buf.len().min(9) {
                assert_eq!(sliced(&buf[skip..]), crc32_bitwise(&buf[skip..]));
            }
        }
    }

    #[test]
    fn dispatched_crc32_equals_the_bitwise_reference() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Every length across the 128-byte switch to carry-less multiply,
        // its 64-byte and 16-byte folds and every tail, at the offsets a
        // read buffer puts a checksummed range.
        let buf: Vec<u8> = (0..1027).map(|_| next() as u8).collect();
        for len in 0..=1024 {
            for skip in [0, 1, 3] {
                let b = &buf[skip..skip + len];
                assert_eq!(crc32(b), crc32_bitwise(b), "len {len} at {skip}");
            }
        }
        for _ in 0..4 {
            let big: Vec<u8> = (0..64 << 10).map(|_| next() as u8).collect();
            assert_eq!(crc32(&big), crc32_bitwise(&big));
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
        write_ordered(&path, &m, &data, 7);
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
        let summary = write_ordered(&path, &m, &data, 42);
        assert_eq!(summary.n_blocks, 3);
        assert_eq!(summary.raw_data_bytes, data.len() as u64 * 4);
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta, m);
        assert_eq!(col.access_stamp, 42);
        assert_eq!(col.positions, record_order(10), "one position per row");
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
        write_ordered(&path, &m, &data, 1000);
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
        write_ordered(&path, &m, &data, 0);
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

    /// A 3-of-10 stream prefix: the records at positions 7, 0 and 3, in
    /// that order, written as the stream met them.
    fn stream_prefix() -> (ColumnMeta, Vec<u32>, Vec<f32>) {
        let positions = vec![7u32, 0, 3];
        let m = ColumnMeta {
            completed_records: 3,
            ..meta()
        };
        let ns = m.ns as usize;
        let rows = positions
            .iter()
            .flat_map(|&p| (0..ns).map(move |t| (p as usize * 10 + t) as f32))
            .collect();
        (m, positions, rows)
    }

    #[test]
    fn partial_column_roundtrips_watermark_and_positions() {
        let (m, positions, rows) = stream_prefix();
        let dir = test_dir("partial");
        let path = dir.join("u3.col");
        write_column_file(&path, &m, &rows, &positions, 0).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta, m);
        assert!(!col.meta.is_complete());
        assert_eq!(col.meta.n_blocks(), 1, "3 stored rows at 4/block = 1 block");
        assert_eq!(col.positions, positions, "stored order, not record order");
        assert_eq!(read_block(&mut f, &col, 0).unwrap(), rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// File offset of the positions section of a `meta`-shaped file.
    fn positions_offset(m: &ColumnMeta) -> usize {
        (HEADER_LEN + SCHEMA_LEN + m.n_blocks() as u64 * ZONE_ENTRY_LEN + 4) as usize
    }

    /// Replaces a file's positions section with `count` and `positions`
    /// under a checksum that validates, the rest of the file as written.
    fn forge_positions(bytes: &[u8], m: &ColumnMeta, count: u64, positions: &[u32]) -> Vec<u8> {
        let at = positions_offset(m);
        let old_len = 8 + m.completed_records as usize * 4 + 4;
        let mut section = count.to_le_bytes().to_vec();
        for p in positions {
            section.extend_from_slice(&p.to_le_bytes());
        }
        let crc = crc32(&section);
        section.extend_from_slice(&crc.to_le_bytes());
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(&section);
        out.extend_from_slice(&bytes[at + old_len..]);
        out
    }

    #[test]
    fn repeats_are_refused_by_the_bitmap_and_by_the_sort() {
        let section = |positions: &[u32]| {
            let mut out = (positions.len() as u64).to_le_bytes().to_vec();
            positions.iter().for_each(|p| out.extend(p.to_le_bytes()));
            let crc = crc32(&out);
            out.extend(crc.to_le_bytes());
            out
        };
        // 3 rows of 130 records take the bitmap (3 words), of 1,000 the
        // sort (16 words).
        for nd in [130, 1000] {
            let m = ColumnMeta {
                nd,
                completed_records: 3,
                ..meta()
            };
            let ok = decode_positions(&section(&[129, 0, 64]), &m).unwrap();
            assert_eq!(ok, [129, 0, 64]);
            let err = decode_positions(&section(&[64, 0, 64]), &m).unwrap_err();
            assert_eq!(
                err.to_string(),
                "store corruption: record position 64 is stored twice"
            );
        }
    }

    #[test]
    fn a_positions_section_that_disagrees_with_the_schema_is_corrupt() {
        let (m, positions, rows) = stream_prefix();
        let dir = test_dir("positions");
        let path = dir.join("u3.col");
        write_column_file(&path, &m, &rows, &positions, 0).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        assert_eq!(
            forge_positions(&pristine, &m, 3, &positions),
            pristine,
            "the forger rewrites the section the writer wrote"
        );
        let read = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            read_meta(&mut File::open(&path).unwrap()).map(|col| col.positions)
        };
        let corrupt = |bytes: Vec<u8>, what: &str| {
            let err = read(&bytes).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(msg) if msg.contains(what)),
                "{what}: got {err:?}"
            );
        };
        // A count other than the watermark, with the file's length kept.
        corrupt(forge_positions(&pristine, &m, 2, &positions), "watermark");
        // A position past the record count.
        corrupt(forge_positions(&pristine, &m, 3, &[7, 10, 3]), "of 10");
        // A record stored twice.
        corrupt(forge_positions(&pristine, &m, 3, &[7, 0, 7]), "twice");
        // A valid section of another order reads: which order a column
        // is stored in is the pass's question, not the decoder's.
        assert_eq!(
            read(&forge_positions(&pristine, &m, 3, &[0, 3, 7])).unwrap(),
            [0, 3, 7]
        );
        // A flipped position byte fails the section's checksum.
        let mut flipped = pristine.clone();
        flipped[positions_offset(&m) + 8] ^= 0x01;
        corrupt(flipped, "positions section checksum");
        assert_eq!(read(&pristine).unwrap(), positions);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermark_past_record_count_is_corrupt() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("watermark");
        let path = dir.join("u3.col");
        write_ordered(&path, &m, &data, 0);
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
        write_ordered(&path, &m, &data, 0);
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
        let full = column_data(&complete);
        let (partial, prefix, rows) = stream_prefix();
        let order = record_order(complete.nd);
        let dir = test_dir("tail");
        for (name, m, data, positions) in [
            ("u3.col", &complete, &full, &order),
            ("u4.col", &partial, &rows, &prefix),
        ] {
            let path = dir.join(name);
            write_column_file(&path, m, data, positions, 0).unwrap();
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
        write_ordered(&path, &m, &data, 0);
        let bytes = std::fs::read(&path).unwrap();
        // Truncate inside the last data block: `read_meta` validates the
        // declared data region against the file length up front.
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
        // A well-formed header of an earlier format version: refused by
        // version.
        for version in [2u16, 3] {
            let mut old = bytes.clone();
            old[8..10].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&old[..12]);
            old[12..16].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &old).unwrap();
            let mut f = File::open(&path).unwrap();
            let err = read_meta(&mut f).unwrap_err();
            let want = format!("unsupported version {version}");
            assert_eq!(err, StoreError::Corrupt(want));
        }
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
        write_ordered(&path, &m, &[], 0);
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta.n_blocks(), 0);
        assert!(col.zones.is_empty());
        assert!(col.positions.is_empty());
        assert!(col.meta.is_complete(), "nd == 0 is complete by definition");
        assert_eq!(col.prunable_blocks(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// A 5-of-10 partial column (positions 0, 2, 3, 7, 9 in record order;
    /// `ns` 1, 4-record blocks, stamp 7, a coverage bitmap) as the
    /// version 3 writer wrote it.
    const GOLDEN_V3_PARTIAL_COLUMN: &[u8] = &[
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
    fn a_version_3_column_reads_as_corrupt() {
        let dir = test_dir("v3");
        let path = dir.join("u3.col");
        std::fs::write(&path, GOLDEN_V3_PARTIAL_COLUMN).unwrap();
        let err = read_meta(&mut File::open(&path).unwrap()).unwrap_err();
        assert_eq!(err, StoreError::Corrupt("unsupported version 3".into()));
        assert_eq!(read_access_stamp(&path).unwrap(), None, "coldest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 5-of-10 stream prefix (positions 9, 2, 7, 0, 3; `ns` 1, 4-record
    /// blocks, stamp 7) as the version 4 writer writes it.
    const GOLDEN_PARTIAL_COLUMN: &[u8] = &[
        0x44, 0x42, 0x53, 0x42, 0x43, 0x4f, 0x4c, 0x00, 0x04, 0x00, 0x00, 0x00, 0xda, 0x61, 0x7a,
        0x86, 0xab, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xcd, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xb9, 0x34, 0x09,
        0xa8, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00,
        0x38, 0x41, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0xdf,
        0x6e, 0x06, 0x11, 0x00, 0x00, 0x20, 0x40, 0x00, 0x00, 0x20, 0x40, 0x01, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x2e, 0xba, 0x1c, 0xc2, 0x5f, 0x65, 0x7e,
        0x78, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x76,
        0xf0, 0x23, 0x9e, 0x00, 0x00, 0x38, 0x41, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x08, 0x41,
        0x00, 0x00, 0x00, 0xc0, 0x00, 0x00, 0x20, 0x40,
    ];

    #[test]
    fn the_partial_column_bytes_did_not_move() {
        let positions = [9u32, 2, 7, 0, 3];
        let m = ColumnMeta {
            ns: 1,
            completed_records: 5,
            ..meta()
        };
        let rows: Vec<f32> = positions.iter().map(|&p| p as f32 * 1.5 - 2.0).collect();
        let mut out = Vec::new();
        write_column(&mut out, &m, &rows, &positions, 7).unwrap();
        assert_eq!(out, GOLDEN_PARTIAL_COLUMN);

        let dir = test_dir("golden");
        let path = dir.join("u3.col");
        std::fs::write(&path, GOLDEN_PARTIAL_COLUMN).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta, m);
        assert_eq!(col.positions, positions);
        assert_eq!(col.access_stamp, 7);
        assert_eq!(read_block(&mut f, &col, 0).unwrap(), rows[..4]);
        assert_eq!(read_block(&mut f, &col, 1).unwrap(), rows[4..]);
        // Every truncation — header, schema, zones, positions, data — is
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

    /// The dictionary search the hashed table replaced: a linear scan of
    /// the entries.
    fn dict_entries_linear(values: &[f32]) -> Option<(Vec<u32>, Vec<u8>)> {
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
        Some((dict, indices))
    }

    /// The bit patterns over a 1,024-value block, each first seen in a
    /// scattered order, then repeated.
    fn block_of_distinct(patterns: &[u32]) -> Vec<f32> {
        (0..1024)
            .map(|i| f32::from_bits(patterns[(i * 37) % patterns.len()]))
            .collect()
    }

    #[test]
    fn the_hashed_dictionary_equals_the_linear_search() {
        // Patterns whose home slots all collide: probing chains of up to
        // 255 entries.
        let colliding: Vec<u32> = (0u32..)
            .map(|i| i.wrapping_mul(0x0101_0101) ^ 0x3f00_0000)
            .filter(|&b| dict_slot(b) == dict_slot(0x3f00_0000))
            .take(256)
            .collect();
        let spread: Vec<u32> = (0..256u32)
            .map(|i| (i as f32 * 0.37 - 9.0).to_bits())
            .collect();
        for patterns in [&colliding, &spread] {
            for distinct in [2, 17, 254, 255, 256] {
                let values = block_of_distinct(&patterns[..distinct]);
                let hashed = dict_entries(&values);
                assert_eq!(hashed, dict_entries_linear(&values), "{distinct}");
                assert_eq!(hashed.is_none(), distinct > DICT_MAX_ENTRIES);
                assert_eq!(
                    try_dict_encode(&values).is_some(),
                    distinct <= DICT_MAX_ENTRIES,
                    "{distinct} patterns over 1,024 values pack below raw"
                );
            }
        }
        // ±0.0 and NaN payloads are distinct patterns.
        let signed = [0.0f32, -0.0, f32::NAN, f32::from_bits(0x7fc0_0001), 1.0];
        let values: Vec<f32> = (0..64).map(|i| signed[i % 5]).collect();
        assert_eq!(dict_entries(&values), dict_entries_linear(&values));
    }

    #[test]
    fn dict_blocks_round_trip_at_the_dictionary_edges() {
        let colliding: Vec<u32> = (0u32..)
            .map(|i| (i << 9) | 0x4000_0000)
            .filter(|&b| dict_slot(b) < 4)
            .take(256)
            .collect();
        let m = ColumnMeta {
            nd: 1024,
            ns: 1,
            block_records: 1024,
            completed_records: 1024,
            ..meta()
        };
        let spread: Vec<u32> = (0..256u32)
            .map(|i| (i as f32 * 0.37 - 9.0).to_bits())
            .collect();
        for (name, patterns) in [("collide", &colliding), ("spread", &spread)] {
            for distinct in [254, 255, 256] {
                let data = block_of_distinct(&patterns[..distinct]);
                let (col, blocks) = write_read(&format!("dict-{name}-{distinct}"), &m, &data);
                let codec = if distinct <= DICT_MAX_ENTRIES {
                    Codec::Dict
                } else {
                    Codec::Raw
                };
                assert_eq!(col.zones[0].codec, codec, "{name} {distinct}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&blocks[0]), bits(&data), "{name} {distinct}");
            }
        }
    }

    /// Dictionary entry `k`'s pattern in the tests below.
    fn dict_pattern(k: usize) -> f32 {
        k as f32 * 0.25 - 1.0
    }

    /// `n` indices into an `entries`-entry dictionary: every entry in
    /// order first, so the first-seen order is the entry order, then a
    /// scattered sequence.
    fn dict_indices(entries: usize, n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| if i < entries { i } else { (i * 7 + 3) % entries } as u8)
            .collect()
    }

    /// The values of [`dict_indices`].
    fn dict_values(entries: usize, n: usize) -> Vec<f32> {
        dict_indices(entries, n)
            .iter()
            .map(|&k| dict_pattern(k as usize))
            .collect()
    }

    /// A column of `n` one-value records stored as one block.
    fn one_block_meta(n: usize) -> ColumnMeta {
        ColumnMeta {
            nd: n as u64,
            ns: 1,
            block_records: n as u64,
            completed_records: n as u64,
            ..meta()
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The packed indices the writer stores for one-block columns of
    /// [`dict_indices`]: `(entries, values, packed)` at widths 1, 2, 3 and
    /// 4, each value count leaving a final partial byte. Index `i` sits at
    /// bit `(i·w) mod 8` of byte `⌊i·w/8⌋`, LSB first: the first width-1
    /// byte, 0x56, holds the indices 0 1 1 0 1 0 1 0.
    const GOLDEN_DICT_PACKED: [(usize, usize, &[u8]); 4] = [
        (2, 13, &[0x56, 0x15]),
        (3, 11, &[0x24, 0x49, 0x12]),
        (5, 11, &[0x88, 0xc6, 0x41, 0xcc, 0x00]),
        (
            16,
            21,
            &[
                0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0xa3, 0x81, 0x0f,
            ],
        ),
    ];

    #[test]
    fn the_dict_block_bytes_did_not_move() {
        // Width 8: each packed byte is one index.
        let wide = (129, 173, dict_indices(129, 173));
        let cases = GOLDEN_DICT_PACKED
            .iter()
            .map(|&(entries, n, packed)| (entries, n, packed.to_vec()))
            .chain([wide]);
        let dir = test_dir("dict-golden");
        for (entries, n, packed) in cases {
            let values = dict_values(entries, n);
            let mut file = Vec::new();
            write_column(
                &mut file,
                &one_block_meta(n),
                &values,
                &record_order(n as u64),
                7,
            )
            .unwrap();
            let mut payload = vec![entries as u8];
            for k in 0..entries {
                payload.extend_from_slice(&dict_pattern(k).to_le_bytes());
            }
            payload.extend_from_slice(&packed);
            assert!(file.ends_with(&payload), "{entries} entries");
            let path = dir.join(format!("u{entries}.col"));
            std::fs::write(&path, &file).unwrap();
            let mut f = File::open(&path).unwrap();
            let col = read_meta(&mut f).unwrap();
            let zone = &col.zones[0];
            assert_eq!(
                (zone.codec, zone.comp_len as usize),
                (Codec::Dict, payload.len())
            );
            assert_eq!(bits(&read_block(&mut f, &col, 0).unwrap()), bits(&values));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every dictionary size the format allows, with each entry used and
    /// value counts that fill the last packed byte and that leave it
    /// partial: `decode_dict` — at width 1 the byte-wise body — decodes
    /// what the bit accumulator decodes.
    #[test]
    fn every_dict_width_decodes_like_the_accumulator() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for entries in 2..=DICT_MAX_ENTRIES {
            let width = dict_bit_width(entries);
            for n in [1021, 1024] {
                let values: Vec<f32> = (0..n)
                    .map(|i| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = if i < entries {
                            i
                        } else {
                            state as usize % entries
                        };
                        dict_pattern(k)
                    })
                    .collect();
                let payload = try_dict_encode(&values).expect("smaller than raw");
                let dict: Vec<f32> = (0..entries).map(dict_pattern).collect();
                let packed = &payload[1 + 4 * entries..];
                let case = format!("{entries} entries, {n} values");
                let reference = unpack_bits(width, packed, n, &dict, 0).unwrap();
                assert_eq!(bits(&reference), bits(&values), "{case}");
                let decoded = decode_dict(&payload, n, 0).unwrap();
                assert_eq!(bits(&decoded), bits(&reference), "{case}");
            }
        }
    }

    /// Writes index `i` of a `width`-bit packed index region as `idx`,
    /// bit by bit, by the documented layout.
    fn set_dict_index(packed: &mut [u8], width: usize, i: usize, idx: usize) {
        for j in 0..width {
            let bit = i * width + j;
            if (idx >> j) & 1 == 1 {
                packed[bit / 8] |= 1 << (bit % 8);
            } else {
                packed[bit / 8] &= !(1 << (bit % 8));
            }
        }
    }

    /// A dictionary payload of `n` values with one fault each, and the
    /// error that names it: an out-of-range index in every lane of the
    /// first packed bytes (every bit offset, for widths that do not
    /// divide 8) and in each value with bits in the final byte, each
    /// slack bit set, and one byte too many or too few.
    fn forged_dict_payloads(payload: &[u8], entries: usize, n: usize) -> Vec<(Vec<u8>, String)> {
        let width = dict_bit_width(entries);
        let start = 1 + 4 * entries;
        let packed_bits = 8 * (payload.len() - start);
        let mut forged = Vec::new();
        // The smallest and the largest index the width holds past the
        // dictionary.
        let slots = 1usize << width;
        let bad: Vec<usize> = (entries..slots)
            .filter(|&k| k == entries || k == slots - 1)
            .collect();
        for i in (0..n).filter(|&i| i < 8 || (i + 1) * width > packed_bits - 8) {
            for &bad in &bad {
                let mut p = payload.to_vec();
                set_dict_index(&mut p[start..], width, i, bad);
                forged.push((p, format!("block 0 dict index {bad} out of range")));
            }
        }
        for bit in n * width..packed_bits {
            let mut p = payload.to_vec();
            p[start + bit / 8] |= 1 << (bit % 8);
            forged.push((p, "block 0 dict payload has non-zero slack bits".into()));
        }
        let long = [payload, &[0]].concat();
        let short = payload[..payload.len() - 1].to_vec();
        for p in [long, short] {
            let want = format!(
                "block 0 dict payload length {} disagrees with its shape",
                p.len()
            );
            forged.push((p, want));
        }
        forged
    }

    /// `file`, a one-block column, with its payload replaced by `payload`
    /// and the zone entry's length and checksum and the zone table's
    /// checksum recomputed: every check before the decoder passes.
    fn with_dict_payload(file: &[u8], col: &ColumnFile, payload: &[u8]) -> Vec<u8> {
        let zones = (HEADER_LEN + SCHEMA_LEN) as usize;
        let table_end = zones + ZONE_ENTRY_LEN as usize;
        let zone = ZoneEntry {
            comp_len: payload.len() as u32,
            crc: crc32(payload),
            ..col.zones[0]
        };
        let mut out = file[..col.data_offset(0).unwrap() as usize].to_vec();
        out[zones..table_end].copy_from_slice(&zone.to_bytes());
        let crc = crc32(&out[zones..table_end]);
        out[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Dictionary payloads forged at every width from 1 to 8 bits under a
    /// valid checksum, so that only the decoder can refuse them, are
    /// corrupt with the error that names the fault, through `read_blocks`
    /// and through a column pass. The pass serves the column live; a
    /// read-write store quarantines the file and a read-only one leaves
    /// it byte-identical.
    #[test]
    fn a_forged_dict_payload_is_corrupt_through_read_blocks_and_a_column_pass() {
        use crate::{BehaviorStore, ColumnPass, MaterializationPolicy, StoreConfig};
        const N: usize = 201;
        let m = one_block_meta(N);
        let dir = test_dir("dict-forged");
        let unit = [m.unit as usize];
        let order: Vec<usize> = (0..N).collect();
        for width in 1..=8 {
            // The smallest dictionary of the width: the most indices out
            // of range.
            let entries = if width == 1 {
                2
            } else {
                (1 << (width - 1)) + 1
            };
            let values = dict_values(entries, N);
            let path = dir.join("pristine.col");
            write_ordered(&path, &m, &values, 7);
            let file = std::fs::read(&path).unwrap();
            let col = read_meta(&mut File::open(&path).unwrap()).unwrap();
            assert_eq!(col.zones[0].codec, Codec::Dict, "width {width}");
            assert_eq!(dict_bit_width(entries), width);
            let payload = &file[col.data_offset(0).unwrap() as usize..];
            for (forged, want) in forged_dict_payloads(payload, entries, N) {
                let bytes = with_dict_payload(&file, &col, &forged);
                std::fs::write(&path, &bytes).unwrap();
                let mut f = File::open(&path).unwrap();
                let forged_col = read_meta(&mut f).unwrap();
                let err = read_blocks(&mut f, &forged_col, &[0]).unwrap_err();
                assert_eq!(err, StoreError::Corrupt(want.clone()), "width {width}");
                for policy in [
                    MaterializationPolicy::ReadWrite,
                    MaterializationPolicy::ReadOnly,
                ] {
                    let root = dir.join(format!("{policy:?}"));
                    let pair = root.join(format!("{:016x}.{:016x}", m.model_fp, m.dataset_fp));
                    let column = pair.join(format!("u{}.col", m.unit));
                    let _ = std::fs::remove_dir_all(&root);
                    std::fs::create_dir_all(&pair).unwrap();
                    std::fs::write(&column, &bytes).unwrap();
                    let store = BehaviorStore::open(&StoreConfig {
                        policy,
                        ..StoreConfig::at(&root)
                    })
                    .unwrap();
                    let write = policy == MaterializationPolicy::ReadWrite;
                    let plan = store.plan_scan(m.model_fp, m.dataset_fp, &unit, write, usize::MAX);
                    let mut pass = ColumnPass::new(&plan, &unit, &order, 1);
                    let mut asked = Vec::new();
                    let out = pass
                        .fetch_block(0..N, |units, out| {
                            asked = units.to_vec();
                            *out = values.clone();
                        })
                        .concat();
                    let stats = pass.finish();
                    let case = format!("width {width}, {policy:?}: {want}");
                    assert_eq!(asked, unit, "{case}");
                    assert_eq!(bits(&out), bits(&values), "{case}");
                    assert_eq!(stats.error_count, 1, "{case}");
                    assert!(
                        stats.errors[0].contains(&want),
                        "{case}: {:?}",
                        stats.errors
                    );
                    match policy {
                        MaterializationPolicy::ReadOnly => {
                            assert_eq!(std::fs::read(&column).unwrap(), bytes, "{case}")
                        }
                        _ => assert!(!column.exists(), "{case}: quarantined"),
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
