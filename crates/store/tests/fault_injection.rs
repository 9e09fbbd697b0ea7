//! Systematic fault injection over the column file format (ISSUE 5):
//! every single-bit flip in a written column file — header, schema
//! section, zone table (codec tags and non-finite flags included),
//! positions section, encoded data payloads, or any checksum byte — must
//! be **detected** (a `StoreError::Corrupt` / `Io` from validation) or
//! **provably harmless** (every subsequent read returns bytes
//! bit-identical to the pristine file; a flipped access stamp only
//! perturbs eviction order, never data). A flip that silently changes
//! served values is the one unacceptable outcome. The store scan runs
//! with pruning enabled, so zone-driven block reconstruction is under
//! the same sweep as the decode paths.
//!
//! The generator is a deterministic proptest (the offline stub seeds its
//! RNG from the test name), so CI replays the exact same ≥1000
//! corruptions every run. The same generator drives the end-to-end
//! session-level suite in the core crate
//! (`crates/core/tests/store_fault_tests.rs`).

use deepbase_store::format::{self, ColumnMeta};
use deepbase_store::{BehaviorStore, ColumnKey, StoreConfig, StoreError, StoreStats};
use proptest::prelude::*;
use std::fs::File;
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-store-tests")
        .join(format!("fault-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic column values, deliberately low-cardinality (five bit
/// patterns plus a NaN sprinkle) so the writer picks every codec —
/// Constant on single-pattern blocks, Dict on small-alphabet blocks, Raw
/// on the rest — and the flip sweep covers all of their payloads.
fn column_data(nd: usize, ns: usize) -> Vec<f32> {
    (0..nd * ns)
        .map(|i| {
            if i % 13 == 0 {
                f32::NAN
            } else {
                ((i * 37 + 11) % 5) as f32 * 0.75 - 1.5
            }
        })
        .collect()
}

/// A deterministic stream order (an LCG permutation), whose first `k`
/// records a column of watermark `k` stores, in this order — scattered
/// like a real shuffled stream prefix.
fn stream_order(nd: usize, salt: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nd).collect();
    let mut state = salt as u64 | 1;
    for i in (1..nd).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    order
}

/// Everything a consumer could read from a column file: the validated
/// meta, the positions section, and every (decoded) data block. The
/// access stamp is deliberately excluded: it is outside every checksum,
/// and a flipped stamp only reorders disk-budget eviction.
type FileContents = (ColumnMeta, Vec<u32>, Vec<Vec<u32>>);

/// Reads a whole column file; `Err` means some validation step refused
/// it (detection). Block values come back as f32 bit patterns so the
/// harmlessness comparison is bit-exact (NaN == NaN at the bit level).
fn read_everything(path: &PathBuf) -> Result<FileContents, StoreError> {
    let mut f = File::open(path)?;
    let col = format::read_meta(&mut f)?;
    let mut blocks = Vec::with_capacity(col.meta.n_blocks());
    for b in 0..col.meta.n_blocks() {
        let page = format::read_block(&mut f, &col, b)?;
        blocks.push(page.iter().map(|v| v.to_bits()).collect());
    }
    Ok((col.meta, col.positions, blocks))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]
    #[test]
    fn every_single_bit_flip_is_detected_or_harmless(
        nd in 1usize..24,
        ns in 1usize..4,
        block_records in 1usize..6,
        watermark_sel in 0usize..1000,
        flip_sel in 0usize..1_000_000,
    ) {
        // Degenerate watermarks (0 and nd) are exercised often, the rest
        // of the range uniformly.
        let k = match watermark_sel % 4 {
            0 => nd,
            1 => 0,
            _ => watermark_sel / 4 % (nd + 1),
        };
        let order = stream_order(nd, watermark_sel);
        let stored: Vec<usize> = order[..k].to_vec();
        let full = column_data(nd, ns);
        // The column stores the stream prefix's rows, in stream order.
        let data: Vec<f32> = stored
            .iter()
            .flat_map(|&p| full[p * ns..(p + 1) * ns].iter().copied())
            .collect();
        let positions: Vec<u32> = stored.iter().map(|&p| p as u32).collect();
        let meta = ColumnMeta {
            model_fp: 0x5EED,
            dataset_fp: 0xF00D,
            unit: 1,
            nd: nd as u64,
            ns: ns as u64,
            block_records: block_records as u64,
            completed_records: k as u64,
        };
        let dir = test_dir("flip");
        let path = dir.join("u1.col");
        format::write_column_file(&path, &meta, &data, &positions, 7)
            .unwrap();
        let pristine_bytes = std::fs::read(&path).unwrap();
        let pristine = read_everything(&path).expect("pristine file validates");

        // Flip exactly one bit somewhere in the file.
        let bit = flip_sel % (pristine_bytes.len() * 8);
        let mut corrupted = pristine_bytes.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(&corrupted, &pristine_bytes);
        std::fs::write(&path, &corrupted).unwrap();

        match read_everything(&path) {
            Err(_) => {} // detected — the acceptable common outcome
            Ok((meta, stored_positions, blocks)) => {
                // Validation let the flip through: it must be provably
                // harmless — everything served is bit-identical.
                prop_assert_eq!(meta, pristine.0, "silent schema change");
                prop_assert_eq!(stored_positions, pristine.1.clone(), "silent order change");
                prop_assert_eq!(blocks, pristine.2.clone(), "silent data change");
            }
        }

        // The same file through the full store scan path: either an
        // error or bit-identical values, never a silent wrong read.
        let store = BehaviorStore::open(&StoreConfig {
            block_records,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        let key = ColumnKey { model_fp: 0x5EED, dataset_fp: 0xF00D, unit: 1 };
        // The stored records, in record order: every fetch maps them
        // through the column's inverse row map.
        let mut positions = stored.clone();
        positions.sort_unstable();
        if !positions.is_empty() {
            let mut out = vec![f32::NAN; positions.len() * ns];
            let mut stats = StoreStats::default();
            match store.scan_into(&key, nd, ns, &positions, &mut out, 1, 0, true, &mut stats) {
                Err(_) => {} // detected
                Ok(()) => {
                    for (i, &pos) in positions.iter().enumerate() {
                        for t in 0..ns {
                            let got = out[i * ns + t];
                            let want = column_data(nd, ns)[pos * ns + t];
                            prop_assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "silent wrong value at position {} (flip bit {})",
                                pos,
                                bit
                            );
                        }
                    }
                }
            }
            // Whether the column was served or demoted, the one-shot
            // fetch kept no page past its return.
            prop_assert_eq!(store.held_page_bytes(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
