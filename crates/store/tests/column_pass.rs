//! `ColumnPass` driven directly, with a closure standing in for the
//! extractor: the scan / demote / quarantine behaviour that otherwise
//! needs a full `Session` and catalog to reach.

use deepbase_store::{BehaviorStore, ColumnKey, ColumnPass, StoreConfig, StoreStats};
use std::path::PathBuf;
use std::sync::Arc;

const MODEL_FP: u64 = 0xA1;
const DATASET_FP: u64 = 0xD5;
const UNITS: [usize; 3] = [0, 1, 2];
const ND: usize = 12;
const NS: usize = 2;
/// Records per streamed block and per stored block.
const BLOCK: usize = 4;

fn config(name: &str) -> StoreConfig {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-store-tests")
        .join(format!("pass-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StoreConfig {
        block_records: BLOCK,
        ..StoreConfig::at(dir)
    }
}

/// Full-cardinality values, so every block is stored `Raw` and read.
fn value(unit: usize, pos: usize, t: usize) -> f32 {
    ((pos * NS + t) * 7 + unit * 1000) as f32 * 0.25
}

/// Writes every unit's complete column through a store that is then
/// dropped, so the pages the writer pushed through the pool are gone and
/// a later store over `config` scans from disk.
fn populate(config: &StoreConfig) {
    let store = BehaviorStore::open(config).unwrap();
    for unit in UNITS {
        let col: Vec<f32> = (0..ND * NS).map(|i| value(unit, i / NS, i % NS)).collect();
        let key = ColumnKey {
            model_fp: MODEL_FP,
            dataset_fp: DATASET_FP,
            unit,
        };
        store.write_column(&key, ND, NS, &col).unwrap();
    }
}

/// The true row-major behaviors of `units` over the records at `positions`.
fn block(units: &[usize], positions: &[usize]) -> Vec<u32> {
    let rows = positions
        .iter()
        .flat_map(|&pos| (0..NS).map(move |t| (pos, t)));
    rows.flat_map(|(pos, t)| units.iter().map(move |&u| value(u, pos, t).to_bits()))
        .collect()
}

/// Streams the segment in position order, one `BLOCK` at a time, serving
/// live requests with the true values and logging which units each block
/// asked for. Returns the log and the pass's stats; panics if any served
/// block differs from the true behaviors.
fn run_pass(store: &Arc<BehaviorStore>, write: bool) -> (Vec<Vec<usize>>, StoreStats) {
    let plan = store.plan_scan(MODEL_FP, DATASET_FP, &UNITS, write, usize::MAX, true);
    assert_eq!(plan.hits, UNITS, "every column is a plan-time hit");
    let mut pass = ColumnPass::new(&plan, &UNITS, ND, NS);
    let mut asked: Vec<Vec<usize>> = Vec::new();
    for start in (0..ND).step_by(BLOCK) {
        let positions: Vec<usize> = (start..start + BLOCK).collect();
        let mut out = vec![0.0f32; BLOCK * NS * UNITS.len()];
        pass.fetch_block(&positions, &mut out, |units| {
            asked.push(units.to_vec());
            let live = block(units, &positions);
            live.into_iter().map(f32::from_bits).collect()
        });
        let served: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(served, block(&UNITS, &positions), "block at {start}");
    }
    (asked, pass.finish())
}

/// A complete hit never calls the closure; a bit-flipped column demotes
/// mid-pass, the closure is asked for exactly that unit, and the file is
/// quarantined only when the plan may write.
#[test]
fn hits_scan_and_a_flipped_column_demotes_mid_pass_quarantined_only_under_write() {
    for (flip, write) in [(false, false), (true, false), (true, true)] {
        let config = config(&format!("flip{flip}-write{write}"));
        populate(&config);
        let file = config
            .path
            .join(format!("{MODEL_FP:016x}.{DATASET_FP:016x}"))
            .join("u1.col");
        if flip {
            // One bit in the last byte of unit 1's file: the payload of its
            // last stored block, which the third streamed block reads.
            let mut bytes = std::fs::read(&file).unwrap();
            *bytes.last_mut().unwrap() ^= 0x10;
            std::fs::write(&file, &bytes).unwrap();
        }
        let store = BehaviorStore::open(&config).unwrap();
        let (asked, stats) = run_pass(&store, write);
        // Two clean blocks, then (if flipped) exactly the corrupt unit
        // goes live, for the block that found it.
        let expect_asked: Vec<Vec<usize>> = if flip { vec![vec![1]] } else { vec![] };
        assert_eq!(asked, expect_asked, "flip={flip} write={write}");
        assert_eq!(stats.forward_passes_avoided, if flip { 2 } else { 3 });
        assert_eq!(stats.columns_scanned, UNITS.len());
        assert_eq!(stats.error_count, usize::from(flip), "{:?}", stats.errors);
        assert_eq!(stats.columns_written, 0, "a demoted hit is not captured");
        // Quarantine renames the file aside; without `write` the pass
        // leaves it where it is even though the store itself is writable.
        assert_eq!(file.exists(), !(flip && write), "flip={flip} write={write}");
        let _ = std::fs::remove_dir_all(&config.path);
    }
}
