//! `ThreadPool::drop` must never lose a worker's wake-up.
//!
//! A worker reads `shutdown` under the queue mutex and only then parks on
//! the condvar; a `drop` that stores `shutdown` and notifies *without*
//! holding that mutex can land both between the worker's read and its
//! park, after which the worker sleeps forever and `drop` blocks in
//! `join`. The window is a few instructions wide and sits right after a
//! worker starts, so the loop below builds a pool and drops it at once,
//! a few hundred thousand times in release mode (CI runs it there next
//! to the store's `pool_stress`). A watchdog turns a hang into a failure.

use deepbase_runtime::ThreadPool;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Pools built and dropped. Debug builds (the workspace suite) run a
/// short slice; the release CI step runs the full loop.
const ROUNDS: usize = if cfg!(debug_assertions) {
    4_000
} else {
    300_000
};

/// Rounds between two progress reports to the watchdog.
const REPORT_EVERY: usize = 500;

/// Longest silence the watchdog accepts. One report is `REPORT_EVERY`
/// pool lifetimes (well under a second of work), so this only trips when
/// a `drop` is stuck in `join`.
const SILENCE: Duration = Duration::from_secs(30);

#[test]
fn building_and_dropping_a_pool_never_hangs() {
    let (progress, watchdog) = channel::<usize>();
    let looper = std::thread::spawn(move || {
        for round in 0..ROUNDS {
            // 1..=4 workers: different numbers of threads racing the
            // drop through their first trip around `worker_loop`.
            drop(ThreadPool::new(1 + round % 4));
            if round % REPORT_EVERY == 0 {
                let _ = progress.send(round);
            }
        }
    });
    let mut last = 0;
    loop {
        match watchdog.recv_timeout(SILENCE) {
            Ok(round) => last = round,
            // The loop finished and dropped its sender.
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => panic!(
                "ThreadPool::drop hung after round {last} of {ROUNDS}: \
                 a worker missed the shutdown wake-up"
            ),
        }
    }
    looper.join().expect("the build/drop loop panicked");
}
