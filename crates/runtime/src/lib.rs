//! # deepbase-runtime
//!
//! The one fan-out behind the reproduction's simulated GPU device
//! (`Device::Parallel`).
//!
//! The paper offloads extraction and probe training to a K80; the
//! reproduction substitutes OS threads for extraction and other coarse
//! work, never for training. [`fan_out`] splits a slice of work items into
//! at most `width` contiguous chunks, runs the first chunk on the calling
//! thread and every other chunk on its own `std::thread::scope` thread,
//! and returns the results in item order. There is no pool, no queue and
//! no shared state: a thread runs its own chunk and nothing else, so a
//! thread that blocks (say, waiting for an admission permit) can never be
//! the one another fan-out is waiting on.
//!
//! A scoped spawn + join costs ≈ 25–50 µs per thread on a 2-vCPU x86-64
//! VM, so callers fan out only coarse work: record chunks of a streamed
//! block, hypothesis lists, segment streams, plan groups.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

/// Applies `f` to every item of `items` and returns the results in item
/// order, running at most `width` contiguous chunks of items concurrently.
///
/// The chunks are `items.chunks(items.len().div_ceil(width))`, so their
/// bounds depend only on `width` and `items.len()`, never on scheduling.
/// The first chunk runs on the calling thread, every other chunk on a
/// scoped thread of its own.
///
/// With `width ≤ 1`, or when the items make one chunk, this is a plain
/// loop on the calling thread: nothing is spawned and a panic propagates
/// at once. Otherwise every item runs even when one panics, and once all
/// chunks have finished the first panic payload in item order is
/// re-raised verbatim, so `panic!("why")` messages survive the thread
/// boundary.
pub fn fan_out<T, R, F>(width: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunk_len = items.len().div_ceil(width.max(1)).max(1);
    if chunk_len >= items.len() {
        return items.iter().map(&f).collect();
    }
    let run = |chunk: &[T]| -> Vec<thread::Result<R>> {
        chunk
            .iter()
            .map(|item| catch_unwind(AssertUnwindSafe(|| f(item))))
            .collect()
    };
    let mut chunks = items.chunks(chunk_len);
    let first = chunks.next().expect("at least two chunks");
    let results = thread::scope(|scope| {
        let spawned: Vec<_> = chunks.map(|chunk| scope.spawn(|| run(chunk))).collect();
        let mut results = run(first);
        for handle in spawned {
            results.extend(handle.join().expect("fan_out catches every item's panic"));
        }
        results
    });
    results
        .into_iter()
        .map(|result| result.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..103).collect();
        for width in [0, 1, 2, 3, 4, 7, 103, 500] {
            let out = fan_out(width, &items, |&i| i * 2);
            assert_eq!(out, (0..103).map(|i| i * 2).collect::<Vec<_>>(), "{width}");
        }
        assert!(fan_out(4, &[] as &[usize], |&i| i).is_empty());
    }

    #[test]
    fn width_one_or_a_single_chunk_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let items: Vec<usize> = (0..8).collect();
        for width in [0, 1] {
            let threads = fan_out(width, &items, |_| thread::current().id());
            assert!(threads.iter().all(|&t| t == caller), "width {width}");
        }
        // One item makes one chunk whatever the width.
        assert_eq!(fan_out(8, &[0usize], |_| thread::current().id()), [caller]);
    }

    #[test]
    fn at_most_width_distinct_threads_and_the_first_chunk_is_the_callers() {
        let caller = thread::current().id();
        let items: Vec<usize> = (0..50).collect();
        for width in [2, 3, 4, 7] {
            let threads: Vec<ThreadId> = fan_out(width, &items, |_| thread::current().id());
            let distinct: HashSet<ThreadId> = threads.iter().copied().collect();
            assert!(distinct.len() <= width, "width {width}: {}", distinct.len());
            assert!(distinct.len() > 1, "width {width} spawned nothing");
            assert_eq!(threads[0], caller);
            // Chunks are contiguous: a thread's items form one run.
            let runs = 1 + threads.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(runs, distinct.len(), "width {width}");
        }
    }

    #[test]
    fn every_item_runs_when_one_panics() {
        let items: Vec<usize> = (0..12).collect();
        for panicking in [0, 5, 11] {
            let ran = Mutex::new(Vec::new());
            let result = catch_unwind(AssertUnwindSafe(|| {
                fan_out(3, &items, |&i| {
                    ran.lock().unwrap().push(i);
                    if i == panicking {
                        panic!("boom");
                    }
                })
            }));
            assert!(result.is_err(), "item {panicking}");
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable();
            assert_eq!(ran, items, "item {panicking}");
        }
    }

    #[test]
    fn the_first_payload_in_item_order_comes_back_verbatim() {
        let items: Vec<usize> = (0..9).collect();
        // Item 7 panics at once, item 1 only after it: item order wins,
        // not time order.
        let late = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            fan_out(3, &items, |&i| match i {
                1 => {
                    while late.load(Ordering::SeqCst) == 0 {
                        thread::yield_now();
                    }
                    panic!("item one")
                }
                7 => {
                    late.store(1, Ordering::SeqCst);
                    panic!("item seven")
                }
                _ => i,
            })
        }));
        let payload = result.expect_err("the panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item one"));

        let id = std::hint::black_box(7usize);
        let result = catch_unwind(AssertUnwindSafe(|| {
            fan_out(4, &items, |&i| {
                if i == id {
                    panic!("hypothesis {id} misbehaved");
                }
            })
        }));
        let payload = result.expect_err("the panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("hypothesis 7 misbehaved")
        );
    }
}
