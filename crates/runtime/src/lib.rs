//! # deepbase-runtime
//!
//! Persistent worker pool backing the reproduction's simulated GPU device
//! (`Device::Parallel`).
//!
//! The paper offloads batched extraction and merged training to a K80; the
//! reproduction substitutes OS threads. The seed spawned fresh
//! `crossbeam::thread::scope` threads on *every* parallel call — a mat-mul
//! inside an SGD step could pay thread spawn/join latency thousands of
//! times per inspection. This crate spawns the workers **once** (lazily,
//! on first use) and reuses them across calls:
//!
//! * [`ThreadPool`] — fixed set of workers pulling jobs from a shared
//!   queue; [`global`] returns the process-wide instance sized to
//!   `available_parallelism`.
//! * [`ThreadPool::scope`] — crossbeam-style scoped spawning: borrowed
//!   (non-`'static`) jobs are safe because the scope does not return until
//!   every spawned job has finished, and the scope's own thread *helps
//!   drain the queue* while it waits, which both avoids idle time and makes
//!   nested scopes deadlock-free.
//! * [`parallel_for_chunks`] — the common fan-out: split a mutable slice
//!   into contiguous chunks and run a job per chunk on the global pool.
//!
//! Worker panics are captured and re-raised on the scope's thread after all
//! sibling jobs complete, mirroring `crossbeam::thread::scope` semantics.
//! The first job's original panic payload is preserved and re-raised
//! verbatim, so `panic!("why")` messages survive the pool boundary.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A job as stored in the queue. Lifetimes are erased on entry (see
/// [`Scope::spawn`] for the safety argument) and every job is run exactly
/// once.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Set by `ThreadPool::drop`; workers exit once the queue drains.
    shutdown: AtomicBool,
}

impl Queue {
    fn push(&self, job: Job) {
        self.jobs.lock().expect("queue poisoned").push_back(job);
        self.available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.jobs.lock().expect("queue poisoned").pop_front()
    }
}

/// A persistent pool of worker threads.
///
/// Workers are spawned in the constructor and live for the pool's
/// lifetime; the pool never spawns again afterwards, so steady-state
/// parallel calls cost one queue push + condvar wake per job.
pub struct ThreadPool {
    queue: Arc<Queue>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `workers` threads (minimum 1).
    pub fn new(workers: usize) -> ThreadPool {
        let workers = workers.max(1);
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("deepbase-worker-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { queue, handles }
    }

    /// Runs `f` with a [`Scope`] on which borrowed jobs can be spawned.
    /// Returns only after every spawned job has completed. If any job
    /// panicked, the panic is re-raised here.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState {
            remaining: Mutex::new(0),
            done: Condvar::new(),
            panic_payload: Mutex::new(None),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: std::marker::PhantomData,
        };
        // The guard waits even if `f` itself panics mid-spawn, so no
        // borrowed job can outlive the borrow.
        let guard = WaitGuard {
            pool: self,
            state: &state,
        };
        let result = f(&scope);
        drop(guard);
        // Re-raise the first job panic with its original payload, so the
        // caller sees the worker's own message (not a generic wrapper).
        let payload = state.panic_payload.lock().expect("scope poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        result
    }
}

/// Pool teardown: any live [`ThreadPool::scope`] borrows the pool, so by
/// the time `drop` runs every spawned job has completed and the queue is
/// empty — workers are signalled, woken, and joined.
impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            // The flag is stored and the workers woken under the queue
            // mutex. A worker reads `shutdown` holding that mutex and
            // gives it up only by parking in `available.wait`, so from
            // in here every worker is either not yet at its read (it
            // will see `true`) or already parked (the notify reaches
            // it). Without the lock both could land between a worker's
            // read and its park: the wake-up is lost, the worker sleeps
            // forever and the `join` below never returns.
            let _jobs = (self.queue.jobs.lock()).unwrap_or_else(|poisoned| poisoned.into_inner());
            self.queue.shutdown.store(true, Ordering::SeqCst);
            self.queue.available.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().expect("queue poisoned");
            loop {
                // Drain-before-exit: pending jobs win over shutdown so a
                // scope in progress always completes.
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                jobs = queue.available.wait(jobs).expect("queue poisoned");
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload captured from a spawned job; re-raised verbatim
    /// on the scope's thread after every sibling finishes.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn job_finished(&self) {
        let mut remaining = self.remaining.lock().expect("scope poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// Spawns borrowed jobs onto the pool; handed to [`ThreadPool::scope`]
/// closures.
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Enqueues `job` on the pool. The job may borrow from `'env`.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        *self.state.remaining.lock().expect("scope poisoned") += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: the scope (via its WaitGuard) blocks until `remaining`
        // drops to zero before `'env` can end, so the erased borrow cannot
        // dangle. Jobs run exactly once; panics are caught below so the
        // completion count is maintained even on unwind.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.pool.queue.push(Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                let mut slot = state.panic_payload.lock().expect("scope poisoned");
                // Keep the first payload; later sibling panics are dropped
                // (matching crossbeam: one unwind per scope).
                slot.get_or_insert(payload);
            }
            state.job_finished();
        }));
    }
}

/// Blocks until the scope's jobs finish, running queued jobs in the
/// meantime ("help-first" waiting). Implemented as a drop guard so the
/// wait also happens when the scope closure panics.
struct WaitGuard<'a> {
    pool: &'a ThreadPool,
    state: &'a ScopeState,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        loop {
            if *self.state.remaining.lock().expect("scope poisoned") == 0 {
                return;
            }
            // Help drain the queue rather than blocking: this keeps the
            // calling core busy and guarantees progress for nested scopes
            // even when every worker is itself waiting on an inner scope.
            if let Some(job) = self.pool.queue.try_pop() {
                job();
                continue;
            }
            let remaining = self.state.remaining.lock().expect("scope poisoned");
            if *remaining == 0 {
                return;
            }
            // Re-check the queue periodically: a job we are waiting on may
            // itself spawn (nested scope) after we observed an empty queue.
            let (guard, _) = self
                .state
                .done
                .wait_timeout(remaining, std::time::Duration::from_millis(1))
                .expect("scope poisoned");
            drop(guard);
        }
    }
}

/// The process-wide pool, sized to the machine (`available_parallelism`,
/// minimum 2 so parallel paths are exercised even on single-core CI).
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(n.max(2))
    })
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the final
/// chunk may be shorter) and runs `body(chunk_index, chunk)` for each on
/// the global pool.
///
/// This is the canonical `Device::Parallel` fan-out shape — deterministic
/// chunking (results never depend on which worker runs a chunk) with the
/// chunk size derived from the requested device width, not the number of
/// OS threads — used directly by `Matrix::matmul_parallel_into`; the
/// engine's extraction/measure fan-outs open a pool scope themselves
/// because they chunk two parallel slices at once.
pub fn parallel_for_chunks<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    body: impl Fn(usize, &mut [T]) + Send + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    global().scope(|scope| {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            let body = &body;
            scope.spawn(move || body(idx, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_all_borrowed_jobs() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 100];
        pool.scope(|scope| {
            for (i, slot) in data.iter_mut().enumerate() {
                scope.spawn(move || *slot = i * 2);
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        let out = pool.scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
            41 + 1
        });
        assert_eq!(out, 42);
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn pool_reuses_persistent_workers_across_scopes() {
        let pool = ThreadPool::new(3);
        let mut names = std::collections::HashSet::new();
        for _ in 0..5 {
            let seen = Mutex::new(Vec::new());
            pool.scope(|scope| {
                for _ in 0..16 {
                    scope.spawn(|| {
                        let name = std::thread::current()
                            .name()
                            .unwrap_or("scope-thread")
                            .to_string();
                        seen.lock().unwrap().push(name);
                    });
                }
            });
            names.extend(seen.into_inner().unwrap());
        }
        // All jobs ran on the 3 persistent workers or the helping caller.
        assert!(names.len() <= 4, "workers not reused: {names:?}");
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.spawn(move || {
                    // Worker thread opens an inner scope on the same pool.
                    global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn parallel_for_chunks_covers_slice() {
        let mut data = vec![0u32; 103];
        parallel_for_chunks(&mut data, 10, |idx, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (idx * 10 + i) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn panicked_job_propagates_after_siblings_finish() {
        let pool = ThreadPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for i in 0..6 {
                    let finished = Arc::clone(&finished);
                    scope.spawn(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        let payload = result.expect_err("scope must re-raise the job panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "original panic payload must be re-raised verbatim"
        );
        assert_eq!(finished.load(Ordering::SeqCst), 5, "siblings still ran");
        // The pool stays usable after a panic.
        let ok = AtomicUsize::new(0);
        pool.scope(|scope| {
            scope.spawn(|| {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn formatted_panic_payload_survives_the_pool_boundary() {
        let pool = ThreadPool::new(2);
        let id = std::hint::black_box(7usize);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(move || panic!("hypothesis {id} misbehaved"));
            });
        }));
        let payload = result.expect_err("scope must re-raise the job panic");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("hypothesis 7 misbehaved"),
            "formatted panic message must survive verbatim"
        );
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = ThreadPool::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        pool.scope(|scope| {
            for _ in 0..12 {
                let hits = Arc::clone(&hits);
                scope.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 12);
        // Drop must signal and join all workers; a leaked worker would
        // make this hang rather than return.
        drop(pool);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        assert!(std::ptr::eq(global(), global()));
        assert!(global().handles.len() >= 2);
    }
}
