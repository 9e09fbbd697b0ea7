//! Admission scheduling: the one place an execution wave is admitted.
//!
//! [`crate::plan::AdmissionConfig`] bounds the union-stream width of a
//! batch: the optimizer splits over-wide groups into waves that each fit
//! the budget. Every [`crate::session::Session`] owns an
//! [`AdmissionScheduler`] built from its `admission` config, and every
//! wave it runs — a batch wave or the single wave of a view build or
//! refresh — acquires a permit for its `(extract, scan)` widths before
//! streaming and releases it when the pass completes. Sessions made by
//! [`crate::session::Session::fork`] share their template's scheduler, so
//! a serving process whose connections are forks of one session holds the
//! *sum of in-flight widths* — across groups, batches, sessions and
//! connections — under one budget instead of N private ones.
//!
//! Admission is **fair FIFO**: waves take a ticket at arrival and are
//! admitted strictly in ticket order, so a stream of narrow waves cannot
//! starve a wide one (no width-based overtaking). A lone wave wider than
//! the budget — which the optimizer cannot split further — has its
//! charge clamped to the budget and therefore runs exclusively, then
//! releases.
//!
//! Deadlock-freedom rests on one invariant: **a thread waiting for a
//! permit runs nothing else.** Every parallel path in the engine is a
//! `deepbase_runtime::fan_out` over scoped threads, each running only its
//! own chunk of items; there is no shared queue a waiting thread could
//! help drain. So a batch's groups may fan out and wait for permits on
//! their own threads, bounded budget or not: the permit holder's pass
//! depends only on threads it spawned itself, which never acquire, and
//! always finishes and releases. Permits are held only for one engine
//! pass (each wave re-acquires), and the head ticket always fits once
//! in-flight work drains (charges are clamped to the budget).

use std::sync::{Arc, Condvar, Mutex};

use crate::plan::AdmissionConfig;

/// Counters exposed by [`AdmissionScheduler::stats`]; cumulative since
/// construction. `peak_*` never exceeding the configured budgets is the
/// observable guarantee that concurrent batches share one budget rather
/// than each getting a private one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Waves admitted (permits granted) so far.
    pub waves_admitted: u64,
    /// Admitted waves that had to wait (for their ticket's turn or for
    /// capacity) before being granted.
    pub waves_waited: u64,
    /// High-water mark of the summed in-flight extraction width.
    pub peak_stream_width: usize,
    /// High-water mark of the summed in-flight scan width.
    pub peak_scan_width: usize,
    /// High-water mark of concurrently outstanding tickets (admitted or
    /// waiting), i.e. observed cross-connection concurrency.
    pub max_queue_depth: usize,
}

#[derive(Default)]
struct SchedState {
    in_flight_stream: usize,
    in_flight_scan: usize,
    /// Next ticket to hand out (tickets are admitted in issue order).
    next_ticket: u64,
    /// The ticket currently first in line for admission.
    serving: u64,
    /// Tickets issued but not yet released (for `max_queue_depth`).
    outstanding: usize,
    stats: SchedulerStats,
}

/// A fair-FIFO admission scheduler over the two [`AdmissionConfig`]
/// width budgets, owned by a session and shared with its forks. See the
/// module docs for the serving-path semantics; unit economics (what a
/// width *is*) are documented on [`AdmissionConfig`] itself.
pub struct AdmissionScheduler {
    admission: AdmissionConfig,
    state: Mutex<SchedState>,
    cond: Condvar,
}

impl AdmissionScheduler {
    /// Builds a scheduler enforcing `admission`. The owning session
    /// *splits* its plans against the same budgets, so a wave normally
    /// fits without clamping.
    pub(crate) fn new(admission: AdmissionConfig) -> Arc<Self> {
        Arc::new(AdmissionScheduler {
            admission,
            state: Mutex::new(SchedState::default()),
            cond: Condvar::new(),
        })
    }

    /// Cumulative scheduling counters.
    pub fn stats(&self) -> SchedulerStats {
        self.state.lock().expect("scheduler lock").stats
    }

    /// Blocks until this wave is admitted, then returns a permit holding
    /// `extract_width` stream columns and `scan_width` scanned columns
    /// until dropped. Charges are clamped to the budget so an
    /// unsplittable over-wide wave runs exclusively instead of never.
    pub(crate) fn acquire(&self, extract_width: usize, scan_width: usize) -> AdmissionPermit<'_> {
        let stream = match self.admission.max_stream_width {
            Some(b) => extract_width.min(b),
            None => extract_width,
        };
        let scan = match self.admission.max_scan_width {
            Some(b) => scan_width.min(b),
            None => scan_width,
        };
        let mut st = self.state.lock().expect("scheduler lock");
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.outstanding += 1;
        st.stats.max_queue_depth = st.stats.max_queue_depth.max(st.outstanding);
        let mut waited = false;
        loop {
            let fits_stream = self
                .admission
                .max_stream_width
                .is_none_or(|b| st.in_flight_stream + stream <= b);
            let fits_scan = self
                .admission
                .max_scan_width
                .is_none_or(|b| st.in_flight_scan + scan <= b);
            if st.serving == ticket && fits_stream && fits_scan {
                break;
            }
            waited = true;
            st = self.cond.wait(st).expect("scheduler lock");
        }
        st.serving += 1;
        st.in_flight_stream += stream;
        st.in_flight_scan += scan;
        st.stats.waves_admitted += 1;
        if waited {
            st.stats.waves_waited += 1;
        }
        st.stats.peak_stream_width = st.stats.peak_stream_width.max(st.in_flight_stream);
        st.stats.peak_scan_width = st.stats.peak_scan_width.max(st.in_flight_scan);
        drop(st);
        // The next ticket may fit alongside this one; let it check.
        self.cond.notify_all();
        AdmissionPermit {
            scheduler: self,
            stream,
            scan,
        }
    }
}

/// RAII admission grant: the charged widths return to the budget (and
/// waiters re-check) when this drops — normally at the end of one engine
/// pass.
pub(crate) struct AdmissionPermit<'a> {
    scheduler: &'a AdmissionScheduler,
    stream: usize,
    scan: usize,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.scheduler.state.lock().expect("scheduler lock");
        st.in_flight_stream -= self.stream;
        st.in_flight_scan -= self.scan;
        st.outstanding -= 1;
        drop(st);
        self.scheduler.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    fn budget(stream: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_stream_width: Some(stream),
            max_scan_width: None,
        }
    }

    #[test]
    fn unbounded_scheduler_admits_everything_immediately() {
        let sched = AdmissionScheduler::new(AdmissionConfig::default());
        let a = sched.acquire(1000, 1000);
        let b = sched.acquire(5000, 0);
        drop((a, b));
        let stats = sched.stats();
        assert_eq!(stats.waves_admitted, 2);
        assert_eq!(stats.waves_waited, 0);
        assert_eq!(stats.peak_stream_width, 6000);
        assert_eq!(stats.max_queue_depth, 2);
    }

    #[test]
    fn in_flight_width_never_exceeds_the_budget() {
        let sched = AdmissionScheduler::new(budget(10));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..8 {
                let sched = &sched;
                let peak = Arc::clone(&peak);
                let live = Arc::clone(&live);
                s.spawn(move || {
                    for _ in 0..20 {
                        let permit = sched.acquire(4, 0);
                        let now = live.fetch_add(4, Ordering::SeqCst) + 4;
                        peak.fetch_max(now, Ordering::SeqCst);
                        thread::sleep(Duration::from_micros(50));
                        live.fetch_sub(4, Ordering::SeqCst);
                        drop(permit);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 10);
        let stats = sched.stats();
        assert_eq!(stats.waves_admitted, 160);
        assert!(stats.peak_stream_width <= 10);
        assert!(
            stats.waves_waited > 0,
            "8 threads × width 4 under budget 10 must queue"
        );
    }

    #[test]
    fn over_wide_wave_is_clamped_and_runs_exclusively() {
        let sched = AdmissionScheduler::new(budget(10));
        let wide = sched.acquire(64, 0); // clamped to 10: fills the budget
        let admitted = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let sched = Arc::clone(&sched);
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                let p = sched.acquire(1, 0);
                admitted.store(1, Ordering::SeqCst);
                drop(p);
            })
        };
        thread::sleep(Duration::from_millis(20));
        assert_eq!(
            admitted.load(Ordering::SeqCst),
            0,
            "budget is full: must wait"
        );
        drop(wide);
        waiter.join().unwrap();
        assert_eq!(admitted.load(Ordering::SeqCst), 1);
        let stats = sched.stats();
        assert!(
            stats.peak_stream_width <= 10,
            "charge must clamp to the budget"
        );
        assert_eq!(stats.waves_waited, 1);
    }

    #[test]
    fn admission_is_fifo_not_width_ordered() {
        // Fill most of the budget (8 of 10), then queue a wide wave (6,
        // does not fit) followed by a narrow one (1, *would* fit in the
        // remaining 2). FIFO means the narrow wave must not overtake the
        // wide one: neither is admitted until the holder releases.
        let sched = AdmissionScheduler::new(budget(10));
        let holder = sched.acquire(8, 0);
        let admitted = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for width in [6usize, 1] {
            let sched = Arc::clone(&sched);
            let admitted = Arc::clone(&admitted);
            joins.push(thread::spawn(move || {
                let p = sched.acquire(width, 0);
                admitted.fetch_add(1, Ordering::SeqCst);
                drop(p);
            }));
            // Deterministic arrival order = deterministic ticket order.
            thread::sleep(Duration::from_millis(20));
        }
        thread::sleep(Duration::from_millis(30));
        assert_eq!(
            admitted.load(Ordering::SeqCst),
            0,
            "narrow wave fit the remaining budget but must queue behind the wide one"
        );
        drop(holder);
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(admitted.load(Ordering::SeqCst), 2);
        assert_eq!(sched.stats().waves_waited, 2);
    }
}
