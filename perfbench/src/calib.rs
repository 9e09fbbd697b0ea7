//! Machine-speed calibration.
//!
//! The benchmark runs on a small shared VM whose speed moves by ±20% for
//! seconds at a time (measured: identical ops read 72 ms in one second
//! and 116 ms a few seconds later, with no steal time — a neighbour on
//! the sibling hardware thread). A ten-second run lands in whatever mix
//! of states the host is in, so raw medians of identical work spread by
//! 10–25% between runs, more than any bound worth fixing.
//!
//! So the harness measures the machine alongside the program: every
//! [`PERIOD_S`] of a timed loop it times one fixed kernel of its own (a
//! small dense product — high-IPC code, which is what the slow states
//! hurt), and every timed sample is scaled by `NOMINAL_MS / kernel time
//! around that moment`. Timings therefore read as "milliseconds on this
//! machine in its nominal state"; the raw medians and the speed factor
//! are reported next to them as per-layer metrics. The kernel lives here
//! and calls nothing of the program under test, so no change to the
//! program can move it.

use crate::stats;
use std::sync::OnceLock;
use std::time::Instant;

/// Spacing of calibration samples inside a timed loop (1–2% overhead).
pub const PERIOD_S: f64 = 0.02;
/// Kernel time on the build box in its most common state; only fixes the
/// scale of the factor (≈ 1 when the machine is in that state).
pub const NOMINAL_MS: f64 = 0.22;
/// Half-width of the window of calibration samples a moment is judged by.
/// States last a second or more; this rides out single-sample jitter.
const SMOOTH_S: f64 = 0.25;
const N: usize = 64;
const REPS: usize = 8;

/// Seconds since the first call in this process (one clock for every
/// thread's samples).
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[derive(Debug, Clone)]
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    last_s: f64,
    /// `(moment, kernel milliseconds)`.
    pub samples: Vec<(f64, f64)>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            a: (0..N * N).map(|i| (i % 7) as f32 * 1e-3).collect(),
            b: (0..N * N).map(|i| (i % 5) as f32 * 1e-3).collect(),
            c: vec![0.0; N * N],
            last_s: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Times the kernel once, now.
    pub fn sample(&mut self) {
        self.c.fill(0.0);
        let start = Instant::now();
        for _ in 0..REPS {
            let (a, b) = (std::hint::black_box(&self.a), std::hint::black_box(&self.b));
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let aik = a[i * N + k];
                    for (c, &b) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                        *c += aik * b;
                    }
                }
            }
            std::hint::black_box(&mut self.c);
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        self.last_s = now_s();
        self.samples.push((self.last_s, elapsed));
    }

    /// Samples if the last sample is older than [`PERIOD_S`]; called at
    /// op boundaries, never inside a timed op.
    pub fn tick(&mut self) {
        if now_s() - self.last_s >= PERIOD_S {
            self.sample();
        }
    }
}

/// Calibration samples over time, and the speed factor they imply.
#[derive(Debug, Clone, Default)]
pub struct SpeedCurve {
    samples: Vec<(f64, f64)>,
}

impl SpeedCurve {
    pub fn new(mut samples: Vec<(f64, f64)>) -> SpeedCurve {
        samples.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("moments are never NaN"));
        SpeedCurve { samples }
    }

    /// What a duration measured around moment `t` is multiplied by: below
    /// 1 when the machine was slower than nominal then. Judged by the
    /// median kernel time within [`SMOOTH_S`] of `t`, or by the nearest
    /// sample when none is that close; 1 without any sample.
    pub fn factor_at(&self, t: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < t - SMOOTH_S);
        let hi = self.samples.partition_point(|s| s.0 <= t + SMOOTH_S);
        let kernel_ms = if lo < hi {
            let window: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
            stats::median(&window)
        } else {
            let nearest = [lo.checked_sub(1), Some(lo)]
                .into_iter()
                .flatten()
                .filter_map(|i| self.samples.get(i))
                .min_by(|x, y| {
                    (x.0 - t)
                        .abs()
                        .partial_cmp(&(y.0 - t).abs())
                        .expect("never NaN")
                });
            match nearest {
                Some(s) => s.1,
                None => return 1.0,
            }
        };
        NOMINAL_MS / kernel_ms
    }

    /// The wall interval `[t0, t1]` in nominal-speed seconds.
    pub fn effective_s(&self, t0: f64, t1: f64) -> f64 {
        const STEP_S: f64 = 0.05;
        let mut total = 0.0;
        let mut t = t0;
        while t < t1 {
            let next = (t + STEP_S).min(t1);
            total += (next - t) * self.factor_at((t + next) / 2.0);
            t = next;
        }
        total
    }

    /// Median factor over all samples (the per-layer `machine.speed_factor`).
    pub fn median_factor(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let kernel: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        NOMINAL_MS / stats::median(&kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_follows_the_kernel_time_around_a_moment() {
        let curve = SpeedCurve::new(vec![
            (0.0, NOMINAL_MS),
            (0.1, NOMINAL_MS),
            (5.0, 2.0 * NOMINAL_MS),
            (5.1, 2.0 * NOMINAL_MS),
        ]);
        assert_eq!(curve.factor_at(0.05), 1.0);
        assert_eq!(curve.factor_at(5.05), 0.5);
        // Far from every sample: the nearest one decides.
        assert_eq!(curve.factor_at(2.0), 1.0);
        assert_eq!(curve.factor_at(4.0), 0.5);
        assert_eq!(SpeedCurve::default().factor_at(1.0), 1.0);
    }

    #[test]
    fn effective_time_shrinks_while_the_machine_is_slow() {
        let slow = SpeedCurve::new(
            (0..100)
                .map(|i| (i as f64 * 0.1, 2.0 * NOMINAL_MS))
                .collect(),
        );
        assert!((slow.effective_s(1.0, 3.0) - 1.0).abs() < 1e-9);
        assert_eq!(slow.median_factor(), 0.5);
    }

    #[test]
    fn calibrator_samples_on_demand_and_on_period() {
        let mut c = Calibrator::default();
        c.tick();
        c.tick();
        assert_eq!(c.samples.len(), 1, "second tick is inside the period");
        c.sample();
        assert_eq!(c.samples.len(), 2);
        assert!(c.samples.iter().all(|s| s.1 > 0.0));
    }
}
