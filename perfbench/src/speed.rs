//! Host-speed normalisation of CPU-bound times.
//!
//! The benchmark runs on shared virtual machines whose CPU speed drifts
//! with the load other guests put on the host: on a 2-vCPU KVM guest the
//! same reproduction took 0.28 s in one hour and 0.50 s in another, with
//! no steal time reported. Repetition cannot average that out, because a
//! whole set of runs lands in one slow hour.
//!
//! So every CPU-bound timed section is bracketed by runs of a fixed
//! calibration kernel, and its wall time is reported at the reference
//! speed: `wall × REFERENCE_S / calibration time`. The kernel is the
//! benchmark's own code, so no change to the measured program moves it.
//! It mixes the work the program does: dense matrix-vector steps with
//! `exp` (the simulator's propagators), sorting (the planner's
//! consolidation order), and short-lived allocations and float formatting
//! (reports and replies). Raw times are printed next to the normalised
//! ones.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run takes on the reference host (a 2-vCPU Intel
/// Sapphire Rapids KVM guest at its fast speed). Normalised times are in
/// seconds of that host.
pub const REFERENCE_S: f64 = 0.002;

/// Kernel runs per calibration; the calibration is their median.
const RUNS: usize = 3;

/// One run of the calibration kernel; returns a value that depends on
/// every step, so none of it is optimised away.
fn kernel() -> f64 {
    // Dense propagator steps, x ← Φ·x + γ(t), on a 24-state network.
    const N: usize = 24;
    let phi: Vec<f64> = (0..N * N)
        .map(|k| ((k * 7919) % 101) as f64 * 4e-4 + if k % (N + 1) == 0 { 0.5 } else { 0.0 })
        .collect();
    let mut x = vec![1.0f64; N];
    let mut next = vec![0.0f64; N];
    for step in 0..900 {
        let gamma = (-(step as f64) * 1e-3).exp();
        for (i, out) in next.iter_mut().enumerate() {
            let row = &phi[i * N..(i + 1) * N];
            *out = row.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>() + gamma;
        }
        std::mem::swap(&mut x, &mut next);
    }
    // Sorting pseudo-random keys.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut keys: Vec<f64> = (0..12_288)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64
        })
        .collect();
    keys.sort_by(f64::total_cmp);
    // Short-lived allocations and float formatting.
    let mut text = String::new();
    let mut lens = 0;
    for i in 0..1800 {
        let row: Vec<f64> = (0..8).map(|j| x[(i + j) % N] * j as f64).collect();
        text.clear();
        for v in &row {
            let _ = write!(text, "{v},");
        }
        lens += black_box(&text).len();
    }
    x.iter().sum::<f64>() + keys[keys.len() / 2] + lens as f64
}

/// Seconds one kernel run takes right now (median of a few runs).
pub fn calibrate() -> f64 {
    let mut times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[RUNS / 2]
}

/// Times sections of work and reports them at the reference speed. Each
/// section is bracketed by calibrations; consecutive sections share the
/// calibration between them.
pub struct Normaliser {
    last: f64,
    /// Calibration times seen, for the run's notes.
    seen: Vec<f64>,
}

impl Normaliser {
    pub fn new() -> Self {
        let last = calibrate();
        Normaliser {
            last,
            seen: vec![last],
        }
    }

    /// Runs `f` and returns its result with its wall time in seconds, raw
    /// and at the reference speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        let after = calibrate();
        let scale = REFERENCE_S / (0.5 * (self.last + after));
        self.last = after;
        self.seen.push(after);
        (out, wall, wall * scale)
    }

    /// Median calibration time of the run over [`REFERENCE_S`]: how many
    /// times slower than the reference host this host ran.
    pub fn slowdown(&self) -> f64 {
        crate::trace::median(&self.seen) / REFERENCE_S
    }
}
