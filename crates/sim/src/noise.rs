//! Deterministic, seeded noise sources.
//!
//! Sensor emulation (power meters, `lm-sensors` CPU readings) and the
//! physical substrate both need noise that is (a) Gaussian-ish, matching the
//! measurement noise the paper smooths away with a low-pass filter, and
//! (b) fully reproducible so that experiments regenerate identical numbers.
//! Gaussian variates are produced with the Box–Muller transform over the
//! `rand` uniform source — we deliberately avoid extra distribution crates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Variates per [`Chunk`]. Even, so every chunk ends on a whole
/// Box–Muller pair and the next one starts with no spare to carry.
const CHUNK_LEN: usize = 64;
const _: () = assert!(CHUNK_LEN.is_multiple_of(2));

/// An immutable run of standard-normal variates of one stream, and the
/// generator state that follows its last value.
struct Chunk {
    values: [f64; CHUNK_LEN],
    rng: StdRng,
    /// The stream's next chunk, built by the first clone that reaches it.
    next: OnceLock<Arc<Chunk>>,
}

impl Chunk {
    /// The chunk a new stream starts past: no variates, only the seeded
    /// generator, so a stream that is never sampled draws nothing.
    fn seed(seed: u64) -> Arc<Chunk> {
        Arc::new(Chunk {
            values: [0.0; CHUNK_LEN],
            rng: StdRng::seed_from_u64(seed),
            next: OnceLock::new(),
        })
    }

    /// The chunk after this one, built on first use and shared with every
    /// clone that reaches it later.
    fn next(&self) -> Arc<Chunk> {
        Arc::clone(self.next.get_or_init(|| {
            let mut rng = self.rng.clone();
            let mut values = [0.0; CHUNK_LEN];
            for pair in values.chunks_exact_mut(2) {
                // Box–Muller, u1 ∈ (0, 1] to keep ln(u1) finite.
                let u1: f64 = 1.0 - rng.random::<f64>();
                let u2: f64 = rng.random::<f64>();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                pair[0] = r * theta.cos();
                pair[1] = r * theta.sin();
            }
            Arc::new(Chunk {
                values,
                rng,
                next: OnceLock::new(),
            })
        }))
    }
}

impl Drop for Chunk {
    /// Frees the chain that follows this chunk one link at a time, since a
    /// recursive drop of a long chain would overflow the stack. Stops at
    /// the first chunk some stream still holds.
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(mut chunk) = next.and_then(Arc::into_inner) {
            next = chunk.next.take();
        }
    }
}

/// A stream of independent Gaussian samples `N(mean, stddev²)`.
///
/// Clones share the variates they draw. The standard-normal values live in
/// immutable chunks linked in stream order; the first clone to run past a
/// chunk builds the next one and every other clone reads it. A stream
/// holds only the chunks from its own position onward, and its samples are
/// bit-identical to drawing each Box–Muller pair in turn from one
/// generator.
///
/// ```
/// use coolopt_sim::GaussianNoise;
/// let mut noise = GaussianNoise::new(7, 0.0, 1.0);
/// let first = noise.sample();
/// // The stream is deterministic for a fixed seed:
/// assert_eq!(GaussianNoise::new(7, 0.0, 1.0).sample(), first);
/// ```
#[derive(Clone)]
pub struct GaussianNoise {
    chunk: Arc<Chunk>,
    /// Index of the next variate in `chunk`; `CHUNK_LEN` once it is spent.
    pos: usize,
    mean: f64,
    stddev: f64,
}

impl GaussianNoise {
    /// Creates a seeded Gaussian source.
    ///
    /// # Panics
    ///
    /// Panics if `stddev` is negative or not finite.
    pub fn new(seed: u64, mean: f64, stddev: f64) -> Self {
        assert!(
            stddev.is_finite() && stddev >= 0.0,
            "stddev must be finite and non-negative, got {stddev}"
        );
        GaussianNoise {
            chunk: Chunk::seed(seed),
            pos: CHUNK_LEN,
            mean,
            stddev,
        }
    }

    /// Draws the next sample.
    pub fn sample(&mut self) -> f64 {
        if self.pos == CHUNK_LEN {
            self.chunk = self.chunk.next();
            self.pos = 0;
        }
        let z = self.chunk.values[self.pos];
        self.pos += 1;
        self.mean + self.stddev * z
    }
}

impl fmt::Debug for GaussianNoise {
    /// Names the distribution only: walking the shared chain could be long.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GaussianNoise")
            .field("mean", &self.mean)
            .field("stddev", &self.stddev)
            .finish_non_exhaustive()
    }
}

/// An Ornstein–Uhlenbeck process: temporally correlated noise.
///
/// `dx = -x/τ · dt + σ·√(2/τ) · dW`. Used for slowly wandering disturbances
/// such as ambient-temperature drift, where white noise would be unrealistic.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    gaussian: GaussianNoise,
    tau: f64,
    sigma: f64,
    value: f64,
    /// `(dt bits, decay, innovation scale)` of the last step size. A
    /// simulation steps with one `dt`, so `exp` and `sqrt` run once.
    coefficients: Option<(u64, f64, f64)>,
}

impl OrnsteinUhlenbeck {
    /// Creates a zero-mean OU process with correlation time `tau_secs` and
    /// stationary standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `tau_secs <= 0` or `sigma < 0`.
    pub fn new(seed: u64, tau_secs: f64, sigma: f64) -> Self {
        assert!(tau_secs > 0.0, "correlation time must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        OrnsteinUhlenbeck {
            gaussian: GaussianNoise::new(seed, 0.0, 1.0),
            tau: tau_secs,
            sigma,
            value: 0.0,
            coefficients: None,
        }
    }

    /// Advances the process by `dt_secs` and returns the new value.
    ///
    /// Uses the exact discretization of the OU transition kernel, so any
    /// step size is admissible.
    pub fn step(&mut self, dt_secs: f64) -> f64 {
        let (decay, stddev) = match self.coefficients {
            Some((bits, decay, stddev)) if bits == dt_secs.to_bits() => (decay, stddev),
            _ => {
                let decay = (-dt_secs / self.tau).exp();
                let stddev = self.sigma * (1.0 - decay * decay).sqrt();
                self.coefficients = Some((dt_secs.to_bits(), decay, stddev));
                (decay, stddev)
            }
        };
        self.value = self.value * decay + stddev * self.gaussian.sample();
        self.value
    }

    /// Current value without advancing.
    pub fn value(&self) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-stream generator [`GaussianNoise`] replaced: one Box–Muller
    /// pair at a time, its second value kept as a spare. The shared chunks
    /// must reproduce it bit for bit.
    #[derive(Clone)]
    struct ReferenceGaussian {
        rng: StdRng,
        mean: f64,
        stddev: f64,
        spare: Option<f64>,
    }

    impl ReferenceGaussian {
        fn new(seed: u64, mean: f64, stddev: f64) -> Self {
            ReferenceGaussian {
                rng: StdRng::seed_from_u64(seed),
                mean,
                stddev,
                spare: None,
            }
        }

        fn sample(&mut self) -> f64 {
            self.mean + self.stddev * self.standard()
        }

        fn standard(&mut self) -> f64 {
            if let Some(z) = self.spare.take() {
                return z;
            }
            // u1 ∈ (0, 1] to keep ln(u1) finite.
            let u1: f64 = 1.0 - self.rng.random::<f64>();
            let u2: f64 = self.rng.random::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random programs of "draw on clone k" and "clone clone k": every
        /// clone draws what one reference stream would at its position.
        #[test]
        fn clones_draw_the_reference_stream_bit_for_bit(
            seed in 0u64..u64::MAX,
            mean in -50.0f64..50.0,
            stddev in 0.0f64..10.0,
            program in prop::collection::vec((0u8..8, 0usize..64), 200..600),
        ) {
            let mut streams = vec![(
                GaussianNoise::new(seed, mean, stddev),
                ReferenceGaussian::new(seed, mean, stddev),
            )];
            for (op, k) in program {
                let k = k % streams.len();
                if op == 0 && streams.len() < 8 {
                    let twin = streams[k].clone();
                    streams.push(twin);
                } else {
                    let (noise, reference) = &mut streams[k];
                    prop_assert_eq!(noise.sample().to_bits(), reference.sample().to_bits());
                }
            }
        }
    }

    #[test]
    fn a_long_pinned_chain_drops_without_overflowing_the_stack() {
        let pinned = GaussianNoise::new(3, 0.0, 1.0);
        let mut runner = pinned.clone();
        for _ in 0..1_000_000 {
            runner.sample();
        }
        drop(runner);
        // The pinned stream frees the whole chain from its head.
        drop(pinned);
    }

    #[test]
    fn an_unshared_stream_frees_the_chunks_behind_it() {
        let mut noise = GaussianNoise::new(11, 0.0, 1.0);
        noise.sample();
        let first = Arc::downgrade(&noise.chunk);
        for _ in 0..200 {
            noise.sample();
        }
        assert!(
            first.upgrade().is_none(),
            "the first chunk outlived its reader"
        );
    }

    #[test]
    fn streams_stay_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<GaussianNoise>();
        shareable::<OrnsteinUhlenbeck>();
    }

    #[test]
    fn gaussian_is_deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut g = GaussianNoise::new(123, 1.0, 2.0);
            (0..16).map(|_| g.sample()).collect()
        };
        let b: Vec<f64> = {
            let mut g = GaussianNoise::new(123, 1.0, 2.0);
            (0..16).map(|_| g.sample()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<f64> = {
            let mut g = GaussianNoise::new(124, 1.0, 2.0);
            (0..16).map(|_| g.sample()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn gaussian_moments_are_close() {
        let mut g = GaussianNoise::new(42, 3.0, 0.5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.01, "mean was {mean}");
        assert!((var - 0.25).abs() < 0.01, "variance was {var}");
    }

    #[test]
    fn zero_stddev_is_constant() {
        let mut g = GaussianNoise::new(1, 5.0, 0.0);
        for _ in 0..10 {
            assert_eq!(g.sample(), 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "stddev")]
    fn negative_stddev_panics() {
        GaussianNoise::new(0, 0.0, -1.0);
    }

    #[test]
    fn ou_stays_near_stationary_band_and_is_correlated() {
        let mut ou = OrnsteinUhlenbeck::new(9, 100.0, 1.0);
        let mut values = Vec::new();
        for _ in 0..50_000 {
            values.push(ou.step(1.0));
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(mean.abs() < 0.2, "OU mean drifted: {mean}");
        // Lag-1 autocorrelation should be close to exp(-1/τ) ≈ 0.99.
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / values.len() as f64;
        let cov: f64 = values
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (values.len() - 1) as f64;
        let rho = cov / var;
        assert!(rho > 0.95, "lag-1 autocorrelation too low: {rho}");
    }

    #[test]
    fn ou_exact_discretization_is_step_size_invariant_in_mean() {
        // Deterministic part: with sigma = 0 the process just decays.
        let mut ou = OrnsteinUhlenbeck::new(5, 10.0, 0.0);
        ou.value = 8.0;
        ou.step(10.0);
        assert!((ou.value() - 8.0 * (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn cached_coefficients_match_recomputing_them_every_step() {
        // Alternating step sizes must switch coefficients, not reuse stale
        // ones: compare against a twin that forgets them before each step.
        let mut cached = OrnsteinUhlenbeck::new(17, 30.0, 2.5);
        let mut fresh = cached.clone();
        for dt in [1.0, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0, 0.25, 1.0].repeat(20) {
            fresh.coefficients = None;
            assert_eq!(
                cached.step(dt).to_bits(),
                fresh.step(dt).to_bits(),
                "dt {dt}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "correlation time")]
    fn ou_rejects_non_positive_tau() {
        OrnsteinUhlenbeck::new(0, 0.0, 1.0);
    }
}
