//! Sub-quadratic hierarchical kinetic index: clustered consolidation for
//! warehouse-scale fleets.
//!
//! The flat [`crate::index::ConsolidationIndex`] is exact but `O(n²)` in
//! rows *and* crossing events — unbuildable at `n = 100 000`. Real fleets,
//! however, are a handful of near-identical machine *classes* (Sun et al.),
//! and the paper's Eq. 23 objective only consumes subset sums `Σa`, `Σb` —
//! so machines with equal `(a_i, b_i)` are interchangeable and can be
//! aggregated exactly, while nearly-equal machines can be aggregated with a
//! tracked error radius. [`HierIndex`] exploits this three ways:
//!
//! 1. **Hierarchical clustering.** Machines are grouped into clusters of
//!    near-identical particles (grid quantization at tolerance `tol_a` ×
//!    `tol_b`, adaptively widened until at most
//!    [`HierConfig::max_clusters`] clusters remain). Each cluster carries
//!    its exact member list, a centroid `(a_c, b_c)` (bit-exact when all
//!    members are bitwise equal) and radii `eps_a = max|a_i − a_c|`,
//!    `eps_b = max|b_i − b_c|`. The kinetic problem is solved over the `C`
//!    centroid particles: `O(C²)` events and rows instead of `O(n²)`.
//!    Within a cluster, members are interchangeable up to the radius, so
//!    the best size-`k` subset is *full clusters plus a boundary slice*:
//!    each [`HierRow`] covers the whole candidate range
//!    `k = k_lo + j, j ∈ [1, m]` of one cluster-prefix with `O(1)` state.
//! 2. **Lazy envelope generation.** Per-class upper envelopes (the
//!    hierarchical analogue of the flat index's per-`k` hulls, built with
//!    the shared [`build_upper_hull`]) are materialized on first touch via
//!    `OnceLock` — queries that never visit a size class never pay for its
//!    hull, and repeated queries hit the cached one.
//! 3. **Error-bounded answers.** Every query returns a certified absolute
//!    bound on `|relative_power − exact minimum|`, derived from the
//!    tracked radii (zero for exact clustering). The near-optimal
//!    candidates are re-evaluated with exact per-machine sums —
//!    bit-identical arithmetic to the flat index — so identical-machine
//!    fleets reproduce the flat answer bit-for-bit.
//!
//! # The error bound
//!
//! Let `δ_a = eps_a`, `δ_b = eps_b` (worst cluster radii), `b_min` the
//! smallest machine speed, and `t̂` a centroid ratio. Replacing each member
//! by its centroid shifts a subset's sums by at most `k·δ_a` / `k·δ_b`, so
//!
//! ```text
//! |t̂ − t| = |(A−L)·B' − (A'−L)·B| / (B·B') ≤ (δ_a + t̂·δ_b) / b_min
//! ```
//!
//! (numerator expands to `(A−L)(B'−B) + B(A−A')`; divide through by
//! `B ≥ k·b_min`). One query-wide slack `S = ρ·(δ_a + t_up·δ_b)/b_min`
//! with `t_up` an a-priori cap on any relevant ratio (computed from the
//! incumbent; see `ratio_upper_bound`) therefore bounds the per-candidate
//! approximation error. The search itself can lose at most `2S` more: if
//! the true optimum `S*` was pruned, exchanging its members for centroids
//! pairs it with a candidate the scan did see whose centroid value is
//! within `2S` (each of the two substitutions costs at most `S`). The scan
//! collects every candidate within `margin = 4S + 8·tie_eps` of the best
//! centroid value before refining, so the declared certificate
//! `6S + 32·tie_eps` covers the approximation, the search deficit and the
//! tie-breaking slop with headroom. Exact clustering gives `S = 0` and a
//! pure floating-point-tie certificate.
//!
//! With a capacity model the scan switches to eager exact refinement
//! (mirroring the flat capacity branch-and-bound, with bounds widened by
//! the slack): answers are exact evaluations of scanned candidates, and
//! the certificate is meaningful when clustering is exact; with a nonzero
//! radius it applies to the unclamped objective only (see DESIGN.md §4f).

use crate::error::SolveError;
use crate::index::{
    build_upper_hull, capacity_ratio, insertion_repair, tie_eps, Consolidation, EventGroups,
    PowerTerms,
};
use crate::particles::ParticleSystem;
use coolopt_model::RoomModel;
use coolopt_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// Default ceiling on the cluster count: keeps the centroid walk
/// (`O(C³)` worst case) and the per-query scans comfortably sub-second
/// while leaving room for realistically heterogeneous fleets.
pub const DEFAULT_MAX_CLUSTERS: usize = 512;

/// How many near-optimal candidates a query re-evaluates exactly.
const REFINE_CAP: usize = 32;

/// Clustering knobs for [`HierIndex::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierConfig {
    /// Clustering tolerance on `a_i` (grid cell width; `0` = exact match).
    pub tol_a: f64,
    /// Clustering tolerance on `b_i` (grid cell width; `0` = exact match).
    pub tol_b: f64,
    /// Tolerances are doubled until at most this many clusters remain.
    pub max_clusters: usize,
}

impl HierConfig {
    /// Exact clustering: only bitwise-identical machines share a cluster
    /// and the certificate collapses to tie-breaking slop.
    pub fn exact() -> Self {
        HierConfig {
            tol_a: 0.0,
            tol_b: 0.0,
            max_clusters: DEFAULT_MAX_CLUSTERS,
        }
    }

    /// Data-driven tolerances: 1e-3 of each coordinate's span — tight
    /// enough that class-jittered fleets cluster by class, loose enough
    /// that exact duplicates always merge.
    pub fn auto(pairs: &[(f64, f64)]) -> Self {
        let span = |f: fn(&(f64, f64)) -> f64| {
            let lo = pairs.iter().map(f).fold(f64::INFINITY, f64::min);
            let hi = pairs.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
            (hi - lo).max(0.0)
        };
        HierConfig {
            tol_a: 1e-3 * span(|p| p.0),
            tol_b: 1e-3 * span(|p| p.1),
            max_clusters: DEFAULT_MAX_CLUSTERS,
        }
    }
}

/// One cluster of near-identical machines.
#[derive(Debug, Clone)]
struct Cluster {
    /// Member machine indices, ascending.
    members: Vec<u32>,
    /// Centroid `a` (the exact member value when all members agree
    /// bitwise, so exact clusters stay bit-exact; the mean otherwise).
    a: f64,
    /// Centroid `b` (same convention; positive because every member is).
    b: f64,
    /// `max |a_i − a|` over members.
    eps_a: f64,
    /// `max |b_i − b|` over members.
    eps_b: f64,
}

/// One deduplicated status row of the centroid system: the cluster-prefix
/// of length `c` over one maximal interval of centroid orders sharing both
/// its *set* and its *boundary cluster*. Covers every candidate size
/// `k = k_lo + j, j ∈ [1, m_last]` (full clusters at positions
/// `0..c−1` plus the first `j` members of the boundary cluster `last`).
#[derive(Debug, Clone, Copy)]
struct HierRow {
    /// A time strictly inside the row's first validity interval;
    /// re-sorting centroid coordinates here reproduces the prefix.
    sample: f64,
    /// Prefix length in clusters.
    c: u32,
    /// Boundary cluster (centroid-order position `c − 1` at `sample`).
    last: u32,
    /// Machines in the full clusters (positions `0..c−1`).
    k_lo: u32,
    /// `k_lo + m_last`: the largest candidate size this row covers.
    k_hi: u32,
    /// Member-weighted `Σ m·a` over the full clusters.
    sum_a0: f64,
    /// Member-weighted `Σ m·b` over the full clusters.
    sum_b0: f64,
    /// Maximum servable load of the *full* prefix (`j = m_last`) at the
    /// row's validity start — the Algorithm 2 sort key.
    lmax: f64,
}

/// The rows of one prefix length `c`, plus load-free prune data.
#[derive(Debug, Clone, Default)]
struct HierClass {
    /// Indices into [`HierIndex::rows`].
    rows: Vec<u32>,
    /// Smallest candidate size any row covers (`min k_lo + 1`).
    k_min: u32,
    /// Largest candidate size any row covers (`max k_hi`).
    k_max: u32,
    /// Load-free ratio ceiling: `max t(j, L=0)` over rows and endpoint
    /// `j ∈ {1, m}` (ratios only fall as the load grows, and `t(j)` is
    /// monotone in `j`, so this dominates every candidate).
    t0_max: f64,
}

/// Lazily-built per-class envelopes: upper hulls of the ratio lines at the
/// two `j` endpoints (`t(j)` is monotone in `j` — its derivative's
/// numerator `a_l·B0 − b_l·A0 + b_l·L` is `j`-free — so the endpoint
/// envelopes bound every candidate of the class).
#[derive(Debug, Clone)]
struct ClassHulls {
    /// Hull over the full-prefix lines (`j = m_last`).
    full_hull: Vec<u32>,
    full_breaks: Vec<f64>,
    /// Hull over the first-member lines (`j = 1`).
    first_hull: Vec<u32>,
    first_breaks: Vec<f64>,
}

/// A candidate scored on centroid sums only.
#[derive(Debug, Clone, Copy)]
struct CandHat {
    row: u32,
    j: u32,
    k: u32,
    t_hat: f64,
    rel_hat: f64,
}

/// The hierarchical clustered consolidation index. See the module docs.
#[derive(Debug)]
pub struct HierIndex {
    /// The original `(a_i, b_i)` pairs (exact per-machine refinement sums).
    pairs: Vec<(f64, f64)>,
    /// The centroid kinetic system (one particle per cluster).
    centroids: ParticleSystem,
    clusters: Vec<Cluster>,
    rows: Vec<HierRow>,
    /// Indexed by prefix length − 1.
    classes: Vec<HierClass>,
    /// Lazily-built envelopes, parallel to `classes`.
    hulls: Vec<OnceLock<ClassHulls>>,
    /// Row indices sorted by ascending `lmax` (Algorithm 2).
    rows_by_lmax: Vec<u32>,
    /// `rows[rows_by_lmax[i]].lmax`, for the binary search.
    lmax_sorted: Vec<f64>,
    /// Worst cluster radii.
    eps_a: f64,
    eps_b: f64,
    /// Smallest machine speed (centroid speeds can be no smaller).
    b_min: f64,
    /// Effective (post-widening) configuration.
    config: HierConfig,
    /// How many tolerance doublings the cluster cap forced.
    widenings: u32,
}

/// Grid cell of one coordinate: tolerance-quantized, or the exact bit
/// pattern at tolerance zero.
fn quantize(v: f64, tol: f64) -> u64 {
    if tol > 0.0 {
        ((v / tol).floor() as i64) as u64
    } else {
        v.to_bits()
    }
}

/// Centroid + radius of one member coordinate: the exact value when all
/// members agree bitwise (keeps exact clusters bit-exact), else the mean.
fn centroid_of(vals: &[f64]) -> (f64, f64) {
    let first = vals[0];
    if vals.iter().all(|v| v.to_bits() == first.to_bits()) {
        return (first, 0.0);
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let radius = vals.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
    (mean, radius)
}

/// Groups `pairs` into clusters at the given tolerances, ordered by
/// smallest member index (deterministic regardless of grid layout).
fn cluster_at(pairs: &[(f64, f64)], tol_a: f64, tol_b: f64) -> Vec<Cluster> {
    let mut cells: BTreeMap<(u64, u64), Vec<u32>> = BTreeMap::new();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        cells
            .entry((quantize(a, tol_a), quantize(b, tol_b)))
            .or_default()
            .push(i as u32);
    }
    let mut clusters: Vec<Cluster> = cells
        .into_values()
        .map(|members| {
            let avals: Vec<f64> = members.iter().map(|&i| pairs[i as usize].0).collect();
            let bvals: Vec<f64> = members.iter().map(|&i| pairs[i as usize].1).collect();
            let (a, eps_a) = centroid_of(&avals);
            let (b, eps_b) = centroid_of(&bvals);
            Cluster {
                members,
                a,
                b,
                eps_a,
                eps_b,
            }
        })
        .collect();
    clusters.sort_by_key(|c| c.members[0]);
    clusters
}

impl HierIndex {
    /// Clusters the fleet, walks the centroid kinetic system and stores
    /// the `O(C²)` cluster-prefix rows.
    ///
    /// # Errors
    ///
    /// [`SolveError::DegenerateModel`] for empty input, non-positive
    /// speeds, or a non-finite / non-positive-capacity configuration.
    pub fn build(pairs: &[(f64, f64)], config: HierConfig) -> Result<Self, SolveError> {
        if !config.tol_a.is_finite()
            || !config.tol_b.is_finite()
            || config.tol_a < 0.0
            || config.tol_b < 0.0
            || config.max_clusters == 0
        {
            return Err(SolveError::DegenerateModel {
                what: format!(
                    "invalid hierarchical config: tol_a={}, tol_b={}, max_clusters={}",
                    config.tol_a, config.tol_b, config.max_clusters
                ),
            });
        }
        // Validates the pairs (finite, b > 0) before any clustering.
        ParticleSystem::new(pairs).map_err(|e| SolveError::DegenerateModel {
            what: e.to_string(),
        })?;
        let mut span = telemetry::span("hier_build")
            .attr("n", pairs.len())
            .record_into("coolopt_hier_build_seconds");

        // Adaptive widening: double the tolerances until the cluster
        // count fits. Zero tolerances are seeded from the data span so
        // continuous fleets converge too.
        let span_of = |f: fn(&(f64, f64)) -> f64| {
            let lo = pairs.iter().map(f).fold(f64::INFINITY, f64::min);
            let hi = pairs.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
            (hi - lo).max(0.0)
        };
        let (mut tol_a, mut tol_b) = (config.tol_a, config.tol_b);
        let mut widenings = 0u32;
        let mut clusters = cluster_at(pairs, tol_a, tol_b);
        while clusters.len() > config.max_clusters && widenings < 200 {
            let widen = |tol: f64, span: f64| {
                if tol > 0.0 {
                    tol * 2.0
                } else {
                    (1e-6 * span).max(f64::MIN_POSITIVE)
                }
            };
            tol_a = widen(tol_a, span_of(|p| p.0));
            tol_b = widen(tol_b, span_of(|p| p.1));
            widenings += 1;
            clusters = cluster_at(pairs, tol_a, tol_b);
        }
        let effective = HierConfig {
            tol_a,
            tol_b,
            ..config
        };

        let cpairs: Vec<(f64, f64)> = clusters.iter().map(|c| (c.a, c.b)).collect();
        let centroids = ParticleSystem::new(&cpairs).map_err(|e| SolveError::DegenerateModel {
            what: format!("centroid system: {e}"),
        })?;
        let rows = Self::walk_rows(&centroids, &clusters);

        let cn = clusters.len();
        let mut classes = vec![
            HierClass {
                rows: Vec::new(),
                k_min: u32::MAX,
                k_max: 0,
                t0_max: f64::NEG_INFINITY,
            };
            cn
        ];
        for (i, r) in rows.iter().enumerate() {
            let cl = &clusters[r.last as usize];
            let m = cl.members.len() as f64;
            let class = &mut classes[(r.c - 1) as usize];
            class.rows.push(i as u32);
            class.k_min = class.k_min.min(r.k_lo + 1);
            class.k_max = class.k_max.max(r.k_hi);
            let t1 = (r.sum_a0 + cl.a) / (r.sum_b0 + cl.b);
            let tm = (r.sum_a0 + m * cl.a) / (r.sum_b0 + m * cl.b);
            class.t0_max = class.t0_max.max(t1).max(tm);
        }

        let mut rows_by_lmax: Vec<u32> = (0..rows.len() as u32).collect();
        rows_by_lmax.sort_by(|&x, &y| {
            rows[x as usize]
                .lmax
                .partial_cmp(&rows[y as usize].lmax)
                .expect("lmax is finite")
                .then(x.cmp(&y))
        });
        let lmax_sorted: Vec<f64> = rows_by_lmax
            .iter()
            .map(|&r| rows[r as usize].lmax)
            .collect();

        let eps_a = clusters.iter().map(|c| c.eps_a).fold(0.0, f64::max);
        let eps_b = clusters.iter().map(|c| c.eps_b).fold(0.0, f64::max);
        let b_min = pairs.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);

        telemetry::counter("coolopt_hier_builds_total").inc();
        span.set_attr("clusters", cn);
        span.set_attr("rows", rows.len());
        Ok(HierIndex {
            pairs: pairs.to_vec(),
            centroids,
            hulls: (0..cn).map(|_| OnceLock::new()).collect(),
            clusters,
            rows,
            classes,
            rows_by_lmax,
            lmax_sorted,
            eps_a,
            eps_b,
            b_min,
            config: effective,
            widenings,
        })
    }

    /// The centroid-system walk: emits one row per cluster-prefix whose
    /// *set* or *boundary cluster* changed across an event group (a swap
    /// at positions `(p, p+1)` changes prefix `p+2`'s boundary without
    /// changing its set, so both triggers are necessary), over the shared
    /// [`EventGroups`] sample convention.
    fn walk_rows(centroids: &ParticleSystem, clusters: &[Cluster]) -> Vec<HierRow> {
        let cn = clusters.len();
        let m: Vec<u64> = clusters.iter().map(|c| c.members.len() as u64).collect();
        let groups = EventGroups::new(centroids.events());
        let mut rows = Vec::new();
        let mut ord = centroids.order_at(0.0);
        let emit_walk = |rows: &mut Vec<HierRow>,
                         ord: &[usize],
                         prev: Option<&[usize]>,
                         since: f64,
                         sample: f64,
                         delta: &mut [i32]| {
            let mut nonzero = 0usize;
            let (mut k_cum, mut a_cum, mut b_cum) = (0u64, 0.0f64, 0.0f64);
            for pos in 0..cn {
                let (changed_set, changed_boundary) = match prev {
                    None => (true, true),
                    Some(prev) => {
                        let mut bump = |cl: usize, by: i32| {
                            let was = delta[cl];
                            delta[cl] += by;
                            if was == 0 {
                                nonzero += 1;
                            } else if delta[cl] == 0 {
                                nonzero -= 1;
                            }
                        };
                        bump(prev[pos], 1);
                        bump(ord[pos], -1);
                        (nonzero != 0, prev[pos] != ord[pos])
                    }
                };
                let last = ord[pos];
                if changed_set || changed_boundary {
                    let mw = m[last] as f64;
                    let (a_full, b_full) =
                        (a_cum + mw * clusters[last].a, b_cum + mw * clusters[last].b);
                    rows.push(HierRow {
                        sample,
                        c: (pos + 1) as u32,
                        last: last as u32,
                        k_lo: k_cum as u32,
                        k_hi: (k_cum + m[last]) as u32,
                        sum_a0: a_cum,
                        sum_b0: b_cum,
                        lmax: a_full - since * b_full,
                    });
                }
                k_cum += m[last];
                a_cum += m[last] as f64 * clusters[last].a;
                b_cum += m[last] as f64 * clusters[last].b;
            }
        };
        let mut delta = vec![0i32; cn];
        emit_walk(&mut rows, &ord, None, 0.0, 0.0, &mut delta);
        let mut prev = ord.clone();
        let mut coords = vec![0.0f64; cn];
        for g in 0..groups.count() {
            let since = groups.time(g);
            let sample = groups.sample(g);
            prev.copy_from_slice(&ord);
            for (i, c) in coords.iter_mut().enumerate() {
                *c = centroids.coordinate(i, sample);
            }
            insertion_repair(&mut ord, &coords);
            if ord == prev {
                continue;
            }
            emit_walk(&mut rows, &ord, Some(&prev), since, sample, &mut delta);
        }
        rows
    }

    /// Number of machines indexed.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` for an index over zero machines (impossible after build).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of clusters (`C`).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of stored cluster-prefix rows (`O(C²)`).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// How many per-class envelopes queries have materialized so far.
    pub fn hulls_built(&self) -> usize {
        self.hulls.iter().filter(|h| h.get().is_some()).count()
    }

    /// Worst cluster radius on `a`.
    pub fn eps_a(&self) -> f64 {
        self.eps_a
    }

    /// Worst cluster radius on `b`.
    pub fn eps_b(&self) -> f64 {
        self.eps_b
    }

    /// `true` when every cluster is bitwise-homogeneous (zero radius):
    /// refined answers are then bit-identical to the flat index.
    pub fn is_exact(&self) -> bool {
        self.eps_a == 0.0 && self.eps_b == 0.0
    }

    /// The effective configuration (tolerances after adaptive widening).
    pub fn config(&self) -> HierConfig {
        self.config
    }

    /// How many tolerance doublings the cluster cap forced at build time.
    pub fn widenings(&self) -> u32 {
        self.widenings
    }

    /// Centroid sums of row `r` at boundary slice `j`.
    #[inline]
    fn row_ab(&self, r: &HierRow, j: f64) -> (f64, f64) {
        let cl = &self.clusters[r.last as usize];
        (r.sum_a0 + j * cl.a, r.sum_b0 + j * cl.b)
    }

    /// The lazily-built envelopes of class `ci`.
    fn class_hulls(&self, ci: usize) -> &ClassHulls {
        if let Some(h) = self.hulls[ci].get() {
            telemetry::counter("coolopt_hier_hull_hits_total").inc();
            return h;
        }
        self.hulls[ci].get_or_init(|| {
            telemetry::counter("coolopt_hier_hull_builds_total").inc();
            let rows = &self.rows;
            let clusters = &self.clusters;
            let ids = self.classes[ci].rows.clone();
            let (full_hull, full_breaks) = build_upper_hull(
                ids.clone(),
                |r| {
                    let row = &rows[r as usize];
                    let cl = &clusters[row.last as usize];
                    row.sum_a0 + cl.members.len() as f64 * cl.a
                },
                |r| {
                    let row = &rows[r as usize];
                    let cl = &clusters[row.last as usize];
                    1.0 / (row.sum_b0 + cl.members.len() as f64 * cl.b)
                },
            );
            let (first_hull, first_breaks) = build_upper_hull(
                ids,
                |r| {
                    let row = &rows[r as usize];
                    row.sum_a0 + clusters[row.last as usize].a
                },
                |r| {
                    let row = &rows[r as usize];
                    1.0 / (row.sum_b0 + clusters[row.last as usize].b)
                },
            );
            ClassHulls {
                full_hull,
                full_breaks,
                first_hull,
                first_breaks,
            }
        })
    }

    /// Best (largest) centroid ratio any candidate of class `ci` can
    /// reach at `load`: the max of the two endpoint envelopes.
    fn class_t_bound(&self, ci: usize, load: f64) -> f64 {
        let hulls = self.class_hulls(ci);
        let eval = |hull: &[u32], breaks: &[f64], full: bool| -> f64 {
            if hull.is_empty() {
                return f64::NEG_INFINITY;
            }
            let i = breaks.partition_point(|&x| x <= load);
            let row = &self.rows[hull[i] as usize];
            let j = if full {
                self.clusters[row.last as usize].members.len() as f64
            } else {
                1.0
            };
            let (a, b) = self.row_ab(row, j);
            (a - load) / b
        };
        eval(&hulls.full_hull, &hulls.full_breaks, true).max(eval(
            &hulls.first_hull,
            &hulls.first_breaks,
            false,
        ))
    }

    /// Smallest boundary slice `j ≥ 1` whose candidate size can carry the
    /// load, or `None` when even the full row cannot.
    fn feasible_j_lo(&self, r: &HierRow, load: f64) -> Option<u32> {
        let m = self.clusters[r.last as usize].members.len() as u32;
        let mut j = if load > (r.k_lo + 1) as f64 {
            ((load - r.k_lo as f64).ceil() as i64).max(1) as u32
        } else {
            1
        };
        // Float guard: `ceil` of an exact difference can still land one
        // short after rounding.
        while j <= m && ((r.k_lo + j) as f64) < load {
            j += 1;
        }
        (j <= m).then_some(j)
    }

    /// The candidate boundary slices of one row for one load: both
    /// feasibility endpoints, the interior stationary point of the convex
    /// objective (`B* = √(ρ·D/w2)` where `D = a_l·B0 − b_l·A0 + b_l·L` is
    /// the `j`-free numerator of `dt/dj`), and the cap crossing when a
    /// supply ceiling is active. `rel(j) = (k_lo+j)·w2 − ρ·min(t(j), cap)`
    /// is the max of a convex and an increasing-affine function of `j`
    /// when `D ≥ 0` and strictly increasing when `D < 0`, so its minimum
    /// over any feasible interval is at one of these points.
    fn candidate_js(&self, r: &HierRow, load: f64, terms: &PowerTerms, out: &mut Vec<u32>) {
        out.clear();
        let Some(j_lo) = self.feasible_j_lo(r, load) else {
            return;
        };
        let cl = &self.clusters[r.last as usize];
        let m = cl.members.len() as u32;
        let mut push = |j: i64| {
            if j >= j_lo as i64 && j <= m as i64 {
                let j = j as u32;
                if !out.contains(&j) {
                    out.push(j);
                }
            }
        };
        push(j_lo as i64);
        push(m as i64);
        let d = cl.a * r.sum_b0 - cl.b * r.sum_a0 + cl.b * load;
        if d > 0.0 && terms.w2 > 0.0 {
            let b_star = (terms.rho * d / terms.w2).sqrt();
            let j_star = (b_star - r.sum_b0) / cl.b;
            if j_star.is_finite() {
                push(j_star.floor() as i64);
                push(j_star.ceil() as i64);
            }
        }
        if let Some(cap) = terms.t_cap {
            let den = cl.a - cap * cl.b;
            if den != 0.0 {
                let j_cap = (cap * r.sum_b0 - r.sum_a0 + load) / den;
                if j_cap.is_finite() {
                    push(j_cap.floor() as i64);
                    push(j_cap.ceil() as i64);
                }
            }
        }
    }

    /// Feasible classes with their load-free optimistic bounds, sorted
    /// ascending (so scans can stop at the first bound that fails).
    fn class_scan_order(&self, terms: &PowerTerms, load: f64) -> Vec<(f64, u32)> {
        let cap = terms.t_cap.unwrap_or(f64::INFINITY);
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(self.classes.len());
        for (ci, class) in self.classes.iter().enumerate() {
            if class.rows.is_empty() || class.t0_max <= 0.0 {
                continue;
            }
            let kf = (class.k_min as f64).max(load.ceil());
            if kf > class.k_max as f64 {
                continue; // even the largest candidate cannot carry the load
            }
            let bound = kf * terms.w2 - terms.rho * class.t0_max.min(cap);
            order.push((bound, ci as u32));
        }
        order.sort_by(|x, y| {
            x.0.partial_cmp(&y.0)
                .expect("bounds finite")
                .then(x.1.cmp(&y.1))
        });
        order
    }

    /// Load-adjusted optimistic bound of one class via its lazy hulls.
    fn class_bound_at(&self, ci: usize, terms: &PowerTerms, load: f64) -> f64 {
        let t_up = self.class_t_bound(ci, load);
        if t_up <= 0.0 {
            return f64::INFINITY;
        }
        let cap = terms.t_cap.unwrap_or(f64::INFINITY);
        let kf = (self.classes[ci].k_min as f64).max(load.ceil());
        kf * terms.w2 - terms.rho * t_up.min(cap)
    }

    /// An a-priori ceiling on every ratio the certificate has to cover,
    /// from the incumbent: any candidate within the margin of the best
    /// satisfies `ρ·t ≥ k·w2 − rel ≥ w2·k_min − best − margin`, and `t` of
    /// the *true* optimum relates to centroid ratios through the radius
    /// recursion `t ≤ (t̂ + δ_a/b_min)/(1 − δ_b/b_min)`. Solving with
    /// 3× headroom on the radius terms gives the closed form below;
    /// `None` (unbounded) when the radii are too large relative to
    /// `b_min` for the recursion to converge.
    fn ratio_upper_bound(&self, terms: &PowerTerms, best: &CandHat) -> Option<f64> {
        let n = self.len() as f64;
        let base = best
            .t_hat
            .max((n * terms.w2 - best.rel_hat) / terms.rho)
            .max(0.0);
        let p = 3.0 * self.eps_a / self.b_min;
        let q = 3.0 * self.eps_b / self.b_min;
        if q >= 1.0 {
            return None;
        }
        let mut t_up = (base + p) / (1.0 - q);
        if let Some(cap) = terms.t_cap {
            // Ratios beyond the cap saturate the objective; errors there
            // are bounded by errors at the cap.
            t_up = t_up.min(cap.max(base));
        }
        t_up.is_finite().then_some(t_up)
    }

    /// Exact minimum-power query with a certified error bound: the
    /// returned `f64` is an absolute bound on
    /// `|answer.relative_power − exact minimum relative power|`
    /// (`f64::INFINITY` when the radii are too large to certify — only
    /// possible with extreme tolerance configs). See the module docs for
    /// the derivation.
    ///
    /// # Errors
    ///
    /// [`SolveError::LoadOutOfRange`] for a negative or non-finite load.
    pub fn query_min_power_bounded(
        &self,
        terms: &PowerTerms,
        total_load: f64,
        capacity_model: Option<&RoomModel>,
    ) -> Result<Option<(Consolidation, f64)>, SolveError> {
        if !total_load.is_finite() || total_load < 0.0 {
            return Err(SolveError::LoadOutOfRange {
                load: total_load,
                max: self.len() as f64,
            });
        }
        let _span = telemetry::span("hier_query")
            .attr("load", total_load)
            .record_into("coolopt_hier_query_seconds");
        telemetry::counter("coolopt_hier_queries_total").inc();
        match capacity_model {
            None => Ok(self.query_uncapacitated(terms, total_load)),
            Some(model) => Ok(self.query_capacitated(terms, total_load, model)),
        }
    }

    /// [`query_min_power_bounded`] without the certificate — the drop-in
    /// signature shared with the flat index.
    ///
    /// # Errors
    ///
    /// Same conditions as [`query_min_power_bounded`].
    ///
    /// [`query_min_power_bounded`]: HierIndex::query_min_power_bounded
    pub fn query_min_power(
        &self,
        terms: &PowerTerms,
        total_load: f64,
        capacity_model: Option<&RoomModel>,
    ) -> Result<Option<Consolidation>, SolveError> {
        Ok(self
            .query_min_power_bounded(terms, total_load, capacity_model)?
            .map(|(c, _)| c))
    }

    /// The two-pass uncapacitated scan: pass 1 finds the best centroid
    /// candidate under aggressive pruning; pass 2 re-collects everything
    /// within the certificate margin and re-evaluates the top
    /// [`REFINE_CAP`] exactly.
    fn query_uncapacitated(&self, terms: &PowerTerms, load: f64) -> Option<(Consolidation, f64)> {
        let order = self.class_scan_order(terms, load);
        let mut js = Vec::new();
        let mut pruned = 0u64;
        let mut evaluated = 0u64;

        // Pass 1: incumbent search on centroid sums.
        let mut best: Option<CandHat> = None;
        for &(bound0, ci) in &order {
            if let Some(b) = &best {
                if bound0 >= b.rel_hat {
                    pruned += 1;
                    break; // sorted: every later class is worse
                }
                if self.class_bound_at(ci as usize, terms, load) >= b.rel_hat {
                    pruned += 1;
                    continue;
                }
            }
            for &ri in &self.classes[ci as usize].rows {
                let r = &self.rows[ri as usize];
                self.candidate_js(r, load, terms, &mut js);
                for &j in js.iter() {
                    let (a, b_sum) = self.row_ab(r, j as f64);
                    let t_hat = (a - load) / b_sum;
                    if t_hat <= 0.0 {
                        continue;
                    }
                    let k = r.k_lo + j;
                    let rel_hat = terms.relative_power(k as usize, t_hat);
                    evaluated += 1;
                    let cand = CandHat {
                        row: ri,
                        j,
                        k,
                        t_hat,
                        rel_hat,
                    };
                    if improves_hat(&best, &cand) {
                        best = Some(cand);
                    }
                }
            }
        }
        telemetry::counter("coolopt_hier_classes_pruned_total").add(pruned);
        telemetry::counter("coolopt_hier_rows_evaluated_total").add(evaluated);
        let best = best?;

        // Certificate: per-candidate slack and the search margin.
        let slack = match self.ratio_upper_bound(terms, &best) {
            Some(t_up) => terms.rho * (self.eps_a + t_up * self.eps_b) / self.b_min,
            None => f64::INFINITY,
        };
        let ties = tie_eps(best.rel_hat);
        let (margin, declared) = if slack.is_finite() {
            (4.0 * slack + 8.0 * ties, 6.0 * slack + 32.0 * ties)
        } else {
            (0.0, f64::INFINITY)
        };

        // Pass 2: everything within the margin.
        let threshold = best.rel_hat + margin;
        let mut cands: Vec<CandHat> = Vec::new();
        for &(bound0, ci) in &order {
            if bound0 > threshold {
                break;
            }
            if self.class_bound_at(ci as usize, terms, load) > threshold {
                continue;
            }
            for &ri in &self.classes[ci as usize].rows {
                let r = &self.rows[ri as usize];
                self.candidate_js(r, load, terms, &mut js);
                for &j in js.iter() {
                    let (a, b_sum) = self.row_ab(r, j as f64);
                    let t_hat = (a - load) / b_sum;
                    if t_hat <= 0.0 {
                        continue;
                    }
                    let k = r.k_lo + j;
                    let rel_hat = terms.relative_power(k as usize, t_hat);
                    if rel_hat <= threshold {
                        cands.push(CandHat {
                            row: ri,
                            j,
                            k,
                            t_hat,
                            rel_hat,
                        });
                        if cands.len() >= 4 * REFINE_CAP {
                            sort_cands(&mut cands);
                            cands.truncate(REFINE_CAP);
                        }
                    }
                }
            }
        }
        sort_cands(&mut cands);
        cands.truncate(REFINE_CAP);

        // Refinement: exact sequential sums over the materialized prefix —
        // the same arithmetic order as the flat index, so exact clusters
        // reproduce flat answers bit-for-bit.
        let mut prefixes: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut winner: Option<(CandHat, Vec<usize>, f64, f64)> = None;
        for cand in &cands {
            telemetry::counter("coolopt_hier_refinements_total").inc();
            let on = self.materialize(cand.row as usize, cand.k as usize, &mut prefixes);
            let (mut sa, mut sb) = (0.0f64, 0.0f64);
            for &i in &on {
                sa += self.pairs[i].0;
                sb += self.pairs[i].1;
            }
            let t = (sa - load) / sb;
            if t <= 0.0 {
                continue;
            }
            let rel = terms.relative_power(cand.k as usize, t);
            let better = match &winner {
                None => true,
                Some((w, _, w_t, w_rel)) => {
                    improves_exact(w.k as usize, *w_t, *w_rel, cand.k as usize, t, rel)
                }
            };
            if better {
                winner = Some((*cand, on, t, rel));
            }
        }
        let (cand, on, t, rel) = winner?;
        Some((
            Consolidation {
                on,
                k: cand.k as usize,
                t,
                relative_power: rel,
            },
            declared,
        ))
    }

    /// Capacity-mode scan: eager exact refinement under slack-widened
    /// optimistic bounds (the hierarchical mirror of the flat capacity
    /// branch-and-bound). Within a row, `rel(j)` is convex (or strictly
    /// increasing), so the ascending-`j` scan stops at the first bound
    /// failure past the minimum.
    fn query_capacitated(
        &self,
        terms: &PowerTerms,
        load: f64,
        model: &RoomModel,
    ) -> Option<(Consolidation, f64)> {
        let covers = model.len() >= self.len();
        let cap = terms.t_cap.unwrap_or(f64::INFINITY);
        // Load-free slack: the certificate recursion needs an incumbent,
        // so the capacity path uses the global ratio ceiling instead.
        let t0_global = self
            .classes
            .iter()
            .map(|c| c.t0_max)
            .fold(0.0f64, f64::max)
            .min(cap);
        let slack0 = terms.rho * (self.eps_a + t0_global * self.eps_b) / self.b_min;
        let order = self.class_scan_order(terms, load);
        let mut prefixes: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut pruned = 0u64;
        let mut refined = 0u64;
        let mut best: Option<(CandHat, Vec<usize>, f64, f64)> = None;
        let beats = |best: &Option<(CandHat, Vec<usize>, f64, f64)>, k: f64, bound: f64| match best
        {
            None => true,
            Some((w, _, _, w_rel)) => {
                let eps = tie_eps(*w_rel);
                bound < w_rel - eps || (bound < w_rel + eps && k <= w.k as f64)
            }
        };
        for &(bound0, ci) in &order {
            let kf = (self.classes[ci as usize].k_min as f64).max(load.ceil());
            if !beats(&best, kf, bound0 - slack0) {
                pruned += 1;
                break; // sorted by bound0: nothing later can recover
            }
            if !beats(
                &best,
                kf,
                self.class_bound_at(ci as usize, terms, load) - slack0,
            ) {
                pruned += 1;
                continue;
            }
            for &ri in &self.classes[ci as usize].rows {
                let r = &self.rows[ri as usize];
                let Some(j_lo) = self.feasible_j_lo(r, load) else {
                    continue;
                };
                // Direction of t(j): the j-free numerator of dt/dj.
                let cl = &self.clusters[r.last as usize];
                let d = cl.a * r.sum_b0 - cl.b * r.sum_a0 + cl.b * load;
                let m = cl.members.len() as u32;
                let mut prev_rel = f64::NEG_INFINITY;
                for j in j_lo..=m {
                    let (a, b_sum) = self.row_ab(r, j as f64);
                    let t_hat = (a - load) / b_sum;
                    let k = r.k_lo + j;
                    if t_hat <= 0.0 {
                        if d <= 0.0 {
                            break; // t only falls from here
                        }
                        continue;
                    }
                    let rel_hat = terms.relative_power(k as usize, t_hat);
                    if beats(&best, k as f64, rel_hat - slack0) {
                        refined += 1;
                        let on = self.materialize(ri as usize, k as usize, &mut prefixes);
                        if let Some(t) = capacity_ratio(model, covers, &on, load) {
                            let rel = terms.relative_power(k as usize, t);
                            let better = match &best {
                                None => true,
                                Some((w, _, w_t, w_rel)) => {
                                    improves_exact(w.k as usize, *w_t, *w_rel, k as usize, t, rel)
                                }
                            };
                            if better {
                                best = Some((
                                    CandHat {
                                        row: ri,
                                        j,
                                        k,
                                        t_hat,
                                        rel_hat,
                                    },
                                    on,
                                    t,
                                    rel,
                                ));
                            }
                        }
                    } else if rel_hat >= prev_rel && (d < 0.0 || j > j_lo) {
                        // Convex/increasing: once failing on the rising
                        // flank, every later j fails too.
                        break;
                    }
                    prev_rel = rel_hat;
                }
            }
        }
        telemetry::counter("coolopt_hier_classes_pruned_total").add(pruned);
        telemetry::counter("coolopt_hier_refinements_total").add(refined);
        let (cand, on, t, rel) = best?;
        let declared = match self.ratio_upper_bound(terms, &cand) {
            Some(t_up) => {
                let slack = terms.rho * (self.eps_a + t_up * self.eps_b) / self.b_min;
                6.0 * slack + 32.0 * tie_eps(rel)
            }
            None => f64::INFINITY,
        };
        Some((
            Consolidation {
                on,
                k: cand.k as usize,
                t,
                relative_power: rel,
            },
            declared,
        ))
    }

    /// The ON set of a row's size-`k` candidate: clusters in centroid
    /// order at the row's sample time, each cluster's members ascending,
    /// truncated at `k`. For exact clusters this is exactly the flat
    /// index's coordinate-descending/index-ascending prefix. Full-prefix
    /// materializations are cached per row across one query.
    fn materialize(
        &self,
        row: usize,
        k: usize,
        cache: &mut HashMap<u32, Vec<usize>>,
    ) -> Vec<usize> {
        let r = &self.rows[row];
        let full = cache.entry(row as u32).or_insert_with(|| {
            let ord = self.centroids.order_at(r.sample);
            debug_assert_eq!(ord[(r.c - 1) as usize], r.last as usize);
            let mut on = Vec::with_capacity(r.k_hi as usize);
            for &cl in ord.iter().take(r.c as usize) {
                on.extend(self.clusters[cl].members.iter().map(|&m| m as usize));
            }
            on
        });
        full[..k].to_vec()
    }

    /// The paper's Algorithm 2 at cluster resolution: binary search the
    /// rows by maximum servable load and return the first full
    /// cluster-prefix that can serve `total_load`. Like the flat
    /// [`crate::index::ConsolidationIndex::query_online`], the power
    /// objective is never evaluated (`relative_power` is `NaN`); the
    /// ratio is the centroid approximation.
    pub fn query_online(&self, total_load: f64) -> Option<Consolidation> {
        let i = self.lmax_sorted.partition_point(|&l| l <= total_load);
        if i >= self.lmax_sorted.len() {
            return None;
        }
        let ri = self.rows_by_lmax[i] as usize;
        let r = self.rows[ri];
        let m = self.clusters[r.last as usize].members.len() as f64;
        let (a, b) = self.row_ab(&r, m);
        let on = self.materialize(ri, r.k_hi as usize, &mut HashMap::new());
        Some(Consolidation {
            on,
            k: r.k_hi as usize,
            t: (a - total_load) / b,
            relative_power: f64::NAN,
        })
    }

    /// Batched [`query_min_power`]: validates every load up front (no
    /// partial answers), then answers each singly, cloning bit-equal
    /// duplicate loads from their first occurrence.
    ///
    /// # Errors
    ///
    /// [`SolveError::LoadOutOfRange`] if *any* load is negative or
    /// non-finite.
    ///
    /// [`query_min_power`]: HierIndex::query_min_power
    pub fn query_batch(
        &self,
        terms: &PowerTerms,
        loads: &[f64],
        capacity_model: Option<&RoomModel>,
    ) -> Result<Vec<Option<Consolidation>>, SolveError> {
        for &load in loads {
            if !load.is_finite() || load < 0.0 {
                return Err(SolveError::LoadOutOfRange {
                    load,
                    max: self.len() as f64,
                });
            }
        }
        let _span = telemetry::span("hier_query_batch")
            .attr("loads", loads.len())
            .record_into("coolopt_hier_query_seconds");
        let mut results: Vec<Option<Consolidation>> = vec![None; loads.len()];
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for (i, &load) in loads.iter().enumerate() {
            if let Some(&src) = seen.get(&load.to_bits()) {
                results[i] = results[src].clone();
                continue;
            }
            results[i] = self.query_min_power(terms, load, capacity_model)?;
            seen.insert(load.to_bits(), i);
        }
        Ok(results)
    }
}

/// The flat index's winner comparator on exact values: strictly cheaper
/// wins; power ties prefer fewer machines, then more thermal margin.
fn improves_exact(b_k: usize, b_t: f64, b_rel: f64, k: usize, t: f64, rel: f64) -> bool {
    let eps = tie_eps(b_rel);
    rel < b_rel - eps || (rel < b_rel + eps && (k < b_k || (k == b_k && t > b_t + 1e-9)))
}

/// The same comparator on centroid approximations (deterministic incumbent
/// selection in pass 1).
fn improves_hat(best: &Option<CandHat>, cand: &CandHat) -> bool {
    match best {
        None => true,
        Some(b) => improves_exact(
            b.k as usize,
            b.t_hat,
            b.rel_hat,
            cand.k as usize,
            cand.t_hat,
            cand.rel_hat,
        ),
    }
}

/// Deterministic refinement order: cheapest centroid value first, then
/// fewer machines, then stable row/slice identity.
fn sort_cands(cands: &mut [CandHat]) {
    cands.sort_by(|x, y| {
        x.rel_hat
            .partial_cmp(&y.rel_hat)
            .expect("relative powers are finite")
            .then(x.k.cmp(&y.k))
            .then(x.row.cmp(&y.row))
            .then(x.j.cmp(&y.j))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ConsolidationIndex;
    use coolopt_model::{CoolingModel, PowerModel, RoomModel, ThermalModel};
    use coolopt_units::{Temperature, Watts};

    fn terms() -> PowerTerms {
        PowerTerms::unbounded(40.0, 900.0)
    }

    /// Fleet of `classes` identical-machine classes, `per` machines each,
    /// interleaved so clusters are non-contiguous in machine index.
    fn identical_fleet(classes: usize, per: usize) -> Vec<(f64, f64)> {
        let base: Vec<(f64, f64)> = (0..classes)
            .map(|c| (8.0 + 1.7 * c as f64, 0.6 + 0.45 * c as f64))
            .collect();
        (0..classes * per).map(|i| base[i % classes]).collect()
    }

    /// `identical_fleet` with deterministic per-machine jitter of scale
    /// `jit` on both coordinates.
    fn jittered_fleet(classes: usize, per: usize, jit: f64) -> Vec<(f64, f64)> {
        identical_fleet(classes, per)
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let u = ((i as u64).wrapping_mul(6364136223846793005) >> 33) as f64
                    / (1u64 << 31) as f64;
                (a + jit * (u - 0.5), b + jit * (0.7 * u - 0.35))
            })
            .collect()
    }

    #[test]
    fn exact_clusters_match_the_flat_index_bit_for_bit() {
        let pairs = identical_fleet(3, 4);
        let flat = ConsolidationIndex::build(&pairs).unwrap();
        let hier = HierIndex::build(&pairs, HierConfig::exact()).unwrap();
        assert_eq!(hier.cluster_count(), 3);
        assert!(hier.is_exact());
        for load in [0.0, 0.4, 1.0, 2.5, 5.0, 7.9, 11.5] {
            let f = flat.query_min_power(&terms(), load, None).unwrap();
            let h = hier.query_min_power(&terms(), load, None).unwrap();
            assert_eq!(f, h, "divergence at load {load}");
        }
        assert!(hier
            .query_min_power(&terms(), 12.5, None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn exact_certificate_is_tie_breaking_slop_only() {
        let pairs = identical_fleet(3, 4);
        let hier = HierIndex::build(&pairs, HierConfig::exact()).unwrap();
        let (cons, bound) = hier
            .query_min_power_bounded(&terms(), 2.0, None)
            .unwrap()
            .unwrap();
        assert!(bound <= 32.0 * tie_eps(cons.relative_power) + 1e-12);
    }

    #[test]
    fn approximate_answers_stay_within_the_certificate_of_dense() {
        let pairs = jittered_fleet(4, 6, 1e-4);
        let flat = ConsolidationIndex::build_dense(&pairs).unwrap();
        let hier = HierIndex::build(&pairs, HierConfig::auto(&pairs)).unwrap();
        assert_eq!(hier.cluster_count(), 4, "jitter must cluster by class");
        assert!(hier.eps_a() > 0.0);
        for load in [0.1, 1.0, 3.5, 7.0, 12.0, 20.0, 23.5] {
            let exact = flat.query_min_power(&terms(), load, None).unwrap();
            let approx = hier.query_min_power_bounded(&terms(), load, None).unwrap();
            match (exact, approx) {
                (Some(e), Some((h, bound))) => {
                    assert!(bound.is_finite());
                    assert!(
                        (h.relative_power - e.relative_power).abs() <= bound,
                        "load {load}: |{} - {}| > bound {bound}",
                        h.relative_power,
                        e.relative_power
                    );
                    // Refined answers are exact evaluations, so they can
                    // never beat the true minimum by more than a tie.
                    assert!(
                        h.relative_power >= e.relative_power - tie_eps(e.relative_power),
                        "load {load}: refined answer beat the exact minimum"
                    );
                }
                (None, None) => {}
                (e, h) => panic!("feasibility divergence at load {load}: {e:?} vs {h:?}"),
            }
        }
    }

    #[test]
    fn envelopes_build_lazily_per_touched_class() {
        let pairs = identical_fleet(8, 5);
        let hier = HierIndex::build(&pairs, HierConfig::exact()).unwrap();
        assert_eq!(hier.hulls_built(), 0, "build must not materialize hulls");
        hier.query_min_power(&terms(), 1.0, None).unwrap();
        let after_one = hier.hulls_built();
        assert!(after_one >= 1);
        assert!(
            after_one < hier.cluster_count(),
            "a cheap query must not touch every class"
        );
        hier.query_min_power(&terms(), 1.0, None).unwrap();
        assert_eq!(
            hier.hulls_built(),
            after_one,
            "repeat queries hit the cache"
        );
    }

    #[test]
    fn capacity_mode_matches_flat_on_exact_clusters() {
        let power = PowerModel::new(Watts::new(45.0), Watts::new(40.0)).unwrap();
        let thermal: Vec<ThermalModel> = (0..12)
            .map(|i| {
                let c = i % 3;
                let alpha = 0.95 - 0.07 * c as f64;
                let gamma = (290.0 + 1.5 * c as f64) - alpha * 290.0;
                ThermalModel::new(alpha, 0.5 + 0.04 * c as f64, gamma).unwrap()
            })
            .collect();
        let cooling = CoolingModel::new(1000.0, Temperature::from_celsius(45.0)).unwrap();
        let model = RoomModel::new(power, thermal, cooling, Temperature::from_celsius(70.0))
            .unwrap()
            .with_t_ac_max(Temperature::from_celsius(20.0));
        let pairs = model.consolidation_pairs();
        let terms = PowerTerms::from_model(&model);
        let flat = ConsolidationIndex::build(&pairs).unwrap();
        let hier = HierIndex::build(&pairs, HierConfig::exact()).unwrap();
        assert_eq!(hier.cluster_count(), 3);
        for load in [0.5, 2.0, 4.5, 8.0, 10.5] {
            let f = flat.query_min_power(&terms, load, Some(&model)).unwrap();
            let h = hier.query_min_power(&terms, load, Some(&model)).unwrap();
            assert_eq!(f, h, "capacity divergence at load {load}");
        }
    }

    #[test]
    fn adaptive_widening_respects_the_cluster_cap() {
        // Continuous fleet: every machine distinct.
        let pairs: Vec<(f64, f64)> = (0..300)
            .map(|i| (5.0 + 0.01 * i as f64, 0.5 + 0.003 * i as f64))
            .collect();
        let config = HierConfig {
            tol_a: 0.0,
            tol_b: 0.0,
            max_clusters: 16,
        };
        let hier = HierIndex::build(&pairs, config).unwrap();
        assert!(hier.cluster_count() <= 16);
        assert!(hier.widenings() > 0);
        assert!(!hier.is_exact());
        let (cons, bound) = hier
            .query_min_power_bounded(&terms(), 40.0, None)
            .unwrap()
            .unwrap();
        assert!(bound.is_finite());
        assert_eq!(cons.on.len(), cons.k);
        assert!(cons.k as f64 >= 40.0);
    }

    #[test]
    fn batch_matches_singles_and_reuses_duplicates() {
        let pairs = jittered_fleet(3, 5, 1e-4);
        let hier = HierIndex::build(&pairs, HierConfig::auto(&pairs)).unwrap();
        let loads = [3.0, 0.5, 3.0, 9.0, 0.5];
        let batch = hier.query_batch(&terms(), &loads, None).unwrap();
        for (i, &load) in loads.iter().enumerate() {
            let single = hier.query_min_power(&terms(), load, None).unwrap();
            assert_eq!(batch[i], single, "batch divergence at load {load}");
        }
        assert!(hier.query_batch(&terms(), &[1.0, -2.0], None).is_err());
    }

    #[test]
    fn query_online_serves_the_load_at_cluster_resolution() {
        let pairs = identical_fleet(4, 5);
        let hier = HierIndex::build(&pairs, HierConfig::exact()).unwrap();
        for load in [0.5, 3.0, 9.0, 14.0] {
            let c = hier.query_online(load).expect("servable load");
            assert_eq!(c.on.len(), c.k);
            assert!(c.relative_power.is_nan());
            let (sa, sb) = c.on.iter().fold((0.0, 0.0), |(sa, sb), &i| {
                (sa + pairs[i].0, sb + pairs[i].1)
            });
            assert!(sa - c.t * sb >= load - 1e-9, "prefix cannot serve the load");
        }
        assert!(hier.query_online(1e9).is_none());
    }

    #[test]
    fn rejects_bad_loads_and_bad_configs() {
        let pairs = identical_fleet(2, 3);
        let hier = HierIndex::build(&pairs, HierConfig::exact()).unwrap();
        assert!(hier.query_min_power(&terms(), -1.0, None).is_err());
        assert!(hier.query_min_power(&terms(), f64::NAN, None).is_err());
        let bad = HierConfig {
            tol_a: -1.0,
            ..HierConfig::exact()
        };
        assert!(HierIndex::build(&pairs, bad).is_err());
        let zero_cap = HierConfig {
            max_clusters: 0,
            ..HierConfig::exact()
        };
        assert!(HierIndex::build(&pairs, zero_cap).is_err());
        assert!(HierIndex::build(&[], HierConfig::exact()).is_err());
        assert!(HierIndex::build(&[(1.0, -1.0)], HierConfig::exact()).is_err());
    }
}
