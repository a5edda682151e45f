//! Optimal consolidation: the paper's Algorithm 1 (offline index) and
//! Algorithm 2 (online query), plus an exact capacity-aware query.
//!
//! For an ON-set of size `k`, the model-predicted total power collapses to
//! (Eq. 23)
//!
//! ```text
//! P_total = k·w2 − ρ·t + θ,   t = (Σ_{i∈ON} a_i − L) / Σ_{i∈ON} b_i,
//! ρ = c·f_ac·w1,              θ = c·f_ac·T_SP + w1·L.
//! ```
//!
//! `θ` is shared by every candidate of one query, so minimizing power means
//! maximizing `ρ·t − k·w2` over subsets — and for each `k` the best subset
//! is a top-`k` prefix of the particle order at the optimizing `t`
//! (Dinkelbach / exchange argument, see [`crate::particles`]).
//!
//! # Index v2: the transposition delta
//!
//! The paper's literal Algorithm 1 recomputes all `n` prefix sums at each of
//! the `O(n²)` order snapshots and stores all of them: `O(n³ log n)` build
//! work and an `O(n³)` table. But adjacent snapshots differ by exactly one
//! adjacent transposition, so only **one** prefix changes per crossing
//! event. [`IndexBuilder`] exploits this twice:
//!
//! * **Incremental build.** The builder streams crossing events (grouped by
//!   equal event time) and maintains the running order and its prefix-sum
//!   arrays. A lone event whose particles sit adjacent is an `O(1)` swap
//!   touching one prefix; simultaneous pile-ups (or drifted adjacency) fall
//!   back to a re-sort at the interval midpoint, emitting one row per
//!   *changed* prefix. Build work drops to `O(n² log n)`.
//! * **Deduplicated table.** A prefix that does not change across an event
//!   keeps its one canonical status row — the earliest, which carries the
//!   row's maximum servable load — so the table holds `O(n²)` rows instead
//!   of `O(n³)`. Rows no longer store their order snapshot: each row keeps
//!   a `sample` time inside its first validity interval, and the ON-set is
//!   reconstructed on demand by re-sorting coordinates at that time.
//!
//! Determinism: incremental prefix sums are float-path-dependent, so the
//! builder re-seeds order and prefixes from scratch at fixed *epoch*
//! boundaries (every `max(n, 16)` event groups). That bounds the drift of
//! the incremental updates and fixes the table's bits, which the
//! reproduction's pinned results depend on. The dense
//! [`IndexBuilder::build_dense`] oracle keeps the literal `O(n³)`
//! construction for equivalence tests and benchmarks.
//!
//! After the build:
//!
//! * [`ConsolidationIndex::query_online`] answers a load query in
//!   `O(log n)` by binary search over statuses sorted by their maximum
//!   servable load — the paper's Algorithm 2;
//! * [`ConsolidationIndex::query_batch`] returns the exact minimum-power
//!   candidate for every load of a batch. Instead of scanning the whole
//!   table it consults a per-`k` upper envelope (convex hull over each size
//!   class's `t(L)` lines, built once) for the best optimistic bound of
//!   every size class, evaluates the global argmin first, and then visits
//!   only size classes whose bound can still beat the incumbent — with a
//!   capacity model, surviving classes are scanned row-by-row under the
//!   same bound test. Loads are sorted ascending and the envelopes are
//!   walked with monotone pointers, amortizing candidate selection across
//!   the batch;
//! * [`ConsolidationIndex::query_min_power`] is that query for a single
//!   load: a batch of one;
//! * [`ConsolidationIndex::max_load`] solves the paper's intermediate
//!   `maxL(A, P_b, k)` problem.

use crate::closed_form::optimal_allocation_clamped;
use crate::error::SolveError;
use crate::particles::{Event, ParticleSystem};
use coolopt_model::RoomModel;
use coolopt_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every [`ConsolidationIndex`] construction in this process — the
/// observable that lets tests assert an engine rebuilt nothing.
static INDEX_BUILDS: AtomicU64 = AtomicU64::new(0);

/// The constants of the Eq. 23 objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerTerms {
    /// Load-independent per-machine power `w2` (W).
    pub w2: f64,
    /// `ρ = c·f_ac·w1` (W²/K — the paper treats it as an opaque constant).
    pub rho: f64,
    /// Actuator ceiling on the ratio `t = T_ac/w1` (i.e.
    /// `t_cap = T_ac_max/w1`): beyond it, a warmer model-optimal `T_ac`
    /// cannot be realized, so the cooling term saturates. `None` reproduces
    /// the paper's unbounded objective exactly.
    pub t_cap: Option<f64>,
}

impl PowerTerms {
    /// Extracts the terms from a fitted room model (including the supply
    /// ceiling, when the model carries one).
    pub fn from_model(model: &RoomModel) -> Self {
        let w1 = model.power().w1().as_watts();
        PowerTerms {
            w2: model.power().w2().as_watts(),
            rho: model.cooling().cf() * w1,
            t_cap: model.t_ac_max().map(|t| t.as_kelvin() / w1),
        }
    }

    /// The paper's unbounded terms (no actuator ceiling).
    pub fn unbounded(w2: f64, rho: f64) -> Self {
        PowerTerms {
            w2,
            rho,
            t_cap: None,
        }
    }

    /// The query-relative power of a candidate: `k·w2 − ρ·min(t, t_cap)`
    /// (θ omitted — it is constant within a query).
    pub fn relative_power(&self, k: usize, t: f64) -> f64 {
        let effective = match self.t_cap {
            Some(cap) => t.min(cap),
            None => t,
        };
        k as f64 * self.w2 - self.rho * effective
    }
}

/// A digest of everything a consolidation engine is built from: the
/// particle pairs `(a_i, b_i)` and the Eq. 23 [`PowerTerms`].
///
/// Two models with equal fingerprints build interchangeable indices, so a
/// cached engine can be reused as long as the fingerprint matches (FNV-1a
/// over the exact f64 bit patterns — any bitwise model change produces a
/// different digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelFingerprint(u64);

impl ModelFingerprint {
    /// Fingerprints a model's consolidation inputs.
    pub fn of_model(model: &RoomModel) -> Self {
        Self::of_parts(&model.consolidation_pairs(), &PowerTerms::from_model(model))
    }

    /// Fingerprints explicit pairs + terms.
    pub fn of_parts(pairs: &[(f64, f64)], terms: &PowerTerms) -> Self {
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100000001b3);
            }
        };
        eat(pairs.len() as u64);
        for &(a, b) in pairs {
            eat(a.to_bits());
            eat(b.to_bits());
        }
        eat(terms.w2.to_bits());
        eat(terms.rho.to_bits());
        match terms.t_cap {
            None => eat(0),
            Some(cap) => {
                eat(1);
                eat(cap.to_bits());
            }
        }
        ModelFingerprint(hash)
    }

    /// The raw 64-bit digest.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

/// Tie tolerance for comparing relative powers: scaled to the magnitude so
/// it stays meaningful for kilowatt-scale objectives (a fixed 1e-12 would be
/// below one ULP there). Shared with the hierarchical query so both engines
/// break power ties identically.
pub(crate) fn tie_eps(reference: f64) -> f64 {
    1e-9 * (1.0 + reference.abs())
}

/// Capacity-mode achievable ratio `t` of an ON set: mirrors
/// `optimal_allocation`'s fast path arithmetic operation-for-operation (so
/// results match the materialized solve bit-for-bit) and only falls back to
/// the full clamped solve when a per-machine bound is active. `model_covers`
/// says whether the model indexes every machine `on` refers to; when it does
/// not, evaluation must use the validating slow path. `None` means the
/// subset cannot serve the load within capacity. Shared by the flat
/// evaluator and the hierarchical refinement.
pub(crate) fn capacity_ratio(
    model: &RoomModel,
    model_covers: bool,
    on: &[usize],
    total_load: f64,
) -> Option<f64> {
    let w1 = model.power().w1().as_watts();
    if model_covers {
        let k_sum: f64 = on.iter().map(|&i| model.k(i)).sum();
        let s_sum: f64 = on.iter().map(|&i| model.alpha_over_beta(i)).sum();
        let t_ac_kelvin = (k_sum - total_load) * w1 / s_sum;
        let unclamped_ok = s_sum > 0.0
            && s_sum.is_finite()
            && t_ac_kelvin.is_finite()
            && t_ac_kelvin > 0.0
            && on.iter().all(|&i| {
                let l = model.k(i) - (k_sum - total_load) * model.alpha_over_beta(i) / s_sum;
                (0.0..=1.0).contains(&l)
            });
        if unclamped_ok {
            return Some(t_ac_kelvin / w1);
        }
    }
    let sol = optimal_allocation_clamped(model, on, total_load).ok()?;
    Some(sol.t_ac.as_kelvin() / w1)
}

/// Re-sorts `ord` by the particle total order (coordinate descending, index
/// ascending) with insertion sort: exact — the comparator is total, so the
/// output is the unique sorted permutation — and `O(n + inversions)`, which
/// makes it cheap when `ord` is already nearly sorted for `coords`. Shared
/// with the hierarchical builder's centroid-order walk.
pub(crate) fn insertion_repair(ord: &mut [usize], coords: &[f64]) {
    for i in 1..ord.len() {
        let mut j = i;
        while j > 0 {
            let (p, q) = (ord[j - 1], ord[j]);
            let out_of_order = coords[q]
                .partial_cmp(&coords[p])
                .expect("coordinates are finite")
                .then(p.cmp(&q))
                == std::cmp::Ordering::Greater;
            if !out_of_order {
                break;
            }
            ord.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// The crossing events of one kinetic system, grouped into maximal runs of
/// equal event time, plus the sample-time convention every builder shares.
///
/// This is *the* event-group walk helper: the incremental builder
/// ([`IndexBuilder::epoch_records`]), the paper-literal dense oracle
/// ([`IndexBuilder::build_dense`]) and the hierarchical builder
/// ([`crate::hier::HierIndex`]) all derive their group times and row sample
/// times from this one type, so their stored samples are bit-identical by
/// construction instead of by parallel reimplementation.
#[derive(Debug, Clone)]
pub(crate) struct EventGroups {
    events: Vec<Event>,
    /// Offset into `events` where each group of simultaneous events begins.
    starts: Vec<usize>,
}

impl EventGroups {
    /// Groups time-sorted events into runs of equal `t`.
    pub(crate) fn new(events: Vec<Event>) -> Self {
        let mut starts = Vec::new();
        for (i, e) in events.iter().enumerate() {
            if i == 0 || events[i - 1].t != e.t {
                starts.push(i);
            }
        }
        EventGroups { events, starts }
    }

    /// Number of equal-time groups.
    pub(crate) fn count(&self) -> usize {
        self.starts.len()
    }

    /// The simultaneous events of group `g`.
    pub(crate) fn events_of(&self, g: usize) -> &[Event] {
        let lo = self.starts[g];
        let hi = self.starts.get(g + 1).copied().unwrap_or(self.events.len());
        &self.events[lo..hi]
    }

    /// Event time of group `g` (strictly increasing in `g`).
    pub(crate) fn time(&self, g: usize) -> f64 {
        self.events[self.starts[g]].t
    }

    /// The canonical sample time strictly inside the order interval that
    /// *starts* at group `g`: halfway to the next group's time (or `t + 2`
    /// after the last group), immune to floating-point epsilon choices.
    pub(crate) fn sample(&self, g: usize) -> f64 {
        let t = self.time(g);
        let t_next = if g + 1 < self.starts.len() {
            self.time(g + 1)
        } else {
            t + 2.0
        };
        0.5 * (t + t_next)
    }

    /// [`sample`](EventGroups::sample) keyed by a group's event time; `0`
    /// maps to the initial interval's canonical sample `0`. The caller must
    /// pass an exact group time (which is what order snapshots store).
    pub(crate) fn sample_at_time(&self, since: f64) -> f64 {
        if since == 0.0 {
            return 0.0;
        }
        let g = self
            .starts
            .partition_point(|&s| self.events[s].t <= since)
            .saturating_sub(1);
        self.sample(g)
    }
}

/// Upper envelope of the ratio lines `t_r(L) = sum_a(r)·inv_b(r) − L·inv_b(r)`
/// over one family of rows: classic monotone-chain hull over lines sorted by
/// ascending slope (descending `inv_b`); equal slopes keep only the highest
/// line. Returns `(hull_ids, interior_breaks)` with `hull_ids[i+1]` winning
/// for loads above `breaks[i]`. Shared by the flat per-`k` envelopes and the
/// hierarchical index's lazy per-class envelopes.
pub(crate) fn build_upper_hull(
    mut lines: Vec<u32>,
    sum_a: impl Fn(u32) -> f64,
    inv_b: impl Fn(u32) -> f64,
) -> (Vec<u32>, Vec<f64>) {
    lines.sort_by(|&x, &y| {
        inv_b(y)
            .partial_cmp(&inv_b(x))
            .expect("sums are finite")
            .then(sum_a(y).partial_cmp(&sum_a(x)).expect("sums are finite"))
            .then(x.cmp(&y))
    });
    let mut hull: Vec<u32> = Vec::new();
    let mut breaks: Vec<f64> = Vec::new();
    'lines: for r in lines {
        loop {
            let Some(&top) = hull.last() else {
                hull.push(r);
                continue 'lines;
            };
            if inv_b(top) == inv_b(r) {
                // Same slope: the sort put the higher line first.
                continue 'lines;
            }
            // Load at which `r` overtakes the hull top (denominator is
            // strictly positive: slopes are strictly ascending here).
            let x = (sum_a(top) * inv_b(top) - sum_a(r) * inv_b(r)) / (inv_b(top) - inv_b(r));
            if let Some(&last) = breaks.last() {
                if x <= last {
                    // The top never wins anywhere: drop it and retry.
                    hull.pop();
                    breaks.pop();
                    continue;
                }
            }
            hull.push(r);
            breaks.push(x);
            continue 'lines;
        }
    }
    (hull, breaks)
}

/// One status while under construction: the best size-`k` subset over one
/// maximal interval of orders sharing that prefix. Only the builder sees
/// this row form; queries read the column form in [`StatusTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct StatusRecord {
    /// Start of the row's validity (the event time that created this
    /// prefix; 0 for the initial order).
    since: f64,
    /// A time strictly inside the first order interval of the row, at which
    /// re-sorting the coordinates reproduces the row's prefix set.
    sample: f64,
    /// Subset size.
    k: u32,
    /// `Σ a_i` over the prefix.
    sum_a: f64,
    /// `Σ b_i` over the prefix.
    sum_b: f64,
    /// Maximum servable load at the interval start: `sum_a − since·sum_b`.
    lmax: f64,
}

/// Per-size-class view of the table: the rows of one `k`, plus the upper
/// envelope of their ratio lines `t_r(L) = (Σa_r − L)/Σb_r`.
///
/// Each row is a line with slope `−1/Σb_r`; the envelope (a convex hull
/// over lines, built once at table construction) yields the row with the
/// maximum — i.e. cheapest, Eq. 23 decreasing in `t` — optimistic ratio for
/// any load in `O(log h)` over its `h` segments (see
/// `StatusTable::envelope_step`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct KGroup {
    /// Column indices of this size class's rows (ascending, i.e. in table
    /// `lmax` order).
    rows: Vec<u32>,
    /// Envelope rows, ordered by ascending slope (descending `1/Σb`).
    hull_rows: Vec<u32>,
    /// Interior breakpoints: `hull_rows[i+1]` wins for loads above
    /// `hull_breaks[i]`; `hull_rows[0]` wins below `hull_breaks[0]`.
    /// Always `hull_rows.len() − 1` entries (finite, so the table stays
    /// serializable).
    hull_breaks: Vec<f64>,
}

/// Struct-of-arrays storage for the deduplicated `O(n²)` statuses, sorted
/// by increasing `lmax` (Algorithm 1, last line).
///
/// Algorithm 2 binary-searches only `lmax`; the exact query reads `sum_a`,
/// `k`, `inv_sum_b` through the per-`k` [`KGroup`] envelopes and never
/// touches `since`/`sample` until a candidate survives its bound. Keeping
/// each field contiguous lets those scans run at cache-line density.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct StatusTable {
    since: Vec<f64>,
    sample: Vec<f64>,
    k: Vec<u32>,
    sum_a: Vec<f64>,
    sum_b: Vec<f64>,
    /// `1 / sum_b`, precomputed so the query's bound pass multiplies
    /// instead of divides (bounds only prune; exact values are recomputed
    /// with true division before a candidate is returned).
    inv_sum_b: Vec<f64>,
    lmax: Vec<f64>,
    /// One entry per subset size `k ∈ 1..=n`, at index `k − 1`.
    groups: Vec<KGroup>,
}

impl StatusTable {
    /// Sorts the records by `lmax` (stable, exactly as the row form did),
    /// transposes them into columns, and builds the per-`k` envelopes.
    fn from_records(mut records: Vec<StatusRecord>, machines: usize) -> Self {
        records.sort_by(|x, y| x.lmax.partial_cmp(&y.lmax).expect("lmax is finite"));
        let mut table = StatusTable {
            since: Vec::with_capacity(records.len()),
            sample: Vec::with_capacity(records.len()),
            k: Vec::with_capacity(records.len()),
            sum_a: Vec::with_capacity(records.len()),
            sum_b: Vec::with_capacity(records.len()),
            inv_sum_b: Vec::with_capacity(records.len()),
            lmax: Vec::with_capacity(records.len()),
            groups: Vec::new(),
        };
        for r in records {
            table.since.push(r.since);
            table.sample.push(r.sample);
            table.k.push(r.k);
            table.sum_a.push(r.sum_a);
            table.sum_b.push(r.sum_b);
            table.inv_sum_b.push(1.0 / r.sum_b);
            table.lmax.push(r.lmax);
        }
        let mut groups = vec![KGroup::default(); machines];
        for (idx, &k) in table.k.iter().enumerate() {
            groups[(k - 1) as usize].rows.push(idx as u32);
        }
        for group in &mut groups {
            Self::build_hull(group, &table.sum_a, &table.inv_sum_b);
        }
        table.groups = groups;
        table
    }

    /// Upper envelope of the lines `t_r(L) = sum_a·inv_b − L·inv_b` over one
    /// size class, via the shared [`build_upper_hull`].
    fn build_hull(group: &mut KGroup, sum_a: &[f64], inv_sum_b: &[f64]) {
        let (hull, breaks) = build_upper_hull(
            group.rows.clone(),
            |r| sum_a[r as usize],
            |r| inv_sum_b[r as usize],
        );
        group.hull_rows = hull;
        group.hull_breaks = breaks;
    }

    /// The size-`k` row with the maximum optimistic ratio at `load`, with
    /// that ratio. `None` when the whole size class is infeasible (`t ≤ 0`).
    ///
    /// `segment` is the class's envelope segment for the previous load of
    /// an ascending walk (`0` to start). It advances by a binary search
    /// over the rest of the hull, which picks the same segment as a linear
    /// walk because the breaks strictly increase.
    fn envelope_step(&self, k_idx: usize, segment: &mut usize, load: f64) -> Option<(u32, f64)> {
        let group = &self.groups[k_idx];
        if group.hull_rows.is_empty() {
            return None;
        }
        *segment += group.hull_breaks[*segment..].partition_point(|&x| x <= load);
        let row = group.hull_rows[*segment];
        let ri = row as usize;
        let t = (self.sum_a[ri] - load) * self.inv_sum_b[ri];
        (t > 0.0).then_some((row, t))
    }

    fn len(&self) -> usize {
        self.lmax.len()
    }
}

/// Algorithm 1's construction side, split from the query-side
/// [`ConsolidationIndex`].
///
/// The builder owns the kinetic-particle system and its sorted crossing
/// events (grouped by equal event time) — it never materializes the
/// `O(n²)` order snapshots. [`IndexBuilder::build`] walks the event groups
/// incrementally in contiguous *epochs*, each re-seeding its order and
/// prefix sums from scratch at its boundary.
/// [`IndexBuilder::build_dense`] keeps the paper's literal `O(n³)`
/// construction as a test oracle.
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    system: ParticleSystem,
    pairs: Vec<(f64, f64)>,
    /// The crossing events grouped by equal time — the shared walk helper.
    groups: EventGroups,
}

impl IndexBuilder {
    /// Prepares the particle system and its crossing events for the pairs
    /// `(a_i, b_i) = (K_i, α_i/β_i)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DegenerateModel`] for empty input or
    /// non-positive speeds `b_i`.
    pub fn new(pairs: &[(f64, f64)]) -> Result<Self, SolveError> {
        let system = ParticleSystem::new(pairs).map_err(|e| SolveError::DegenerateModel {
            what: e.to_string(),
        })?;
        let events = system.events();
        Ok(IndexBuilder {
            system,
            pairs: pairs.to_vec(),
            groups: EventGroups::new(events),
        })
    }

    /// Upper bound on the distinct orders the build will visit: the initial
    /// order plus one per *event group* (`O(n²)` groups). It is an upper
    /// bound, not an exact count, because a group whose crossings were
    /// already realized by an earlier pile-up re-sorts to the order it is in
    /// and is skipped; the stored table deduplicates further still — only
    /// the prefixes whose *set* changed across a group keep a row (compare
    /// [`ConsolidationIndex::order_count`], the distinct orders actually
    /// seen, and [`ConsolidationIndex::status_count`], the rows actually
    /// stored). Nothing is materialized up front — orders are streamed
    /// during the build.
    pub fn snapshot_count(&self) -> usize {
        self.groups.count() + 1
    }

    /// Event groups per epoch: the builder re-derives its order and prefix
    /// sums from scratch at every epoch boundary, which bounds the
    /// floating-point drift of the incremental prefix updates.
    fn epoch_len(&self) -> usize {
        self.system.len().max(16)
    }

    fn epoch_count(&self) -> usize {
        self.groups.count().div_ceil(self.epoch_len()).max(1)
    }

    fn recompute_prefixes(&self, order: &[usize], prefix_a: &mut [f64], prefix_b: &mut [f64]) {
        let mut sum_a = 0.0;
        let mut sum_b = 0.0;
        for (pos, &i) in order.iter().enumerate() {
            sum_a += self.pairs[i].0;
            sum_b += self.pairs[i].1;
            prefix_a[pos] = sum_a;
            prefix_b[pos] = sum_b;
        }
    }

    /// Processes one epoch of event groups: returns its status rows and how
    /// many distinct orders it saw. Deterministic in isolation — the seed
    /// at the epoch boundary is re-derived from scratch, never inherited.
    fn epoch_records(&self, epoch: usize) -> (Vec<StatusRecord>, usize) {
        let n = self.system.len();
        let g_lo = epoch * self.epoch_len();
        let g_hi = (g_lo + self.epoch_len()).min(self.groups.count());
        let mut records = Vec::with_capacity(2 * (g_hi - g_lo) + if epoch == 0 { n } else { 0 });
        let mut orders_seen = 0usize;

        // Seed: the order holding just before this epoch's first group (for
        // epoch 0, the initial order), prefix sums from scratch.
        let mut order = if epoch == 0 {
            self.system.order_at(0.0)
        } else {
            let t_prev = self.groups.time(g_lo - 1);
            let t_here = self.groups.time(g_lo);
            self.system.order_at(0.5 * (t_prev + t_here))
        };
        let mut pos = vec![0usize; n];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        let mut prefix_a = vec![0.0f64; n];
        let mut prefix_b = vec![0.0f64; n];
        self.recompute_prefixes(&order, &mut prefix_a, &mut prefix_b);

        if epoch == 0 {
            orders_seen += 1;
            for k in 1..=n {
                records.push(StatusRecord {
                    since: 0.0,
                    sample: 0.0,
                    k: k as u32,
                    sum_a: prefix_a[k - 1],
                    sum_b: prefix_b[k - 1],
                    lmax: prefix_a[k - 1],
                });
            }
        }

        let mut resorted: Vec<usize> = Vec::with_capacity(n);
        let mut diff = vec![0i64; n];
        for g in g_lo..g_hi {
            let group_events = self.groups.events_of(g);
            let t = self.groups.time(g);
            let sample = self.groups.sample(g);

            if let [Event { p, q, .. }] = *group_events {
                let lo = pos[p].min(pos[q]);
                let hi = pos[p].max(pos[q]);
                if hi == lo + 1 {
                    // Adjacent transposition: the only invalidated prefix is
                    // the one of size `lo + 1`, and its left-to-right sum is
                    // the untouched shorter prefix plus the new boundary
                    // element — an O(1) update emitting exactly one row.
                    order.swap(lo, hi);
                    pos[order[lo]] = lo;
                    pos[order[hi]] = hi;
                    let (base_a, base_b) = if lo == 0 {
                        (0.0, 0.0)
                    } else {
                        (prefix_a[lo - 1], prefix_b[lo - 1])
                    };
                    let (a, b) = self.pairs[order[lo]];
                    prefix_a[lo] = base_a + a;
                    prefix_b[lo] = base_b + b;
                    orders_seen += 1;
                    records.push(StatusRecord {
                        since: t,
                        sample,
                        k: (lo + 1) as u32,
                        sum_a: prefix_a[lo],
                        sum_b: prefix_b[lo],
                        lmax: prefix_a[lo] - t * prefix_b[lo],
                    });
                    continue;
                }
            }

            // Pile-up (several events at one instant) or drifted adjacency:
            // re-sort at the interval midpoint, then emit one row per prefix
            // whose *set* actually changed (diffed via a counting scratch
            // that returns to all-zero by permutation symmetry).
            self.system.order_into(sample, &mut resorted);
            if resorted == order {
                continue; // no-op event (already ordered this way)
            }
            orders_seen += 1;
            std::mem::swap(&mut order, &mut resorted); // `resorted` now holds the old order
            let mut changed: Vec<usize> = Vec::new();
            let mut imbalance = 0usize;
            for k in 0..n {
                for (arr, delta) in [(&order, 1i64), (&resorted, -1i64)] {
                    let c = &mut diff[arr[k]];
                    if *c == 0 {
                        imbalance += 1;
                    }
                    *c += delta;
                    if *c == 0 {
                        imbalance -= 1;
                    }
                }
                if imbalance > 0 {
                    changed.push(k + 1);
                }
            }
            for (p, &i) in order.iter().enumerate() {
                pos[i] = p;
            }
            self.recompute_prefixes(&order, &mut prefix_a, &mut prefix_b);
            for &k in &changed {
                records.push(StatusRecord {
                    since: t,
                    sample,
                    k: k as u32,
                    sum_a: prefix_a[k - 1],
                    sum_b: prefix_b[k - 1],
                    lmax: prefix_a[k - 1] - t * prefix_b[k - 1],
                });
            }
        }
        (records, orders_seen)
    }

    /// Incremental build: walks the epochs in order.
    pub fn build(self) -> ConsolidationIndex {
        let mut records = Vec::new();
        let mut orders_seen = 0usize;
        for epoch in 0..self.epoch_count() {
            let (r, o) = self.epoch_records(epoch);
            records.extend(r);
            orders_seen += o;
        }
        self.finish(records, orders_seen)
    }

    /// The paper's literal construction: every order snapshot recomputes all
    /// `n` prefixes and stores all of them (`O(n³)` rows, `O(n³ log n)`
    /// work). Kept as the from-scratch oracle the equivalence tests and the
    /// build benchmarks compare against.
    pub fn build_dense(self) -> ConsolidationIndex {
        let snapshots = self.system.orders();
        let n = self.system.len();
        let mut records = Vec::with_capacity(snapshots.len() * n);
        for snap in &snapshots {
            // Same sample convention as the incremental and hierarchical
            // builders, via the shared event-group helper.
            let sample = self.groups.sample_at_time(snap.since);
            let mut sum_a = 0.0;
            let mut sum_b = 0.0;
            for (p, &i) in snap.order.iter().enumerate() {
                sum_a += self.pairs[i].0;
                sum_b += self.pairs[i].1;
                records.push(StatusRecord {
                    since: snap.since,
                    sample,
                    k: (p + 1) as u32,
                    sum_a,
                    sum_b,
                    lmax: sum_a - snap.since * sum_b,
                });
            }
        }
        let orders_seen = snapshots.len();
        self.finish(records, orders_seen)
    }

    fn finish(self, records: Vec<StatusRecord>, orders_seen: usize) -> ConsolidationIndex {
        let statuses = StatusTable::from_records(records, self.system.len());
        INDEX_BUILDS.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("coolopt_index_builds_total").inc();
        ConsolidationIndex {
            system: self.system,
            statuses,
            orders_seen,
        }
    }
}

/// A chosen consolidation: which machines to power on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Consolidation {
    /// Machines to power on.
    pub on: Vec<usize>,
    /// Subset size (`on.len()`).
    pub k: usize,
    /// The ratio `t = (Σa − L)/Σb` of the chosen subset (equal to
    /// `T_ac/w1`).
    pub t: f64,
    /// Query-relative predicted power `k·w2 − ρ·t` (W, up to the
    /// query-constant θ).
    pub relative_power: f64,
}

/// Query context shared by the selection core and the status evaluator.
struct QueryCtx<'a> {
    terms: &'a PowerTerms,
    total_load: f64,
    capacity_model: Option<&'a RoomModel>,
    /// Whether the capacity model indexes every machine the table refers
    /// to; when it does not, evaluation must use the validating slow path.
    model_covers: bool,
}

/// Reusable scratch for one exact query batch. A row's ordered ON prefix
/// depends only on its sample time — never on the queried load — so one
/// reconstruction serves every load in the batch that evaluates or wins on
/// that row.
#[derive(Default)]
struct BatchScratch {
    /// Coordinates at the row's sample time, computed once per
    /// reconstruction instead of inside the sort comparator.
    coords: Vec<f64>,
    /// Index permutation being selected/sorted.
    idxs: Vec<usize>,
    /// Finished ordered prefixes, keyed by status-row index.
    prefixes: HashMap<u32, Vec<usize>>,
}

/// Plain-field tally of one exact query's branch-and-bound work. The inner
/// loops bump local integers; the public entry points flush the totals to
/// the registry once per call, keeping atomics off the hot path.
#[derive(Default)]
struct QueryStats {
    /// Size classes skipped because their optimistic envelope bound could
    /// not beat the incumbent.
    classes_pruned: u64,
    /// Capacity-path rows skipped by their per-row optimistic bound.
    rows_pruned: u64,
    /// Status rows actually evaluated to an achieved `(t, rel)`.
    rows_evaluated: u64,
}

impl QueryStats {
    fn flush(&self, queries: u64) {
        telemetry::counter("coolopt_index_queries_total").add(queries);
        telemetry::counter("coolopt_index_prune_classes_total").add(self.classes_pruned);
        telemetry::counter("coolopt_index_prune_rows_total").add(self.rows_pruned);
        telemetry::counter("coolopt_index_eval_rows_total").add(self.rows_evaluated);
    }
}

/// The offline consolidation index (the paper's Algorithm 1 output:
/// `Orders` + `allStatus`, deduplicated per the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationIndex {
    system: ParticleSystem,
    statuses: StatusTable,
    /// Distinct coordinate orders the build visited.
    orders_seen: usize,
}

impl ConsolidationIndex {
    /// Runs (incremental) Algorithm 1 over the pairs
    /// `(a_i, b_i) = (K_i, α_i/β_i)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DegenerateModel`] for empty input or
    /// non-positive speeds `b_i`.
    pub fn build(pairs: &[(f64, f64)]) -> Result<Self, SolveError> {
        let mut span = telemetry::span("index_build")
            .attr("n", pairs.len())
            .record_into("coolopt_index_build_seconds");
        let index = IndexBuilder::new(pairs)?.build();
        span.set_attr("orders", index.orders_seen);
        Ok(index)
    }

    /// The paper's literal `O(n³)` construction — the from-scratch oracle.
    /// See [`IndexBuilder::build_dense`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`].
    ///
    /// [`build`]: ConsolidationIndex::build
    pub fn build_dense(pairs: &[(f64, f64)]) -> Result<Self, SolveError> {
        let mut span = telemetry::span("index_build")
            .attr("n", pairs.len())
            .attr("mode", "dense")
            .record_into("coolopt_index_build_seconds");
        let index = IndexBuilder::new(pairs)?.build_dense();
        span.set_attr("orders", index.orders_seen);
        Ok(index)
    }

    /// How many times any index has been built in this process. The
    /// engine-reuse tests assert this stays flat across replans.
    pub fn build_count() -> u64 {
        INDEX_BUILDS.load(Ordering::Relaxed)
    }

    /// Number of machines indexed.
    pub fn len(&self) -> usize {
        self.system.len()
    }

    /// `true` for an index over zero machines (impossible after build).
    pub fn is_empty(&self) -> bool {
        self.system.is_empty()
    }

    /// Number of stored statuses: `O(n²)` after deduplication (the dense
    /// oracle stores the paper's full `orders × n`).
    pub fn status_count(&self) -> usize {
        self.statuses.len()
    }

    /// Number of distinct coordinate orders the build visited (`O(n²)`).
    pub fn order_count(&self) -> usize {
        self.orders_seen
    }

    /// The paper's Algorithm 2: binary-search `allStatus` for the first
    /// status whose `Lmax` exceeds `total_load` and return its machine
    /// prefix, in `O(log n)` (plus `O(n + k log k)` to rebuild the answer's
    /// ON set in order at its sample time).
    ///
    /// Returns `None` when no status can serve the load. The returned
    /// [`Consolidation::relative_power`] is `NaN`: Algorithm 2 never
    /// evaluates the power objective (the paper notes "the algorithm itself
    /// does not make use of `P_b`").
    pub fn query_online(&self, total_load: f64) -> Option<Consolidation> {
        let idx = self.statuses.lmax.partition_point(|&l| l <= total_load);
        if idx >= self.statuses.len() {
            return None;
        }
        Some(self.materialize(idx, total_load, &mut BatchScratch::default()))
    }

    /// Exact minimum-power query for one load: a [`query_batch`] of one.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::LoadOutOfRange`] for a negative or non-finite
    /// load.
    ///
    /// [`query_batch`]: ConsolidationIndex::query_batch
    pub fn query_min_power(
        &self,
        terms: &PowerTerms,
        total_load: f64,
        capacity_model: Option<&RoomModel>,
    ) -> Result<Option<Consolidation>, SolveError> {
        Ok(self
            .query_batch(terms, std::slice::from_ref(&total_load), capacity_model)?
            .pop()
            .flatten())
    }

    /// Exact minimum-power query: for every load of `loads` (results in
    /// input order), the candidate minimizing `k·w2 − ρ·min(t, t_cap)` at
    /// the exact ratio `t = (Σa − L)/Σb`.
    ///
    /// The scan consults each size class's precomputed upper envelope for
    /// its best optimistic bound, evaluates the global argmin first, and
    /// then visits only classes whose bound can still beat the incumbent —
    /// typically a handful of evaluations instead of the whole table.
    ///
    /// With `capacity_model` supplied, each candidate is additionally solved
    /// under per-machine capacity (`0 ≤ L_i ≤ 1`, via
    /// [`optimal_allocation_clamped`]) and ranked by its *achievable*
    /// cooling temperature; infeasible subsets are discarded. The unclamped
    /// ratio is an upper bound on the achievable one, so surviving classes
    /// are scanned row-by-row under the same optimistic-bound test — a
    /// branch-and-bound on top of the paper's enumeration.
    ///
    /// Work shared between the loads of a batch is done once:
    ///
    /// * loads are sorted ascending and each envelope pointer only moves
    ///   forward, by a binary search over the rest of its hull;
    /// * bit-equal duplicate loads are answered once and cloned;
    /// * ordered ON prefixes are load-independent, so each status row
    ///   touched by the batch (capacity evaluation or winner
    ///   materialization) is reconstructed at most once — by `O(n)`
    ///   selection plus an `O(k log k)` sort of the prefix — and then
    ///   served from a cache. Selection keeps the particle total order
    ///   (coordinate descending, index ascending), so every load's answer
    ///   is bit-identical to a batch of one.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::LoadOutOfRange`] if *any* load is negative or
    /// non-finite (no partial answers).
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
        let _span = telemetry::span("index_query")
            .attr("loads", loads.len())
            .record_into("coolopt_index_query_seconds");
        let n = self.len();
        let ctx_covers = capacity_model.is_none_or(|m| m.len() >= n);
        let mut stats = QueryStats::default();
        let mut by_load: Vec<usize> = (0..loads.len()).collect();
        by_load.sort_by(|&x, &y| {
            loads[x]
                .partial_cmp(&loads[y])
                .expect("loads validated finite")
                .then(x.cmp(&y))
        });
        let mut results: Vec<Option<Consolidation>> = vec![None; loads.len()];
        let mut pointers = vec![0usize; n];
        let mut group_cand: Vec<Option<(u32, f64)>> = vec![None; n];
        let mut rel_bounds = Vec::new();
        let mut rs = BatchScratch::default();
        let mut prev: Option<(u64, usize)> = None;
        // Without a capacity model the selection core never reconstructs an
        // order, so winner materialization can be deferred to one sweep in
        // sample-time order after all selections are done.
        let deferred = capacity_model.is_none();
        let mut winners: Vec<(usize, usize, f64, f64)> = Vec::new();
        let mut dupes: Vec<(usize, usize)> = Vec::new();
        for &qi in &by_load {
            let load = loads[qi];
            if let Some((bits, src)) = prev {
                if bits == load.to_bits() {
                    dupes.push((qi, src));
                    continue;
                }
            }
            // One pass advances the envelope pointers and computes each
            // feasible class's optimistic bound (∞ marks infeasibility:
            // `t ≤ 0`, or `k` machines carrying more than `k` load) and the
            // seed, the smallest bound. Classes with `load > k` are
            // infeasible for this and every later (larger) load, so their
            // pointers are left untouched.
            rel_bounds.clear();
            rel_bounds.resize(n, f64::INFINITY);
            let mut seed: Option<(usize, f64)> = None;
            for (k_idx, cand) in group_cand.iter_mut().enumerate() {
                let k = k_idx + 1;
                if load > k as f64 {
                    *cand = None;
                    continue;
                }
                *cand = self
                    .statuses
                    .envelope_step(k_idx, &mut pointers[k_idx], load);
                if let Some((_, t_bound)) = *cand {
                    let rel = terms.relative_power(k, t_bound);
                    rel_bounds[k_idx] = rel;
                    if seed.is_none_or(|(_, r)| rel < r) {
                        seed = Some((k_idx, rel));
                    }
                }
            }
            let ctx = QueryCtx {
                terms,
                total_load: load,
                capacity_model,
                model_covers: ctx_covers,
            };
            let best =
                self.select_from_bounds(&ctx, &group_cand, &rel_bounds, seed, &mut rs, &mut stats);
            match best {
                Some((idx, t, rel)) if deferred => winners.push((qi, idx, t, rel)),
                _ => {
                    results[qi] = best.map(|(idx, t, rel)| {
                        let mut winner = self.materialize(idx, load, &mut rs);
                        winner.t = t;
                        winner.relative_power = rel;
                        winner
                    });
                }
            }
            prev = Some((load.to_bits(), qi));
        }
        self.materialize_sweep(&mut winners, &mut results);
        for &(qi, src) in &dupes {
            results[qi] = results[src].clone();
        }
        stats.flush(loads.len() as u64);
        Ok(results)
    }

    /// Deferred winner materialization for the no-capacity batch: visits
    /// the winning rows in ascending sample-time order while maintaining
    /// one full particle permutation, sorted once at the first winner's
    /// sample time and repaired by insertion sort at each later one.
    /// Insertion sort over the total order (coordinate descending, index
    /// ascending) yields the unique sorted permutation — exactly
    /// `order_at(sample)` — in `O(n + inversions)`, and the inversions
    /// between consecutive sample times are just the crossings in between,
    /// so the whole batch pays one sort plus the crossing count of the
    /// spanned interval instead of a full `O(n log n)` re-sort per load.
    fn materialize_sweep(
        &self,
        winners: &mut [(usize, usize, f64, f64)],
        results: &mut [Option<Consolidation>],
    ) {
        if winners.is_empty() {
            return;
        }
        winners.sort_unstable_by(|x, y| {
            let (sx, sy) = (self.statuses.sample[x.1], self.statuses.sample[y.1]);
            sx.partial_cmp(&sy)
                .expect("sample times are finite")
                .then(x.1.cmp(&y.1))
        });
        let mut last_sample = self.statuses.sample[winners[0].1];
        let mut ord = Vec::new();
        self.system.order_into(last_sample, &mut ord);
        let mut coords = vec![0.0_f64; ord.len()];
        for &(qi, row, t, rel) in winners.iter() {
            let sample = self.statuses.sample[row];
            if sample != last_sample {
                for (i, c) in coords.iter_mut().enumerate() {
                    *c = self.system.coordinate(i, sample);
                }
                insertion_repair(&mut ord, &coords);
                last_sample = sample;
            }
            let k = self.statuses.k[row] as usize;
            results[qi] = Some(Consolidation {
                on: ord[..k].to_vec(),
                k,
                t,
                relative_power: rel,
            });
        }
    }

    /// The exact query's selection core: branch-and-bound over the
    /// per-size-class envelope candidates, given each class's optimistic
    /// bound and the seed (the class with the smallest bound). Returns the
    /// winning `(row, t, relative_power)`.
    fn select_from_bounds(
        &self,
        ctx: &QueryCtx<'_>,
        group_cand: &[Option<(u32, f64)>],
        rel_bounds: &[f64],
        seed: Option<(usize, f64)>,
        rs: &mut BatchScratch,
        stats: &mut QueryStats,
    ) -> Option<(usize, f64, f64)> {
        let statuses = &self.statuses;
        // The bound of any candidate is a lower bound on its achievable
        // value, so evaluating the argmin up front lets the loop below
        // prune nearly everything else.
        let (seed_k, _) = seed?;
        let seed_row = group_cand[seed_k].expect("seed group is feasible").0 as usize;
        let mut best: Option<(usize, f64, f64)> = None;
        stats.rows_evaluated += 1;
        if let Some((t, rel)) = self.eval_status(seed_row, ctx, rs) {
            best = Some((seed_row, t, rel));
        }
        let improves = |best: &Option<(usize, f64, f64)>, k: usize, t: f64, rel: f64| match *best {
            None => true,
            Some((b_idx, b_t, b_rel)) => {
                let eps = tie_eps(b_rel);
                rel < b_rel - eps
                    || (rel < b_rel + eps
                        && (k < statuses.k[b_idx] as usize
                            // Power tie at equal size (typical when the
                            // supply ceiling saturates the objective):
                            // prefer the subset with the most thermal
                            // margin, i.e. the warmest achievable ratio.
                            || (k == statuses.k[b_idx] as usize && t > b_t + 1e-9)))
            }
        };
        let bound_beats = |best: &Option<(usize, f64, f64)>, k: usize, bound: f64| match *best {
            None => true,
            Some((b_idx, _, b_rel)) => {
                // Relative tolerance: the rel values carry the full
                // magnitude of ρ·t (tens of kilowatts), where a fixed
                // 1e-12 would be absorbed below one ULP.
                let eps = tie_eps(b_rel);
                bound < b_rel - eps || (bound < b_rel + eps && k <= statuses.k[b_idx] as usize)
            }
        };
        for (k_idx, &rel_bound) in rel_bounds.iter().enumerate() {
            if rel_bound.is_infinite() {
                continue; // infeasible size class
            }
            let k = k_idx + 1;
            if !bound_beats(&best, k, rel_bound) {
                stats.classes_pruned += 1;
                continue;
            }
            match ctx.capacity_model {
                None => {
                    // Unclamped objective: within one size class the
                    // envelope winner (maximum t) is also the exact winner,
                    // so one evaluation settles the class.
                    if k_idx == seed_k {
                        continue; // already evaluated as the seed
                    }
                    let row = group_cand[k_idx].expect("bounded group is feasible").0 as usize;
                    stats.rows_evaluated += 1;
                    let Some((t, rel)) = self.eval_status(row, ctx, rs) else {
                        continue;
                    };
                    if improves(&best, k, t, rel) {
                        best = Some((row, t, rel));
                    }
                }
                Some(_) => {
                    // Under capacity clamping a worse-bound row can still
                    // win, so the surviving class is scanned row-by-row —
                    // each row under its own optimistic-bound test.
                    for &row in &statuses.groups[k_idx].rows {
                        let row = row as usize;
                        if k_idx == seed_k && row == seed_row {
                            continue;
                        }
                        let sum_a = statuses.sum_a[row];
                        if sum_a <= ctx.total_load {
                            continue;
                        }
                        let t_bound = (sum_a - ctx.total_load) * statuses.inv_sum_b[row];
                        let row_bound = ctx.terms.relative_power(k, t_bound);
                        if !bound_beats(&best, k, row_bound) {
                            stats.rows_pruned += 1;
                            continue;
                        }
                        stats.rows_evaluated += 1;
                        let Some((t, rel)) = self.eval_status(row, ctx, rs) else {
                            continue;
                        };
                        if improves(&best, k, t, rel) {
                            best = Some((row, t, rel));
                        }
                    }
                }
            }
        }
        best
    }

    /// Allocation-light evaluation of status `idx`: the achieved
    /// `(t, relative_power)`. Without a capacity model this is the exact
    /// ratio; with one, the ordered ON prefix comes from the batch's cache
    /// and [`capacity_ratio`] mirrors `optimal_allocation`'s arithmetic
    /// (so results match the materialized solve bit-for-bit). `None` means
    /// the subset cannot serve the load within capacity.
    fn eval_status(
        &self,
        idx: usize,
        ctx: &QueryCtx<'_>,
        rs: &mut BatchScratch,
    ) -> Option<(f64, f64)> {
        let statuses = &self.statuses;
        let k = statuses.k[idx] as usize;
        let t = match ctx.capacity_model {
            None => (statuses.sum_a[idx] - ctx.total_load) / statuses.sum_b[idx],
            Some(_) => {
                let on = self.ordered_prefix(idx, rs);
                self.capacity_ratio(ctx, on)?
            }
        };
        Some((t, ctx.terms.relative_power(k, t)))
    }

    /// Capacity-mode achievable ratio `t` of an ON prefix, via the shared
    /// [`capacity_ratio`] so the flat and hierarchical evaluators are
    /// bit-identical.
    fn capacity_ratio(&self, ctx: &QueryCtx<'_>, on: &[usize]) -> Option<f64> {
        let model = ctx
            .capacity_model
            .expect("capacity evaluation requires a model");
        capacity_ratio(model, ctx.model_covers, on, ctx.total_load)
    }

    /// The batch cache's row reconstruction: the ordered `k`-prefix of the
    /// particle order at status `idx`'s sample time, computed by `O(n)`
    /// selection of the top `k` followed by an `O(k log k)` sort of just
    /// the prefix.
    ///
    /// The comparator is the same total order as
    /// [`ParticleSystem::order_into`] (coordinate descending, index
    /// ascending), so the selected set *and* its order are exactly
    /// `order_at(sample)[..k]`.
    fn ordered_prefix<'s>(&self, idx: usize, rs: &'s mut BatchScratch) -> &'s [usize] {
        let key = idx as u32;
        if !rs.prefixes.contains_key(&key) {
            let k = self.statuses.k[idx] as usize;
            let sample = self.statuses.sample[idx];
            let n = self.system.len();
            rs.coords.clear();
            rs.coords
                .extend((0..n).map(|i| self.system.coordinate(i, sample)));
            rs.idxs.clear();
            rs.idxs.extend(0..n);
            let coords = &rs.coords;
            let cmp = |i: &usize, j: &usize| {
                coords[*j]
                    .partial_cmp(&coords[*i])
                    .expect("coordinates are finite")
                    .then(i.cmp(j))
            };
            if k < n {
                rs.idxs.select_nth_unstable_by(k - 1, cmp);
            }
            rs.idxs.truncate(k);
            rs.idxs.sort_unstable_by(cmp);
            let prefix = rs.idxs.clone();
            rs.prefixes.insert(key, prefix);
        }
        rs.prefixes
            .get(&key)
            .expect("present or just inserted")
            .as_slice()
    }

    /// The paper's *intermediate* algorithm, before it tightens to
    /// Algorithms 1+2: "performing a binary search on `P_b` to find the
    /// minimum power that can serve a given load `L`"
    /// (`O(n·log n·log P_max)` per query).
    ///
    /// For each subset size `k`, the feasible relative budget
    /// `p_b = k·w2 − ρ·t` is binary-searched until [`max_load`] can just
    /// serve `total_load`; the best `k` wins. Kept for fidelity and as an
    /// independent oracle for the index — production code uses
    /// [`ConsolidationIndex::query_min_power`].
    ///
    /// Returns `None` when no subset size can serve the load with `t ≥ 0`.
    ///
    /// [`max_load`]: ConsolidationIndex::max_load
    pub fn query_budget_search(
        &self,
        terms: &PowerTerms,
        total_load: f64,
    ) -> Option<Consolidation> {
        if !total_load.is_finite() || total_load < 0.0 || terms.rho <= 0.0 {
            return None;
        }
        let n = self.len();
        let mut best: Option<Consolidation> = None;
        for k in 1..=n {
            if total_load > k as f64 {
                continue; // capacity: k machines carry at most k load
            }
            // Feasibility bracket on t (not on raw watts — equivalent and
            // numerically cleaner): t = 0 is the cheapest-feasibility limit,
            // t_hi the largest ratio any size-k subset can reach at L = 0.
            let (mut lo_t, mut hi_t) = (0.0_f64, 0.0_f64);
            let lmax_at_zero = self.max_load_at_t(0.0, k).expect("k validated against n");
            if lmax_at_zero <= total_load {
                continue; // even the best subset at t = 0 cannot serve L
            }
            for &row in &self.statuses.groups[k - 1].rows {
                let row = row as usize;
                let sum_a = self.statuses.sum_a[row];
                if sum_a > total_load {
                    hi_t = hi_t.max((sum_a - total_load) / self.statuses.sum_b[row]);
                }
            }
            if hi_t <= 0.0 {
                continue;
            }
            // Binary search the largest t with Lmax(t, k) ≥ L. Lmax is
            // non-increasing in t, so the search is monotone; iterations
            // play the role of the paper's log(P_max) factor.
            for _ in 0..96 {
                let mid = 0.5 * (lo_t + hi_t);
                let lmax = self.max_load_at_t(mid, k).unwrap_or(f64::NEG_INFINITY);
                if lmax >= total_load {
                    lo_t = mid;
                } else {
                    hi_t = mid;
                }
            }
            let t = lo_t;
            let rel = terms.relative_power(k, t);
            let better = match &best {
                None => true,
                Some(b) => {
                    let eps = tie_eps(b.relative_power);
                    rel < b.relative_power - eps || (rel < b.relative_power + eps && k < b.k)
                }
            };
            if better {
                let order = self.system.order_at(t + 1e-12);
                let on: Vec<usize> = order[..k].to_vec();
                best = Some(Consolidation {
                    on,
                    k,
                    t,
                    relative_power: rel,
                });
            }
        }
        best
    }

    /// `Lmax` for exactly `k` machines at ratio `t` (sum of the `k` largest
    /// coordinates).
    fn max_load_at_t(&self, t: f64, k: usize) -> Option<f64> {
        if k == 0 || k > self.len() || t < 0.0 {
            return None;
        }
        let order = self.system.order_at(t);
        Some(
            order
                .iter()
                .take(k)
                .map(|&i| self.system.coordinate(i, t))
                .sum(),
        )
    }

    /// The paper's `maxL(A, P_b, k)` problem: the largest load exactly `k`
    /// machines can serve within the relative power budget
    /// `p_b = k·w2 − ρ·t` (θ excluded, consistently with
    /// [`PowerTerms::relative_power`]).
    ///
    /// Solving `p_b` for `t` and summing the `k` largest coordinates at that
    /// time gives `Lmax` directly.
    pub fn max_load(&self, terms: &PowerTerms, p_b: f64, k: usize) -> Option<f64> {
        if k == 0 || k > self.len() || terms.rho <= 0.0 {
            return None;
        }
        let t = (k as f64 * terms.w2 - p_b) / terms.rho;
        if !t.is_finite() || t < 0.0 {
            return None;
        }
        let order = self.system.order_at(t);
        Some(
            order
                .iter()
                .take(k)
                .map(|&i| self.system.coordinate(i, t))
                .sum(),
        )
    }

    /// Expands the status at column index `idx` into a [`Consolidation`]:
    /// the ON prefix comes from the batch's cache (see
    /// [`ordered_prefix`](ConsolidationIndex::ordered_prefix)). The prefix
    /// *set* is constant over the row's lifetime, so its sample time
    /// reproduces it.
    fn materialize(&self, idx: usize, total_load: f64, rs: &mut BatchScratch) -> Consolidation {
        let k = self.statuses.k[idx] as usize;
        let on = self.ordered_prefix(idx, rs).to_vec();
        let t = (self.statuses.sum_a[idx] - total_load) / self.statuses.sum_b[idx];
        Consolidation {
            on,
            k,
            t,
            relative_power: f64::NAN, // filled by callers that know the terms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    /// The footnote-1 counterexample set.
    fn footnote_pairs() -> Vec<(f64, f64)> {
        vec![(10.0, 7.0), (2.0, 3.0), (1.0, 2.0), (0.2, 1.34)]
    }

    fn terms() -> PowerTerms {
        PowerTerms::unbounded(40.0, 900.0)
    }

    /// Deterministic pseudo-random fleet with distinct speeds (generic
    /// position: one adjacent swap per event).
    fn synthetic(n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(2654435761) % 10007) as f64 / 10007.0;
                let y = ((i as u64).wrapping_mul(1442695040888963407) % 10007) as f64 / 10007.0;
                (5.0 + 10.0 * x, 0.5 + 2.0 * y)
            })
            .collect()
    }

    #[test]
    fn build_counts_are_within_bounds() {
        let idx = ConsolidationIndex::build(&footnote_pairs()).unwrap();
        assert_eq!(idx.len(), 4);
        assert!(idx.order_count() <= 1 + 4 * 3 / 2);
        // Deduplicated: at most the dense `orders × n` rows, at least one
        // row per subset size.
        assert!(idx.status_count() >= 4);
        assert!(idx.status_count() <= idx.order_count() * 4);
        // The dense oracle stores the full table.
        let dense = ConsolidationIndex::build_dense(&footnote_pairs()).unwrap();
        assert_eq!(dense.status_count(), dense.order_count() * 4);
        assert_eq!(dense.order_count(), idx.order_count());
    }

    #[test]
    fn statuses_are_sorted_by_lmax() {
        let idx = ConsolidationIndex::build(&footnote_pairs()).unwrap();
        assert!(idx.statuses.lmax.windows(2).all(|w| w[0] <= w[1]));
        // Columns stay row-consistent: lmax = sum_a − since·sum_b.
        for i in 0..idx.statuses.len() {
            let expect = idx.statuses.sum_a[i] - idx.statuses.since[i] * idx.statuses.sum_b[i];
            assert_eq!(idx.statuses.lmax[i], expect);
        }
    }

    #[test]
    fn every_size_class_has_rows_and_an_envelope() {
        let idx = ConsolidationIndex::build(&synthetic(12)).unwrap();
        assert_eq!(idx.statuses.groups.len(), 12);
        for (k_idx, group) in idx.statuses.groups.iter().enumerate() {
            assert!(!group.rows.is_empty(), "size class {} is empty", k_idx + 1);
            assert!(!group.hull_rows.is_empty());
            assert_eq!(group.hull_breaks.len(), group.hull_rows.len() - 1);
            assert!(group.hull_breaks.windows(2).all(|w| w[0] < w[1]));
            // Envelope rows belong to the class.
            for &r in &group.hull_rows {
                assert_eq!(idx.statuses.k[r as usize] as usize, k_idx + 1);
            }
        }
    }

    #[test]
    fn envelope_matches_linear_scan_over_the_class() {
        let idx = ConsolidationIndex::build(&synthetic(10)).unwrap();
        let statuses = &idx.statuses;
        for k_idx in 0..10 {
            // One ascending walk per class, as a query batch takes it.
            let mut segment = 0;
            for load in [0.0, 0.3, 1.0, 2.7, 5.0, 9.5] {
                let brute_best = statuses.groups[k_idx]
                    .rows
                    .iter()
                    .map(|&r| {
                        let r = r as usize;
                        (statuses.sum_a[r] - load) * statuses.inv_sum_b[r]
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                match statuses.envelope_step(k_idx, &mut segment, load) {
                    Some((_, t)) => assert!(
                        (t - brute_best).abs() <= 1e-9 * (1.0 + brute_best.abs()),
                        "k={} load={load}: envelope {t} vs scan {brute_best}",
                        k_idx + 1
                    ),
                    None => assert!(
                        brute_best <= 0.0,
                        "k={} load={load}: envelope says infeasible, scan found {brute_best}",
                        k_idx + 1
                    ),
                }
            }
        }
    }

    #[test]
    fn builder_and_one_shot_build_agree() {
        let pairs = footnote_pairs();
        let via_builder = IndexBuilder::new(&pairs).unwrap().build();
        let one_shot = ConsolidationIndex::build(&pairs).unwrap();
        assert_eq!(via_builder, one_shot);
        assert!(IndexBuilder::new(&pairs).unwrap().snapshot_count() >= 1);
    }

    #[test]
    fn incremental_matches_dense_on_small_fleets() {
        // Includes a simultaneous pile-up (three particles crossing at one
        // instant) and the paper's Fig. 1 system.
        let fleets: Vec<Vec<(f64, f64)>> = vec![
            footnote_pairs(),
            vec![(4.0, 1.0), (1.0, 3.0), (5.0, 2.0), (3.5, 1.5)],
            vec![(3.0, 2.0), (2.0, 1.0), (2.5, 1.5)],
            synthetic(9),
        ];
        let t = terms();
        for pairs in fleets {
            let inc = ConsolidationIndex::build(&pairs).unwrap();
            let dense = ConsolidationIndex::build_dense(&pairs).unwrap();
            assert_eq!(inc.order_count(), dense.order_count());
            let max_load: f64 = pairs.iter().map(|&(a, _)| a.max(0.0)).sum();
            for step in 0..=20 {
                let load = max_load * step as f64 / 18.0; // beyond Σa near the end
                let got = inc.query_min_power(&t, load, None).unwrap();
                let want = dense.query_min_power(&t, load, None).unwrap();
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => assert!(
                        (g.relative_power - w.relative_power).abs()
                            <= 1e-6 * (1.0 + w.relative_power.abs()),
                        "load {load}: incremental {} ({:?}) vs dense {} ({:?})",
                        g.relative_power,
                        g.on,
                        w.relative_power,
                        w.on
                    ),
                    (g, w) => panic!("load {load}: feasibility split {g:?} vs {w:?}"),
                }
                assert_eq!(
                    inc.query_online(load).is_some(),
                    dense.query_online(load).is_some(),
                    "load {load}: Algorithm 2 feasibility split"
                );
            }
        }
    }

    #[test]
    fn dedup_keeps_row_count_near_linear_in_events() {
        // Satellite pin: at n = 200 the deduplicated table must be at most
        // a tenth of the old n³-shaped `orders × n` table (in practice it
        // is ~n× smaller: one row per crossing plus the n initial rows).
        let pairs = synthetic(200);
        let idx = ConsolidationIndex::build(&pairs).unwrap();
        let dense_rows = idx.order_count() * 200;
        assert!(
            idx.status_count() * 10 <= dense_rows,
            "dedup too weak: {} rows vs dense {}",
            idx.status_count(),
            dense_rows
        );
        // Peak storage is O(n²): the n initial rows plus at most one row
        // per crossing event (a pile-up of m simultaneous events changes
        // fewer than m prefixes).
        assert!(
            idx.status_count() <= 200 + 200 * 199 / 2,
            "{} rows exceeds the O(n²) event bound",
            idx.status_count()
        );
    }

    #[test]
    fn build_counter_increments_per_build() {
        let before = ConsolidationIndex::build_count();
        let _ = ConsolidationIndex::build(&footnote_pairs()).unwrap();
        let _ = ConsolidationIndex::build(&footnote_pairs()).unwrap();
        assert!(ConsolidationIndex::build_count() >= before + 2);
    }

    #[test]
    fn fingerprint_tracks_inputs_bitwise() {
        let pairs = footnote_pairs();
        let t = terms();
        let base = ModelFingerprint::of_parts(&pairs, &t);
        assert_eq!(base, ModelFingerprint::of_parts(&pairs, &t));
        let mut nudged = pairs.clone();
        nudged[2].0 += 1e-12;
        assert_ne!(base, ModelFingerprint::of_parts(&nudged, &t));
        let capped = PowerTerms {
            t_cap: Some(0.9),
            ..t
        };
        assert_ne!(base, ModelFingerprint::of_parts(&pairs, &capped));
    }

    #[test]
    fn exact_query_matches_brute_force_on_footnote_set() {
        let pairs = footnote_pairs();
        let idx = ConsolidationIndex::build(&pairs).unwrap();
        let t = terms();
        for load in [0.0, 0.5, 1.0, 2.0, 3.0] {
            let got = idx.query_min_power(&t, load, None).unwrap().unwrap();
            let want = brute::brute_force_subsets(&pairs, &t, load)
                .unwrap()
                .unwrap();
            assert!(
                (got.relative_power - want.relative_power).abs() < 1e-9,
                "load {load}: got {} ({:?}), brute {} ({:?})",
                got.relative_power,
                got.on,
                want.relative_power,
                want.on
            );
        }
    }

    #[test]
    fn batched_query_equals_singles() {
        let pairs = synthetic(14);
        let idx = ConsolidationIndex::build(&pairs).unwrap();
        for t in [
            terms(),
            PowerTerms {
                t_cap: Some(0.9),
                ..terms()
            },
        ] {
            // Unsorted, with duplicates and an unservable load.
            let loads = [3.5, 0.0, 9.0, 3.5, 1.25, 1e9, 0.01, 7.75];
            let batch = idx.query_batch(&t, &loads, None).unwrap();
            assert_eq!(batch.len(), loads.len());
            for (&load, got) in loads.iter().zip(&batch) {
                let want = idx.query_min_power(&t, load, None).unwrap();
                assert_eq!(got, &want, "load {load} diverged from the single query");
            }
        }
    }

    #[test]
    fn batched_query_validates_all_loads() {
        let idx = ConsolidationIndex::build(&footnote_pairs()).unwrap();
        assert!(idx.query_batch(&terms(), &[1.0, -0.5], None).is_err());
        assert!(idx.query_batch(&terms(), &[f64::NAN], None).is_err());
        assert_eq!(idx.query_batch(&terms(), &[], None).unwrap(), vec![]);
    }

    #[test]
    fn online_query_serves_the_load() {
        let pairs = footnote_pairs();
        let idx = ConsolidationIndex::build(&pairs).unwrap();
        for load in [0.1, 1.0, 2.5] {
            let c = idx.query_online(load).unwrap();
            // The chosen prefix can actually carry the load: Σa − t·Σb = L
            // has a non-negative t.
            assert!(c.t >= 0.0, "load {load} gave negative t {}", c.t);
            let sum_a: f64 = c.on.iter().map(|&i| pairs[i].0).sum();
            assert!(sum_a >= load);
        }
    }

    #[test]
    fn max_load_is_monotone_in_budget() {
        let pairs = footnote_pairs();
        let idx = ConsolidationIndex::build(&pairs).unwrap();
        let t = terms();
        let mut last = f64::NEG_INFINITY;
        // Higher budget ⇒ smaller required t ⇒ larger Lmax.
        for p_b in [-2000.0, -1000.0, 0.0, 40.0, 80.0] {
            if let Some(l) = idx.max_load(&t, p_b, 2) {
                assert!(l >= last - 1e-12, "budget {p_b} broke monotonicity");
                last = l;
            }
        }
        assert!(last > f64::NEG_INFINITY, "no budget was feasible");
    }

    #[test]
    fn budget_search_agrees_with_the_exact_query() {
        let pairs = footnote_pairs();
        let idx = ConsolidationIndex::build(&pairs).unwrap();
        let t = terms();
        for load in [0.0, 0.5, 1.0, 2.0, 3.0] {
            let exact = idx.query_min_power(&t, load, None).unwrap().unwrap();
            let searched = idx.query_budget_search(&t, load).unwrap();
            assert!(
                (exact.relative_power - searched.relative_power).abs() < 1e-6,
                "load {load}: exact {} ({:?}) vs budget search {} ({:?})",
                exact.relative_power,
                exact.on,
                searched.relative_power,
                searched.on
            );
        }
    }

    #[test]
    fn budget_search_handles_infeasible_and_capped_cases() {
        let pairs = footnote_pairs();
        let idx = ConsolidationIndex::build(&pairs).unwrap();
        // Unservable load.
        assert!(idx.query_budget_search(&terms(), 14.0).is_none());
        // Capped objective still agrees with the exact query.
        let capped = PowerTerms {
            w2: 40.0,
            rho: 900.0,
            t_cap: Some(0.9),
        };
        for load in [0.5, 2.0] {
            let exact = idx.query_min_power(&capped, load, None).unwrap().unwrap();
            let searched = idx.query_budget_search(&capped, load).unwrap();
            assert!(
                (exact.relative_power - searched.relative_power).abs() < 1e-6,
                "capped, load {load}"
            );
        }
    }

    #[test]
    fn max_load_rejects_degenerate_queries() {
        let idx = ConsolidationIndex::build(&footnote_pairs()).unwrap();
        let t = terms();
        assert!(idx.max_load(&t, 0.0, 0).is_none());
        assert!(idx.max_load(&t, 0.0, 9).is_none());
        // Budget so high that t would be negative.
        assert!(idx.max_load(&t, 1e9, 2).is_none());
    }

    #[test]
    fn query_rejects_bad_loads() {
        let idx = ConsolidationIndex::build(&footnote_pairs()).unwrap();
        assert!(idx.query_min_power(&terms(), -1.0, None).is_err());
        assert!(idx.query_min_power(&terms(), f64::NAN, None).is_err());
    }

    #[test]
    fn unservable_load_returns_none() {
        let idx = ConsolidationIndex::build(&footnote_pairs()).unwrap();
        // Σa = 13.2; a load beyond it can never give t > 0.
        assert!(idx.query_min_power(&terms(), 14.0, None).unwrap().is_none());
    }

    #[test]
    fn build_rejects_bad_pairs() {
        assert!(ConsolidationIndex::build(&[]).is_err());
        assert!(ConsolidationIndex::build(&[(1.0, 0.0)]).is_err());
    }
}
