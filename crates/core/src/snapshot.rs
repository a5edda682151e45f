//! Shared, atomically swappable consolidation engines.
//!
//! A built [`ConsolidationIndex`] is immutable, so serving it to many
//! readers is just an `Arc`: [`IndexSnapshot`] bundles the index with the
//! [`PowerTerms`] and [`ModelFingerprint`] it was built from, and
//! [`SnapshotCell`] publishes the current snapshot behind a mutex that is
//! only ever held for a pointer swap — never across a rebuild. A planner
//! whose model changed builds the replacement *outside* the lock while
//! concurrent readers keep querying the old snapshot, then swaps it in; if
//! two threads race to rebuild the same fingerprint, the first to publish
//! wins and the loser's work is dropped (correct either way — equal
//! fingerprints mean bit-identical indices).

use crate::error::SolveError;
use crate::hier::{HierConfig, HierIndex};
use crate::index::{Consolidation, ConsolidationIndex, ModelFingerprint, PowerTerms};
use coolopt_model::RoomModel;
use coolopt_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Above this many machines, [`IndexSnapshot::for_parts`] switches from
/// the exact flat `O(n²)` index to the hierarchical clustered engine
/// (`HierConfig::auto` tolerances, refined answers): the flat build at
/// this size is already ~100 ms and grows quadratically, while the
/// clustering probe is `O(n log n)` and adaptive widening guarantees a
/// bounded cluster count with an honest tracked radius.
pub const HIER_AUTO_THRESHOLD: usize = 2048;

/// The consolidation engine a snapshot serves: the exact flat index, or
/// the hierarchical clustered index for fleets past
/// [`HIER_AUTO_THRESHOLD`].
#[derive(Debug)]
enum Engine {
    Flat(ConsolidationIndex),
    Hier(HierIndex),
}

/// An immutable consolidation engine: index + query terms + the fingerprint
/// of the model they were built from.
#[derive(Debug)]
pub struct IndexSnapshot {
    fingerprint: ModelFingerprint,
    engine: Engine,
    terms: PowerTerms,
}

impl IndexSnapshot {
    /// Builds a snapshot for a fitted room model (hierarchical above
    /// [`HIER_AUTO_THRESHOLD`] machines).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DegenerateModel`] for a model whose
    /// consolidation pairs are degenerate.
    pub fn for_model(model: &RoomModel) -> Result<Arc<Self>, SolveError> {
        Self::for_parts(&model.consolidation_pairs(), PowerTerms::from_model(model))
    }

    /// Builds a snapshot from explicit pairs + terms, auto-selecting the
    /// engine: flat (exact) up to [`HIER_AUTO_THRESHOLD`] machines,
    /// hierarchical (refined, error-certified) beyond.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IndexSnapshot::for_model`].
    pub fn for_parts(pairs: &[(f64, f64)], terms: PowerTerms) -> Result<Arc<Self>, SolveError> {
        if pairs.len() > HIER_AUTO_THRESHOLD {
            return Self::for_parts_hier(pairs, terms, HierConfig::auto(pairs));
        }
        Self::for_parts_flat(pairs, terms)
    }

    /// Builds a snapshot on the exact flat index regardless of size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IndexSnapshot::for_model`].
    pub fn for_parts_flat(
        pairs: &[(f64, f64)],
        terms: PowerTerms,
    ) -> Result<Arc<Self>, SolveError> {
        let index = ConsolidationIndex::build(pairs)?;
        Ok(Arc::new(IndexSnapshot {
            fingerprint: ModelFingerprint::of_parts(pairs, &terms),
            engine: Engine::Flat(index),
            terms,
        }))
    }

    /// Builds a snapshot on the hierarchical index with an explicit
    /// configuration, regardless of size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IndexSnapshot::for_model`], plus an invalid
    /// [`HierConfig`].
    pub fn for_parts_hier(
        pairs: &[(f64, f64)],
        terms: PowerTerms,
        config: HierConfig,
    ) -> Result<Arc<Self>, SolveError> {
        let index = HierIndex::build(pairs, config)?;
        Ok(Arc::new(IndexSnapshot {
            fingerprint: ModelFingerprint::of_parts(pairs, &terms),
            engine: Engine::Hier(index),
            terms,
        }))
    }

    /// The fingerprint of the inputs this snapshot was built from.
    pub fn fingerprint(&self) -> ModelFingerprint {
        self.fingerprint
    }

    /// `true` when this snapshot serves the hierarchical engine.
    pub fn is_hierarchical(&self) -> bool {
        matches!(self.engine, Engine::Hier(_))
    }

    /// The underlying flat index, when this snapshot serves one.
    ///
    /// Engine-specific access is the *exception*: callers that only query
    /// should use [`plan_any`](IndexSnapshot::plan_any) /
    /// [`query_min_power`](IndexSnapshot::query_min_power) (and the
    /// engine-agnostic [`machine_count`](IndexSnapshot::machine_count) /
    /// [`row_count`](IndexSnapshot::row_count) for introspection), which
    /// dispatch over the engine instead of unwrap-matching this `Option`
    /// at every site. Reach for `index()`/[`hier`](IndexSnapshot::hier)
    /// only for genuinely flat-only surface (e.g. `status_count` pins in
    /// tests).
    pub fn index(&self) -> Option<&ConsolidationIndex> {
        match &self.engine {
            Engine::Flat(index) => Some(index),
            Engine::Hier(_) => None,
        }
    }

    /// The underlying hierarchical index, when this snapshot serves one.
    /// See [`index`](IndexSnapshot::index) for when engine-specific access
    /// is warranted.
    pub fn hier(&self) -> Option<&HierIndex> {
        match &self.engine {
            Engine::Flat(_) => None,
            Engine::Hier(index) => Some(index),
        }
    }

    /// How many machines the engine was built over, whichever engine it is.
    pub fn machine_count(&self) -> usize {
        match &self.engine {
            Engine::Flat(index) => index.len(),
            Engine::Hier(index) => index.len(),
        }
    }

    /// Status rows backing the engine (flat status-table rows, or
    /// hierarchical range rows), whichever engine it is.
    pub fn row_count(&self) -> usize {
        match &self.engine {
            Engine::Flat(index) => index.status_count(),
            Engine::Hier(index) => index.row_count(),
        }
    }

    /// A stable engine label for reports and logs: `"flat"` or `"hier"`.
    pub fn engine_name(&self) -> &'static str {
        match &self.engine {
            Engine::Flat(_) => "flat",
            Engine::Hier(_) => "hier",
        }
    }

    /// Engine-agnostic min-power plan with the snapshot's own terms and no
    /// capacity model: the one-argument entry point for callers that treat
    /// the snapshot as an opaque planning engine and never want to match on
    /// flat vs hierarchical.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::LoadOutOfRange`] for a negative or non-finite
    /// load.
    pub fn plan_any(&self, total_load: f64) -> Result<Option<Consolidation>, SolveError> {
        self.query_min_power(total_load, None)
    }

    /// The Eq. 23 terms the snapshot queries with.
    pub fn terms(&self) -> &PowerTerms {
        &self.terms
    }

    /// [`ConsolidationIndex::query_min_power`] (or the hierarchical
    /// equivalent) with the snapshot's terms.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::LoadOutOfRange`] for a negative or non-finite
    /// load.
    pub fn query_min_power(
        &self,
        total_load: f64,
        capacity_model: Option<&RoomModel>,
    ) -> Result<Option<Consolidation>, SolveError> {
        match &self.engine {
            Engine::Flat(index) => index.query_min_power(&self.terms, total_load, capacity_model),
            Engine::Hier(index) => index.query_min_power(&self.terms, total_load, capacity_model),
        }
    }

    /// [`ConsolidationIndex::query_batch`] (or the hierarchical
    /// equivalent) with the snapshot's terms.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::LoadOutOfRange`] if any load is negative or
    /// non-finite.
    pub fn query_batch(
        &self,
        loads: &[f64],
        capacity_model: Option<&RoomModel>,
    ) -> Result<Vec<Option<Consolidation>>, SolveError> {
        match &self.engine {
            Engine::Flat(index) => index.query_batch(&self.terms, loads, capacity_model),
            Engine::Hier(index) => index.query_batch(&self.terms, loads, capacity_model),
        }
    }

    /// [`ConsolidationIndex::query_online`] (or the hierarchical
    /// equivalent, at cluster resolution).
    pub fn query_online(&self, total_load: f64) -> Option<Consolidation> {
        match &self.engine {
            Engine::Flat(index) => index.query_online(total_load),
            Engine::Hier(index) => index.query_online(total_load),
        }
    }
}

/// A publication point for the current [`IndexSnapshot`].
///
/// Readers [`load`](SnapshotCell::load) the current `Arc` (one short lock,
/// no contention with builds); writers call
/// [`ensure`](SnapshotCell::ensure), which rebuilds outside the lock only
/// when the fingerprint moved. Cloning the cell clones the *pointer*, so
/// clones share the published snapshot.
#[derive(Debug, Default)]
pub struct SnapshotCell {
    current: Mutex<Option<Arc<IndexSnapshot>>>,
    /// Bumped on every publication; readers compare generations to tell
    /// whether the engine they hold is still the published one.
    generation: AtomicU64,
}

impl SnapshotCell {
    /// An empty cell (no snapshot published yet).
    pub fn new() -> Self {
        SnapshotCell::default()
    }

    /// The currently published snapshot, if any.
    pub fn load(&self) -> Option<Arc<IndexSnapshot>> {
        self.current.lock().expect("snapshot cell poisoned").clone()
    }

    /// How many snapshots this cell has published (0 while empty). A reader
    /// that remembers the generation alongside its `Arc` can detect a swap
    /// without holding the snapshot lock.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Returns the published snapshot for `fingerprint`, building and
    /// publishing one with `build` if the cell is empty or holds a snapshot
    /// of a different fingerprint.
    ///
    /// The build runs *outside* the lock: concurrent readers keep the old
    /// snapshot until the swap, and a racer that published the same
    /// fingerprint first wins (this thread's build is discarded).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; the previously published snapshot
    /// (if any) stays in place.
    pub fn ensure<F>(
        &self,
        fingerprint: ModelFingerprint,
        build: F,
    ) -> Result<Arc<IndexSnapshot>, SolveError>
    where
        F: FnOnce() -> Result<Arc<IndexSnapshot>, SolveError>,
    {
        if let Some(current) = self.load() {
            if current.fingerprint() == fingerprint {
                telemetry::counter("coolopt_snapshot_hits_total").inc();
                return Ok(current);
            }
        }
        let built = {
            let _span = telemetry::span("snapshot_build");
            build()?
        };
        assert_eq!(
            built.fingerprint(),
            fingerprint,
            "builder produced a snapshot for a different fingerprint"
        );
        telemetry::counter("coolopt_snapshot_builds_total").inc();
        let mut swap_span = telemetry::span("snapshot_swap");
        let mut slot = self.current.lock().expect("snapshot cell poisoned");
        if let Some(current) = slot.as_ref() {
            if current.fingerprint() == fingerprint {
                // Racer won; drop our build.
                telemetry::counter("coolopt_snapshot_races_lost_total").inc();
                swap_span.set_attr("race_lost", true);
                return Ok(Arc::clone(current));
            }
        }
        *slot = Some(Arc::clone(&built));
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        telemetry::counter("coolopt_snapshot_swaps_total").inc();
        telemetry::gauge("coolopt_snapshot_generation").set(generation as f64);
        drop(slot);
        let _ = swap_span.attr("generation", generation).stop();
        Ok(built)
    }
}

impl Clone for SnapshotCell {
    fn clone(&self) -> Self {
        SnapshotCell {
            current: Mutex::new(self.load()),
            generation: AtomicU64::new(self.generation()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs() -> Vec<(f64, f64)> {
        vec![(10.0, 7.0), (2.0, 3.0), (1.0, 2.0), (0.2, 1.34)]
    }

    fn terms() -> PowerTerms {
        PowerTerms::unbounded(40.0, 900.0)
    }

    #[test]
    fn ensure_builds_once_per_fingerprint() {
        let cell = SnapshotCell::new();
        let fp = ModelFingerprint::of_parts(&pairs(), &terms());
        let before = ConsolidationIndex::build_count();
        let first = cell
            .ensure(fp, || IndexSnapshot::for_parts(&pairs(), terms()))
            .unwrap();
        let second = cell
            .ensure(fp, || panic!("must not rebuild an up-to-date snapshot"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(ConsolidationIndex::build_count(), before + 1);
    }

    #[test]
    fn ensure_swaps_on_fingerprint_change() {
        let cell = SnapshotCell::new();
        let fp_a = ModelFingerprint::of_parts(&pairs(), &terms());
        let a = cell
            .ensure(fp_a, || IndexSnapshot::for_parts(&pairs(), terms()))
            .unwrap();
        let mut other = pairs();
        other[0].0 += 1.0;
        let fp_b = ModelFingerprint::of_parts(&other, &terms());
        let b = cell
            .ensure(fp_b, || IndexSnapshot::for_parts(&other, terms()))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cell.load().unwrap().fingerprint(), fp_b);
        // The old Arc keeps serving its readers.
        assert!(a.query_min_power(1.0, None).unwrap().is_some());
    }

    #[test]
    fn concurrent_readers_never_block_on_a_rebuild() {
        let cell = std::sync::Arc::new(SnapshotCell::new());
        let fp = ModelFingerprint::of_parts(&pairs(), &terms());
        cell.ensure(fp, || IndexSnapshot::for_parts(&pairs(), terms()))
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = std::sync::Arc::clone(&cell);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let snap = cell.load().expect("snapshot published");
                        assert!(snap.query_min_power(1.0, None).unwrap().is_some());
                    }
                });
            }
            // Meanwhile, swap to a different model repeatedly.
            let mut other = pairs();
            for round in 0..4 {
                other[0].0 += 1.0 + round as f64;
                let fp = ModelFingerprint::of_parts(&other, &terms());
                cell.ensure(fp, || IndexSnapshot::for_parts(&other, terms()))
                    .unwrap();
            }
        });
    }

    #[test]
    fn small_fleets_stay_flat_and_large_fleets_go_hierarchical() {
        let small = IndexSnapshot::for_parts(&pairs(), terms()).unwrap();
        assert!(!small.is_hierarchical());
        assert_eq!(small.engine_name(), "flat");
        assert_eq!(small.machine_count(), pairs().len());
        assert!(small.row_count() > 0);
        assert!(small.index().is_some());
        assert!(small.hier().is_none());
        // plan_any answers without matching on the engine.
        assert_eq!(
            small.plan_any(2.0).unwrap(),
            small.query_min_power(2.0, None).unwrap()
        );
        // 3 machine classes repeated past the threshold: the auto-selected
        // hierarchical engine clusters them and answers equivalently.
        let classes = [(10.0, 7.0), (2.0, 3.0), (1.0, 2.0)];
        let big: Vec<(f64, f64)> = (0..HIER_AUTO_THRESHOLD + 7)
            .map(|i| classes[i % classes.len()])
            .collect();
        let snap = IndexSnapshot::for_parts(&big, terms()).unwrap();
        assert!(snap.is_hierarchical());
        assert_eq!(snap.engine_name(), "hier");
        assert_eq!(snap.machine_count(), big.len());
        assert!(snap.row_count() > 0);
        assert_eq!(
            snap.plan_any(2.0).unwrap(),
            snap.query_min_power(2.0, None).unwrap()
        );
        let hier = snap.hier().expect("hierarchical engine");
        assert_eq!(hier.cluster_count(), 3);
        let c = snap.query_min_power(2.0, None).unwrap().expect("feasible");
        assert_eq!(c.on.len(), c.k);
        assert!(c.k as f64 >= 2.0);
        assert!(snap.query_online(2.0).is_some());
        assert_eq!(
            snap.query_batch(&[2.0, 2.0], None).unwrap()[0],
            Some(c.clone())
        );
        // An explicit flat build of the same fleet agrees (exact clusters).
        let flat = IndexSnapshot::for_parts_flat(&big[..64], terms()).unwrap();
        let small_hier =
            IndexSnapshot::for_parts_hier(&big[..64], terms(), crate::hier::HierConfig::exact())
                .unwrap();
        for load in [0.5, 1.5, 3.0, 9.0] {
            assert_eq!(
                flat.query_min_power(load, None).unwrap(),
                small_hier.query_min_power(load, None).unwrap(),
                "engine divergence at load {load}"
            );
        }
    }

    #[test]
    fn clones_share_the_published_snapshot() {
        let cell = SnapshotCell::new();
        let fp = ModelFingerprint::of_parts(&pairs(), &terms());
        let snap = cell
            .ensure(fp, || IndexSnapshot::for_parts(&pairs(), terms()))
            .unwrap();
        let cloned = cell.clone();
        assert!(Arc::ptr_eq(&snap, &cloned.load().unwrap()));
    }
}
