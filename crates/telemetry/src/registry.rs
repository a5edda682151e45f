//! The process-global metric registry.

use crate::metrics::{Counter, Gauge, Histogram, DEFAULT_LATENCY_BUCKETS};
use crate::render::RegistrySnapshot;
use std::collections::BTreeMap;
use std::sync::RwLock;

/// A named collection of metrics.
///
/// Metric handles are `&'static`: registration leaks one small allocation
/// per distinct name (bounded by the instrumentation surface, not by
/// traffic), which is what lets the hot path touch metrics without
/// locking or reference counting. Look-ups take a read lock only; the
/// write lock is held for first registration alone.
///
/// Most code uses the process-global registry through the free functions
/// [`counter`], [`gauge`], [`histogram`] and [`snapshot`]; tests that need
/// isolation can own a `Registry` of their own.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, &'static Counter>>,
    gauges: RwLock<BTreeMap<&'static str, &'static Gauge>>,
    histograms: RwLock<BTreeMap<&'static str, &'static Histogram>>,
    help: RwLock<BTreeMap<&'static str, &'static str>>,
}

static GLOBAL: Registry = Registry::new();

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            help: RwLock::new(BTreeMap::new()),
        }
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        &GLOBAL
    }

    /// The counter named `name`, registered on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        if let Some(c) = self.counters.read().expect("registry poisoned").get(name) {
            return c;
        }
        let mut map = self.counters.write().expect("registry poisoned");
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::new())))
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        if let Some(g) = self.gauges.read().expect("registry poisoned").get(name) {
            return g;
        }
        let mut map = self.gauges.write().expect("registry poisoned");
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
    }

    /// The histogram named `name` with [`DEFAULT_LATENCY_BUCKETS`],
    /// registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with different bounds.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        self.histogram_with(name, DEFAULT_LATENCY_BUCKETS)
    }

    /// The histogram named `name` with explicit bucket `bounds`,
    /// registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with different bounds (one
    /// name must mean one bucket layout, or snapshot merging would lose
    /// samples) or if `bounds` is invalid (see [`Histogram::new`]).
    pub fn histogram_with(&self, name: &'static str, bounds: &[f64]) -> &'static Histogram {
        if let Some(h) = self.histograms.read().expect("registry poisoned").get(name) {
            assert_eq!(
                h.bounds(),
                bounds,
                "histogram `{name}` re-registered with different bounds"
            );
            return h;
        }
        let mut map = self.histograms.write().expect("registry poisoned");
        let h = *map
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new(bounds))));
        assert_eq!(
            h.bounds(),
            bounds,
            "histogram `{name}` re-registered with different bounds"
        );
        h
    }

    /// Attaches a help string to a metric name (rendered as a Prometheus
    /// `# HELP` line, escaped by the exporter). Later calls overwrite.
    pub fn describe(&self, name: &'static str, help: &'static str) {
        self.help
            .write()
            .expect("registry poisoned")
            .insert(name, help);
    }

    /// Freezes every metric into plain data.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(&k, c)| (k.to_string(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(&k, g)| (k.to_string(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(&k, h)| (k.to_string(), h.snapshot()))
                .collect(),
            help: self
                .help
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(&k, &v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// [`Registry::counter`] on the global registry.
pub fn counter(name: &'static str) -> &'static Counter {
    Registry::global().counter(name)
}

/// [`Registry::gauge`] on the global registry.
pub fn gauge(name: &'static str) -> &'static Gauge {
    Registry::global().gauge(name)
}

/// [`Registry::histogram`] on the global registry.
pub fn histogram(name: &'static str) -> &'static Histogram {
    Registry::global().histogram(name)
}

/// [`Registry::histogram_with`] on the global registry.
pub fn histogram_with(name: &'static str, bounds: &[f64]) -> &'static Histogram {
    Registry::global().histogram_with(name, bounds)
}

/// [`Registry::describe`] on the global registry.
pub fn describe(name: &'static str, help: &'static str) {
    Registry::global().describe(name, help)
}

/// [`Registry::snapshot`] of the global registry.
pub fn snapshot() -> RegistrySnapshot {
    Registry::global().snapshot()
}

/// Prometheus text exposition of the global registry, ready to serve from
/// a `/metrics` endpoint or dump at exit.
pub fn render_prometheus() -> String {
    snapshot().render_prometheus()
}
