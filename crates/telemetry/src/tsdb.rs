//! Embedded Gorilla-compressed time-series store.
//!
//! Every series is a ring of compressed blocks in two retention tiers:
//!
//! * **raw** — every appended `(t_ms, f64)` sample, Gorilla-encoded:
//!   delta-of-delta timestamps (most collector samples land on a steady
//!   cadence, so the delta of deltas is zero — one bit) and XOR'd value
//!   bits (an unchanged value is one bit; a changed one reuses the
//!   previous leading/length window when it fits). A steady gauge costs
//!   ~2 bits per sample against 128 bits uncompressed.
//! * **downsampled** — every `downsample_every` raw samples collapse to
//!   one mean point, compressed with the same codec. When the raw ring
//!   evicts its oldest block, history survives here at reduced
//!   resolution (means only — extremes within an aged-out stretch are
//!   gone; keep the raw ring long enough for any window you must answer
//!   exactly).
//!
//! The append path is lock-light: one `RwLock` read over the series map
//! (writes only on first-append of a new name) plus one short per-series
//! `Mutex` — planning traffic on other series never contends. Values are
//! stored as raw IEEE-754 bits, so NaN payloads, infinities and
//! subnormals round-trip bit-exactly.
//!
//! A [`Collector`] feeds the store in the background: each tick samples
//! every registered counter, gauge and histogram (count + p50/p99) into
//! same-named series, then runs any custom sources (the service layer
//! adds per-tenant queue depth and SLO burn rates). Simulation loops
//! append directly with sim-time timestamps instead — the store never
//! reads a clock.

use crate::dashboard::{Chart, ChartSeries};
use crate::tsdbfmt::{
    aggregate, wall_ms, QueryResult, RangeQuery, SeriesStats, TsdbConfig, TsdbStats,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Bit stream
// ---------------------------------------------------------------------------

/// An append-only MSB-first bit stream over `u64` words.
#[derive(Debug, Clone, Default)]
struct BitWriter {
    words: Vec<u64>,
    /// Bits written so far.
    bits: usize,
}

impl BitWriter {
    /// Appends the low `n` bits of `value`, most significant first.
    fn push_bits(&mut self, value: u64, mut n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let mut v = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        while n > 0 {
            let off = (self.bits % 64) as u32;
            if off == 0 {
                self.words.push(0);
            }
            let avail = 64 - off;
            let take = n.min(avail);
            // The top `take` bits of the remaining value, placed directly
            // under the word's write cursor.
            let chunk = v >> (n - take);
            let w = self.words.last_mut().expect("word pushed above");
            *w |= chunk << (avail - take);
            self.bits += take as usize;
            n -= take;
            if n > 0 {
                v &= (1u64 << n) - 1;
            }
        }
    }

    fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }
}

/// The matching MSB-first reader.
#[derive(Debug)]
struct BitReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl BitReader<'_> {
    fn read_bits(&mut self, mut n: u32) -> u64 {
        debug_assert!(n <= 64);
        let mut out = 0u64;
        while n > 0 {
            let word = self.words[self.pos / 64];
            let off = (self.pos % 64) as u32;
            let avail = 64 - off;
            let take = n.min(avail);
            let chunk = (word << off) >> (64 - take);
            out = if take == 64 {
                chunk
            } else {
                (out << take) | chunk
            };
            self.pos += take as usize;
            n -= take;
        }
        out
    }

    fn read_bit(&mut self) -> bool {
        self.read_bits(1) == 1
    }
}

// ---------------------------------------------------------------------------
// Gorilla codec
// ---------------------------------------------------------------------------

/// XOR-compressor state for one value stream.
#[derive(Debug, Clone, Copy, Default)]
struct ValState {
    prev_bits: u64,
    /// `(leading, meaningful)` of the last explicitly-windowed XOR.
    window: Option<(u32, u32)>,
}

/// Appends one delta-of-delta timestamp. All arithmetic wraps, so even
/// adversarial (unsorted, overflowing) timestamps round-trip bit-exactly.
fn encode_ts(w: &mut BitWriter, dod: i64) {
    if dod == 0 {
        w.push_bit(false);
    } else if (-63..=64).contains(&dod) {
        w.push_bits(0b10, 2);
        w.push_bits((dod + 63) as u64, 7);
    } else if (-255..=256).contains(&dod) {
        w.push_bits(0b110, 3);
        w.push_bits((dod + 255) as u64, 9);
    } else if (-2047..=2048).contains(&dod) {
        w.push_bits(0b1110, 4);
        w.push_bits((dod + 2047) as u64, 12);
    } else {
        w.push_bits(0b1111, 4);
        w.push_bits(dod as u64, 64);
    }
}

fn decode_ts(r: &mut BitReader<'_>) -> i64 {
    if !r.read_bit() {
        return 0;
    }
    if !r.read_bit() {
        return r.read_bits(7) as i64 - 63;
    }
    if !r.read_bit() {
        return r.read_bits(9) as i64 - 255;
    }
    if !r.read_bit() {
        return r.read_bits(12) as i64 - 2047;
    }
    r.read_bits(64) as i64
}

/// Appends one XOR-encoded value (by raw IEEE-754 bits).
fn encode_val(w: &mut BitWriter, bits: u64, state: &mut ValState) {
    let xor = bits ^ state.prev_bits;
    state.prev_bits = bits;
    if xor == 0 {
        w.push_bit(false);
        return;
    }
    w.push_bit(true);
    // Leading is capped at 31 (5 bits); meaningful then stays ≥ 1 because
    // a nonzero XOR has leading + trailing ≤ 63.
    let leading = xor.leading_zeros().min(31);
    let trailing = xor.trailing_zeros();
    let meaningful = 64 - leading - trailing;
    if let Some((pl, pm)) = state.window {
        let pt = 64 - pl - pm;
        if leading >= pl && trailing >= pt {
            w.push_bit(false);
            w.push_bits(xor >> pt, pm);
            return;
        }
    }
    w.push_bit(true);
    w.push_bits(u64::from(leading), 5);
    w.push_bits(u64::from(meaningful - 1), 6);
    w.push_bits(xor >> trailing, meaningful);
    state.window = Some((leading, meaningful));
}

fn decode_val(r: &mut BitReader<'_>, state: &mut ValState) -> u64 {
    if !r.read_bit() {
        return state.prev_bits;
    }
    let xor = if !r.read_bit() {
        let (pl, pm) = state.window.expect("reuse flag implies a prior window");
        r.read_bits(pm) << (64 - pl - pm)
    } else {
        let leading = r.read_bits(5) as u32;
        let meaningful = r.read_bits(6) as u32 + 1;
        state.window = Some((leading, meaningful));
        r.read_bits(meaningful) << (64 - leading - meaningful)
    };
    state.prev_bits ^= xor;
    state.prev_bits
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

/// Fixed per-block overhead charged to [`SeriesStats`]: first timestamp,
/// first value bits, and the count/bit-length bookkeeping.
const BLOCK_HEADER_BYTES: u64 = 24;

/// One immutable compressed block.
#[derive(Debug, Clone)]
struct SealedBlock {
    words: Box<[u64]>,
    count: u32,
    first_ts: i64,
    last_ts: i64,
    first_val_bits: u64,
}

impl SealedBlock {
    fn stored_bytes(&self) -> u64 {
        BLOCK_HEADER_BYTES + 8 * self.words.len() as u64
    }

    /// Replays the block back into `(t_ms, value)` samples.
    fn decode_into(&self, out: &mut Vec<(i64, f64)>) {
        if self.count == 0 {
            return;
        }
        out.push((self.first_ts, f64::from_bits(self.first_val_bits)));
        let mut r = BitReader {
            words: &self.words,
            pos: 0,
        };
        let mut ts = self.first_ts;
        let mut delta = 0i64;
        let mut state = ValState {
            prev_bits: self.first_val_bits,
            window: None,
        };
        for _ in 1..self.count {
            delta = delta.wrapping_add(decode_ts(&mut r));
            ts = ts.wrapping_add(delta);
            let bits = decode_val(&mut r, &mut state);
            out.push((ts, f64::from_bits(bits)));
        }
    }
}

/// The open block samples append into.
#[derive(Debug, Clone, Default)]
struct BlockBuilder {
    writer: BitWriter,
    count: u32,
    first_ts: i64,
    last_ts: i64,
    prev_delta: i64,
    first_val_bits: u64,
    val: ValState,
}

impl BlockBuilder {
    fn push(&mut self, t: i64, v: f64) {
        let bits = v.to_bits();
        if self.count == 0 {
            self.first_ts = t;
            self.last_ts = t;
            self.prev_delta = 0;
            self.first_val_bits = bits;
            self.val = ValState {
                prev_bits: bits,
                window: None,
            };
            self.count = 1;
            return;
        }
        let delta = t.wrapping_sub(self.last_ts);
        encode_ts(&mut self.writer, delta.wrapping_sub(self.prev_delta));
        encode_val(&mut self.writer, bits, &mut self.val);
        self.prev_delta = delta;
        self.last_ts = t;
        self.count += 1;
    }

    fn seal(self) -> SealedBlock {
        SealedBlock {
            words: self.writer.words.into_boxed_slice(),
            count: self.count,
            first_ts: self.first_ts,
            last_ts: self.last_ts,
            first_val_bits: self.first_val_bits,
        }
    }

    /// A sealed copy of the still-open block (for reads).
    fn snapshot(&self) -> SealedBlock {
        self.clone().seal()
    }

    fn stored_bytes(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        BLOCK_HEADER_BYTES + 8 * self.writer.words.len() as u64
    }
}

// ---------------------------------------------------------------------------
// Series and store
// ---------------------------------------------------------------------------

/// One compressed-block ring (either tier of a series).
#[derive(Debug, Default)]
struct Tier {
    active: BlockBuilder,
    sealed: VecDeque<SealedBlock>,
    evicted_points: u64,
}

impl Tier {
    fn push(&mut self, t: i64, v: f64, points_per_block: usize, max_blocks: usize) {
        self.active.push(t, v);
        if self.active.count as usize >= points_per_block {
            let full = std::mem::take(&mut self.active);
            self.sealed.push_back(full.seal());
            while self.sealed.len() > max_blocks {
                if let Some(old) = self.sealed.pop_front() {
                    self.evicted_points += u64::from(old.count);
                }
            }
        }
    }

    fn points(&self) -> u64 {
        self.sealed.iter().map(|b| u64::from(b.count)).sum::<u64>() + u64::from(self.active.count)
    }

    fn stored_bytes(&self) -> u64 {
        self.sealed
            .iter()
            .map(SealedBlock::stored_bytes)
            .sum::<u64>()
            + self.active.stored_bytes()
    }

    /// Oldest decodable timestamp, when any sample is retained.
    fn oldest_ts(&self) -> Option<i64> {
        self.sealed
            .front()
            .map(|b| b.first_ts)
            .or((self.active.count > 0).then_some(self.active.first_ts))
    }

    /// Decodes every retained sample whose timestamp falls in
    /// `[start, end]`, in append order.
    fn collect(&self, start: i64, end: i64, out: &mut Vec<(i64, f64)>) {
        let mut scratch = Vec::new();
        for block in self.sealed.iter().chain(
            (self.active.count > 0)
                .then(|| self.active.snapshot())
                .iter(),
        ) {
            // Blocks are append-ordered; skip ones fully outside the range
            // (timestamps within a block are assumed ascending — the
            // store's documented append contract).
            if block.last_ts < start || block.first_ts > end {
                continue;
            }
            scratch.clear();
            block.decode_into(&mut scratch);
            out.extend(
                scratch
                    .iter()
                    .copied()
                    .filter(|&(t, _)| t >= start && t <= end),
            );
        }
    }
}

/// One named series: a raw tier, a downsampled tier, and the fold-down
/// accumulator between them.
#[derive(Debug, Default)]
struct SeriesInner {
    raw: Tier,
    down: Tier,
    acc_count: usize,
    acc_finite: u64,
    acc_sum: f64,
}

/// A named series handle (internal; all access goes through [`Tsdb`]).
#[derive(Debug)]
struct Series {
    inner: Mutex<SeriesInner>,
}

impl Series {
    fn new() -> Self {
        Series {
            inner: Mutex::new(SeriesInner::default()),
        }
    }

    fn append(&self, t: i64, v: f64, cfg: &TsdbConfig) {
        let mut g = self.inner.lock().expect("series lock poisoned");
        g.raw.push(t, v, cfg.points_per_block, cfg.raw_blocks);
        g.acc_count += 1;
        if v.is_finite() {
            g.acc_finite += 1;
            g.acc_sum += v;
        }
        if g.acc_count >= cfg.downsample_every {
            let mean = if g.acc_finite > 0 {
                g.acc_sum / g.acc_finite as f64
            } else {
                f64::NAN
            };
            g.down.push(t, mean, cfg.points_per_block, cfg.down_blocks);
            g.acc_count = 0;
            g.acc_finite = 0;
            g.acc_sum = 0.0;
        }
    }

    fn stats(&self) -> SeriesStats {
        let g = self.inner.lock().expect("series lock poisoned");
        let retained = g.raw.points();
        SeriesStats {
            appended: retained + g.raw.evicted_points,
            retained_points: retained,
            stored_bytes: g.raw.stored_bytes(),
            down_points: g.down.points(),
            down_bytes: g.down.stored_bytes(),
        }
    }

    /// Raw samples in range, with the downsampled tier covering whatever
    /// the raw ring has already evicted.
    fn collect(&self, query: &RangeQuery) -> (Vec<(i64, f64)>, SeriesStats) {
        let g = self.inner.lock().expect("series lock poisoned");
        let start = query.start_ms.unwrap_or(i64::MIN);
        let end = query.end_ms.unwrap_or(i64::MAX);
        let mut points = Vec::new();
        // Older-first: downsampled history strictly before the oldest raw
        // sample, then the raw tier itself.
        if let Some(oldest_raw) = g.raw.oldest_ts() {
            if oldest_raw > i64::MIN {
                g.down.collect(start, end.min(oldest_raw - 1), &mut points);
            }
            g.raw.collect(start, end, &mut points);
        } else {
            g.down.collect(start, end, &mut points);
        }
        let retained = g.raw.points();
        let stats = SeriesStats {
            appended: retained + g.raw.evicted_points,
            retained_points: retained,
            stored_bytes: g.raw.stored_bytes(),
            down_points: g.down.points(),
            down_bytes: g.down.stored_bytes(),
        };
        (points, stats)
    }
}

/// The embedded time-series store. See the module docs for the design.
#[derive(Debug, Default)]
pub struct Tsdb {
    config: TsdbConfig,
    series: RwLock<BTreeMap<String, Arc<Series>>>,
}

impl Tsdb {
    /// An empty store sized by `config` (knobs are sanitized).
    pub fn new(config: TsdbConfig) -> Self {
        Tsdb {
            config: config.sanitized(),
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// The (sanitized) sizing this store runs with.
    pub fn config(&self) -> TsdbConfig {
        self.config
    }

    /// Appends one sample to `name`, creating the series on first use.
    /// Timestamps are caller-defined milliseconds and must be appended in
    /// ascending order per series for range queries to be exact (the
    /// codec itself round-trips any order bit-exactly).
    pub fn append(&self, name: &str, t_ms: i64, value: f64) {
        let series = {
            let map = self.series.read().expect("series map poisoned");
            map.get(name).cloned()
        };
        let series = match series {
            Some(series) => series,
            None => {
                let mut map = self.series.write().expect("series map poisoned");
                Arc::clone(
                    map.entry(name.to_string())
                        .or_insert_with(|| Arc::new(Series::new())),
                )
            }
        };
        series.append(t_ms, value, &self.config);
    }

    /// Every series name, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.series
            .read()
            .expect("series map poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Answers `query` against one series, `None` when the name is
    /// unknown.
    pub fn query(&self, name: &str, query: &RangeQuery) -> Option<QueryResult> {
        let series = self
            .series
            .read()
            .expect("series map poisoned")
            .get(name)
            .cloned()?;
        let (points, stats) = series.collect(query);
        Some(QueryResult {
            name: name.to_string(),
            points: aggregate(&points, query),
            stats,
        })
    }

    /// Answers `query` against every series matching `pattern`: `""` or
    /// `"*"` match all, a trailing `*` matches the prefix, anything else
    /// is an exact name.
    pub fn query_matching(&self, pattern: &str, query: &RangeQuery) -> Vec<QueryResult> {
        let names = matching_names(&self.series.read().expect("series map poisoned"), pattern);
        names
            .iter()
            .filter_map(|name| self.query(name, query))
            .collect()
    }

    /// Drops every series matching `pattern` (the rules of
    /// [`Tsdb::query_matching`]) and returns how many went. A writer that
    /// restarts its clock clears its series first, so that each keeps
    /// ascending timestamps.
    pub fn remove_matching(&self, pattern: &str) -> usize {
        let mut map = self.series.write().expect("series map poisoned");
        let names = matching_names(&map, pattern);
        for name in &names {
            map.remove(name);
        }
        names.len()
    }

    /// Whole-store accounting.
    pub fn stats(&self) -> TsdbStats {
        let series: Vec<Arc<Series>> = self
            .series
            .read()
            .expect("series map poisoned")
            .values()
            .cloned()
            .collect();
        let mut total = TsdbStats {
            series: series.len() as u64,
            ..TsdbStats::default()
        };
        for s in &series {
            let st = s.stats();
            total.points += st.retained_points + st.down_points;
            total.stored_bytes += st.stored_bytes + st.down_bytes;
            total.raw_bytes += st.raw_bytes();
        }
        total
    }
}

/// The names in `map` that `pattern` selects (see [`Tsdb::query_matching`]).
fn matching_names(map: &BTreeMap<String, Arc<Series>>, pattern: &str) -> Vec<String> {
    match pattern {
        "" | "*" => map.keys().cloned().collect(),
        p => match p.strip_suffix('*') {
            Some(prefix) => map
                .keys()
                .filter(|n| n.starts_with(prefix))
                .cloned()
                .collect(),
            None => map
                .contains_key(p)
                .then(|| p.to_string())
                .into_iter()
                .collect(),
        },
    }
}

static GLOBAL_TSDB: OnceLock<Tsdb> = OnceLock::new();

/// The process-global store ([`Collector`]s feed it; the service `query`
/// command reads it).
pub fn tsdb() -> &'static Tsdb {
    GLOBAL_TSDB.get_or_init(|| Tsdb::new(TsdbConfig::default()))
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Samples every registered counter, gauge and histogram into `db` at
/// `now_ms`: counters and gauges under their own names, histograms as
/// `{name}:count`, `{name}:p50` and `{name}:p99`.
pub fn sample_registry_into(db: &Tsdb, now_ms: i64) {
    let snap = crate::registry::snapshot();
    for (name, v) in &snap.counters {
        db.append(name, now_ms, *v as f64);
    }
    for (name, v) in &snap.gauges {
        db.append(name, now_ms, *v);
    }
    for (name, h) in &snap.histograms {
        db.append(&format!("{name}:count"), now_ms, h.count as f64);
        if let Some(q) = h.quantile(0.5) {
            db.append(&format!("{name}:p50"), now_ms, q);
        }
        if let Some(q) = h.quantile(0.99) {
            db.append(&format!("{name}:p99"), now_ms, q);
        }
    }
}

type Source = Box<dyn Fn(i64, &Tsdb) + Send + Sync>;

struct CollectorShared {
    sources: Vec<Source>,
    sample_registry: bool,
    ticks: AtomicU64,
    stop: Mutex<bool>,
    wake: Condvar,
}

impl std::fmt::Debug for CollectorShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectorShared")
            .field("sources", &self.sources.len())
            .field("sample_registry", &self.sample_registry)
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl CollectorShared {
    fn sample(&self, now_ms: i64) {
        if self.sample_registry {
            sample_registry_into(tsdb(), now_ms);
        }
        for source in &self.sources {
            source(now_ms, tsdb());
        }
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A background sampler feeding the global [`tsdb`]. Build one, attach
/// custom [`source`](Collector::source)s, then [`start`](Collector::start)
/// it; dropping the returned handle stops and joins the thread.
pub struct Collector {
    period: Duration,
    sources: Vec<Source>,
    sample_registry: bool,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("period", &self.period)
            .field("sources", &self.sources.len())
            .field("sample_registry", &self.sample_registry)
            .finish()
    }
}

impl Collector {
    /// A collector ticking every `period_secs` seconds (floored at 10 ms;
    /// non-finite periods fall back to 1 s).
    pub fn new(period_secs: f64) -> Self {
        let secs = if period_secs.is_finite() && period_secs > 0.0 {
            period_secs.max(0.01)
        } else {
            1.0
        };
        Collector {
            period: Duration::from_secs_f64(secs),
            sources: Vec::new(),
            sample_registry: true,
        }
    }

    /// Whether each tick samples the global metrics registry (default
    /// `true`).
    pub fn sample_registry(mut self, on: bool) -> Self {
        self.sample_registry = on;
        self
    }

    /// Adds a custom per-tick source, called with the tick's wall-clock
    /// milliseconds and the global store.
    pub fn source(mut self, f: impl Fn(i64, &Tsdb) + Send + Sync + 'static) -> Self {
        self.sources.push(Box::new(f));
        self
    }

    /// Spawns the sampling thread.
    pub fn start(self) -> CollectorHandle {
        let shared = Arc::new(CollectorShared {
            sources: self.sources,
            sample_registry: self.sample_registry,
            ticks: AtomicU64::new(0),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let period = self.period;
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("coolopt-collector".to_string())
            .spawn(move || loop {
                // `wait_timeout_while` checks the flag before it waits: a
                // `stop()` that lands before this thread first takes the
                // lock has already notified, so a plain wait would sleep
                // a whole period.
                let stopped = {
                    let g = thread_shared.stop.lock().expect("collector lock poisoned");
                    let (g, _timeout) = thread_shared
                        .wake
                        .wait_timeout_while(g, period, |stopped| !*stopped)
                        .expect("collector lock poisoned");
                    *g
                };
                if stopped {
                    return;
                }
                thread_shared.sample(wall_ms());
            })
            .expect("collector thread spawns");
        CollectorHandle {
            shared,
            thread: Some(thread),
        }
    }
}

/// A running [`Collector`]. Dropping it (or calling
/// [`stop`](CollectorHandle::stop)) signals and joins the thread.
#[derive(Debug)]
pub struct CollectorHandle {
    shared: Arc<CollectorShared>,
    thread: Option<JoinHandle<()>>,
}

impl CollectorHandle {
    /// Runs one sampling pass synchronously on the caller's thread — the
    /// final-flush hook shutdown paths use so even a short-lived process
    /// retains at least one sample per series.
    pub fn sample_now(&self) {
        self.shared.sample(wall_ms());
    }

    /// Sampling passes completed (background and synchronous).
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// Stops and joins the sampling thread.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for CollectorHandle {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            *self.shared.stop.lock().expect("collector lock poisoned") = true;
            self.shared.wake.notify_all();
            let _ = thread.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Dashboard glue
// ---------------------------------------------------------------------------

/// One chart per stored series (full retained range, raw resolution) —
/// the generic feed for [`crate::render_dashboard`] when the caller has
/// no domain-specific chart list of its own.
pub fn dashboard_charts(db: &Tsdb) -> Vec<Chart> {
    let query = RangeQuery::default();
    db.series_names()
        .into_iter()
        .filter_map(|name| db.query(&name, &query))
        .filter(|r| !r.points.is_empty())
        .map(|r| Chart {
            title: r.name.clone(),
            unit: String::new(),
            series: vec![ChartSeries {
                label: r.name,
                points: r.points,
            }],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdbfmt::Agg;

    fn roundtrip(samples: &[(i64, f64)]) {
        let mut b = BlockBuilder::default();
        for &(t, v) in samples {
            b.push(t, v);
        }
        let block = b.seal();
        let mut out = Vec::new();
        block.decode_into(&mut out);
        assert_eq!(out.len(), samples.len());
        for (i, (&(t0, v0), &(t1, v1))) in samples.iter().zip(&out).enumerate() {
            assert_eq!(t0, t1, "timestamp {i}");
            assert_eq!(v0.to_bits(), v1.to_bits(), "value bits {i}");
        }
    }

    #[test]
    fn codec_round_trips_steady_and_jittery_series() {
        let steady: Vec<(i64, f64)> = (0..300).map(|i| (i * 250, 42.0)).collect();
        roundtrip(&steady);
        let jitter: Vec<(i64, f64)> = (0..300)
            .map(|i| (i * 250 + (i % 7), (i as f64).sin() * 1e6))
            .collect();
        roundtrip(&jitter);
    }

    #[test]
    fn codec_round_trips_special_values_bit_exactly() {
        roundtrip(&[
            (0, f64::NAN),
            (1, f64::INFINITY),
            (2, f64::NEG_INFINITY),
            (3, -0.0),
            (4, f64::MIN_POSITIVE / 2.0),               // subnormal
            (5, f64::from_bits(0x7ff8_0000_0000_0001)), // NaN payload
            (6, 0.0),
        ]);
    }

    #[test]
    fn codec_round_trips_dod_boundaries_and_overflow() {
        // Deltas hitting every encoding class boundary, plus wrapping.
        let ts = [
            0i64,
            1,
            2,
            66,       // dod 63
            3,        // dod -127 → 9-bit class
            300,      // large dod
            i64::MAX, // 64-bit fallback
            i64::MIN, // wraps
            -5,
        ];
        let samples: Vec<(i64, f64)> = ts.iter().map(|&t| (t, 1.5)).collect();
        roundtrip(&samples);
    }

    #[test]
    fn steady_series_compresses_hard() {
        let db = Tsdb::new(TsdbConfig::default());
        for i in 0..1000 {
            db.append("steady", i * 250, 7.25);
        }
        let stats = db.stats();
        assert!(
            stats.compression_ratio() > 20.0,
            "steady gauge should compress ≫ 8×: {stats:?}"
        );
    }

    #[test]
    fn query_filters_aggregates_and_reports_storage() {
        let db = Tsdb::new(TsdbConfig::default());
        for i in 0..100i64 {
            db.append("s", i * 10, i as f64);
        }
        let r = db
            .query(
                "s",
                &RangeQuery {
                    start_ms: Some(100),
                    end_ms: Some(299),
                    step_ms: 100,
                    agg: Agg::Mean,
                },
            )
            .expect("series exists");
        // Buckets [100,200) and [200,300): means of 10..=19 and 20..=29.
        assert_eq!(r.points, vec![(100, 14.5), (200, 24.5)]);
        assert_eq!(r.stats.retained_points, 100);
        assert!(r.stats.stored_bytes > 0);
        assert!(db.query("missing", &RangeQuery::default()).is_none());
    }

    #[test]
    fn raw_eviction_falls_back_to_downsampled_history() {
        let cfg = TsdbConfig {
            points_per_block: 8,
            raw_blocks: 2,
            downsample_every: 4,
            down_blocks: 8,
        };
        let db = Tsdb::new(cfg);
        for i in 0..64i64 {
            db.append("s", i, i as f64);
        }
        let r = db
            .query("s", &RangeQuery::default())
            .expect("series exists");
        // Raw retains at most 2×8 sealed + the open block; everything
        // older must come from the mean tier, so the full range is still
        // covered from (near) the origin.
        assert!(r.stats.retained_points <= 24);
        assert!(r.stats.appended == 64);
        assert!(r.stats.down_points > 0);
        let first_t = r.points.first().expect("non-empty").0;
        assert!(
            first_t < 8,
            "downsampled tier covers evicted history: first_t = {first_t}"
        );
        // Timestamps stay sorted across the tier seam.
        assert!(r.points.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn query_matching_supports_exact_prefix_and_all() {
        let db = Tsdb::new(TsdbConfig::default());
        db.append("a.x", 0, 1.0);
        db.append("a.y", 0, 2.0);
        db.append("b.z", 0, 3.0);
        let q = RangeQuery::default();
        assert_eq!(db.query_matching("*", &q).len(), 3);
        assert_eq!(db.query_matching("a.*", &q).len(), 2);
        assert_eq!(db.query_matching("b.z", &q).len(), 1);
        assert_eq!(db.query_matching("nope", &q).len(), 0);
    }

    #[test]
    fn remove_matching_uses_the_query_patterns() {
        let db = Tsdb::new(TsdbConfig::default());
        for name in ["a.x", "a.y", "ab.z", "b.z"] {
            db.append(name, 0, 1.0);
        }
        assert_eq!(db.remove_matching("a.*"), 2);
        assert_eq!(db.series_names(), ["ab.z", "b.z"]);
        assert_eq!(db.remove_matching("nope"), 0);
        assert_eq!(db.remove_matching("b.z"), 1);
        // A removed name starts afresh.
        db.append("a.x", 5, 2.0);
        let q = RangeQuery::default();
        assert_eq!(db.query("a.x", &q).expect("re-created").points, [(5, 2.0)]);
        assert_eq!(db.remove_matching("*"), 2);
        assert!(db.series_names().is_empty());
    }

    #[test]
    fn collector_samples_registry_and_custom_sources() {
        crate::counter("tsdb_test_counter").add(3);
        let handle = Collector::new(1000.0)
            .source(|now, db| db.append("tsdb_test_custom", now, 9.0))
            .start();
        handle.sample_now();
        handle.sample_now();
        assert!(handle.ticks() >= 2);
        handle.stop();
        let q = RangeQuery::default();
        let counter = tsdb().query("tsdb_test_counter", &q).expect("sampled");
        assert!(counter.points.iter().any(|&(_, v)| v >= 3.0));
        let custom = tsdb().query("tsdb_test_custom", &q).expect("sampled");
        assert_eq!(custom.points.len(), 2);
    }

    #[test]
    fn stop_before_the_first_wait_is_not_lost() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            Collector::new(1000.0).sample_registry(false).start().stop();
            done_tx.send(()).expect("the test thread is waiting");
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "stopping a fresh collector must not wait out its 1000 s period"
        );
        stopper.join().expect("the stopping thread does not panic");
    }
}
