//! The wire workloads: a live `coolopt-serve --listen` driven over TCP by
//! the benchmark's own load generator (`gen`), two connections on at most
//! two threads.
//!
//! Each request line is sent in one write on a `TCP_NODELAY` socket, so
//! any Nagle stall measured is the server's own. Open-loop latency is
//! timed from each request's intended send time, so a stall also counts
//! against the requests scheduled behind it.

use crate::inproc::{self, same_plan, Tenant};
use crate::speed::Normaliser;
use crate::trace::{median, quantile, Recorder};
use crate::{vm_hwm_mb, Args, Outcome};
use coolopt_core::Consolidation;
use coolopt_service::proto::Response;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One wire workload: what the server serves and what the generator
/// sends.
pub struct WireSpec {
    /// Scenario files the server registers (relative to the checkout).
    pub scenarios: &'static [&'static str],
    /// Loads per request: a `loads` burst of this size, or a single
    /// `load` when 1.
    pub burst: usize,
    /// Loads are drawn uniformly over `[lo, hi] × machine count`.
    pub load_frac: (f64, f64),
    /// Distinct request lines generated per seed (sent cyclically).
    pub pool: usize,
    /// Open-loop reference rate (requests/s over both connections).
    pub ref_rate: f64,
    /// The p99 latency limit for the `max_rps` ladder (ms).
    pub limit_ms: f64,
    /// The fixed geometric rate ladder (requests/s).
    pub ladder: &'static [f64],
    /// Pool lines whose plans are checked bit for bit against the oracle.
    pub checked: usize,
}

/// 64-load bursts over three flat tenants (20, 8 and 6 machines).
pub const RACK_BURST: WireSpec = WireSpec {
    scenarios: &[
        "scenarios/testbed_rack20.json",
        "scenarios/two_zone_hetero.json",
    ],
    burst: 64,
    load_frac: (0.0, 0.95),
    pool: 1024,
    ref_rate: 50.0,
    limit_ms: 50.0,
    ladder: &[150.0, 300.0, 600.0, 1200.0],
    checked: 128,
};

/// Single loads over two hierarchical tenants (10 000 and 100 000
/// machines).
pub const FLEET_REPLAN: WireSpec = WireSpec {
    scenarios: &["scenarios/fleet_10k.json", "scenarios/fleet_100k.json"],
    burst: 1,
    load_frac: (0.01, 0.90),
    pool: 512,
    ref_rate: 60.0,
    limit_ms: 100.0,
    ladder: &[30.0, 60.0],
    checked: 16,
};

/// A reply not seen within this long after its request is a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// The latency a failed request counts with: the timeout, far beyond any
/// latency limit, so failures raise the tail instead of vanishing from it.
const FAILED_US: f64 = 10e6;
/// Closed loop: requests per timed job (`reproduce_s` on the wire).
const JOB: u64 = 16;
/// Server spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 9;
/// A ladder rung is saturated when the generator's median send lag
/// exceeds this share of the latency limit: it no longer offered the
/// rate. (Its tail lag is host wake-up jitter, already counted in each
/// request's latency.)
const MAX_MEDIAN_LAG_SHARE: f64 = 0.1;
/// The reference-rate phase runs in this many slices.
const REF_SLICES: usize = 4;

/// One generated request line.
struct Req {
    /// The line as sent, `\n` included.
    line: String,
    tenant: usize,
    loads: Vec<f64>,
    /// Oracle plans, for the lines checked bit for bit.
    expected: Option<Vec<Option<Consolidation>>>,
    /// A `stats` probe rather than a plan request.
    probe: bool,
}

/// The edge probe: a `{"cmd":"stats"}` line, whose server-side work is
/// small next to the wire's.
fn probe_req() -> Req {
    Req {
        line: STATS_LINE.to_string(),
        tenant: 0,
        loads: Vec::new(),
        expected: None,
        probe: true,
    }
}

fn make_pool(spec: &WireSpec, tenants: &[Tenant], seed: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<Req> = (0..spec.pool)
        .map(|i| {
            // Consecutive pairs share a tenant: the two connections take
            // alternate lines, so both lanes see every tenant and their
            // requests can meet in one tenant's batch.
            let tenant = (i / 2) % tenants.len();
            let n = tenants[tenant].machines as f64;
            let (lo, hi) = spec.load_frac;
            let loads: Vec<f64> = (0..spec.burst)
                .map(|_| n * (lo + (hi - lo) * rng.random::<f64>()))
                .collect();
            let key = &tenants[tenant].key;
            let line = if spec.burst == 1 {
                format!("{{\"tenant\":\"{key}\",\"load\":{}}}\n", loads[0])
            } else {
                let list: Vec<String> = loads.iter().map(f64::to_string).collect();
                format!("{{\"tenant\":\"{key}\",\"loads\":[{}]}}\n", list.join(","))
            };
            Req {
                line,
                tenant,
                loads,
                expected: None,
                probe: false,
            }
        })
        .collect();
    // A seeded sample of lines gets its plans from the in-process oracle.
    for _ in 0..spec.checked {
        let i = (rng.random::<u64>() % spec.pool as u64) as usize;
        let snapshot = &tenants[pool[i].tenant].snapshot;
        let expected = pool[i]
            .loads
            .iter()
            .map(|&l| snapshot.query_min_power(l, None).ok().flatten())
            .collect();
        pool[i].expected = Some(expected);
    }
    pool
}

/// Why one request did not succeed.
#[derive(Debug)]
enum Failure {
    /// `ok: false` — shed or refused; counts as failed, output still valid.
    Refused,
    /// The reply is wrong: unparseable, mismatched, or a different plan.
    Incorrect(String),
}

fn check_reply(reply: &[u8], req: &Req, tenants: &[Tenant]) -> Result<(), Failure> {
    let text = std::str::from_utf8(reply).map_err(|e| Failure::Incorrect(e.to_string()))?;
    if req.probe {
        return serde_json::from_str::<serde::Value>(text.trim_end())
            .ok()
            .and_then(|doc| field(&doc, &["totals", "plans"]))
            .map(|_| ())
            .ok_or_else(|| Failure::Incorrect("stats probe reply has no totals.plans".into()));
    }
    let resp: Response = serde_json::from_str(text.trim_end())
        .map_err(|e| Failure::Incorrect(format!("unparseable reply: {e}")))?;
    if !resp.ok {
        return Err(Failure::Refused);
    }
    let key = &tenants[req.tenant].key;
    if &resp.tenant != key || resp.results.len() != req.loads.len() {
        return Err(Failure::Incorrect(format!(
            "reply for {:?} with {} results, expected {key:?} with {}",
            resp.tenant,
            resp.results.len(),
            req.loads.len()
        )));
    }
    for (i, (r, &load)) in resp.results.iter().zip(&req.loads).enumerate() {
        if r.load.to_bits() != load.to_bits() || r.feasible != r.plan.is_some() || r.error.is_some()
        {
            return Err(Failure::Incorrect(format!(
                "result {i} of {key:?} is malformed"
            )));
        }
        if let Some(expected) = &req.expected {
            if !same_plan(&r.plan, &expected[i]) {
                return Err(Failure::Incorrect(format!(
                    "{key:?} load {load}: wire plan differs from in-process query_min_power"
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- server

/// A spawned `coolopt-serve --listen`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Builds `coolopt-serve` from this checkout (a no-op when up to date)
/// and returns its path.
fn server_binary() -> Result<PathBuf, String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--release", "--quiet", "-p", "coolopt-service"])
        .args(["--bin", "coolopt-serve"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building coolopt-serve failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = PathBuf::from(target).join("release").join("coolopt-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// A port nothing listens on right now (`coolopt-serve` reports the
/// address it was given, not the one it bound, so the benchmark picks).
fn free_port() -> Result<u16, String> {
    let probe = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
    Ok(probe.local_addr().map_err(|e| e.to_string())?.port())
}

/// Spawns the server with its default flags plus `--listen`/`--scenario`
/// and waits for the first good reply to `first`. Returns the server, the
/// connection that got the reply, and the seconds from spawn to reply.
fn spawn(
    bin: &PathBuf,
    spec: &WireSpec,
    first: &Req,
    tenants: &[Tenant],
) -> Result<(Server, Conn, f64), String> {
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, free_port()?));
    let mut cmd = Command::new(bin);
    cmd.arg("--listen").arg(addr.to_string());
    for s in spec.scenarios {
        cmd.arg("--scenario").arg(s);
    }
    let start = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut server = Server { child, addr };
    let mut conn = loop {
        match Conn::connect(addr) {
            Ok(conn) => break conn,
            Err(_) if start.elapsed() < Duration::from_secs(120) => {
                if let Ok(Some(status)) = server.child.try_wait() {
                    return Err(format!("coolopt-serve exited during start-up ({status})"));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => return Err(format!("coolopt-serve never accepted on {addr}: {e}")),
        }
    };
    conn.send(&first.line)?;
    let reply = conn
        .recv_line(REPLY_TIMEOUT)?
        .ok_or("no reply to the first request")?;
    let setup = start.elapsed().as_secs_f64();
    check_reply(&reply, first, tenants).map_err(|f| format!("first reply failed: {f:?}"))?;
    Ok((server, conn, setup))
}

// ------------------------------------------------------------ connection

/// One client connection: one write per request line, replies read
/// line by line.
struct Conn {
    stream: TcpStream,
    /// Bytes received and not yet returned as a line.
    buf: Vec<u8>,
    /// `buf[..scanned]` holds no newline.
    scanned: usize,
    /// Set when a reply timed out: later bytes would be misattributed, so
    /// the connection is replaced before the next phase.
    broken: bool,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            scanned: 0,
            broken: false,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Returns the next whole reply line, waiting at most `wait` (one
    /// read) for more bytes; `None` when no whole line is in yet.
    fn recv(&mut self, wait: Duration) -> Result<Option<Vec<u8>>, String> {
        if let Some(line) = self.take_line() {
            return Ok(Some(line));
        }
        if !readable(&self.stream, wait).map_err(|e| format!("poll: {e}"))? {
            return Ok(None);
        }
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(self.take_line())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Waits up to `timeout` for the next whole reply line.
    fn recv_line(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if let Some(line) = self.recv(deadline.saturating_duration_since(now))? {
                return Ok(Some(line));
            }
            if now >= deadline {
                return Ok(None);
            }
        }
    }

    fn take_line(&mut self) -> Option<Vec<u8>> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let line = self.buf.drain(..self.scanned + pos + 1).collect();
                self.scanned = 0;
                Some(line)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits up to `wait` for `stream` to have bytes to read. `ppoll` rather
/// than a socket read timeout: `SO_RCVTIMEO` rounds up to whole kernel
/// ticks (milliseconds), which would make the open-loop generator late.
fn readable(stream: &TcpStream, wait: Duration) -> std::io::Result<bool> {
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out `pollfd` and
    // `timespec` values for the whole call, `nfds` is 1 to match the one
    // descriptor, and a null `sigmask` leaves the signal mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        -1 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        n => Ok(n > 0),
    }
}

// ------------------------------------------------------------ generator

/// What one connection saw during one phase.
#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    refused: u64,
    timed_out: u64,
    incorrect: Vec<String>,
    /// Loads answered in successful replies.
    plans: u64,
    bytes_out: u64,
    bytes_in: u64,
    /// Per request, µs from intended send to reply (`FAILED_US` for a
    /// failure).
    latency_us: Vec<f64>,
    /// Open loop: per request, µs the actual send ran behind schedule.
    lag_us: Vec<f64>,
    /// Per request, `(pool index, µs from actual send to reply)`.
    rtt_us: Vec<(usize, f64)>,
    inflight_max: usize,
    /// Actual send times of the first and last request.
    first_sent: Option<Instant>,
    last_sent: Option<Instant>,
    /// Requests still unanswered when the last request was sent.
    backlog_at_end: usize,
}

impl Tally {
    fn merge(mut self, other: Tally) -> Tally {
        self.sent += other.sent;
        self.ok += other.ok;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
        self.incorrect.extend(other.incorrect);
        self.plans += other.plans;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.latency_us.extend(other.latency_us);
        self.lag_us.extend(other.lag_us);
        self.rtt_us.extend(other.rtt_us);
        self.inflight_max = self.inflight_max.max(other.inflight_max);
        self.first_sent = match (self.first_sent, other.first_sent) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_sent = self.last_sent.max(other.last_sent);
        self.backlog_at_end += other.backlog_at_end;
        self
    }

    fn failed(&self) -> u64 {
        self.refused + self.timed_out + self.incorrect.len() as u64
    }

    /// Records `n` requests that got no reply in time.
    fn time_out(&mut self, n: usize) {
        self.timed_out += n as u64;
        self.latency_us.extend(std::iter::repeat_n(FAILED_US, n));
    }

    /// Records the reply to `req`, given `[sent, due, received]` times.
    fn reply(
        &mut self,
        reply: &[u8],
        pool_index: usize,
        req: &Req,
        tenants: &[Tenant],
        [sent, due, now]: [Instant; 3],
    ) {
        self.bytes_in += reply.len() as u64;
        let ok = match check_reply(reply, req, tenants) {
            Ok(()) => {
                self.ok += 1;
                self.plans += req.loads.len() as u64;
                true
            }
            Err(Failure::Refused) => {
                self.refused += 1;
                false
            }
            Err(Failure::Incorrect(e)) => {
                self.incorrect.push(e);
                false
            }
        };
        let latency = (now - due).as_secs_f64() * 1e6;
        self.latency_us.push(if ok { latency } else { FAILED_US });
        self.rtt_us
            .push((pool_index, (now - sent).as_secs_f64() * 1e6));
    }
}

/// Closed loop on one connection: send a request, wait for its reply,
/// send the next, until `end`. Every completion bumps `done`; every
/// `JOB`-th one stamps `jobs`.
fn closed_worker(
    conn: &mut Conn,
    lane: usize,
    pool: &[Req],
    tenants: &[Tenant],
    end: Instant,
    done: &AtomicU64,
    jobs: &Mutex<Vec<Instant>>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    // The reply last received, checked once the next request is out.
    let mut unchecked: Option<(Vec<u8>, usize, Instant, Instant)> = None;
    let mut next = lane;
    while Instant::now() < end {
        let i = next % pool.len();
        next += 2;
        conn.send(&pool[i].line)?;
        let sent = Instant::now();
        tally.sent += 1;
        tally.bytes_out += pool[i].line.len() as u64;
        if let Some((reply, j, sent, got)) = unchecked.take() {
            tally.reply(&reply, j, &pool[j], tenants, [sent, sent, got]);
        }
        let Some(reply) = conn.recv_line(REPLY_TIMEOUT)? else {
            tally.time_out(1);
            conn.broken = true;
            return Ok(tally);
        };
        let got = Instant::now();
        if (done.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(JOB) {
            jobs.lock().expect("job stamps lock").push(got);
        }
        unchecked = Some((reply, i, sent, got));
    }
    if let Some((reply, j, sent, got)) = unchecked {
        tally.reply(&reply, j, &pool[j], tenants, [sent, sent, got]);
    }
    Ok(tally)
}

/// Open loop on one connection: request `k` (of both lanes) is due at
/// `t0 + k / rate` and goes to lane `k % 2`; sends `count` requests in
/// all across both lanes, then drains.
#[allow(clippy::too_many_arguments)]
fn open_worker(
    conn: &mut Conn,
    lane: usize,
    pool: &[Req],
    tenants: &[Tenant],
    t0: Instant,
    rate: f64,
    count: usize,
    first: usize,
    rec: Option<&mut Recorder>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut spans = rec;
    let due = |k: usize| t0 + Duration::from_secs_f64(k as f64 / rate);
    let mut k = lane;
    let mut pending: VecDeque<(usize, usize, Instant, Instant)> = VecDeque::new();
    // Replies received (and timestamped) but not yet checked: checking a
    // large reply takes milliseconds, so it waits for slack before the
    // next send instead of making that send late.
    let mut unchecked: VecDeque<(Vec<u8>, usize, [Instant; 3])> = VecDeque::new();
    let mut check_ns_per_byte = 10.0;
    let drain_until = due(count) + REPLY_TIMEOUT;
    loop {
        let now = Instant::now();
        if k < count && now >= due(k) {
            let i = (first + k) % pool.len();
            conn.send(&pool[i].line)?;
            let sent = Instant::now();
            if let Some(rec) = spans.as_deref_mut() {
                rec.record("gen.send", k as u64, None, now, sent);
            }
            tally.sent += 1;
            tally.bytes_out += pool[i].line.len() as u64;
            tally.lag_us.push((sent - due(k)).as_secs_f64() * 1e6);
            tally.first_sent.get_or_insert(sent);
            tally.last_sent = Some(sent);
            pending.push_back((k, i, due(k), sent));
            tally.inflight_max = tally.inflight_max.max(pending.len());
            k += 2;
            if k >= count {
                tally.backlog_at_end = pending.len();
            }
            continue;
        }
        if let Some((reply, _, _)) = unchecked.front() {
            let needed =
                Duration::from_nanos((2.0 * check_ns_per_byte * reply.len() as f64) as u64)
                    + Duration::from_micros(200);
            if k >= count || due(k).saturating_duration_since(now) > needed {
                let (reply, i, times) = unchecked.pop_front().expect("front exists");
                let start = Instant::now();
                tally.reply(&reply, i, &pool[i], tenants, times);
                let per_byte = start.elapsed().as_nanos() as f64 / reply.len().max(1) as f64;
                check_ns_per_byte = 0.8 * check_ns_per_byte + 0.2 * per_byte;
                continue;
            }
        }
        let Some(&(request, i, due_at, sent)) = pending.front() else {
            if k >= count {
                if unchecked.is_empty() {
                    break;
                }
                continue;
            }
            std::thread::sleep(due(k).saturating_duration_since(now));
            continue;
        };
        let until = if k < count { due(k) } else { drain_until };
        if now >= until && k >= count {
            tally.time_out(pending.len());
            pending.clear();
            conn.broken = true;
            continue;
        }
        if let Some(reply) = conn.recv(until.saturating_duration_since(now))? {
            let got = Instant::now();
            pending.pop_front();
            unchecked.push_back((reply, i, [sent, due_at, got]));
            if let Some(rec) = spans.as_deref_mut() {
                rec.record("edge.rtt", request as u64, None, sent, got);
            }
        }
    }
    Ok(tally)
}

/// Runs `f(lane, conn, recorder)` on both connections, lane 1 on a
/// second thread, then replaces any connection a timeout left unusable.
fn both<F>(conns: &mut [Conn; 2], recs: Option<&mut [Recorder; 2]>, f: F) -> Result<Tally, String>
where
    F: Fn(usize, &mut Conn, Option<&mut Recorder>) -> Result<Tally, String> + Sync,
{
    let [c0, c1] = conns;
    let (r0, r1) = match recs {
        Some([a, b]) => (Some(a), Some(b)),
        None => (None, None),
    };
    let tally = std::thread::scope(|scope| {
        let other = scope.spawn(|| f(1, c1, r1));
        let mine = f(0, c0, r0);
        let theirs = other.join().map_err(|_| "generator thread panicked")?;
        Ok::<_, String>(mine?.merge(theirs?))
    })?;
    for conn in conns.iter_mut().filter(|c| c.broken) {
        let addr = conn.stream.peer_addr().map_err(|e| e.to_string())?;
        *conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    }
    Ok(tally)
}

struct Closed {
    tally: Tally,
    plans_per_s: f64,
    /// Seconds per `JOB` completions (median over the phase).
    job_s: f64,
}

fn closed_loop(
    conns: &mut [Conn; 2],
    pool: &[Req],
    tenants: &[Tenant],
    secs: f64,
) -> Result<Closed, String> {
    let done = AtomicU64::new(0);
    let jobs = Mutex::new(Vec::new());
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let tally = both(conns, None, |lane, conn, _| {
        closed_worker(conn, lane, pool, tenants, end, &done, &jobs)
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let mut stamps = jobs.into_inner().expect("job stamps lock");
    stamps.insert(0, start);
    let job_times: Vec<f64> = stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    Ok(Closed {
        plans_per_s: tally.plans as f64 / elapsed,
        job_s: median(&job_times),
        tally,
    })
}

fn open_loop(
    conns: &mut [Conn; 2],
    pool: &[Req],
    tenants: &[Tenant],
    rate: f64,
    secs: f64,
    first: usize,
    recs: Option<&mut [Recorder; 2]>,
) -> Result<Tally, String> {
    let count = (rate * secs).round().max(2.0) as usize;
    let t0 = Instant::now() + Duration::from_millis(2);
    both(conns, recs, |lane, conn, rec| {
        open_worker(conn, lane, pool, tenants, t0, rate, count, first, rec)
    })
}

/// The `stats` scrape request.
const STATS_LINE: &str = "{\"cmd\":\"stats\"}\n";

/// Scrapes `{"cmd":"stats"}` on `conn`.
fn scrape_stats(conn: &mut Conn) -> Result<serde::Value, String> {
    conn.send(STATS_LINE)?;
    let reply = conn
        .recv_line(REPLY_TIMEOUT)?
        .ok_or("stats scrape timed out")?;
    let text = String::from_utf8_lossy(&reply);
    serde_json::from_str(text.trim_end()).map_err(|e| format!("stats reply: {e}"))
}

/// `doc.a.b.c` as f64 (object fields only).
fn field(doc: &serde::Value, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for name in path {
        v = serde::get_field(v.as_object()?, name)?;
    }
    v.as_f64()
}

fn account(out: &mut Outcome, phase: &str, tally: &Tally) {
    out.phase(phase, tally.sent, tally.failed());
    for e in tally.incorrect.iter().take(5) {
        out.errors.push(format!("{phase}: {e}"));
    }
}

/// p99 of a step's latencies: failures count as missing the limit.
fn p99(latency: &[f64]) -> f64 {
    quantile(latency, 0.99)
}

pub fn run(spec: &WireSpec, args: &Args) -> Result<Outcome, String> {
    let secs = args.seconds;
    let bin = server_binary()?;
    let tenants = inproc::tenants(spec.scenarios)?;
    let pool = make_pool(spec, &tenants, args.seed);
    let mut out = Outcome::default();

    if args.trace {
        return traced(spec, args, &bin, &tenants, &pool, out);
    }

    // Set-up: spawn → first good reply, several times; keep the last.
    // Each spawn is timed between calibrations and reported at the
    // reference host speed (see `speed`).
    let mut norm = Normaliser::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_SPAWNS {
        let (spawned, wall, normalised) = norm.time(|| spawn(&bin, spec, &pool[0], &tenants));
        let (server, conn, setup) = spawned?;
        setups.push(setup * normalised / wall);
        raw_setups.push(setup);
        live = Some((server, conn));
    }
    let (server, conn0) = live.expect("at least one spawn");
    let mut conns = [
        conn0,
        Conn::connect(server.addr).map_err(|e| e.to_string())?,
    ];
    out.phase("setup", SETUP_SPAWNS as u64, 0);

    // Warm-up, then closed loop.
    let measuring = Instant::now();
    closed_loop(&mut conns, &pool, &tenants, 0.05 * secs)?;
    let closed = closed_loop(&mut conns, &pool, &tenants, 0.15 * secs)?;
    account(&mut out, "closed", &closed.tally);

    // The max-rate ladder: the highest rung meeting the p99 limit with no
    // growing backlog. Rungs below it may fail on the limit alone (the
    // reply stall is longest at low rates). Above a passing rung, a rung
    // that fails on the limit without saturating is run once more before
    // it counts as failed, so one host hiccup does not end the climb. The
    // climb ends at the first saturated rung: a growing backlog, or a
    // generator that can no longer keep to its schedule.
    let step_secs = 0.35 * secs / (spec.ladder.len() + 2) as f64;
    let mut max_rps = None;
    let mut ladder = Tally::default();
    let mut retries = 2;
    let mut step = 0;
    while step < spec.ladder.len() {
        let rate = spec.ladder[step];
        let t = open_loop(
            &mut conns,
            &pool,
            &tenants,
            rate,
            step_secs,
            step * 7919,
            None,
        )?;
        let lag = quantile(&t.lag_us, 0.5);
        let tail = p99(&t.latency_us);
        let saturated = t.failed() > 0
            || (t.backlog_at_end as f64) > rate * spec.limit_ms / 1e3 + 2.0
            || lag > MAX_MEDIAN_LAG_SHARE * spec.limit_ms * 1e3;
        let pass = !saturated && tail <= spec.limit_ms * 1e3;
        let retry = retries > 0 && !pass && !saturated && max_rps.is_some();
        println!(
            "ladder {rate:>7.0} req/s: p99 {tail:>10.0} µs, median lag {lag:>7.0} µs, \
             backlog {:>3} -> {}",
            t.backlog_at_end,
            match (retry, pass, saturated) {
                (true, _, _) => "fail, retry",
                (_, true, _) => "pass",
                (_, _, true) => "saturated",
                _ => "fail",
            }
        );
        let achieved = match (t.first_sent, t.last_sent) {
            (Some(a), Some(b)) if b > a => (t.sent - 1) as f64 / (b - a).as_secs_f64(),
            _ => rate,
        };
        ladder = ladder.merge(t);
        if retry {
            retries -= 1;
            continue;
        }
        if saturated {
            break;
        }
        if pass {
            max_rps = Some(achieved);
        }
        step += 1;
    }
    account(&mut out, "ladder", &ladder);

    // Open loop at the reference rate for the rest of the run, in
    // slices. p99 is the median of the slices' p99s, so one burst of host
    // noise (wake-ups late by tens of ms on a shared 2-vCPU host) moves it
    // no more than one slice's worth; p50 pools every request.
    let remaining = secs - measuring.elapsed().as_secs_f64();
    let slice_secs = remaining.max(0.45 * secs) / REF_SLICES as f64;
    let per_slice = (spec.ref_rate * slice_secs).round() as usize;
    let mut slice_p99 = Vec::new();
    let mut open = Tally::default();
    for slice in 0..REF_SLICES {
        let t = open_loop(
            &mut conns,
            &pool,
            &tenants,
            spec.ref_rate,
            slice_secs,
            slice * per_slice,
            None,
        )?;
        account(&mut out, "open_ref", &t);
        slice_p99.push(p99(&t.latency_us));
        open = open.merge(t);
    }
    let lag_ref = quantile(&open.lag_us, 0.5);
    out.check(
        lag_ref <= MAX_MEDIAN_LAG_SHARE * spec.limit_ms * 1e3,
        || format!("generator fell behind at the reference rate: median lag {lag_ref:.0} µs"),
    );

    if max_rps.is_none() {
        out.note("max_rps: no ladder rung met the latency limit".to_string());
    }

    let stats = scrape_stats(&mut conns[0])?;
    out.check(field(&stats, &["totals", "plans"]).is_some(), || {
        "stats scrape has no totals.plans".to_string()
    });
    let rss = vm_hwm_mb(&server.child.id().to_string())?;
    drop(conns);
    drop(server);

    let lat = &open.latency_us;
    out.note(format!(
        "host speed: {:.2} times the reference host's calibration time; raw setup_s {:.6} s",
        norm.slowdown(),
        median(&raw_setups)
    ));
    out.metric("setup_s", median(&setups), "s");
    out.metric("plans_per_s", closed.plans_per_s, "plans/s");
    out.metric("p50_us", quantile(lat, 0.5), "us");
    out.metric("p99_us", median(&slice_p99), "us");
    out.note(format!(
        "p50_us over {} requests at {} req/s; p99_us the median of {REF_SLICES} slices' p99 \
         ({} requests each)",
        lat.len(),
        spec.ref_rate,
        lat.len() / REF_SLICES
    ));
    out.metric("max_rps", max_rps.unwrap_or(0.0), "req/s");
    out.metric(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metric(
        "reply_bytes_per_plan",
        open.bytes_in as f64 / open.plans.max(1) as f64,
        "B",
    );
    out.metric("rss_mb", rss, "MB");
    out.metric("reproduce_s", closed.job_s, "s");
    Ok(out)
}

/// The traced run: the same lines over the wire with a span per request,
/// then replayed in process one layer call at a time.
fn traced(
    spec: &WireSpec,
    args: &Args,
    bin: &PathBuf,
    tenants: &[Tenant],
    pool: &[Req],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let secs = args.seconds;
    let (load_ms, register_ms, build_ms) = inproc::setup_costs(spec.scenarios, 3)?;
    let (server, conn0, _) = spawn(bin, spec, &pool[0], tenants)?;
    let mut conns = [
        conn0,
        Conn::connect(server.addr).map_err(|e| e.to_string())?,
    ];

    // Warm-up, then the reference-rate open loop with a span per request
    // and again without (the difference is the tracing overhead).
    closed_loop(&mut conns, pool, tenants, 0.05 * secs)?;
    let mut recs = [
        Recorder::with_capacity(1 << 16),
        Recorder::with_capacity(1 << 16),
    ];
    let traced = open_loop(
        &mut conns,
        pool,
        tenants,
        spec.ref_rate,
        0.3 * secs,
        0,
        Some(&mut recs),
    )?;
    account(&mut out, "open_traced", &traced);
    let untraced_open = open_loop(
        &mut conns,
        pool,
        tenants,
        spec.ref_rate,
        0.3 * secs,
        0,
        None,
    )?;
    account(&mut out, "open_untraced", &untraced_open);
    // The edge on its own: `stats` probes sent exactly as the
    // reference-rate requests are. Their round trip minus the probe's
    // in-process `handle_line` time owes nothing to the plan path, so the
    // layer sum below can miss the plan round trip.
    let probes = open_loop(
        &mut conns,
        &[probe_req()],
        tenants,
        spec.ref_rate,
        0.1 * secs,
        0,
        None,
    )?;
    account(&mut out, "open_probe", &probes);

    let stats = scrape_stats(&mut conns[0])?;
    drop(conns);
    drop(server);

    // In-process replay of every distinct line the traced phase sent.
    let core = inproc::service(spec.scenarios)?;
    let mut rec = Recorder::with_capacity(1 << 16);
    let mut handle_us = vec![0.0; pool.len()];
    let distinct = (traced.sent as usize).min(pool.len());
    for (i, req) in pool.iter().enumerate().take(distinct) {
        handle_us[i] = inproc::replay_line(&core, tenants, &req.line, i as u64, &mut rec)
            .map_err(|e| format!("replay: {e}"))?;
    }
    out.phase("replay", distinct as u64, 0);
    for k in 0..64 {
        rec.time("proto.handle_stats", k, None, || {
            std::hint::black_box(coolopt_service::proto::handle_line(
                &core,
                STATS_LINE.trim_end(),
            ))
        });
    }
    let probe_rtt: Vec<f64> = probes.rtt_us.iter().map(|&(_, us)| us).collect();
    let probe_us = median(&probe_rtt) - rec.median_us("proto.handle_stats");

    let rtt: Vec<f64> = traced.rtt_us.iter().map(|&(_, us)| us).collect();
    let edge: Vec<f64> = traced
        .rtt_us
        .iter()
        .map(|&(i, us)| us - handle_us[i])
        .collect();
    let edge_us = median(&edge);
    let parse_us = rec.median_us("proto.parse");
    let submit_us = rec.median_us("service.submit");
    let encode_us = rec.median_us("proto.encode");
    let rtt_us = median(&rtt);
    // Overhead: open-loop p50 with spans over p50 without.
    let p50_traced = quantile(&traced.latency_us, 0.5);
    let p50_plain = quantile(&untraced_open.latency_us, 0.5);

    let service = |name: &str| field(&stats, &[name]).unwrap_or(0.0);
    let totals = |name: &str| field(&stats, &["totals", name]).unwrap_or(0.0);
    let tenant_max = |stage: &str| {
        serde::get_field(stats.as_object().unwrap_or(&[]), "tenants")
            .and_then(|t| t.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|t| field(t, &[stage, "p99_us"]))
            .fold(0.0, f64::max)
    };
    let loads_per_req = spec.burst as f64;
    let flat = rec.durations_us("core.flat_batch");
    let hier = rec.durations_us("core.hier_query");

    out.metric("edge.wire_minus_handle_us", edge_us, "us");
    out.metric("edge.probe_us", probe_us, "us");
    out.metric("edge.rtt_us", rtt_us, "us");
    out.metric(
        "edge.reply_bytes",
        traced.bytes_in as f64 / traced.ok.max(1) as f64,
        "B",
    );
    out.metric(
        "edge.request_bytes",
        traced.bytes_out as f64 / traced.sent.max(1) as f64,
        "B",
    );
    out.metric("proto.parse_us", parse_us, "us");
    out.metric("proto.encode_us", encode_us, "us");
    out.metric(
        "proto.handle_line_us",
        rec.median_us("proto.handle_line"),
        "us",
    );
    out.metric("service.submit_us", submit_us, "us");
    out.metric("service.queue_wait_p99_us", tenant_max("queue_wait"), "us");
    out.metric("service.run_p99_us", tenant_max("run"), "us");
    out.metric(
        "service.mean_batch_size",
        service("mean_batch_size"),
        "loads",
    );
    out.metric(
        "service.coalesced_frac",
        totals("coalesced") / totals("plans").max(1.0),
        "ratio",
    );
    out.metric("service.shed_frac", service("shed_rate"), "ratio");
    out.metric(
        "core.flat_batch_us_per_load",
        median(&flat) / loads_per_req,
        "us",
    );
    out.metric("core.hier_query_us", median(&hier), "us");
    out.metric("scenario.load_ms", load_ms, "ms");
    out.metric("service.register_ms", register_ms, "ms");
    out.metric("core.build_ms", build_ms, "ms");
    out.metric("gen.lag_p99_us", quantile(&traced.lag_us, 0.99), "us");
    out.metric("gen.sent", traced.sent as f64, "count");
    out.metric("gen.inflight_max", traced.inflight_max as f64, "count");
    out.metric(
        "trace.attributed_frac",
        (parse_us + submit_us + encode_us + probe_us) / rtt_us.max(f64::MIN_POSITIVE),
        "ratio",
    );
    out.metric(
        "trace.overhead_frac",
        (p50_traced - p50_plain) / p50_plain.max(f64::MIN_POSITIVE),
        "ratio",
    );
    crate::write_trace(&args.workload, &[&recs[0], &recs[1], &rec])?;
    Ok(out)
}
