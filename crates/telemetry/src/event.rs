//! The structured progress-event stream.
//!
//! Events replace ad-hoc `eprintln!` progress lines: each has a level, a
//! target (the subsystem emitting it), a message and `key=value` fields.
//! One global sink decides the rendering:
//!
//! * [`SinkMode::Text`] — `[ INFO] target: message key=value` on stderr
//!   (the default; stdout stays reserved for data output),
//! * [`SinkMode::Json`] — one JSON object per line on stderr, machine
//!   readable (`--json`),
//! * [`SinkMode::Quiet`] — drop everything below [`Level::Warn`]
//!   (`--quiet`).

use crate::render::{push_json_f64, push_json_str};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// Severity of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Diagnostic detail, hidden by default.
    Debug,
    /// Normal progress.
    Info,
    /// Unexpected but recoverable.
    Warn,
    /// A failure worth surfacing even under `--quiet`.
    Error,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Where events go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkMode {
    /// Human-readable lines on stderr.
    Text,
    /// JSON lines on stderr.
    Json,
    /// Only warnings and errors, as text.
    Quiet,
}

static MODE: AtomicU8 = AtomicU8::new(0); // Text
static MIN_LEVEL: AtomicU8 = AtomicU8::new(1); // Info

/// Selects the global sink. Binaries call this once from flag parsing.
pub fn init_events(mode: SinkMode) {
    let (m, min) = match mode {
        SinkMode::Text => (0, MIN_LEVEL.load(Ordering::Relaxed).min(1)),
        SinkMode::Json => (1, MIN_LEVEL.load(Ordering::Relaxed).min(1)),
        SinkMode::Quiet => (2, 2),
    };
    MODE.store(m, Ordering::Relaxed);
    MIN_LEVEL.store(min, Ordering::Relaxed);
}

/// Lowers or raises the emission threshold (e.g. to surface `Debug`).
pub fn set_min_level(level: Level) {
    MIN_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// `true` when the sink is [`SinkMode::Json`].
pub fn events_json() -> bool {
    MODE.load(Ordering::Relaxed) == 1
}

/// `true` when the sink is [`SinkMode::Quiet`].
pub fn events_quiet() -> bool {
    MODE.load(Ordering::Relaxed) == 2
}

/// A typed `key=value` field payload.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Emits one event through the global sink.
///
/// Prefer the [`event!`](crate::event!) / [`info!`](crate::info!) macros,
/// which build the field slice in place.
pub fn emit(level: Level, target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    if (level as u8) < MIN_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    match MODE.load(Ordering::Relaxed) {
        1 => {
            let mut line = String::with_capacity(64);
            line.push_str("{\"level\":");
            push_json_str(&mut line, level.as_str());
            line.push_str(",\"target\":");
            push_json_str(&mut line, target);
            line.push_str(",\"msg\":");
            push_json_str(&mut line, message);
            for (key, value) in fields {
                line.push(',');
                push_json_str(&mut line, key);
                line.push(':');
                match value {
                    FieldValue::U64(v) => {
                        let _ = write!(line, "{v}");
                    }
                    FieldValue::I64(v) => {
                        let _ = write!(line, "{v}");
                    }
                    FieldValue::F64(v) => push_json_f64(&mut line, *v),
                    FieldValue::Bool(v) => {
                        let _ = write!(line, "{v}");
                    }
                    FieldValue::Str(v) => push_json_str(&mut line, v),
                }
            }
            line.push('}');
            eprintln!("{line}");
        }
        _ => {
            let mut line = String::with_capacity(64);
            let _ = write!(line, "[{:>5}] {target}: {message}", level.as_str());
            for (key, value) in fields {
                let _ = write!(line, " {key}={value}");
            }
            eprintln!("{line}");
        }
    }
}

/// Emits an event with inline `key = value` fields:
///
/// ```
/// use coolopt_telemetry as telemetry;
/// telemetry::event!(telemetry::Level::Info, "reproduce", "built testbed", seed = 42_u64);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::emit(
            $level,
            $target,
            $msg,
            &[$((stringify!($key), $crate::FieldValue::from($value))),*],
        )
    };
}

/// [`event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::event!($crate::Level::Debug, $target, $msg $(, $key = $value)*)
    };
}

/// [`event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::event!($crate::Level::Info, $target, $msg $(, $key = $value)*)
    };
}

/// [`event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::event!($crate::Level::Warn, $target, $msg $(, $key = $value)*)
    };
}
