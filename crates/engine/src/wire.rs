//! The JSON-lines wire protocol of the `zeroconf engine` subcommand.
//!
//! One request per input line, one response per output line. A sweep:
//!
//! ```json
//! {"v":1,"id":"s1",
//!  "scenario":{"q":0.000975,"probe_cost":2.0,"error_cost":1e35,
//!              "reply_time":{"kind":"exponential","loss":1e-15,"rate":10.0,"delay":1.0}},
//!  "grid":{"n_max":8,"r_min":0.1,"r_max":30.0,"r_points":300},
//!  "metrics":["mean_cost","error_probability"]}
//! ```
//!
//! The protocol is versioned: requests may carry `"v"` (defaulting to
//! [`WIRE_VERSION`] when absent), responses always do, and an unknown
//! version is answered with a structured error line instead of a guess.
//! `scenario.hosts` may replace `q` (occupancy `1/hosts`, the paper's
//! convention), `grid.r` may list explicit values instead of the
//! `r_min`/`r_max`/`r_points` linspace, and `metrics` defaults to both. A
//! rescore references an earlier sweep by id and changes only economics,
//! and a cancel withdraws an in-flight request by id:
//!
//! ```json
//! {"v":1,"id":"s2","rescore":{"of":"s1","error_cost":1e30}}
//! {"v":1,"id":"c1","cancel":"s2"}
//! ```
//!
//! The parametric verbs ride the same versioned envelope. A `calibrate`
//! recovers the collision cost `E*` that makes a target `(n, r)` optimal;
//! a `frontier` sweeps a 2-D parameter grid and returns the Pareto
//! frontier of `(cost, error)`. Both either reference a completed sweep
//! by id (`"of"`, reusing its scenario and grid — and its warm statistic)
//! or carry inline `scenario`/`grid` like a sweep:
//!
//! ```json
//! {"v":1,"id":"k1","calibrate":{"of":"s1","n":4,"r":2.0}}
//! {"v":1,"id":"f1","frontier":{"of":"s1",
//!   "x":{"axis":"error_cost","values":[1e20,1e30]},
//!   "y":{"axis":"probe_cost","values":[0.5,2.0]}}}
//! ```
//!
//! An `"of"` names a sweep of the same session: one still in flight (the
//! line is held back until it completes) or one of the last
//! [`RETAINED_SWEEPS`] completed sweeps, where a rescore counts as a
//! sweep and a reused id names its latest sweep. Completed sweeps are
//! evicted oldest first; an `of` naming a sweep that is not retained —
//! evicted, failed or never sent — is answered with one error line that
//! states the bound.
//!
//! Responses carry the cells in `r`-major order plus per-request counters
//! (`{"v":1,"id":"s1","cells":[{"n":1,"r":0.1,"mean_cost":…,"error_probability":…},…],
//! "stats":{"wall_ns":…,"cache_hits":…,"cache_misses":…,"cells":…,"workers":…}}`);
//! failures come back as `{"v":1,"id":…,"error":"…"}` without ending the
//! session. Reply-time kinds on the wire: `deterministic` (mass, delay),
//! `exponential` (loss *or* mass, rate, delay), `uniform` (mass, lo, hi),
//! `weibull` (mass, shape, scale, delay) and `mixture` (components of
//! `{"weight":…,"dist":{…}}`). The library API accepts any
//! [`ReplyTimeDistribution`]; the wire is limited to these constructors.
//!
//! [`PipelinedSession`] speaks the protocol: a thin codec over
//! [`Pipeline`](crate::Pipeline), keeping several requests in flight and
//! emitting responses in **completion order** (out of order with respect
//! to the input when a short sweep overtakes a long one). Rescores of a
//! still-in-flight base are held back and dispatched the moment the base
//! completes. A strictly sequential caller gets one line in, one line out
//! from `submit_line` followed by `drain`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::num::NonZeroU8;
use std::sync::Arc;

use zeroconf_cost::Scenario;
use zeroconf_dist::{
    DefectiveDeterministic, DefectiveExponential, DefectiveUniform, DefectiveWeibull, Mixture,
    ReplyTimeDistribution,
};

use crate::pipeline::{
    Completion, ExecutorTeam, Pipeline, PipelineConfig, PipelineStats, RequestId,
};
use crate::request::BatchStats;
use crate::shortest::{write_f64, write_u64};
use crate::{
    AxisSpec, CalibrateRequest, CalibrateResponse, Engine, EngineError, EngineStats,
    FrontierRequest, FrontierResponse, GridSpec, Metric, ParamAxis, RescoreDelta, SweepRequest,
    SweepResponse, WorkRequest, WorkResponse,
};

/// The wire-protocol version this build speaks. Requests without a `"v"`
/// field are treated as this version; any other value is rejected with a
/// structured error line.
pub const WIRE_VERSION: u64 = 1;

/// How many completed sweeps a [`PipelinedSession`] keeps referencable
/// by `"of"`. The oldest is evicted first; a line whose `of` names a
/// sweep no longer retained is answered with an error line.
pub const RETAINED_SWEEPS: usize = 64;

/// The wire verb (request key) of a calibration.
pub const VERB_CALIBRATE: &str = "calibrate";

/// The wire verb (request key) of a parameter-grid frontier.
pub const VERB_FRONTIER: &str = "frontier";

/// A wire-protocol failure: parse errors and semantic errors, rendered
/// into the `error` response field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

fn err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON value model, parser and writer (the workspace builds fully
// offline, so no serde).
// ---------------------------------------------------------------------------

/// The longest key a [`Key`] holds inline: the longest key the protocol
/// emits, `cancelled_on_disconnect`, is 23 bytes.
const INLINE_KEY_BYTES: usize = 23;

/// An object key. Keys of up to 23 bytes (every key the protocol emits)
/// are held inline, so decoding an object allocates no key; longer keys
/// fall back to a boxed `str`. Reads like a `&str` (`Deref`, `as_str`,
/// comparisons) and prints like a `String` in `{:?}`.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    /// The key's bytes, of which the first `tag - 1` are used. The
    /// offset by one leaves 0 as the niche that keeps `Key` 24 bytes.
    Inline(NonZeroU8, [u8; INLINE_KEY_BYTES]),
    Boxed(Box<str>),
}

impl Key {
    /// The key as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // The inline bytes were copied from a `str`, so they are
            // always valid UTF-8 and the fallback never runs.
            KeyRepr::Inline(..) => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            KeyRepr::Boxed(key) => key,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline(tag, bytes) => &bytes[..usize::from(tag.get() - 1)],
            KeyRepr::Boxed(key) => key.as_bytes(),
        }
    }
}

impl From<&str> for Key {
    fn from(key: &str) -> Key {
        let mut bytes = [0; INLINE_KEY_BYTES];
        match bytes.get_mut(..key.len()) {
            Some(inline) => {
                inline.copy_from_slice(key.as_bytes());
                // `key.len()` is at most 23 here, so the cast is lossless.
                let tag = NonZeroU8::MIN.saturating_add(key.len() as u8);
                Key(KeyRepr::Inline(tag, bytes))
            }
            None => Key(KeyRepr::Boxed(key.into())),
        }
    }
}

impl From<String> for Key {
    fn from(key: String) -> Key {
        if key.len() <= INLINE_KEY_BYTES {
            Key::from(key.as_str())
        } else {
            Key(KeyRepr::Boxed(key.into_boxed_str()))
        }
    }
}

impl std::ops::Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(Key, Json)>),
}

impl Json {
    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse_json`] accepts. Request
/// frames nest about six deep; the bound keeps the recursive parser's
/// stack use fixed whatever a client sends.
const MAX_NESTING: usize = 64;

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`WireError`] describing the first syntax problem, including
/// arrays and objects nested deeper than 64 levels.
pub fn parse_json(input: &str) -> Result<Json, WireError> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(err(format!("trailing input at byte {pos}")));
    }
    Ok(value)
}

// The parser scans `input` as bytes and takes keys, string runs and
// numbers as slices of `input` between ASCII delimiters, which are
// always char boundaries: no slice needs UTF-8 validation again.

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` enclosing arrays
/// and objects.
fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<Json, WireError> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_NESTING => Err(err(format!(
            "nesting deeper than {MAX_NESTING} levels at byte {pos}",
            pos = *pos
        ))),
        Some(b'{') => parse_object(input, pos, depth + 1),
        Some(b'[') => parse_array(input, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(input, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(input, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, WireError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(format!("expected `{word}` at byte {pos}", pos = *pos)))
    }
}

fn parse_number(input: &str, pos: &mut usize) -> Result<Json, WireError> {
    let bytes = input.as_bytes();
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    // Number bytes are ASCII, so the slice always exists.
    let text = input.get(start..*pos).unwrap_or_default();
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(format!("invalid number `{text}` at byte {start}")))
}

/// The key at `pos` (on its opening quote) as a slice of `input` when
/// it has no escapes, with `pos` moved past its closing quote. `None`,
/// with `pos` unmoved, when [`parse_string`] must decode it: an escape or
/// no closing quote.
fn plain_key<'a>(input: &'a str, pos: &mut usize) -> Option<&'a str> {
    let start = *pos + 1;
    let rest = input.as_bytes().get(start..)?;
    let len = rest.iter().position(|&b| matches!(b, b'"' | b'\\'))?;
    if rest[len] != b'"' {
        return None;
    }
    let text = input.get(start..start + len)?;
    *pos = start + len + 1;
    Some(text)
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, WireError> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| err("bad \\u escape"))?,
                            16,
                        )
                        .map_err(|_| err("bad \\u escape"))?;
                        out.push(char::from_u32(code).ok_or_else(|| err("bad \\u code point"))?);
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run of plain characters up to the
                // next quote or backslash in one step.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = input
                    .get(start..*pos)
                    .ok_or_else(|| err("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(input: &str, pos: &mut usize, depth: usize) -> Result<Json, WireError> {
    let bytes = input.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(input, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected `,` or `]` in array")),
        }
    }
}

fn parse_object(input: &str, pos: &mut usize, depth: usize) -> Result<Json, WireError> {
    let bytes = input.as_bytes();
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected string key in object"));
        }
        let key = match plain_key(input, pos) {
            Some(text) => Key::from(text),
            None => Key::from(parse_string(input, pos)?),
        };
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err("expected `:` after object key"));
        }
        *pos += 1;
        let value = parse_value(input, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err("expected `,` or `}` in object")),
        }
    }
}

/// Appends `s` as the inside of a JSON string (see [`Escaped`]).
fn push_escaped(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = write_escaped(out, s);
}

/// Displays a string as the inside of a JSON string: `"`, `\\` and
/// control characters escaped, everything else copied through. The one
/// escaper of the wire: response lines, the daemon's `stats` line and
/// the client's request frames all use it.
#[derive(Debug, Clone, Copy)]
pub struct Escaped<'a>(pub &'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_escaped(f, self.0)
    }
}

/// Writes `s` escaped, copying the runs between escapes through whole.
fn write_escaped(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run_start = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // `i` indexes an ASCII byte, so both slice ends are char
        // boundaries.
        out.write_str(&s[run_start..i])?;
        match byte {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\t' => out.write_str("\\t")?,
            b'\r' => out.write_str("\\r")?,
            _ => {
                out.write_str("\\u00")?;
                out.write_char(char::from(HEX[usize::from(byte >> 4)]))?;
                out.write_char(char::from(HEX[usize::from(byte & 0xf)]))?;
            }
        }
        run_start = i + 1;
    }
    out.write_str(&s[run_start..])
}

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

/// What a parametric verb evaluates against: a completed sweep referenced
/// by id (reusing its scenario, grid and warm statistic) or an inline
/// scenario/grid pair carried by the request itself.
#[derive(Debug, Clone)]
pub enum WorkTarget {
    /// `"of"`: the wire id of an earlier sweep.
    Base(String),
    /// Top-level `scenario` and `grid` fields, as in a sweep line.
    Inline {
        /// The decoded scenario.
        scenario: Scenario,
        /// The decoded grid.
        grid: GridSpec,
    },
}

/// A decoded request line.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// A full sweep.
    Sweep {
        /// Caller-chosen id echoed in the response and referencable by
        /// later rescores.
        id: String,
        /// The decoded sweep.
        request: SweepRequest,
    },
    /// A rescore of an earlier sweep's grid under changed economics.
    Rescore {
        /// Id of this request.
        id: String,
        /// Id of the base sweep.
        of: String,
        /// The economic changes.
        delta: RescoreDelta,
    },
    /// A closed-form `E` calibration for a target configuration.
    Calibrate {
        /// Id of this request.
        id: String,
        /// Scenario/grid source.
        target: WorkTarget,
        /// Target probe count.
        n: u32,
        /// Target listening period (must be an interior grid member).
        r: f64,
    },
    /// A Pareto frontier over a 2-D parameter grid.
    Frontier {
        /// Id of this request.
        id: String,
        /// Scenario/grid source.
        target: WorkTarget,
        /// The first varied parameter.
        x: AxisSpec,
        /// The second varied parameter.
        y: AxisSpec,
    },
    /// Cancellation of an in-flight request.
    Cancel {
        /// Id of this request (echoed in the acknowledgement).
        id: String,
        /// Id of the request to cancel.
        of: String,
    },
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, WireError> {
    obj.get(key)
        .and_then(Json::num)
        .ok_or_else(|| err(format!("missing numeric field `{key}`")))
}

fn decode_reply_time(value: &Json) -> Result<Arc<dyn ReplyTimeDistribution>, WireError> {
    let kind = value
        .get("kind")
        .and_then(Json::str)
        .ok_or_else(|| err("reply_time needs a string `kind`"))?;
    let dist: Arc<dyn ReplyTimeDistribution> = match kind {
        "deterministic" => Arc::new(
            DefectiveDeterministic::new(field_f64(value, "mass")?, field_f64(value, "delay")?)
                .map_err(|e| err(e.to_string()))?,
        ),
        "exponential" => {
            let rate = field_f64(value, "rate")?;
            let delay = field_f64(value, "delay")?;
            let dist = if let Some(loss) = value.get("loss").and_then(Json::num) {
                DefectiveExponential::from_loss(loss, rate, delay)
            } else {
                DefectiveExponential::new(field_f64(value, "mass")?, rate, delay)
            };
            Arc::new(dist.map_err(|e| err(e.to_string()))?)
        }
        "uniform" => Arc::new(
            DefectiveUniform::new(
                field_f64(value, "mass")?,
                field_f64(value, "lo")?,
                field_f64(value, "hi")?,
            )
            .map_err(|e| err(e.to_string()))?,
        ),
        "weibull" => Arc::new(
            DefectiveWeibull::new(
                field_f64(value, "mass")?,
                field_f64(value, "shape")?,
                field_f64(value, "scale")?,
                field_f64(value, "delay")?,
            )
            .map_err(|e| err(e.to_string()))?,
        ),
        "mixture" => {
            let Some(Json::Arr(items)) = value.get("components") else {
                return Err(err("mixture needs a `components` array"));
            };
            let mut components = Vec::with_capacity(items.len());
            for item in items {
                let weight = field_f64(item, "weight")?;
                let dist = item
                    .get("dist")
                    .ok_or_else(|| err("mixture component needs `dist`"))?;
                components.push((weight, decode_reply_time(dist)?));
            }
            Arc::new(Mixture::new(components).map_err(|e| err(e.to_string()))?)
        }
        other => return Err(err(format!("unknown reply_time kind `{other}`"))),
    };
    Ok(dist)
}

fn decode_scenario(value: &Json) -> Result<Scenario, WireError> {
    let mut builder = Scenario::builder()
        .probe_cost(field_f64(value, "probe_cost")?)
        .error_cost(field_f64(value, "error_cost")?)
        .reply_time(decode_reply_time(
            value
                .get("reply_time")
                .ok_or_else(|| err("scenario needs `reply_time`"))?,
        )?);
    if let Some(hosts) = value.get("hosts").and_then(Json::num) {
        builder = builder
            .hosts(hosts as u32)
            .map_err(|e| err(e.to_string()))?;
    } else {
        builder = builder.occupancy(field_f64(value, "q")?);
    }
    builder.build().map_err(|e| err(e.to_string()))
}

fn decode_grid(value: &Json) -> Result<GridSpec, WireError> {
    let n_max = field_f64(value, "n_max")? as u32;
    if let Some(Json::Arr(items)) = value.get("r") {
        let r_values = items
            .iter()
            .map(|v| v.num().ok_or_else(|| err("grid `r` must be numeric")))
            .collect::<Result<Vec<f64>, WireError>>()?;
        return Ok(GridSpec { n_max, r_values });
    }
    let lo = field_f64(value, "r_min")?;
    let hi = field_f64(value, "r_max")?;
    let points = field_f64(value, "r_points")? as usize;
    Ok(GridSpec::linspace(n_max, lo, hi, points))
}

fn decode_metrics(value: Option<&Json>) -> Result<Vec<Metric>, WireError> {
    let Some(value) = value else {
        return Ok(vec![Metric::MeanCost, Metric::ErrorProbability]);
    };
    let Json::Arr(items) = value else {
        return Err(err("`metrics` must be an array"));
    };
    items
        .iter()
        .map(|item| match item.str() {
            Some("mean_cost") => Ok(Metric::MeanCost),
            Some("error_probability") => Ok(Metric::ErrorProbability),
            other => Err(err(format!("unknown metric {other:?}"))),
        })
        .collect()
}

/// Checks the request's protocol version field: absent means
/// [`WIRE_VERSION`]; anything else must match it exactly.
///
/// # Errors
///
/// Returns a [`WireError`] naming the unsupported version.
pub fn check_version(value: &Json) -> Result<(), WireError> {
    match value.get("v") {
        None => Ok(()),
        Some(Json::Num(v)) if *v == WIRE_VERSION as f64 => Ok(()),
        Some(Json::Num(v)) => Err(err(format!(
            "unsupported protocol version {v}; this build speaks v{WIRE_VERSION}"
        ))),
        Some(_) => Err(err("`v` must be a number")),
    }
}

/// Decodes the scenario/grid source of a parametric verb: `"of"` inside
/// the verb object, or top-level `scenario`/`grid` like a sweep.
fn decode_target(value: &Json, verb: &Json, name: &str) -> Result<WorkTarget, WireError> {
    if let Some(of) = verb.get("of") {
        let of = of
            .str()
            .ok_or_else(|| {
                err(format!(
                    "{name} `of` must be the base sweep's id as a string"
                ))
            })?
            .to_owned();
        return Ok(WorkTarget::Base(of));
    }
    let scenario = decode_scenario(
        value
            .get("scenario")
            .ok_or_else(|| err(format!("{name} needs `of` or an inline `scenario`")))?,
    )?;
    let grid = decode_grid(
        value
            .get("grid")
            .ok_or_else(|| err(format!("{name} needs `of` or an inline `grid`")))?,
    )?;
    Ok(WorkTarget::Inline { scenario, grid })
}

/// Decodes one frontier axis: `{"axis":"error_cost","values":[…]}`.
fn decode_axis(verb: &Json, role: &str) -> Result<AxisSpec, WireError> {
    let spec = verb
        .get(role)
        .ok_or_else(|| err(format!("frontier needs `{role}`")))?;
    let name = spec
        .get("axis")
        .and_then(Json::str)
        .ok_or_else(|| err(format!("frontier `{role}` needs a string `axis`")))?;
    let axis = ParamAxis::from_name(name).ok_or_else(|| {
        err(format!(
            "unknown frontier axis `{name}` (expected `q`, `probe_cost` or `error_cost`)"
        ))
    })?;
    let Some(Json::Arr(items)) = spec.get("values") else {
        return Err(err(format!("frontier `{role}` needs a `values` array")));
    };
    let values = items
        .iter()
        .map(|v| {
            v.num()
                .ok_or_else(|| err(format!("frontier `{role}` values must be numeric")))
        })
        .collect::<Result<Vec<f64>, WireError>>()?;
    Ok(AxisSpec::new(axis, values))
}

/// Decodes one parsed request object (version already checked).
///
/// # Errors
///
/// Returns a [`WireError`] for schema problems.
pub fn decode_request(value: &Json) -> Result<WireRequest, WireError> {
    let id = value
        .get("id")
        .and_then(Json::str)
        .ok_or_else(|| err("request needs a string `id`"))?
        .to_owned();
    if let Some(cancel) = value.get("cancel") {
        let of = cancel
            .str()
            .ok_or_else(|| err("cancel needs the target request's id as a string"))?
            .to_owned();
        return Ok(WireRequest::Cancel { id, of });
    }
    if let Some(rescore) = value.get("rescore") {
        let of = rescore
            .get("of")
            .and_then(Json::str)
            .ok_or_else(|| err("rescore needs the base sweep's id in `of`"))?
            .to_owned();
        let delta = RescoreDelta {
            occupancy: rescore.get("q").and_then(Json::num),
            probe_cost: rescore.get("probe_cost").and_then(Json::num),
            error_cost: rescore.get("error_cost").and_then(Json::num),
        };
        return Ok(WireRequest::Rescore { id, of, delta });
    }
    if let Some(calibrate) = value.get(VERB_CALIBRATE) {
        let target = decode_target(value, calibrate, VERB_CALIBRATE)?;
        let n = field_f64(calibrate, "n")? as u32;
        let r = field_f64(calibrate, "r")?;
        return Ok(WireRequest::Calibrate { id, target, n, r });
    }
    if let Some(frontier) = value.get(VERB_FRONTIER) {
        let target = decode_target(value, frontier, VERB_FRONTIER)?;
        let x = decode_axis(frontier, "x")?;
        let y = decode_axis(frontier, "y")?;
        return Ok(WireRequest::Frontier { id, target, x, y });
    }
    if value.get("scenario").is_none() {
        // Not a known verb and not a sweep: name the stray key so clients
        // speaking a newer (or wrong) verb set get a pointed diagnostic
        // instead of a misleading "needs `scenario`".
        if let Json::Obj(members) = value {
            const KNOWN_KEYS: [&str; 9] = [
                "v",
                "id",
                "cancel",
                "rescore",
                VERB_CALIBRATE,
                VERB_FRONTIER,
                "scenario",
                "grid",
                "metrics",
            ];
            if let Some((key, _)) = members
                .iter()
                .find(|(key, _)| !KNOWN_KEYS.contains(&key.as_str()))
            {
                return Err(err(format!("unknown request verb `{}`", key.as_str())));
            }
        }
    }
    let scenario = decode_scenario(
        value
            .get("scenario")
            .ok_or_else(|| err("request needs `scenario`"))?,
    )?;
    let grid = decode_grid(
        value
            .get("grid")
            .ok_or_else(|| err("request needs `grid`"))?,
    )?;
    let metrics = decode_metrics(value.get("metrics"))?;
    Ok(WireRequest::Sweep {
        id,
        request: SweepRequest {
            scenario,
            grid,
            metrics,
        },
    })
}

/// Decodes one request line: parse, version check, schema decode.
///
/// # Errors
///
/// Returns a [`WireError`] for syntax, version or schema problems.
pub fn parse_request_line(line: &str) -> Result<WireRequest, WireError> {
    let value = parse_json(line)?;
    check_version(&value)?;
    decode_request(&value)
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

/// The longest `{:?}` of a finite `f64` (`-2.2250738585072014e-308`).
const FLOAT_BYTES: usize = 24;
/// The longest decimal `u32` (probe counts).
const U32_BYTES: usize = 10;
/// Envelope, stats member and the transport's newline around a line's
/// payload, with room to spare.
const LINE_BYTES: usize = 256;

/// Starts a response line: `{"v":…,"id":"…"`.
fn open_line(out: &mut String, id: &str) {
    out.push_str("{\"v\":");
    write_u64(out, WIRE_VERSION);
    out.push_str(",\"id\":\"");
    push_escaped(out, id);
    out.push('"');
}

/// Appends a nanosecond count. The counters are `u128`, but every count
/// below 584 years fits the `u64` writer; a larger one goes through std.
fn write_nanos(out: &mut String, nanos: u128) {
    match u64::try_from(nanos) {
        Ok(nanos) => write_u64(out, nanos),
        Err(_) => out.push_str(&nanos.to_string()),
    }
}

/// Writes the per-request `"stats"` member shared by every verb's
/// response line.
fn push_stats(out: &mut String, s: &BatchStats) {
    out.push_str("\"stats\":{\"wall_ns\":");
    write_nanos(out, s.wall_nanos);
    out.push_str(",\"cache_hits\":");
    write_u64(out, s.cache_hits);
    out.push_str(",\"cache_misses\":");
    write_u64(out, s.cache_misses);
    out.push_str(",\"cells\":");
    write_u64(out, s.cells);
    out.push_str(",\"workers\":");
    write_u64(out, s.workers as u64);
    out.push('}');
}

/// A typed response line: every line the protocol can emit, in one closed
/// set, serialized by exactly one function ([`WireResponse::to_line`]).
///
/// Sessions and servers construct values of this type and stringify them
/// at the output boundary — there is no other JSON writer for responses,
/// so the wire format cannot drift between call sites.
#[derive(Debug, Clone)]
pub enum WireResponse {
    /// A completed sweep: `{"v":…,"id":…,"cells":[…],"stats":{…}}`.
    Sweep {
        /// The caller's request id, echoed.
        id: String,
        /// The evaluated landscape and counters.
        response: SweepResponse,
    },
    /// A completed calibration:
    /// `{"v":…,"id":…,"calibrate":{…},"stats":{…}}`.
    Calibrate {
        /// The caller's request id, echoed.
        id: String,
        /// The recovered `E*` and the target's cost/risk under it.
        response: CalibrateResponse,
    },
    /// A completed frontier:
    /// `{"v":…,"id":…,"frontier":{"candidates":…,"points":[…]},"stats":{…}}`.
    Frontier {
        /// The caller's request id, echoed.
        id: String,
        /// The Pareto points and counters.
        response: FrontierResponse,
    },
    /// Acknowledgement of a `cancel` request:
    /// `{"v":…,"id":…,"cancelled":…}`.
    Cancelled {
        /// The cancel request's own id.
        id: String,
        /// The id of the request it withdrew.
        of: String,
    },
    /// Any failure — parse, validation, evaluation, cancellation:
    /// `{"v":…,"id":…,"error":…}`.
    Error {
        /// The failing request's id (empty when the line had none).
        id: String,
        /// The stringified failure.
        message: String,
    },
    /// A session stats snapshot: `{"v":…,"stats":{…}}`.
    Stats {
        /// The engine's cumulative counters.
        engine: EngineStats,
        /// The pipeline's cumulative counters.
        pipeline: PipelineStats,
        /// The pipeline's configured depth bound.
        depth: usize,
    },
}

impl WireResponse {
    /// An [`WireResponse::Error`] from the unified [`EngineError`], so
    /// every failure path stringifies exactly once, here.
    #[must_use]
    pub fn error(id: &str, error: &EngineError) -> WireResponse {
        WireResponse::Error {
            id: id.to_owned(),
            message: error.to_string(),
        }
    }

    /// Wraps one pipeline outcome — success of any verb, or failure —
    /// into the matching response.
    #[must_use]
    pub fn from_result(id: &str, result: Result<WorkResponse, EngineError>) -> WireResponse {
        match result {
            Ok(WorkResponse::Sweep(response)) => WireResponse::Sweep {
                id: id.to_owned(),
                response,
            },
            Ok(WorkResponse::Calibrate(response)) => WireResponse::Calibrate {
                id: id.to_owned(),
                response,
            },
            Ok(WorkResponse::Frontier(response)) => WireResponse::Frontier {
                id: id.to_owned(),
                response,
            },
            Err(e) => WireResponse::error(id, &e),
        }
    }

    /// Serializes this response as one JSON line (no trailing newline).
    /// The single writer of the response wire format.
    ///
    /// Every variant appends into one `String` sized for the whole line
    /// up front; numbers go through [`crate::shortest`], whose output is
    /// byte-identical to `{:?}` for floats and `{}` for integers.
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            WireResponse::Sweep { id, response } => {
                // The wire keeps the per-cell object shape; `Cell`s are
                // materialized lazily from the response's flat
                // [`Landscape`](crate::Landscape) buffers right here, at
                // the serialization boundary.
                let landscape = &response.landscape;
                // Worst case per cell: the keys and punctuation
                // (`{"n":`, `,"r":`, `}`, `,` and each metric's key)
                // plus the longest number of each field.
                let cell_bytes = 12
                    + U32_BYTES
                    + FLOAT_BYTES
                    + landscape.costs().map_or(0, |_| 13 + FLOAT_BYTES)
                    + landscape.errors().map_or(0, |_| 21 + FLOAT_BYTES);
                let mut out =
                    String::with_capacity(LINE_BYTES + id.len() + landscape.len() * cell_bytes);
                open_line(&mut out, id);
                out.push_str(",\"cells\":[");
                // Every cell of an `r` column repeats its `r`: format it
                // once per column.
                let mut r_text = String::with_capacity(FLOAT_BYTES);
                let mut r_bits = None;
                for (i, cell) in landscape.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if r_bits != Some(cell.r.to_bits()) {
                        r_bits = Some(cell.r.to_bits());
                        r_text.clear();
                        write_f64(&mut r_text, cell.r);
                    }
                    out.push_str("{\"n\":");
                    write_u64(&mut out, u64::from(cell.n));
                    out.push_str(",\"r\":");
                    out.push_str(&r_text);
                    if let Some(c) = cell.mean_cost {
                        out.push_str(",\"mean_cost\":");
                        write_f64(&mut out, c);
                    }
                    if let Some(e) = cell.error_probability {
                        out.push_str(",\"error_probability\":");
                        write_f64(&mut out, e);
                    }
                    out.push('}');
                }
                out.push_str("],");
                push_stats(&mut out, &response.stats);
                out.push('}');
                out
            }
            WireResponse::Calibrate { id, response } => {
                let mut out = String::with_capacity(LINE_BYTES + id.len() + 4 * FLOAT_BYTES);
                open_line(&mut out, id);
                out.push_str(",\"");
                out.push_str(VERB_CALIBRATE);
                out.push_str("\":{\"error_cost\":");
                write_f64(&mut out, response.error_cost);
                out.push_str(",\"n\":");
                write_u64(&mut out, u64::from(response.n));
                out.push_str(",\"r\":");
                write_f64(&mut out, response.r);
                out.push_str(",\"mean_cost\":");
                write_f64(&mut out, response.cost);
                out.push_str(",\"error_probability\":");
                write_f64(&mut out, response.error_probability);
                out.push_str("},");
                push_stats(&mut out, &response.stats);
                out.push('}');
                out
            }
            WireResponse::Frontier { id, response } => {
                // Keys and punctuation, then the longest numbers.
                let point_bytes = 56 + U32_BYTES + 5 * FLOAT_BYTES;
                let mut out = String::with_capacity(
                    LINE_BYTES + id.len() + response.points.len() * point_bytes,
                );
                open_line(&mut out, id);
                out.push_str(",\"");
                out.push_str(VERB_FRONTIER);
                out.push_str("\":{\"candidates\":");
                write_u64(&mut out, response.candidates as u64);
                out.push_str(",\"points\":[");
                for (i, p) in response.points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"x\":");
                    write_f64(&mut out, p.x);
                    out.push_str(",\"y\":");
                    write_f64(&mut out, p.y);
                    out.push_str(",\"n\":");
                    write_u64(&mut out, u64::from(p.n));
                    out.push_str(",\"r\":");
                    write_f64(&mut out, p.r);
                    out.push_str(",\"mean_cost\":");
                    write_f64(&mut out, p.cost);
                    out.push_str(",\"error_probability\":");
                    write_f64(&mut out, p.error_probability);
                    out.push('}');
                }
                out.push_str("]},");
                push_stats(&mut out, &response.stats);
                out.push('}');
                out
            }
            WireResponse::Cancelled { id, of } => {
                let mut out = String::with_capacity(LINE_BYTES + id.len() + of.len());
                open_line(&mut out, id);
                out.push_str(",\"cancelled\":\"");
                push_escaped(&mut out, of);
                out.push_str("\"}");
                out
            }
            WireResponse::Error { id, message } => {
                let mut out = String::with_capacity(LINE_BYTES + id.len() + message.len());
                open_line(&mut out, id);
                out.push_str(",\"error\":\"");
                push_escaped(&mut out, message);
                out.push_str("\"}");
                out
            }
            WireResponse::Stats {
                engine: s,
                pipeline: p,
                depth,
            } => {
                let mut out = String::with_capacity(
                    2 * LINE_BYTES + s.cells_per_worker.len() * (U32_BYTES + 11),
                );
                out.push_str("{\"v\":");
                write_u64(&mut out, WIRE_VERSION);
                out.push_str(",\"stats\":{\"requests\":");
                write_u64(&mut out, s.requests);
                out.push_str(",\"cells\":");
                write_u64(&mut out, s.cells);
                out.push_str(",\"cache_hits\":");
                write_u64(&mut out, s.cache_hits);
                out.push_str(",\"cache_misses\":");
                write_u64(&mut out, s.cache_misses);
                out.push_str(",\"cache_len\":");
                write_u64(&mut out, s.cache_len as u64);
                out.push_str(",\"cells_per_worker\":[");
                for (i, cells) in s.cells_per_worker.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_u64(&mut out, *cells);
                }
                out.push_str("],\"wall_ns\":");
                write_nanos(&mut out, s.wall_nanos);
                out.push_str(",\"kernel_backend\":\"");
                out.push_str(s.kernel_backend);
                out.push_str("\",\"dist_backend\":\"");
                out.push_str(s.dist_backend);
                out.push_str("\",\"pipeline\":{\"depth\":");
                write_u64(&mut out, *depth as u64);
                for (key, value) in [
                    ("submitted", p.submitted),
                    ("completed", p.completed),
                    ("cancelled", p.cancelled),
                    ("failed", p.failed),
                    ("queue_ns_total", p.queue_nanos_total),
                    ("queue_ns_max", p.queue_nanos_max),
                    ("service_ns_total", p.service_nanos_total),
                    ("service_ns_max", p.service_nanos_max),
                ] {
                    out.push_str(",\"");
                    out.push_str(key);
                    out.push_str("\":");
                    write_u64(&mut out, value);
                }
                out.push_str("}}}");
                out
            }
        }
    }
}

/// Shorthand for an [`WireResponse::Error`] line.
fn error_line(id: &str, error: &EngineError) -> String {
    WireResponse::error(id, error).to_line()
}

fn invalid(what: impl Into<String>) -> EngineError {
    EngineError::InvalidRequest { what: what.into() }
}

// ---------------------------------------------------------------------------
// Sessions: JSON-lines codecs over the pipeline
// ---------------------------------------------------------------------------

/// One wire request currently inside the pipeline.
struct InFlight {
    wire_id: String,
    request: WorkRequest,
}

/// Work held back because its base sweep is still in flight: everything
/// needed to build the real [`WorkRequest`] once the base's scenario and
/// grid become available.
enum PendingWork {
    /// A rescore's economic delta.
    Rescore(RescoreDelta),
    /// A calibration's target configuration.
    Calibrate {
        /// Target probe count.
        n: u32,
        /// Target listening period.
        r: f64,
    },
    /// A frontier's parameter axes.
    Frontier {
        /// The first varied parameter.
        x: AxisSpec,
        /// The second varied parameter.
        y: AxisSpec,
    },
}

impl PendingWork {
    /// Builds the concrete request against the completed base sweep.
    fn into_request(self, base: &SweepRequest) -> Result<WorkRequest, EngineError> {
        match self {
            PendingWork::Rescore(delta) => {
                let scenario = delta.apply(&base.scenario)?;
                Ok(WorkRequest::Sweep(SweepRequest {
                    scenario,
                    grid: base.grid.clone(),
                    metrics: base.metrics.clone(),
                }))
            }
            PendingWork::Calibrate { n, r } => Ok(WorkRequest::Calibrate(CalibrateRequest {
                scenario: base.scenario.clone(),
                grid: base.grid.clone(),
                target_n: n,
                target_r: r,
            })),
            PendingWork::Frontier { x, y } => Ok(WorkRequest::Frontier(FrontierRequest {
                scenario: base.scenario.clone(),
                grid: base.grid.clone(),
                x,
                y,
            })),
        }
    }
}

/// A pipelined JSON-lines session: a thin codec over
/// [`Pipeline`](crate::Pipeline).
///
/// [`PipelinedSession::submit_line`] decodes one input line and enqueues
/// it (blocking only when the pipeline's depth bound is reached —
/// backpressure); [`PipelinedSession::poll_responses`] encodes whatever
/// has completed so far; [`PipelinedSession::drain`] blocks until every
/// in-flight request is answered. Responses therefore come back in
/// **completion order**, keyed by the caller's `id` field, not in input
/// order.
///
/// Rescore, calibrate and frontier lines whose base sweep is still in
/// flight are *held back* and submitted automatically the moment the base
/// completes, so a pipelined client may stream `sweep s1` / `rescore s2
/// of s1` / `calibrate k1 of s1` back-to-back without waiting. Every
/// non-empty input line produces exactly one output line, pipelined or
/// not.
pub struct PipelinedSession {
    pipeline: Pipeline,
    /// The last [`RETAINED_SWEEPS`] completed sweeps by wire id, oldest
    /// first, referencable by later rescores, calibrations and frontiers.
    sweeps: VecDeque<(String, SweepRequest)>,
    /// Requests inside the pipeline, keyed by pipeline id.
    in_flight: HashMap<RequestId, InFlight>,
    /// Live wire id → pipeline id (for `cancel` lines).
    by_wire_id: HashMap<String, RequestId>,
    /// Dependent work waiting for its base to complete: base wire id →
    /// list of (dependent wire id, pending work).
    waiting: HashMap<String, Vec<(String, PendingWork)>>,
    /// Wire ids submitted or waiting whose response has not been emitted.
    /// A set, so lines sharing an id are one entry here: it answers "is
    /// this base still pending", never "how many requests are".
    pending_ids: HashSet<String>,
}

impl PipelinedSession {
    /// Starts a pipelined session around an engine owned by this session
    /// alone. Multi-session fronts (one session per client connection of
    /// `zeroconf serve`) share one executor team via
    /// [`PipelinedSession::attach`] instead.
    #[must_use]
    pub fn new(engine: Engine, config: PipelineConfig) -> PipelinedSession {
        PipelinedSession::with_engine(Arc::new(engine), config)
    }

    /// Starts a pipelined session over a *shared* engine with a private
    /// executor team: the engine — worker pool, π-table cache, lifetime
    /// counters — is common to every session holding the `Arc`, so a
    /// sweep completed through one session warms the cache for all.
    #[must_use]
    pub fn with_engine(engine: Arc<Engine>, config: PipelineConfig) -> PipelinedSession {
        PipelinedSession::attach(ExecutorTeam::new(engine, config))
    }

    /// Starts a pipelined session on a *shared* executor team: the
    /// session owns its handle (ids, completions, counters, rescore
    /// hold-back state) while the team's executors, depth bound and
    /// engine are common to every session attached to it.
    #[must_use]
    pub fn attach(team: Arc<ExecutorTeam>) -> PipelinedSession {
        PipelinedSession {
            pipeline: Pipeline::attach(team),
            sweeps: VecDeque::with_capacity(RETAINED_SWEEPS),
            in_flight: HashMap::new(),
            by_wire_id: HashMap::new(),
            waiting: HashMap::new(),
            pending_ids: HashSet::new(),
        }
    }

    /// Registers a [`CompletionNotifier`](crate::CompletionNotifier) on
    /// the session's pipeline: an executor thread invokes it each time a
    /// completion becomes pollable, so a readiness-driven front-end
    /// (the `zeroconf serve` reactor) can sleep in `epoll_wait` and be
    /// woken instead of polling [`PipelinedSession::poll_responses`] on
    /// a timer.
    pub fn set_completion_notifier(&self, notifier: crate::CompletionNotifier) {
        self.pipeline.set_completion_notifier(notifier);
    }

    /// Unanswered requests: one per request in the pipeline plus one per
    /// held-back dependent, response not yet emitted. Requests, not
    /// distinct ids — two in-flight lines sharing an id count twice — so
    /// a connection handler holding one admission permit per pending
    /// request always holds at least one per ticket it has on the team,
    /// and a drain is complete only once every ticket is answered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.in_flight.len() + self.waiting.values().map(Vec::len).sum::<usize>()
    }

    /// Withdraws every unanswered request in the session: in-flight
    /// pipeline requests are flagged for cancellation (their
    /// [`EngineError::Cancelled`] responses arrive through
    /// [`PipelinedSession::poll_responses`] / [`PipelinedSession::drain`]
    /// as usual), and held-back rescores — which never reached the
    /// pipeline — are answered right here with the returned error lines.
    /// This is the connection-drop path of `zeroconf serve`: a client
    /// that vanishes takes only its own requests down.
    pub fn cancel_all(&mut self) -> Vec<String> {
        // Every ticket, not one per wire id: lines sharing an id are
        // each in flight.
        for pipeline_id in self.in_flight.keys() {
            self.pipeline.cancel(*pipeline_id);
        }
        let waiting = std::mem::take(&mut self.waiting);
        let mut out = Vec::new();
        for (_, dependents) in waiting {
            for (rescore_id, _) in dependents {
                self.pending_ids.remove(&rescore_id);
                out.push(error_line(&rescore_id, &EngineError::Cancelled));
            }
        }
        out
    }

    /// Decodes and enqueues one input line. Returns the response lines
    /// that are ready *immediately* — parse/validation errors and cancel
    /// acknowledgements; sweep and rescore answers arrive later via
    /// [`PipelinedSession::poll_responses`] / [`PipelinedSession::drain`].
    /// Blank lines produce nothing. Blocks when the pipeline is at its
    /// depth bound.
    pub fn submit_line(&mut self, line: &str) -> Vec<String> {
        let line = line.trim();
        if line.is_empty() {
            return Vec::new();
        }
        let value = match parse_json(line) {
            Ok(value) => value,
            Err(e) => return vec![error_line("", &e.into())],
        };
        let id = value
            .get("id")
            .and_then(Json::str)
            .unwrap_or_default()
            .to_owned();
        if let Err(e) = check_version(&value) {
            return vec![error_line(&id, &e.into())];
        }
        match decode_request(&value) {
            Err(e) => vec![error_line(&id, &e.into())],
            Ok(WireRequest::Sweep { id, request }) => {
                self.submit_work(id, WorkRequest::Sweep(request))
            }
            Ok(WireRequest::Rescore { id, of, delta }) => {
                self.submit_dependent(id, &of, PendingWork::Rescore(delta))
            }
            Ok(WireRequest::Calibrate { id, target, n, r }) => match target {
                WorkTarget::Base(of) => {
                    self.submit_dependent(id, &of, PendingWork::Calibrate { n, r })
                }
                WorkTarget::Inline { scenario, grid } => self.submit_work(
                    id,
                    WorkRequest::Calibrate(CalibrateRequest {
                        scenario,
                        grid,
                        target_n: n,
                        target_r: r,
                    }),
                ),
            },
            Ok(WireRequest::Frontier { id, target, x, y }) => match target {
                WorkTarget::Base(of) => {
                    self.submit_dependent(id, &of, PendingWork::Frontier { x, y })
                }
                WorkTarget::Inline { scenario, grid } => self.submit_work(
                    id,
                    WorkRequest::Frontier(FrontierRequest {
                        scenario,
                        grid,
                        x,
                        y,
                    }),
                ),
            },
            Ok(WireRequest::Cancel { id, of }) => self.submit_cancel(&id, &of),
        }
    }

    /// Encodes every completion that is ready right now, without
    /// blocking. May also dispatch rescores that were waiting on a newly
    /// completed base.
    pub fn poll_responses(&mut self) -> Vec<String> {
        let completions = self.pipeline.poll_completions();
        let mut out = Vec::new();
        for completion in completions {
            out.extend(self.finish(completion));
        }
        out
    }

    /// Blocks until every in-flight and held-back request is answered,
    /// returning the response lines in completion order.
    pub fn drain(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(completion) = self.pipeline.next_completion() {
            out.extend(self.finish(completion));
        }
        debug_assert!(self.waiting.is_empty(), "no rescore left behind");
        debug_assert!(self.pending_ids.is_empty(), "every id answered");
        out
    }

    /// The engine's cumulative counters (for `--stats` reporting).
    #[must_use]
    pub fn stats(&self) -> crate::EngineStats {
        self.pipeline.engine().stats()
    }

    /// The pipeline's cumulative counters, including per-request latency
    /// aggregates.
    #[must_use]
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// Renders the engine and pipeline stats as one JSON line.
    #[must_use]
    pub fn stats_line(&self) -> String {
        WireResponse::Stats {
            engine: self.stats(),
            pipeline: self.pipeline_stats(),
            depth: self.pipeline.depth(),
        }
        .to_line()
    }

    /// Submits one decoded work request of any verb; an immediate error
    /// line when the pipeline rejects it.
    fn submit_work(&mut self, wire_id: String, request: WorkRequest) -> Vec<String> {
        match self.pipeline.submit_work(request.clone()) {
            Ok(pipeline_id) => {
                self.pending_ids.insert(wire_id.clone());
                self.by_wire_id.insert(wire_id.clone(), pipeline_id);
                self.in_flight
                    .insert(pipeline_id, InFlight { wire_id, request });
                Vec::new()
            }
            Err(e) => {
                let mut out = vec![error_line(&wire_id, &e)];
                out.extend(self.fail_dependents(&wire_id));
                out
            }
        }
    }

    /// Routes one base-referencing request (rescore, calibrate or
    /// frontier): straight into the pipeline when the base sweep has
    /// completed, held back when the base is pending, an error otherwise.
    fn submit_dependent(&mut self, wire_id: String, of: &str, work: PendingWork) -> Vec<String> {
        if let Some((_, base)) = self.sweeps.iter().find(|(id, _)| id == of) {
            return match work.into_request(base) {
                Ok(request) => self.submit_work(wire_id, request),
                Err(e) => {
                    // Work that fails at dispatch time must still fail
                    // everything chained on it, or held-back dependents
                    // are stranded forever.
                    let mut out = vec![error_line(&wire_id, &e)];
                    out.extend(self.fail_dependents(&wire_id));
                    out
                }
            };
        }
        if self.pending_ids.contains(of) {
            self.pending_ids.insert(wire_id.clone());
            self.waiting
                .entry(of.to_owned())
                .or_default()
                .push((wire_id, work));
            return Vec::new();
        }
        vec![error_line(
            &wire_id,
            &invalid(format!(
                "no sweep with id `{of}` among the last {RETAINED_SWEEPS} completed sweeps \
                 this session retains"
            )),
        )]
    }

    /// Handles one cancel line: flags an in-flight target, or withdraws a
    /// held-back rescore outright.
    fn submit_cancel(&mut self, wire_id: &str, of: &str) -> Vec<String> {
        if let Some(pipeline_id) = self.by_wire_id.get(of) {
            // In the pipeline: the cancelled completion arrives (and is
            // encoded) through the normal completion path.
            self.pipeline.cancel(*pipeline_id);
            return vec![WireResponse::Cancelled {
                id: wire_id.to_owned(),
                of: of.to_owned(),
            }
            .to_line()];
        }
        // Held-back work never reached the pipeline; answer for it here
        // and fail anything chained on it.
        let held = self
            .waiting
            .values_mut()
            .any(|deps| deps.iter().any(|(id, _)| id == of));
        if held {
            for deps in self.waiting.values_mut() {
                deps.retain(|(id, _)| id != of);
            }
            self.waiting.retain(|_, deps| !deps.is_empty());
            self.pending_ids.remove(of);
            let mut out = vec![
                WireResponse::Cancelled {
                    id: wire_id.to_owned(),
                    of: of.to_owned(),
                }
                .to_line(),
                error_line(of, &EngineError::Cancelled),
            ];
            out.extend(self.fail_dependents(of));
            return out;
        }
        vec![error_line(
            wire_id,
            &invalid(format!("no in-flight request with id `{of}`")),
        )]
    }

    /// Encodes one completion and dispatches any dependent work that was
    /// waiting on it.
    fn finish(&mut self, completion: Completion) -> Vec<String> {
        let Some(InFlight { wire_id, request }) = self.in_flight.remove(&completion.id) else {
            debug_assert!(false, "completion for unknown pipeline id");
            return Vec::new();
        };
        self.by_wire_id.remove(&wire_id);
        self.pending_ids.remove(&wire_id);
        let succeeded = completion.result.is_ok();
        if succeeded {
            // Only a sweep establishes a base that dependents (rescore,
            // calibrate, frontier) can reference.
            if let WorkRequest::Sweep(sweep) = request {
                // A reused id names its latest sweep.
                self.sweeps.retain(|(id, _)| *id != wire_id);
                if self.sweeps.len() == RETAINED_SWEEPS {
                    self.sweeps.pop_front();
                }
                self.sweeps.push_back((wire_id.clone(), sweep));
            }
        }
        let mut out = vec![WireResponse::from_result(&wire_id, completion.result).to_line()];
        if succeeded {
            for (dependent_id, work) in self.waiting.remove(&wire_id).unwrap_or_default() {
                self.pending_ids.remove(&dependent_id);
                out.extend(self.submit_dependent(dependent_id, &wire_id, work));
            }
        } else {
            out.extend(self.fail_dependents(&wire_id));
        }
        out
    }

    /// Answers (with an error) every dependent waiting on `base`, and
    /// transitively everything waiting on those.
    fn fail_dependents(&mut self, base: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut stack = vec![base.to_owned()];
        while let Some(failed) = stack.pop() {
            for (dependent_id, _) in self.waiting.remove(&failed).unwrap_or_default() {
                self.pending_ids.remove(&dependent_id);
                out.push(error_line(
                    &dependent_id,
                    &invalid(format!("base sweep `{failed}` did not complete")),
                ));
                stack.push(dependent_id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::{Rng, RngCore, SeedableRng};

    use crate::EngineConfig;

    use super::*;

    fn sweep_line(id: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
             \"grid\":{{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}}}"
        )
    }

    fn engine(workers: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            cache_tables: 64,
            cache_dir: None,
            ..EngineConfig::default()
        })
    }

    /// Blocking one-line-in/one-line-out over a pipelined session.
    fn handle(session: &mut PipelinedSession, line: &str) -> Option<String> {
        let mut lines = session.submit_line(line);
        lines.extend(session.drain());
        lines.into_iter().next()
    }

    #[test]
    fn json_roundtrip_basics() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"y","c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").and_then(Json::str), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_NESTING)).is_ok());
        let too_deep = parse_json(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(
            too_deep.message.contains("nesting deeper than 64"),
            "{too_deep}"
        );
        let object = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_NESTING + 1),
            "}".repeat(MAX_NESTING + 1)
        );
        assert!(parse_json(&object).is_err());
        // Deep enough to overflow a thread's stack at one frame per level.
        let hostile = "[".repeat(200_000);
        assert!(parse_json(&hostile)
            .unwrap_err()
            .message
            .contains("nesting deeper than"));
    }

    #[test]
    fn float_writer_roundtrips() {
        for x in [1.0, 0.1, 1e35, 1e-15, 12.600000000000001, f64::MIN_POSITIVE] {
            let mut text = String::new();
            write_f64(&mut text, x);
            let back: f64 = match parse_json(&text).unwrap() {
                Json::Num(v) => v,
                other => panic!("parsed {other:?}"),
            };
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn sweep_request_decodes() {
        let parsed = parse_request_line(&sweep_line("s1")).unwrap();
        let WireRequest::Sweep { id, request } = parsed else {
            panic!("expected sweep");
        };
        assert_eq!(id, "s1");
        assert_eq!(request.grid.n_max, 3);
        assert_eq!(request.grid.r_values, vec![0.5, 1.0, 2.0]);
        assert_eq!(request.metrics.len(), 2, "metrics default to both");
        assert_eq!(request.scenario.occupancy(), 0.5);
    }

    #[test]
    fn linspace_grid_and_hosts_decode() {
        let line = "{\"id\":\"x\",\"scenario\":{\"hosts\":1000,\"probe_cost\":2.0,\
                    \"error_cost\":1e35,\"reply_time\":{\"kind\":\"deterministic\",\
                    \"mass\":0.9,\"delay\":1.0}},\
                    \"grid\":{\"n_max\":4,\"r_min\":0.1,\"r_max\":30.0,\"r_points\":300},\
                    \"metrics\":[\"mean_cost\"]}";
        let WireRequest::Sweep { request, .. } = parse_request_line(line).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(request.grid.r_values.len(), 300);
        // hosts uses the paper's q = hosts / 65024 parameterization.
        assert_eq!(request.scenario.occupancy(), 1000.0 / 65024.0);
        assert_eq!(request.metrics, vec![Metric::MeanCost]);
    }

    #[test]
    fn mixture_reply_time_decodes() {
        let line = "{\"id\":\"m\",\"scenario\":{\"q\":0.1,\"probe_cost\":1.0,\"error_cost\":10.0,\
            \"reply_time\":{\"kind\":\"mixture\",\"components\":[\
              {\"weight\":0.6,\"dist\":{\"kind\":\"deterministic\",\"mass\":1.0,\"delay\":0.5}},\
              {\"weight\":0.4,\"dist\":{\"kind\":\"uniform\",\"mass\":0.9,\"lo\":0.0,\"hi\":2.0}}]}},\
            \"grid\":{\"n_max\":2,\"r\":[1.0]}}";
        let WireRequest::Sweep { request, .. } = parse_request_line(line).unwrap() else {
            panic!("expected sweep");
        };
        assert!((request.scenario.reply_time().mass() - (0.6 + 0.4 * 0.9)).abs() < 1e-12);
    }

    #[test]
    fn session_answers_sweep_then_miss_free_rescore() {
        let mut session = PipelinedSession::new(engine(2), PipelineConfig::with_depth(1));
        let first = handle(&mut session, &sweep_line("s1")).unwrap();
        assert!(first.contains("\"id\":\"s1\""), "{first}");
        assert!(first.contains("\"cache_misses\":3"), "{first}");
        let rescore =
            "{\"id\":\"s2\",\"rescore\":{\"of\":\"s1\",\"error_cost\":1e9,\"probe_cost\":3.0}}";
        let second = handle(&mut session, rescore).unwrap();
        assert!(second.contains("\"id\":\"s2\""), "{second}");
        assert!(second.contains("\"cache_misses\":0"), "{second}");
        assert!(second.contains("\"cache_hits\":3"), "{second}");
        // Chained rescore off the rescored request.
        let third = handle(
            &mut session,
            "{\"id\":\"s3\",\"rescore\":{\"of\":\"s2\",\"q\":0.25}}",
        )
        .unwrap();
        assert!(third.contains("\"cache_misses\":0"), "{third}");
        let stats = session.stats_line();
        assert!(stats.contains("\"requests\":3"), "{stats}");
        // The stats block names the kernel tier it ran and the weakest
        // distribution-batch tier observed — both drawn from the single
        // `Backend::name` vocabulary.
        let engine_stats = session.stats();
        assert!(
            stats.contains(&format!(
                "\"kernel_backend\":\"{}\"",
                engine_stats.kernel_backend
            )),
            "{stats}"
        );
        assert!(
            stats.contains(&format!(
                "\"dist_backend\":\"{}\"",
                engine_stats.dist_backend
            )),
            "{stats}"
        );
    }

    #[test]
    fn session_reports_errors_without_dying() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        assert!(handle(&mut session, "   ").is_none());
        let bad = handle(&mut session, "not json").unwrap();
        assert!(bad.contains("\"error\""), "{bad}");
        let unknown = handle(
            &mut session,
            "{\"id\":\"r\",\"rescore\":{\"of\":\"ghost\"}}",
        )
        .unwrap();
        assert!(unknown.contains("no sweep with id"), "{unknown}");
        // The session still works afterwards.
        assert!(handle(&mut session, &sweep_line("ok"))
            .unwrap()
            .contains("\"cells\""));
    }

    #[test]
    fn response_line_parses_back_with_exact_floats() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        let line = handle(&mut session, &sweep_line("s1")).unwrap();
        let parsed = parse_json(&line).unwrap();
        let Some(Json::Arr(cells)) = parsed.get("cells") else {
            panic!("no cells in {line}");
        };
        assert_eq!(cells.len(), 9);
        // Spot-check cell 0 against a direct evaluation.
        let WireRequest::Sweep { request, .. } = parse_request_line(&sweep_line("s1")).unwrap()
        else {
            panic!("expected sweep");
        };
        let direct = zeroconf_cost::cost::mean_cost(&request.scenario, 1, 0.5).unwrap();
        let wire = cells[0].get("mean_cost").and_then(Json::num).unwrap();
        assert_eq!(direct.to_bits(), wire.to_bits());
    }

    #[test]
    fn calibrate_and_frontier_lines_decode() {
        let calibrate =
            parse_request_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}")
                .unwrap();
        let WireRequest::Calibrate { id, target, n, r } = calibrate else {
            panic!("expected calibrate");
        };
        assert_eq!(id, "k1");
        assert!(matches!(target, WorkTarget::Base(of) if of == "s1"));
        assert_eq!((n, r), (2, 1.0));
        let frontier = parse_request_line(
            "{\"id\":\"f1\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"error_cost\",\"values\":[1e3,1e6]},\
             \"y\":{\"axis\":\"probe_cost\",\"values\":[1.0,2.0]}}}",
        )
        .unwrap();
        let WireRequest::Frontier { target, x, y, .. } = frontier else {
            panic!("expected frontier");
        };
        assert!(matches!(target, WorkTarget::Base(_)));
        assert_eq!(x.axis, ParamAxis::ErrorCost);
        assert_eq!(y.values, vec![1.0, 2.0]);
        // Unknown axis and missing target are named in the error.
        let bad = parse_request_line(
            "{\"id\":\"f2\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"rate\",\"values\":[1.0]},\
             \"y\":{\"axis\":\"q\",\"values\":[0.5]}}}",
        );
        assert!(bad.unwrap_err().message.contains("unknown frontier axis"));
        let bare = parse_request_line("{\"id\":\"k2\",\"calibrate\":{\"n\":2,\"r\":1.0}}");
        assert!(bare
            .unwrap_err()
            .message
            .contains("needs `of` or an inline `scenario`"));
    }

    #[test]
    fn pipelined_calibrate_of_pending_base_is_held_back_and_warm() {
        let mut session = PipelinedSession::new(engine(2), PipelineConfig::with_depth(4));
        // Sweep and dependent calibrate/frontier streamed back-to-back,
        // before the base completes.
        let mut out = session.submit_line(&sweep_line("s1"));
        out.extend(
            session.submit_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}"),
        );
        out.extend(session.submit_line(
            "{\"id\":\"f1\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"error_cost\",\"values\":[1e3,1e9]},\
             \"y\":{\"axis\":\"probe_cost\",\"values\":[0.5,2.0]}}}",
        ));
        assert!(out.is_empty(), "nothing answers before the base: {out:?}");
        assert_eq!(session.pending(), 3);
        let lines = session.drain();
        assert_eq!(lines.len(), 3, "{lines:?}");
        let calibrate = lines.iter().find(|l| l.contains("\"id\":\"k1\"")).unwrap();
        assert!(
            calibrate.contains("\"calibrate\":{\"error_cost\":"),
            "{calibrate}"
        );
        // The base sweep warmed the π cache; the statistic build misses
        // zero tables, and the frontier reuses the statistic outright.
        assert!(calibrate.contains("\"cache_misses\":0"), "{calibrate}");
        let frontier = lines.iter().find(|l| l.contains("\"id\":\"f1\"")).unwrap();
        assert!(
            frontier.contains("\"frontier\":{\"candidates\":4,\"points\":["),
            "{frontier}"
        );
        assert!(frontier.contains("\"cache_misses\":0"), "{frontier}");
    }

    #[test]
    fn pending_counts_requests_not_distinct_ids() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(4));
        for _ in 0..3 {
            assert!(session.submit_line(&sweep_line("x")).is_empty());
        }
        session.submit_line("{\"id\":\"x\",\"rescore\":{\"of\":\"x\",\"error_cost\":1e9}}");
        assert_eq!(session.pending(), 4, "three tickets and one held back");
        let mut answered = 0;
        while session.pending() > 0 {
            let completion = session.pipeline.next_completion().unwrap();
            answered += session.finish(completion).len();
            assert!(
                session.pending() + answered >= 4,
                "nothing stops counting before it is answered"
            );
        }
        assert_eq!(answered, 4);

        // After a withdrawal, every ticket sharing the id still answers
        // exactly once (cancelled, or done if it finished first).
        for _ in 0..3 {
            session.submit_line(&sweep_line("y"));
        }
        assert!(session.cancel_all().is_empty());
        assert_eq!(session.drain().len(), 3);
        assert_eq!(session.pending(), 0);
    }

    #[test]
    fn inline_calibrate_answers_without_a_base() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        let line = handle(
            &mut session,
            "{\"id\":\"k1\",\"calibrate\":{\"n\":2,\"r\":1.0},\
             \"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
             \"grid\":{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}",
        )
        .unwrap();
        assert!(line.contains("\"id\":\"k1\""), "{line}");
        assert!(line.contains("\"calibrate\":{\"error_cost\":"), "{line}");
        let parsed = parse_json(&line).unwrap();
        let e_star = parsed
            .get("calibrate")
            .and_then(|c| c.get("error_cost"))
            .and_then(Json::num)
            .unwrap();
        assert!(e_star.is_finite() && e_star > 0.0, "{line}");
    }

    #[test]
    fn dependents_of_a_non_sweep_base_are_refused() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(4));
        session.submit_line(&sweep_line("s1"));
        session.submit_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}");
        // Chained on the *calibration*, which never becomes a sweep base.
        session.submit_line("{\"id\":\"r1\",\"rescore\":{\"of\":\"k1\",\"error_cost\":1e9}}");
        let lines = session.drain();
        let refused = lines.iter().find(|l| l.contains("\"id\":\"r1\"")).unwrap();
        assert!(refused.contains("no sweep with id `k1`"), "{refused}");
    }

    /// The response encoder as it was written with `format!` and `{:?}`:
    /// the reference every [`WireResponse::to_line`] must match byte for
    /// byte.
    fn reference_line(response: &WireResponse) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::new();
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn stats(s: &BatchStats) -> String {
            format!(
                "\"stats\":{{\"wall_ns\":{},\"cache_hits\":{},\"cache_misses\":{},\"cells\":{},\"workers\":{}}}",
                s.wall_nanos, s.cache_hits, s.cache_misses, s.cells, s.workers
            )
        }
        match response {
            WireResponse::Sweep { id, response } => {
                let cells: Vec<String> = response
                    .landscape
                    .iter()
                    .map(|cell| {
                        let mut text = format!("{{\"n\":{},\"r\":{:?}", cell.n, cell.r);
                        if let Some(c) = cell.mean_cost {
                            text.push_str(&format!(",\"mean_cost\":{c:?}"));
                        }
                        if let Some(e) = cell.error_probability {
                            text.push_str(&format!(",\"error_probability\":{e:?}"));
                        }
                        text + "}"
                    })
                    .collect();
                format!(
                    "{{\"v\":{WIRE_VERSION},\"id\":\"{}\",\"cells\":[{}],{}}}",
                    escape(id),
                    cells.join(","),
                    stats(&response.stats)
                )
            }
            WireResponse::Calibrate { id, response: k } => format!(
                "{{\"v\":{WIRE_VERSION},\"id\":\"{}\",\"calibrate\":{{\"error_cost\":{:?},\"n\":{},\"r\":{:?},\"mean_cost\":{:?},\"error_probability\":{:?}}},{}}}",
                escape(id),
                k.error_cost,
                k.n,
                k.r,
                k.cost,
                k.error_probability,
                stats(&k.stats)
            ),
            WireResponse::Frontier { id, response: f } => {
                let points: Vec<String> = f
                    .points
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"x\":{:?},\"y\":{:?},\"n\":{},\"r\":{:?},\"mean_cost\":{:?},\"error_probability\":{:?}}}",
                            p.x, p.y, p.n, p.r, p.cost, p.error_probability
                        )
                    })
                    .collect();
                format!(
                    "{{\"v\":{WIRE_VERSION},\"id\":\"{}\",\"frontier\":{{\"candidates\":{},\"points\":[{}]}},{}}}",
                    escape(id),
                    f.candidates,
                    points.join(","),
                    stats(&f.stats)
                )
            }
            WireResponse::Cancelled { id, of } => format!(
                "{{\"v\":{WIRE_VERSION},\"id\":\"{}\",\"cancelled\":\"{}\"}}",
                escape(id),
                escape(of)
            ),
            WireResponse::Error { id, message } => format!(
                "{{\"v\":{WIRE_VERSION},\"id\":\"{}\",\"error\":\"{}\"}}",
                escape(id),
                escape(message)
            ),
            WireResponse::Stats {
                engine: s,
                pipeline: p,
                depth,
            } => format!(
                "{{\"v\":{WIRE_VERSION},\"stats\":{{\"requests\":{},\"cells\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_len\":{},\"cells_per_worker\":[{}],\"wall_ns\":{},\"kernel_backend\":\"{}\",\"dist_backend\":\"{}\",\"pipeline\":{{\"depth\":{},\"submitted\":{},\"completed\":{},\"cancelled\":{},\"failed\":{},\"queue_ns_total\":{},\"queue_ns_max\":{},\"service_ns_total\":{},\"service_ns_max\":{}}}}}}}",
                s.requests,
                s.cells,
                s.cache_hits,
                s.cache_misses,
                s.cache_len,
                s.cells_per_worker
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                s.wall_nanos,
                s.kernel_backend,
                s.dist_backend,
                depth,
                p.submitted,
                p.completed,
                p.cancelled,
                p.failed,
                p.queue_nanos_total,
                p.queue_nanos_max,
                p.service_nanos_total,
                p.service_nanos_max
            ),
        }
    }

    fn assert_encodes_like_reference(response: &WireResponse) {
        assert_eq!(response.to_line(), reference_line(response));
    }

    /// One answer of every `WireResponse` variant, with awkward ids and
    /// numbers from every formatting regime.
    fn every_response_variant() -> Vec<WireResponse> {
        let mut responses = Vec::new();
        let engine = engine(1);
        let WireRequest::Sweep { request, .. } = parse_request_line(&sweep_line("s1")).unwrap()
        else {
            panic!("expected sweep");
        };
        let sweep = engine.evaluate(&request).unwrap();
        assert_eq!(sweep.landscape.len(), 9);
        let awkward_id = "s\"1\\ \n\t\r\u{1}\u{1f}\u{7f} é ✓";
        for id in ["s1", awkward_id] {
            responses.push(WireResponse::Sweep {
                id: id.to_owned(),
                response: sweep.clone(),
            });
        }
        // One metric only, and values from every formatting regime:
        // zeros, subnormals, exponent form, the 1e-4/1e16 edges, NaN and
        // infinities.
        let special = vec![
            0.0,
            -0.0,
            5e-324,
            1e-4,
            9.999999999999999e-5,
            1e16,
            9999999999999998.0,
            -2.5e-7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        let r_values = vec![0.1, 1e-300, 12.600000000000001, 3.0];
        let landscape = crate::Landscape::new(3, r_values, Some(special), None);
        responses.push(WireResponse::Sweep {
            id: "special".to_owned(),
            response: SweepResponse {
                landscape,
                stats: BatchStats {
                    wall_nanos: u128::from(u64::MAX) + 1,
                    ..BatchStats::default()
                },
            },
        });

        let calibrate = engine
            .calibrate(&CalibrateRequest {
                scenario: request.scenario.clone(),
                grid: request.grid.clone(),
                target_n: 2,
                target_r: 1.0,
            })
            .unwrap();
        responses.push(WireResponse::Calibrate {
            id: "k1".to_owned(),
            response: calibrate,
        });
        let frontier = engine
            .frontier(&FrontierRequest {
                scenario: request.scenario.clone(),
                grid: request.grid.clone(),
                x: AxisSpec::new(ParamAxis::ErrorCost, vec![1e3, 1e9, 1e30]),
                y: AxisSpec::new(ParamAxis::ProbeCost, vec![0.5, 2.0]),
            })
            .unwrap();
        assert!(!frontier.points.is_empty());
        responses.push(WireResponse::Frontier {
            id: "f1".to_owned(),
            response: frontier,
        });
        responses.push(WireResponse::error(
            awkward_id,
            &invalid("no sweep with id `\"x\"`\n"),
        ));
        responses.push(WireResponse::Cancelled {
            id: "c1".to_owned(),
            of: awkward_id.to_owned(),
        });
        let mut stats = engine.stats();
        stats.cells_per_worker = vec![0, 7, u64::MAX];
        responses.push(WireResponse::Stats {
            engine: stats,
            pipeline: PipelineStats {
                submitted: 3,
                queue_nanos_max: u64::MAX,
                ..PipelineStats::default()
            },
            depth: 4,
        });
        responses
    }

    #[test]
    fn every_response_line_is_byte_identical_to_the_format_reference() {
        for response in every_response_variant() {
            assert_encodes_like_reference(&response);
        }
    }

    #[test]
    fn a_session_retains_only_its_last_completed_sweeps() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        for k in 0..=RETAINED_SWEEPS {
            let line = handle(&mut session, &sweep_line(&format!("s{k}"))).unwrap();
            assert!(line.contains("\"cells\""), "{line}");
        }
        let evicted = handle(
            &mut session,
            "{\"id\":\"r0\",\"rescore\":{\"of\":\"s0\",\"error_cost\":1e9}}",
        )
        .unwrap();
        assert!(
            evicted.contains(&format!(
                "no sweep with id `s0` among the last {RETAINED_SWEEPS} completed sweeps"
            )),
            "{evicted}"
        );
        let last = format!(
            "{{\"id\":\"r1\",\"rescore\":{{\"of\":\"s{RETAINED_SWEEPS}\",\"error_cost\":1e9}}}}"
        );
        let rescored = handle(&mut session, &last).unwrap();
        let parsed = parse_json(&rescored).unwrap();
        let Some(Json::Arr(cells)) = parsed.get("cells") else {
            panic!("no cells in {rescored}");
        };
        assert_eq!(cells.len(), 9);
        // The rescore is itself a completed sweep, so it evicted `s1`.
        assert_eq!(session.sweeps.len(), RETAINED_SWEEPS);
        assert!(session.sweeps.iter().all(|(id, _)| id != "s1"));
    }

    /// The parser as it was with `String` keys. [`parse_json`] must agree
    /// with it on every input, value for value and error for error.
    mod reference {
        use crate::wire::{err, WireError};

        /// A parsed JSON value. Objects preserve key order.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Json {
            /// `null`.
            Null,
            /// `true` / `false`.
            Bool(bool),
            /// Any JSON number (always an `f64`).
            Num(f64),
            /// A string.
            Str(String),
            /// An array.
            Arr(Vec<Json>),
            /// An object, in source order.
            Obj(Vec<(String, Json)>),
        }

        /// The deepest array/object nesting [`parse_json`] accepts. Request
        /// frames nest about six deep; the bound keeps the recursive parser's
        /// stack use fixed whatever a client sends.
        const MAX_NESTING: usize = 64;

        /// Parses one JSON document (trailing whitespace allowed).
        ///
        /// # Errors
        ///
        /// Returns a [`WireError`] describing the first syntax problem, including
        /// arrays and objects nested deeper than 64 levels.
        pub fn parse_json(input: &str) -> Result<Json, WireError> {
            let bytes = input.as_bytes();
            let mut pos = 0;
            let value = parse_value(bytes, &mut pos, 0)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(err(format!("trailing input at byte {pos}")));
            }
            Ok(value)
        }

        fn skip_ws(bytes: &[u8], pos: &mut usize) {
            while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
                *pos += 1;
            }
        }

        /// Parses the value at `pos`, which sits inside `depth` enclosing arrays
        /// and objects.
        fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, WireError> {
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                None => Err(err("unexpected end of input")),
                Some(b'{' | b'[') if depth >= MAX_NESTING => Err(err(format!(
                    "nesting deeper than {MAX_NESTING} levels at byte {pos}",
                    pos = *pos
                ))),
                Some(b'{') => parse_object(bytes, pos, depth + 1),
                Some(b'[') => parse_array(bytes, pos, depth + 1),
                Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
                Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
                Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
                Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
                Some(_) => parse_number(bytes, pos),
            }
        }

        fn parse_literal(
            bytes: &[u8],
            pos: &mut usize,
            word: &str,
            value: Json,
        ) -> Result<Json, WireError> {
            if bytes[*pos..].starts_with(word.as_bytes()) {
                *pos += word.len();
                Ok(value)
            } else {
                Err(err(format!("expected `{word}` at byte {pos}", pos = *pos)))
            }
        }

        fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("numeric bytes are ASCII");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| err(format!("invalid number `{text}` at byte {start}")))
        }

        fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
            debug_assert_eq!(bytes[*pos], b'"');
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err(err("unterminated string")),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or_else(|| err("truncated \\u escape"))?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| err("bad \\u escape"))?,
                                    16,
                                )
                                .map_err(|_| err("bad \\u escape"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| err("bad \\u code point"))?,
                                );
                                *pos += 4;
                            }
                            _ => return Err(err("bad escape sequence")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume the whole run of plain characters up to the
                        // next quote or backslash in one step, validating UTF-8
                        // once per run. (Per-character validation of the entire
                        // remaining input made string parsing quadratic — fatal
                        // on multi-megabyte response lines.)
                        let start = *pos;
                        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                            *pos += 1;
                        }
                        let run = std::str::from_utf8(&bytes[start..*pos])
                            .map_err(|_| err("invalid UTF-8 in string"))?;
                        out.push_str(run);
                    }
                }
            }
        }

        fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, WireError> {
            *pos += 1; // consume '['
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err("expected `,` or `]` in array")),
                }
            }
        }

        fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, WireError> {
            *pos += 1; // consume '{'
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(err("expected string key in object"));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err("expected `:` after object key"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(err("expected `,` or `}` in object")),
                }
            }
        }
    }

    /// Whether `new` and `old` are the same tree: numbers by their bits,
    /// keys and strings by their text.
    fn same_tree(new: &Json, old: &reference::Json) -> bool {
        match (new, old) {
            (Json::Null, reference::Json::Null) => true,
            (Json::Bool(a), reference::Json::Bool(b)) => a == b,
            (Json::Num(a), reference::Json::Num(b)) => a.to_bits() == b.to_bits(),
            (Json::Str(a), reference::Json::Str(b)) => a == b,
            (Json::Arr(a), reference::Json::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_tree(x, y))
            }
            (Json::Obj(a), reference::Json::Obj(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((kx, x), (ky, y))| kx == ky.as_str() && same_tree(x, y))
            }
            _ => false,
        }
    }

    /// Parses `input` with both parsers: the same tree (and the same
    /// `{:?}`) or the same error message. Returns whether it parsed.
    fn assert_parsers_agree(input: &str) -> bool {
        match (parse_json(input), reference::parse_json(input)) {
            (Ok(new), Ok(old)) => {
                assert!(same_tree(&new, &old), "trees differ for {input:?}");
                assert_eq!(format!("{new:?}"), format!("{old:?}"), "for {input:?}");
                true
            }
            (Err(new), Err(old)) => {
                assert_eq!(new.message, old.message, "for {input:?}");
                false
            }
            (new, old) => panic!("parsers disagree on {input:?}: {new:?} against {old:?}"),
        }
    }

    /// Object keys and strings as JSON source text: inline and boxed
    /// lengths (0, 23, 24 and more bytes), escapes, `\u` forms valid and
    /// not, and non-ASCII text.
    const STRINGS: &[&str] = &[
        "",
        "n",
        "mean_cost",
        "error_probability",
        "cancelled_on_disconnect",
        "cancelled_on_disconnect_",
        "a key well past the twenty-three inline bytes",
        "é",
        "ключ",
        "✓✓✓✓✓✓✓✓",
        "✓✓✓✓✓✓✓ab",
        "\\u00e9",
        "\\u00E9x",
        "\\u0001",
        "\\ud800",
        "\\u12",
        "\\uZZZZ",
        "\\\"quoted\\\"",
        "tab\\there\\n",
        "\\/\\b\\f\\r",
        "\\x",
        "cancelled_on_disconnec\\u0074",
    ];

    /// Numbers as source text, in every form the grammar allows and some
    /// it does not.
    const NUMBERS: &[&str] = &[
        "0",
        "-0",
        "1",
        "-1",
        "0.1",
        "1e400",
        "-1e400",
        "1e-400",
        ".5",
        "5.",
        "+1",
        "1e",
        "--1",
        "1E5",
        "1e+5",
        "1.0e-35",
        "2.0000000000000004",
        "12.600000000000001",
        "5e-324",
        "1.7976931348623157e308",
        "1.2.3",
        "-",
        "0x10",
        "007",
        "1e5e5",
    ];

    /// Bare words: the literals, their truncations and non-JSON words.
    const WORDS: &[&str] = &[
        "true", "false", "null", "tru", "nul", "fals", "NaN", "inf", "x",
    ];

    const SPACES: &[&str] = &["", "", "", " ", "\t", "\n", "\r", "  "];

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    /// Appends one random JSON value (often valid, sometimes not) of at
    /// most `depth` further levels of nesting.
    fn random_value(rng: &mut StdRng, depth: usize, out: &mut String) {
        out.push_str(pick(rng, SPACES));
        match rng.gen_range(0..if depth == 0 { 4u32 } else { 6 }) {
            0 => {
                out.push('"');
                random_text(rng, out);
                out.push('"');
            }
            1 => match rng.gen_range(0..3u32) {
                0 => out.push_str(pick(rng, NUMBERS)),
                1 => out.push_str(&format!("{:?}", f64::from_bits(rng.next_u64()))),
                _ => out.push_str(&format!("{:e}", rng.gen::<f64>() * 1e6)),
            },
            2 => out.push_str(pick(rng, WORDS)),
            3 => out.push_str(&rng.gen_range(0..100_000u64).to_string()),
            4 => {
                out.push('[');
                for k in 0..rng.gen_range(0..5usize) {
                    if k > 0 {
                        out.push(',');
                    }
                    random_value(rng, depth - 1, out);
                }
                out.push_str(pick(rng, SPACES));
                out.push(']');
            }
            _ => {
                out.push('{');
                for k in 0..rng.gen_range(0..5usize) {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(pick(rng, SPACES));
                    out.push('"');
                    random_text(rng, out);
                    out.push('"');
                    out.push_str(pick(rng, SPACES));
                    out.push(':');
                    random_value(rng, depth - 1, out);
                }
                out.push_str(pick(rng, SPACES));
                out.push('}');
            }
        }
        out.push_str(pick(rng, SPACES));
    }

    /// Appends the inside of a random string: a listed case, random
    /// ASCII of 0 to 30 bytes, or both.
    fn random_text(rng: &mut StdRng, out: &mut String) {
        if rng.gen_bool(0.5) {
            out.push_str(pick(rng, STRINGS));
        }
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(0..31usize) {
                out.push(char::from(b'a' + rng.gen_range(0..26u32) as u8));
            }
        }
    }

    /// Fragments spliced into documents: escapes, structure and number
    /// forms.
    const SPLICES: &[&str] = &[
        "\\u00e9", "\\u", "\\uZZZZ", "\\ud800", "\\", "\"", "{", "[", "]", "}", ",", ":", "1e400",
        ".5", "--1", "-0", "é", "\u{1}", " ",
    ];

    /// `doc` with one random edit: a truncation, a replaced or deleted
    /// character, or a spliced fragment. Edits stay on char boundaries,
    /// so the result is still a `str`.
    fn mutate(rng: &mut StdRng, doc: &str) -> String {
        let boundaries: Vec<usize> = doc
            .char_indices()
            .map(|(i, _)| i)
            .chain([doc.len()])
            .collect();
        let at = boundaries[rng.gen_range(0..boundaries.len())];
        let next = doc[at..].chars().next().map_or(at, |c| at + c.len_utf8());
        match rng.gen_range(0..4u32) {
            0 => doc[..at].to_owned(),
            1 => format!("{}{}{}", &doc[..at], pick(rng, SPLICES), &doc[next..]),
            2 => format!("{}{}", &doc[..at], &doc[next..]),
            _ => format!("{}{}{}", &doc[..at], pick(rng, SPLICES), &doc[at..]),
        }
    }

    #[test]
    fn the_parser_agrees_with_the_string_key_reference() {
        // Every response variant, whole and cut at every char boundary.
        for response in every_response_variant() {
            let line = response.to_line();
            assert_parsers_agree(&line);
            for (at, _) in line.char_indices() {
                assert_parsers_agree(&line[..at]);
            }
        }
        // Each listed key, string and number alone and in place.
        for text in STRINGS {
            assert_parsers_agree(&format!("\"{text}\""));
            assert_parsers_agree(&format!("{{\"{text}\":[\"{text}\"]}}"));
        }
        for number in NUMBERS {
            assert_parsers_agree(number);
            assert_parsers_agree(&format!("{{\"n\":{number}}}"));
            assert_parsers_agree(&format!("[{number},{number}]"));
        }
        // Nesting up to, at and past the cap, arrays and objects mixed.
        for depth in [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 1000] {
            assert_parsers_agree(&format!("{}{}", "[".repeat(depth), "]".repeat(depth)));
            assert_parsers_agree(&format!(
                "{}1{}",
                "{\"a\":".repeat(depth),
                "}".repeat(depth)
            ));
            assert_parsers_agree(&format!(
                "{}null{}",
                "[{\"k\":".repeat(depth / 2),
                "}]".repeat(depth / 2)
            ));
        }
        // Random documents and random edits of them and of the answers.
        let answers: Vec<String> = every_response_variant()
            .iter()
            .map(WireResponse::to_line)
            .collect();
        let mut rng = StdRng::seed_from_u64(0x0b1e_c75e);
        let (mut parsed, mut refused) = (0, 0);
        for round in 0..3000 {
            let mut doc = String::new();
            random_value(&mut rng, 4, &mut doc);
            let mut inputs = vec![doc.clone()];
            for _ in 0..4 {
                doc = mutate(&mut rng, &doc);
                inputs.push(doc.clone());
            }
            let mut answer = answers[round % answers.len()].clone();
            for _ in 0..3 {
                answer = mutate(&mut rng, &answer);
                inputs.push(answer.clone());
            }
            for input in &inputs {
                if assert_parsers_agree(input) {
                    parsed += 1;
                } else {
                    refused += 1;
                }
            }
        }
        // Both outcomes must be well represented, or the comparison
        // would show little.
        assert!(
            parsed > 3000 && refused > 3000,
            "{parsed} parsed, {refused} refused"
        );
    }

    #[test]
    fn keys_of_up_to_23_bytes_are_inline_and_read_like_strings() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        let text = "cancelled_on_disconnect_and_more_é✓";
        for (end, _) in text.char_indices().chain([(text.len(), ' ')]) {
            let s = &text[..end];
            for key in [Key::from(s), Key::from(s.to_owned())] {
                assert_eq!(matches!(key.0, KeyRepr::Inline(..)), s.len() <= 23, "{s}");
                assert_eq!(key.as_str(), s);
                assert_eq!(&*key, s);
                assert!(key == *s);
                assert_eq!(key, Key::from(s));
                assert_eq!(format!("{key:?}"), format!("{:?}", s.to_owned()));
            }
        }
        assert_ne!(Key::from("n"), Key::from("r"));
        assert_ne!(Key::from(text), Key::from(&text[1..]));
    }

    #[test]
    fn escaped_text_matches_the_encoder() {
        let awkward = "q\"1\\a\nb\u{1}\t\r\u{1f}\u{7f} é ✓";
        let mut pushed = String::new();
        push_escaped(&mut pushed, awkward);
        assert_eq!(Escaped(awkward).to_string(), pushed);
        assert_eq!(pushed, "q\\\"1\\\\a\\nb\\u0001\\t\\r\\u001f\u{7f} é ✓");
    }
}
