//! Trace records and their JSONL codec.
//!
//! The on-disk trace format is one JSON object per line — the same shape a
//! real instrumentation agent would emit — carrying the event tuple
//! `(task, state, queue, arrival, departure)` plus observation flags:
//!
//! ```text
//! {"task":3,"state":1,"queue":1,"arrival":2.5,"departure":2.75,"arrival_observed":false,"departure_observed":true}
//! ```
//!
//! Every reader and writer of the format goes through this module:
//! [`read_jsonl`] for whole files, [`crate::tail::LineAssembler`] for
//! tailed ones, and [`write_record`] / [`write_jsonl`] for output.
//!
//! # Accepted lines
//!
//! [`parse_record`] reads a line in one pass and allocates nothing for a
//! line like the one above. It accepts:
//!
//! - a UTF-8 line holding one JSON object, with JSON whitespace (space,
//!   tab, `\r`, `\n`) allowed around every token;
//! - the seven keys above, each exactly once, in any order. Keys are JSON
//!   strings and may be escaped: `"t\u0061sk"` is `task`;
//! - any other key, skipped together with its value, which may be any
//!   JSON value nested to any depth;
//! - for `task`, `state` and `queue`, a number holding an integer in
//!   `0..=u32::MAX`. Integral floats such as `1.0` and `1e3` count;
//! - for `arrival` and `departure`, a finite number. An integer literal
//!   is read as `u64`, then `i64`, before `f64`, so `-0` is +0.0 while
//!   `-0.0` is −0.0;
//! - for the two `*_observed` keys, `true` or `false`.
//!
//! A number is an optional `-` followed by a run of `0-9 . e E + -`, read
//! with `str::parse`. That is the vendored `serde_json`'s number grammar,
//! which is looser than JSON's (it takes `00.5`). Strings follow the same
//! scanner: the escapes `\" \\ \/ \b \f \n \r \t \uXXXX`, paired
//! surrogates only.
//!
//! This is what `serde_json::from_str::<TraceRecord>` accepts, with two
//! more rejections: a repeated record key (`serde_json` keeps the first
//! value) and a non-finite time (`serde_json` reads `1e400` as +∞).
//!
//! # Errors
//!
//! A rejected line is a [`RecordError`] that names the byte within the
//! line where reading stopped, or the key that is missing. [`read_jsonl`]
//! wraps it in a [`TraceError::BadLine`] carrying the 1-based line number
//! and the line's byte offset; the tail quarantines it or fails the same
//! way. A line is blank, and skipped by every reader, when `str::trim`
//! leaves it empty; a line that is not UTF-8 is rejected.
//!
//! [`write_record`] writes the keys in the order above, ids in decimal,
//! times with Rust's shortest round-trip `{}` formatting plus `.0` when
//! that has no `.`, `e` or `E`, and `null` for a non-finite time (which
//! no reader accepts back).

use crate::error::TraceError;
use crate::mask::{MaskedLog, ObservedMask};
use qni_model::event::Event;
use qni_model::ids::{EventId, QueueId, StateId, TaskId};
use qni_model::log::{EventLog, EventLogBuilder};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufRead, Write};

/// One line of a trace file.
///
/// The serde derives are not used by the codec; the tests read and write
/// through them to check [`parse_record`] and [`write_record`] against
/// `serde_json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The event tuple.
    #[serde(flatten)]
    pub event: Event,
    /// Whether the arrival time was measured.
    pub arrival_observed: bool,
    /// Whether the departure time was measured.
    pub departure_observed: bool,
}

/// Why [`parse_record`] rejected a line. Offsets are bytes within the
/// line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The line is not UTF-8, not well-formed JSON, or not an object.
    Syntax {
        /// Where reading stopped.
        at: usize,
        /// What was expected or found.
        what: &'static str,
    },
    /// A record key is absent.
    MissingKey {
        /// The absent key.
        key: &'static str,
    },
    /// A record key appears twice.
    RepeatedKey {
        /// Offset of the second occurrence.
        at: usize,
        /// The repeated key.
        key: &'static str,
    },
    /// A record key's value has the wrong type or is out of range.
    BadValue {
        /// Offset of the value.
        at: usize,
        /// The key.
        key: &'static str,
        /// What the key takes.
        expected: &'static str,
    },
    /// A time does not fit a finite `f64`.
    NonFiniteTime {
        /// Offset of the value.
        at: usize,
        /// The time's key.
        key: &'static str,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Syntax { at, what } => write!(f, "{what} at byte {at}"),
            RecordError::MissingKey { key } => write!(f, "missing key `{key}`"),
            RecordError::RepeatedKey { at, key } => write!(f, "repeated key `{key}` at byte {at}"),
            RecordError::BadValue { at, key, expected } => {
                write!(f, "key `{key}` needs {expected} at byte {at}")
            }
            RecordError::NonFiniteTime { at, key } => {
                write!(f, "key `{key}` holds a non-finite time at byte {at}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// The record keys in the order [`write_record`] emits them; a key's
/// index is its slot in the parser's table.
const KEYS: [&str; 7] = [
    "task",
    "state",
    "queue",
    "arrival",
    "departure",
    "arrival_observed",
    "departure_observed",
];
const TASK: usize = 0;
const STATE: usize = 1;
const QUEUE: usize = 2;
const ARRIVAL: usize = 3;
const DEPARTURE: usize = 4;
const ARRIVAL_OBSERVED: usize = 5;
const DEPARTURE_OBSERVED: usize = 6;

/// Length of the longest record key, `departure_observed`.
const MAX_KEY_LEN: usize = 18;

/// Parses one trace line (without its `\n`) into a record; see the
/// [module docs](self) for what is accepted.
pub fn parse_record(line: &[u8]) -> Result<TraceRecord, RecordError> {
    Parser::new(utf8(line)?).record()
}

/// Decodes one line of a trace: `Ok(None)` when it is blank.
pub(crate) fn decode_line(line: &[u8]) -> Result<Option<TraceRecord>, RecordError> {
    let text = utf8(line)?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    Parser::new(text).record().map(Some)
}

fn utf8(line: &[u8]) -> Result<&str, RecordError> {
    std::str::from_utf8(line).map_err(|e| RecordError::Syntax {
        at: e.valid_up_to(),
        what: "invalid UTF-8",
    })
}

/// A number as the vendored `serde_json` reads it: an integer literal as
/// `u64`, else `i64`, else `f64`.
#[derive(Clone, Copy)]
enum Num {
    U64(u64),
    I64(i64),
    F64(f64),
}

impl Num {
    /// The value as an id, under `serde`'s `u64`-then-`u32` conversion.
    fn as_u32(self) -> Option<u32> {
        let v = match self {
            Num::U64(v) => v,
            Num::I64(v) => u64::try_from(v).ok()?,
            Num::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => v as u64,
            Num::F64(_) => return None,
        };
        u32::try_from(v).ok()
    }

    fn as_f64(self) -> f64 {
        match self {
            Num::U64(v) => v as f64,
            Num::I64(v) => v as f64,
            Num::F64(v) => v,
        }
    }
}

/// A cursor over one line.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn syntax(&self, what: &'static str) -> RecordError {
        RecordError::Syntax { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8, what: &'static str) -> Result<(), RecordError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(what))
        }
    }

    fn keyword(&mut self, kw: &[u8]) -> Result<(), RecordError> {
        if self.bytes[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.syntax("invalid token"))
        }
    }

    /// The whole line as a record.
    fn record(mut self) -> Result<TraceRecord, RecordError> {
        // Each record key's value, as raw bits: ids and flags widened,
        // times by `f64::to_bits`.
        let mut got = [None::<u64>; KEYS.len()];
        self.skip_ws();
        self.require(b'{', "expected an object")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let at = self.pos;
                let key = self.key()?;
                self.skip_ws();
                self.require(b':', "expected `:`")?;
                self.skip_ws();
                match key {
                    None => self.skip_value()?,
                    Some(k) if got[k].is_some() => {
                        return Err(RecordError::RepeatedKey { at, key: KEYS[k] });
                    }
                    Some(k) => got[k] = Some(self.value_of(k)?),
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.syntax("expected `,` or `}`")),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.syntax("trailing characters"));
        }
        let mut v = [0u64; KEYS.len()];
        for (k, slot) in got.into_iter().enumerate() {
            v[k] = slot.ok_or(RecordError::MissingKey { key: KEYS[k] })?;
        }
        let id = |k: usize| u32::try_from(v[k]).unwrap_or_default();
        Ok(TraceRecord {
            event: Event {
                task: TaskId(id(TASK)),
                state: StateId(id(STATE)),
                queue: QueueId(id(QUEUE)),
                arrival: f64::from_bits(v[ARRIVAL]),
                departure: f64::from_bits(v[DEPARTURE]),
            },
            arrival_observed: v[ARRIVAL_OBSERVED] != 0,
            departure_observed: v[DEPARTURE_OBSERVED] != 0,
        })
    }

    /// The value of record key `k`, as raw bits.
    fn value_of(&mut self, k: usize) -> Result<u64, RecordError> {
        let at = self.pos;
        let key = KEYS[k];
        let bad = |expected| RecordError::BadValue { at, key, expected };
        let starts_number = matches!(self.peek(), Some(b'-' | b'0'..=b'9'));
        match k {
            TASK | STATE | QUEUE => {
                let expected = "an integer in 0..=4294967295";
                if !starts_number {
                    return Err(bad(expected));
                }
                let id = self.number()?.as_u32().ok_or(bad(expected))?;
                Ok(u64::from(id))
            }
            ARRIVAL | DEPARTURE => {
                if !starts_number {
                    return Err(bad("a number"));
                }
                let t = self.number()?.as_f64();
                if !t.is_finite() {
                    return Err(RecordError::NonFiniteTime { at, key });
                }
                Ok(t.to_bits())
            }
            _ => match self.peek() {
                Some(b't') => self.keyword(b"true").map(|()| 1),
                Some(b'f') => self.keyword(b"false").map(|()| 0),
                _ => Err(bad("`true` or `false`")),
            },
        }
    }

    /// Reads a key: the index of the record key it names, or `None` for
    /// any other key.
    fn key(&mut self) -> Result<Option<usize>, RecordError> {
        let mut name = [0u8; MAX_KEY_LEN];
        let mut len = 0;
        let mut fits = true;
        self.string(|piece| match name.get_mut(len..len + piece.len()) {
            Some(dst) if fits => {
                dst.copy_from_slice(piece);
                len += piece.len();
            }
            _ => fits = false,
        })?;
        let name = &name[..len];
        Ok(KEYS.iter().position(|k| fits && k.as_bytes() == name))
    }

    /// Reads a JSON string, handing its decoded bytes to `sink` piece by
    /// piece.
    fn string(&mut self, mut sink: impl FnMut(&[u8])) -> Result<(), RecordError> {
        self.require(b'"', "expected `\"`")?;
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            sink(&self.bytes[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {
                    self.pos += 1;
                    let c = self.escape()?;
                    sink(c.encode_utf8(&mut [0u8; 4]).as_bytes());
                }
                None => return Err(self.syntax("unterminated string")),
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, RecordError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => match self.hex4()? {
                high @ 0xD800..=0xDBFF => {
                    if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                        return Err(self.syntax("unpaired high surrogate in \\u escape"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(self.syntax("expected low surrogate after high"));
                    }
                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.syntax("invalid surrogate pair"))?
                }
                0xDC00..=0xDFFF => {
                    return Err(self.syntax("unpaired low surrogate in \\u escape"));
                }
                code => char::from_u32(code).ok_or_else(|| self.syntax("invalid \\u escape"))?,
            },
            _ => return Err(self.syntax("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads the four hex digits after the `u` at `pos`, leaving `pos` on
    /// the last digit. Parsed with `from_str_radix`, as the vendored
    /// `serde_json` does.
    fn hex4(&mut self) -> Result<u32, RecordError> {
        let bytes = self.bytes;
        let hex = bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.syntax("truncated \\u escape"))?;
        let code = std::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.syntax("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads a number starting at `pos` (a `-` or a digit).
    fn number(&mut self) -> Result<Num, RecordError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        if !is_float {
            if let Ok(u) = text.parse() {
                return Ok(Num::U64(u));
            }
            if let Ok(i) = text.parse() {
                return Ok(Num::I64(i));
            }
        }
        text.parse()
            .map(Num::F64)
            .map_err(|_| self.syntax("invalid number"))
    }

    /// Skips one JSON value of any kind, checking that it is well formed.
    fn skip_value(&mut self) -> Result<(), RecordError> {
        // The open containers, innermost last: `true` for an object.
        let mut open: Vec<bool> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'n') => self.keyword(b"null")?,
                Some(b't') => self.keyword(b"true")?,
                Some(b'f') => self.keyword(b"false")?,
                Some(b'"') => self.string(|_| {})?,
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(b'[') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        open.push(false);
                        continue;
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                    } else {
                        open.push(true);
                        self.member_key()?;
                        continue;
                    }
                }
                Some(_) => return Err(self.syntax("unexpected byte")),
                None => return Err(self.syntax("unexpected end of input")),
            }
            // A value ended: close the containers it completes, up to
            // the next `,`.
            loop {
                let Some(&object) = open.last() else {
                    return Ok(());
                };
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if object {
                            self.member_key()?;
                        }
                        break;
                    }
                    Some(b'}') if object => self.pos += 1,
                    Some(b']') if !object => self.pos += 1,
                    _ if object => return Err(self.syntax("expected `,` or `}`")),
                    _ => return Err(self.syntax("expected `,` or `]`")),
                }
                open.pop();
            }
        }
    }

    /// Skips an object member's key and its `:`.
    fn member_key(&mut self) -> Result<(), RecordError> {
        self.skip_ws();
        self.string(|_| {})?;
        self.skip_ws();
        self.require(b':', "expected `:`")
    }
}

/// Appends `rec` to `out` as one JSONL line, `\n` included: the bytes
/// `serde_json::to_writer` writes for it, plus the newline (see the
/// [module docs](self)).
pub fn write_record(out: &mut Vec<u8>, rec: &TraceRecord) {
    let e = &rec.event;
    push_fmt(
        out,
        format_args!(
            "{{\"task\":{},\"state\":{},\"queue\":{},\"arrival\":",
            e.task.0, e.state.0, e.queue.0
        ),
    );
    push_time(out, e.arrival);
    out.extend_from_slice(b",\"departure\":");
    push_time(out, e.departure);
    push_fmt(
        out,
        format_args!(
            ",\"arrival_observed\":{},\"departure_observed\":{}}}\n",
            rec.arrival_observed, rec.departure_observed
        ),
    );
}

fn push_time(out: &mut Vec<u8>, t: f64) {
    if !t.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let start = out.len();
    push_fmt(out, format_args!("{t}"));
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

fn push_fmt(out: &mut Vec<u8>, args: fmt::Arguments<'_>) {
    // Writing into a `Vec` cannot fail.
    let _ = out.write_fmt(args);
}

/// Writes a masked log as JSONL, one [`write_record`] line per event.
pub fn write_jsonl<W: Write>(ml: &MaskedLog, mut w: W) -> Result<(), TraceError> {
    let log = ml.ground_truth();
    let mut line = Vec::new();
    for e in log.event_ids() {
        line.clear();
        write_record(&mut line, &record_of(log, ml.mask(), e));
        w.write_all(&line)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads trace records from JSONL, one line at a time, skipping blank
/// lines.
///
/// A rejected line fails the read as [`TraceError::BadLine`] with its
/// 1-based line number and byte offset. Its `path` is `<stream>`: the
/// caller that opened the file fills in the name.
pub fn read_jsonl<R: BufRead>(mut r: R) -> Result<Vec<TraceRecord>, TraceError> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut line = 0u64;
    let mut offset = 0u64;
    loop {
        buf.clear();
        let n = r.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(out);
        }
        line += 1;
        match decode_line(buf.strip_suffix(b"\n").unwrap_or(&buf)) {
            Ok(Some(rec)) => out.push(rec),
            Ok(None) => {}
            Err(e) => {
                return Err(TraceError::BadLine {
                    path: "<stream>".to_string(),
                    line,
                    offset,
                    message: e.to_string(),
                })
            }
        }
        offset += n as u64;
    }
}

/// Reconstructs a [`MaskedLog`] from trace records.
///
/// Records must describe complete tasks (each task's events contiguous in
/// task order, starting with its `q0` initial event), which is how
/// [`write_jsonl`] emits them. A task without a `q0` record fails as
/// [`TraceError::MissingEntry`]; one the log builder rejects (a task with
/// no visit, say) as [`TraceError::Model`].
pub fn from_records(records: &[TraceRecord], num_queues: usize) -> Result<MaskedLog, TraceError> {
    // Group by task preserving order.
    let mut by_task: Vec<Vec<&TraceRecord>> = Vec::new();
    for rec in records {
        let idx = rec.event.task.index();
        if by_task.len() <= idx {
            by_task.resize_with(idx + 1, Vec::new);
        }
        by_task[idx].push(rec);
    }
    let initial_state = records
        .iter()
        .find(|r| r.event.is_initial())
        .map(|r| r.event.state)
        .unwrap_or(StateId(0));
    let mut builder = EventLogBuilder::new(num_queues, initial_state);
    let mut flags: Vec<(bool, bool)> = Vec::with_capacity(records.len());
    for (task, recs) in by_task.iter().enumerate() {
        let initial =
            recs.iter()
                .find(|r| r.event.is_initial())
                .ok_or(TraceError::MissingEntry {
                    task: TaskId::from_index(task),
                })?;
        let visits: Vec<_> = recs
            .iter()
            .filter(|r| !r.event.is_initial())
            .map(|r| {
                (
                    r.event.state,
                    r.event.queue,
                    r.event.arrival,
                    r.event.departure,
                )
            })
            .collect();
        flags.push((initial.arrival_observed, initial.departure_observed));
        for r in recs.iter().filter(|r| !r.event.is_initial()) {
            flags.push((r.arrival_observed, r.departure_observed));
        }
        builder.add_task(initial.event.departure, &visits)?;
    }
    let log = builder.build()?;
    let mut mask = ObservedMask::unobserved(log.num_events());
    for (i, &(a, d)) in flags.iter().enumerate() {
        let e = EventId::from_index(i);
        if a {
            mask.observe_arrival(e);
        }
        if d {
            mask.observe_departure(e);
        }
    }
    MaskedLog::new(log, mask)
}

/// Convenience: extracts the full event list of a log as records with the
/// given mask.
pub fn to_records(log: &EventLog, mask: &ObservedMask) -> Vec<TraceRecord> {
    log.event_ids().map(|e| record_of(log, mask, e)).collect()
}

fn record_of(log: &EventLog, mask: &ObservedMask, e: EventId) -> TraceRecord {
    TraceRecord {
        event: *log.event(e),
        arrival_observed: mask.arrival_observed(e),
        departure_observed: mask.departure_observed(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationScheme;
    use qni_model::topology::tandem;
    use qni_model::ModelError;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;

    fn masked() -> MaskedLog {
        let bp = tandem(2.0, &[5.0, 6.0]).unwrap();
        let mut rng = rng_from_seed(1);
        let log = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 40).unwrap(), &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(log, &mut rng_from_seed(2))
            .unwrap()
    }

    const LINE: &str = r#"{"task":3,"state":1,"queue":2,"arrival":2.5,"departure":2.75,"arrival_observed":false,"departure_observed":true}"#;

    #[test]
    fn jsonl_round_trip() {
        let ml = masked();
        let mut buf = Vec::new();
        write_jsonl(&ml, &mut buf).unwrap();
        let records = read_jsonl(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(records.len(), ml.ground_truth().num_events());
        let rebuilt = from_records(&records, ml.ground_truth().num_queues()).unwrap();
        let (a, b) = (ml.ground_truth(), rebuilt.ground_truth());
        assert_eq!(a.num_events(), b.num_events());
        for e in a.event_ids() {
            assert_eq!(a.event(e), b.event(e));
            assert_eq!(
                ml.mask().arrival_observed(e),
                rebuilt.mask().arrival_observed(e)
            );
            assert_eq!(
                ml.mask().departure_observed(e),
                rebuilt.mask().departure_observed(e)
            );
        }
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let ml = masked();
        let mut buf = Vec::new();
        write_jsonl(&ml, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n\n");
        let records = read_jsonl(std::io::Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(records.len(), ml.ground_truth().num_events());
    }

    #[test]
    fn rejects_garbage() {
        let r = read_jsonl(std::io::Cursor::new(b"{not json}\n".as_slice()));
        assert!(r.is_err());
    }

    #[test]
    fn record_fields_flattened() {
        let ml = masked();
        let recs = to_records(ml.ground_truth(), ml.mask());
        let json = serde_json::to_string(&recs[0]).unwrap();
        // The event tuple is inlined, not nested under "event".
        assert!(json.contains("\"task\""));
        assert!(json.contains("\"arrival\""));
        assert!(!json.contains("\"event\""));
    }

    #[test]
    fn parses_the_documented_line() {
        let rec = parse_record(LINE.as_bytes()).unwrap();
        assert_eq!(rec.event.task, TaskId(3));
        assert_eq!(rec.event.queue, QueueId(2));
        assert_eq!(rec.event.departure, 2.75);
        assert!(!rec.arrival_observed && rec.departure_observed);
        let mut out = Vec::new();
        write_record(&mut out, &rec);
        assert_eq!(out, format!("{LINE}\n").into_bytes());
    }

    #[test]
    fn keys_in_any_order_escaped_or_unknown() {
        let line = r#" { "departure_observed" : true, "x": [1, {"a": [null, "\"]"]}],
            "departure":2.75, "queue":2.0, "state":1, "task":3, "arrival":25e-1,
            "arrival_observed":false } "#;
        assert_eq!(parse_record(line.as_bytes()), parse_record(LINE.as_bytes()));
    }

    #[test]
    fn integer_literals_go_through_u64_then_i64() {
        let line = LINE.replace("2.5", "-0").replace("2.75", "-0.0");
        let rec = parse_record(line.as_bytes()).unwrap();
        assert_eq!(rec.event.arrival.to_bits(), 0.0f64.to_bits());
        assert_eq!(rec.event.departure.to_bits(), (-0.0f64).to_bits());
        let line = LINE.replace("\"task\":3", "\"task\":1e3");
        assert_eq!(
            parse_record(line.as_bytes()).unwrap().event.task,
            TaskId(1000)
        );
    }

    #[test]
    fn rejections_are_typed() {
        let at = |line: &str, pat: &str| line.find(pat).unwrap();
        let line = LINE.replace("2.5", "1e400");
        let want = RecordError::NonFiniteTime {
            at: at(&line, "1e400"),
            key: "arrival",
        };
        assert_eq!(parse_record(line.as_bytes()), Err(want));
        let line = LINE.replace('{', "{\"task\":7,");
        let want = RecordError::RepeatedKey {
            at: at(&line, "\"task\":3"),
            key: "task",
        };
        assert_eq!(parse_record(line.as_bytes()), Err(want));
        let line = LINE.replace(",\"departure_observed\":true", "");
        let want = RecordError::MissingKey {
            key: "departure_observed",
        };
        assert_eq!(parse_record(line.as_bytes()), Err(want));
        let line = LINE.replace("\"task\":3", "\"task\":-1");
        let want = RecordError::BadValue {
            at: at(&line, "-1"),
            key: "task",
            expected: "an integer in 0..=4294967295",
        };
        assert_eq!(parse_record(line.as_bytes()), Err(want));
        let line = LINE.replace("false", "0");
        let want = RecordError::BadValue {
            at: at(&line, "0,"),
            key: "arrival_observed",
            expected: "`true` or `false`",
        };
        assert_eq!(parse_record(line.as_bytes()), Err(want));
        let line = format!("{LINE} x");
        let want = RecordError::Syntax {
            at: LINE.len() + 1,
            what: "trailing characters",
        };
        assert_eq!(parse_record(line.as_bytes()), Err(want));
        assert!(matches!(
            parse_record(b"{\"task\":\xff}"),
            Err(RecordError::Syntax { at: 8, .. })
        ));
    }

    #[test]
    fn malformed_unknown_values_are_rejected_like_serde_json() {
        for value in [
            "[1 2]",
            "[null true]",
            "[1,]",
            "[,1]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1:2}",
            "[\"a\"\"b\"]",
            "tru",
            "nul",
            "-",
            "1.2.3",
            "\"\\x\"",
            "\"\\ud800\"",
            "[[]",
            "{\"a\":[}]",
        ] {
            let line = LINE.replacen('{', &format!("{{\"x\":{value},"), 1);
            assert!(parse_record(line.as_bytes()).is_err(), "{line}");
            assert!(
                serde_json::from_str::<TraceRecord>(&line).is_err(),
                "{line}"
            );
        }
        for value in [
            "[1,[2,{\"a\":[]}],\"]\"]",
            "{}",
            "[]",
            "-0",
            "00.5",
            "1e400",
            "\"\\ud83d\\ude00\"",
        ] {
            let line = LINE.replacen('{', &format!("{{\"x\":{value},"), 1);
            assert_eq!(
                parse_record(line.as_bytes()),
                parse_record(LINE.as_bytes()),
                "{line}"
            );
        }
    }

    #[test]
    fn read_errors_name_line_and_offset() {
        let ml = masked();
        let mut buf = Vec::new();
        write_jsonl(&ml, &mut buf).unwrap();
        let fifth_end = buf
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(4)
            .unwrap()
            .0;
        let sixth_start = fifth_end + 1;
        let sixth_end = sixth_start + buf[sixth_start..].iter().position(|&b| b == b'\n').unwrap();
        buf.splice(sixth_end..sixth_end, b" junk".iter().copied());
        match read_jsonl(std::io::Cursor::new(&buf)) {
            Err(TraceError::BadLine {
                line,
                offset,
                message,
                ..
            }) => {
                assert_eq!(line, 6);
                assert_eq!(offset, sixth_start as u64);
                assert!(message.starts_with("trailing characters"), "{message}");
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn malformed_tasks_are_typed_errors() {
        let ml = masked();
        let records = to_records(ml.ground_truth(), ml.mask());
        let nq = ml.ground_truth().num_queues();
        // Task 1 cut to its q0 record: the builder's empty-path error.
        let first_of_task1 = records
            .iter()
            .position(|r| r.event.task == TaskId(1))
            .unwrap();
        let cut = &records[..=first_of_task1];
        assert!(matches!(
            from_records(cut, nq),
            Err(TraceError::Model(ModelError::EmptyTask(TaskId(1))))
        ));
        // Task 2 without its q0 record.
        let dropped: Vec<_> = records
            .iter()
            .filter(|r| !(r.event.task == TaskId(2) && r.event.is_initial()))
            .copied()
            .collect();
        let err = from_records(&dropped, nq).unwrap_err();
        assert!(matches!(err, TraceError::MissingEntry { task: TaskId(2) }));
        assert!(err.to_string().contains("k2"), "{err}");
    }
}
