//! Incremental append/tail-follow reading of JSONL traces — the
//! ingestion side of live monitoring.
//!
//! A [`TailReader`] polls a growing JSONL file: each [`TailReader::poll`]
//! consumes whatever bytes were appended since the last poll, reassembles
//! them into complete lines, and parses each line into a
//! [`TraceRecord`]. A partial trailing line (the writer is mid-append)
//! is buffered and completed by a later poll, so records are never torn.
//! The reader detects truncation/rotation — the file shrinking below
//! its offset — as a hard [`TraceError::Truncated`] by default.
//!
//! [`TailOptions`] opts into production-hardening behavior, all off by
//! default:
//!
//! - [`RotationPolicy::Follow`] treats a shrunk file as a
//!   copytruncate-style rotation: the held partial line is kept (its
//!   continuation is the new file's first bytes) and reading restarts
//!   from offset 0, so the concatenation of consumed bytes stays the
//!   logical full stream.
//! - [`RetryPolicy`] retries transient I/O errors with bounded,
//!   deterministic exponential backoff. The library never sleeps or
//!   reads a clock itself (QNI-D001): pacing goes through an injected
//!   [`SleepFn`], `None` meaning immediate retries.
//! - [`TailOptions::max_bad_lines`] is a quarantine budget: up to that
//!   many unparseable lines are skipped and counted
//!   ([`TailStats::bad_lines`]) instead of aborting the stream; the
//!   budget's first over-run is a hard [`TraceError::BadLine`] naming
//!   the exact line and byte offset.
//!
//! [`TailReader::snapshot`] captures the full resume state (offset,
//! held partial line, line counter, fault counters) as a serializable
//! [`TailSnapshot`]; [`TailReader::restore`] reconstructs a reader that
//! continues byte-exactly where the snapshot was taken — the ingestion
//! half of `qni watch`'s crash-safe checkpoints.
//!
//! The line-level reassembly lives in [`LineAssembler`], which is pure
//! (bytes in, records out) so chunked reads are property-testable
//! against a one-shot parse without touching the filesystem. File
//! access goes through the [`TailSource`] trait so fault-injection
//! harnesses ([`crate::fault`]) can wrap the real filesystem with
//! deterministic transient failures.

use crate::error::TraceError;
use crate::record::{decode_line, RecordError, TraceRecord};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Reassembles arbitrarily chunked bytes into parsed JSONL records.
///
/// Feed it byte chunks in file order; it splits on `\n`, parses each
/// complete non-blank line, and buffers a trailing partial line until a
/// later chunk completes it. Splitting any byte stream into chunks —
/// at any boundaries, including mid-UTF-8 — yields the same records as
/// parsing the whole stream at once.
#[derive(Debug, Default)]
pub struct LineAssembler {
    pending: Vec<u8>,
}

/// The parse outcome of one completed line (see [`LineAssembler::drain`]).
#[derive(Debug)]
pub enum LineOutcome {
    /// The line parsed into a record.
    Record(TraceRecord),
    /// The line was blank (skipped, matching [`crate::record::read_jsonl`]).
    Blank,
    /// The line was rejected (see [`crate::record`] for what is accepted).
    Bad(RecordError),
}

impl LineOutcome {
    fn of(line: &[u8]) -> Self {
        match decode_line(line) {
            Ok(Some(rec)) => LineOutcome::Record(rec),
            Ok(None) => LineOutcome::Blank,
            Err(e) => LineOutcome::Bad(e),
        }
    }
}

/// One line completed by [`LineAssembler::drain`], with the byte length
/// it consumed so callers can track per-line offsets.
#[derive(Debug)]
pub struct DrainedLine {
    /// The parse outcome.
    pub outcome: LineOutcome,
    /// Bytes the line consumed: any carried partial-line prefix plus
    /// the terminating newline.
    pub len: usize,
}

impl LineAssembler {
    /// Creates an assembler with an empty buffer.
    pub fn new() -> Self {
        LineAssembler::default()
    }

    /// Creates an assembler holding `pending` as its incomplete trailing
    /// line (the restore side of a tail snapshot).
    pub fn with_pending(pending: Vec<u8>) -> Self {
        LineAssembler { pending }
    }

    /// Number of buffered bytes belonging to an incomplete trailing
    /// line.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// The buffered incomplete trailing line itself.
    pub fn pending(&self) -> &[u8] {
        &self.pending
    }

    /// Consumes one chunk, reporting every line it completed — good,
    /// blank, or bad — without failing on the bad ones. The caller
    /// decides quarantine policy; [`LineAssembler::push`] is the
    /// fail-fast wrapper.
    ///
    /// Lines are parsed where they lie in `chunk`; only a line split
    /// across chunks is copied, into the reused pending buffer.
    pub fn drain(&mut self, chunk: &[u8]) -> Vec<DrainedLine> {
        let mut out = Vec::new();
        let mut rest = chunk;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let line = &rest[..nl];
            rest = &rest[nl + 1..];
            if self.pending.is_empty() {
                out.push(DrainedLine {
                    outcome: LineOutcome::of(line),
                    len: nl + 1,
                });
            } else {
                self.pending.extend_from_slice(line);
                out.push(DrainedLine {
                    outcome: LineOutcome::of(&self.pending),
                    len: self.pending.len() + 1,
                });
                self.pending.clear();
            }
        }
        self.pending.extend_from_slice(rest);
        out
    }

    /// Consumes one chunk, returning every record whose line was
    /// completed by it. Blank lines are skipped (matching
    /// [`crate::record::read_jsonl`]); the first bad line fails the
    /// whole push.
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
        let mut out = Vec::new();
        let mut offset = 0u64;
        for (i, done) in self.drain(chunk).into_iter().enumerate() {
            match done.outcome {
                LineOutcome::Record(rec) => out.push(rec),
                LineOutcome::Blank => {}
                LineOutcome::Bad(e) => {
                    return Err(TraceError::BadLine {
                        path: "<stream>".to_string(),
                        line: i as u64 + 1,
                        offset,
                        message: e.to_string(),
                    });
                }
            }
            offset += done.len as u64;
        }
        Ok(out)
    }
}

/// How [`TailReader::poll`] reacts to the file shrinking below the
/// consumed offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RotationPolicy {
    /// Shrinking is a hard [`TraceError::Truncated`] (the default): the
    /// bytes already consumed no longer exist, so the only safe recovery
    /// is an operator-driven restart.
    #[default]
    Strict,
    /// Shrinking is a copytruncate-style rotation: keep the held partial
    /// line (the writer continues the logical stream in the new file)
    /// and restart reading from offset 0. Requires a writer that
    /// truncates in place and keeps appending — `logrotate`'s
    /// `copytruncate` mode, or the harness in [`crate::fault`].
    Follow,
}

/// An injected millisecond sleeper for retry backoff. The library never
/// sleeps itself (determinism contract): binaries pass a
/// `std::thread::sleep` wrapper, tests pass nothing (immediate retry)
/// or a recorder.
pub type SleepFn = fn(u64);

/// Backoff before the first retry, in milliseconds.
const BACKOFF_BASE_MS: u64 = 10;
/// Backoff cap, in milliseconds.
const BACKOFF_MAX_MS: u64 = 1000;

/// Bounded deterministic retry for transient I/O errors: attempt `n`
/// (1-based) sleeps `10 ms × 2^(n-1)`, capped at 1 s, before retrying,
/// up to `max_attempts` total attempts. The delay sequence is a pure
/// function of the policy — no clock, no jitter — so retries never
/// perturb the byte-identity contract.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retry, the default).
    pub max_attempts: u32,
    /// Injected sleeper; `None` retries immediately.
    pub sleep: Option<SleepFn>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            sleep: None,
        }
    }
}

/// Hardening options for [`TailReader`]; the default reproduces the
/// original fail-fast behavior exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct TailOptions {
    /// Reaction to the file shrinking (rotation vs. hard error).
    pub rotation: RotationPolicy,
    /// Transient I/O retry policy.
    pub retry: RetryPolicy,
    /// Quarantine budget: how many unparseable lines may be skipped
    /// (and counted) before the next one becomes a hard
    /// [`TraceError::BadLine`]. `0` (the default) fails on the first.
    pub max_bad_lines: u64,
}

/// Fault counters accumulated by a [`TailReader`] over its lifetime
/// (and across [`TailReader::restore`], which carries them forward).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailStats {
    /// Unparseable lines skipped under the quarantine budget.
    pub bad_lines: u64,
    /// Rotations followed under [`RotationPolicy::Follow`].
    pub rotations: u64,
    /// Transient I/O errors absorbed by retries.
    pub retries: u64,
}

/// The full serializable resume state of a [`TailReader`] — everything
/// needed to continue the tail byte-exactly after a crash.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TailSnapshot {
    /// Byte offset the next poll resumes from.
    pub offset: u64,
    /// Held bytes of an incomplete trailing line.
    pub pending: Vec<u8>,
    /// Completed lines so far (resumed line numbering stays global).
    pub line_number: u64,
    /// Quarantined bad lines so far (the budget is charged against the
    /// lifetime count, not per process).
    pub bad_lines: u64,
    /// Rotations followed so far.
    pub rotations: u64,
    /// Transient I/O errors retried so far.
    pub retries: u64,
}

/// Byte source a [`TailReader`] polls. The filesystem implementation is
/// [`FsSource`]; fault-injection harnesses wrap one (see
/// [`crate::fault::FaultSource`]).
pub trait TailSource: std::fmt::Debug + Send {
    /// Current byte length, or `None` if the source does not exist yet.
    fn size(&mut self) -> std::io::Result<Option<u64>>;
    /// Reads from `offset` to the current end into `buf` (appending).
    fn read_from(&mut self, offset: u64, buf: &mut Vec<u8>) -> std::io::Result<usize>;
    /// Human-readable source name for error context.
    fn label(&self) -> String;
}

/// The real-filesystem [`TailSource`]: a path polled with
/// metadata + seek + read.
#[derive(Debug)]
pub struct FsSource {
    path: PathBuf,
}

impl FsSource {
    /// Wraps a path (which does not need to exist yet).
    pub fn new<P: AsRef<Path>>(path: P) -> Self {
        FsSource {
            path: path.as_ref().to_path_buf(),
        }
    }
}

impl TailSource for FsSource {
    fn size(&mut self) -> std::io::Result<Option<u64>> {
        match std::fs::metadata(&self.path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn read_from(&mut self, offset: u64, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(offset))?;
        file.read_to_end(buf)
    }

    fn label(&self) -> String {
        self.path.display().to_string()
    }
}

/// Runs one source operation under the retry policy: transient errors
/// are absorbed (counted, backed off deterministically) until the
/// attempt budget runs out, when the last error surfaces as a
/// located [`TraceError::IoAt`].
fn with_retry<T>(
    source: &mut dyn TailSource,
    retry: &RetryPolicy,
    stats: &mut TailStats,
    offset: u64,
    mut op: impl FnMut(&mut dyn TailSource) -> std::io::Result<T>,
) -> Result<T, TraceError> {
    let attempts = retry.max_attempts.max(1);
    let mut delay = BACKOFF_BASE_MS;
    let mut attempt = 1u32;
    loop {
        match op(source) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt >= attempts {
                    return Err(TraceError::IoAt {
                        path: source.label(),
                        offset,
                        source: e,
                    });
                }
                attempt += 1;
                stats.retries += 1;
                if let Some(sleep) = retry.sleep {
                    sleep(delay.min(BACKOFF_MAX_MS));
                }
                delay = delay.saturating_mul(2);
            }
        }
    }
}

/// Polls a JSONL trace file for appended records (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct TailReader {
    source: Box<dyn TailSource>,
    opts: TailOptions,
    offset: u64,
    assembler: LineAssembler,
    line_number: u64,
    stats: TailStats,
}

impl TailReader {
    /// Tails `path` from the beginning. The file does not need to exist
    /// yet: polls before it appears simply return no records.
    pub fn new<P: AsRef<Path>>(path: P) -> Self {
        TailReader::with_options(path, TailOptions::default())
    }

    /// Tails `path` from the beginning under explicit hardening options.
    pub fn with_options<P: AsRef<Path>>(path: P, opts: TailOptions) -> Self {
        TailReader::from_source(Box::new(FsSource::new(path)), opts)
    }

    /// Tails an arbitrary [`TailSource`] (fault-injection harnesses
    /// wrap the filesystem source).
    pub fn from_source(source: Box<dyn TailSource>, opts: TailOptions) -> Self {
        TailReader {
            source,
            opts,
            offset: 0,
            assembler: LineAssembler::new(),
            line_number: 0,
            stats: TailStats::default(),
        }
    }

    /// Reconstructs the reader a [`TailSnapshot`] was taken from,
    /// continuing byte-exactly: offset, held partial line, line
    /// numbering, and fault counters all carry forward.
    pub fn restore<P: AsRef<Path>>(path: P, snapshot: &TailSnapshot, opts: TailOptions) -> Self {
        TailReader::restore_source(Box::new(FsSource::new(path)), snapshot, opts)
    }

    /// [`TailReader::restore`] over an arbitrary [`TailSource`].
    pub fn restore_source(
        source: Box<dyn TailSource>,
        snapshot: &TailSnapshot,
        opts: TailOptions,
    ) -> Self {
        TailReader {
            source,
            opts,
            offset: snapshot.offset,
            assembler: LineAssembler::with_pending(snapshot.pending.clone()),
            line_number: snapshot.line_number,
            stats: TailStats {
                bad_lines: snapshot.bad_lines,
                rotations: snapshot.rotations,
                retries: snapshot.retries,
            },
        }
    }

    /// Captures the full resume state (see [`TailSnapshot`]).
    pub fn snapshot(&self) -> TailSnapshot {
        TailSnapshot {
            offset: self.offset,
            pending: self.assembler.pending().to_vec(),
            line_number: self.line_number,
            bad_lines: self.stats.bad_lines,
            rotations: self.stats.rotations,
            retries: self.stats.retries,
        }
    }

    /// The byte offset the next poll resumes from (counts every consumed
    /// byte, including any buffered partial line).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Bytes buffered from an incomplete trailing line.
    pub fn pending_bytes(&self) -> usize {
        self.assembler.pending_bytes()
    }

    /// Lifetime fault counters (quarantined lines, rotations, retries).
    pub fn stats(&self) -> TailStats {
        self.stats
    }

    /// Reads and parses everything appended since the last poll.
    ///
    /// - The file not existing yet is not an error: returns no records.
    /// - The file shrinking below the consumed offset is
    ///   [`TraceError::Truncated`] under [`RotationPolicy::Strict`], a
    ///   followed rotation under [`RotationPolicy::Follow`].
    /// - Transient I/O errors retry per the [`RetryPolicy`]; exhaustion
    ///   surfaces as [`TraceError::IoAt`].
    /// - Unparseable lines are quarantined up to
    ///   [`TailOptions::max_bad_lines`], then fail as
    ///   [`TraceError::BadLine`].
    pub fn poll(&mut self) -> Result<Vec<TraceRecord>, TraceError> {
        let len = with_retry(
            self.source.as_mut(),
            &self.opts.retry,
            &mut self.stats,
            self.offset,
            |s| s.size(),
        )?;
        let Some(len) = len else {
            return Ok(Vec::new());
        };
        if len < self.offset {
            match self.opts.rotation {
                RotationPolicy::Strict => {
                    return Err(TraceError::Truncated {
                        offset: self.offset,
                        len,
                    });
                }
                RotationPolicy::Follow => {
                    // Copytruncate rotation: the writer reset the file and
                    // continues the logical stream there. Keep the held
                    // partial line — its continuation is the new file's
                    // first bytes — and restart reading at 0, so the
                    // concatenation of consumed bytes stays the full
                    // logical trace.
                    self.stats.rotations += 1;
                    self.offset = 0;
                }
            }
        }
        if len == self.offset {
            return Ok(Vec::new());
        }
        let mut chunk: Vec<u8> = Vec::with_capacity((len - self.offset) as usize);
        let offset = self.offset;
        {
            let buf = &mut chunk;
            with_retry(
                self.source.as_mut(),
                &self.opts.retry,
                &mut self.stats,
                offset,
                |s| {
                    buf.clear();
                    s.read_from(offset, buf).map(|_| ())
                },
            )?;
        }
        let base = self.offset;
        let carried = self.assembler.pending_bytes() as u64;
        self.offset += chunk.len() as u64;
        // Best-effort line-start offsets: a line straddling a followed
        // rotation began in the previous file, so its start saturates
        // to the new file's origin.
        let mut line_start = base.saturating_sub(carried);
        let mut out = Vec::new();
        for done in self.assembler.drain(&chunk) {
            self.line_number += 1;
            match done.outcome {
                LineOutcome::Record(rec) => out.push(rec),
                LineOutcome::Blank => {}
                LineOutcome::Bad(e) => {
                    if self.stats.bad_lines >= self.opts.max_bad_lines {
                        return Err(TraceError::BadLine {
                            path: self.source.label(),
                            line: self.line_number,
                            offset: line_start,
                            message: e.to_string(),
                        });
                    }
                    self.stats.bad_lines += 1;
                }
            }
            line_start += done.len as u64;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationScheme;
    use crate::record::{read_jsonl, to_records, write_jsonl};
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;
    use std::io::Write;

    fn sample_masked(n: usize, seed: u64) -> crate::mask::MaskedLog {
        let bp = tandem(2.0, &[6.0, 8.0]).unwrap();
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, n).unwrap(), &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap()
    }

    fn sample_records(n: usize, seed: u64) -> Vec<TraceRecord> {
        let ml = sample_masked(n, seed);
        to_records(ml.ground_truth(), ml.mask())
    }

    fn jsonl_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_jsonl(&sample_masked(n, seed), &mut buf).unwrap();
        buf
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qni-tail-{}-{name}.jsonl", std::process::id()));
        p
    }

    #[test]
    fn empty_or_missing_file_at_startup_yields_no_records() {
        let path = tmp_path("missing");
        let _ = std::fs::remove_file(&path);
        let mut tail = TailReader::new(&path);
        assert!(tail.poll().unwrap().is_empty());
        assert_eq!(tail.offset(), 0);
        // Now it exists but is empty.
        std::fs::write(&path, b"").unwrap();
        assert!(tail.poll().unwrap().is_empty());
        assert_eq!(tail.offset(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_between_polls_are_picked_up() {
        let records = sample_records(12, 1);
        let bytes = jsonl_bytes(12, 1);
        let path = tmp_path("appends");
        let _ = std::fs::remove_file(&path);
        let mut tail = TailReader::new(&path);
        let mut seen = Vec::new();
        // Append in three slices of whole lines, polling in between.
        let cut1 = bytes.len() / 3;
        let cut1 = bytes[..cut1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let cut2 = 2 * bytes.len() / 3;
        let cut2 = bytes[..cut2].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        for range in [0..cut1, cut1..cut2, cut2..bytes.len()] {
            f.write_all(&bytes[range]).unwrap();
            f.flush().unwrap();
            seen.extend(tail.poll().unwrap());
        }
        assert_eq!(seen.len(), records.len());
        assert_eq!(seen, records);
        assert_eq!(tail.offset(), bytes.len() as u64);
        assert_eq!(tail.pending_bytes(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_trailing_line_is_held_until_completed() {
        let records = sample_records(6, 2);
        let bytes = jsonl_bytes(6, 2);
        let path = tmp_path("partial");
        // Cut mid-line: stop 7 bytes after the second newline.
        let second_nl = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let cut = second_nl + 8;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut tail = TailReader::new(&path);
        let first = tail.poll().unwrap();
        assert_eq!(first.len(), 2, "only complete lines parse");
        assert!(tail.pending_bytes() > 0);
        // Re-polling without growth returns nothing and stays put.
        assert!(tail.poll().unwrap().is_empty());
        // Complete the file; the held fragment joins the rest.
        std::fs::write(&path, &bytes).unwrap();
        let rest = tail.poll().unwrap();
        assert_eq!(first.len() + rest.len(), records.len());
        let all: Vec<_> = first.into_iter().chain(rest).collect();
        assert_eq!(all, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_a_hard_error() {
        let records = sample_records(8, 3);
        let bytes = jsonl_bytes(8, 3);
        let path = tmp_path("truncated");
        std::fs::write(&path, &bytes).unwrap();
        let mut tail = TailReader::new(&path);
        assert_eq!(tail.poll().unwrap().len(), records.len());
        // The writer rotates the file: shorter content appears.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match tail.poll() {
            Err(TraceError::Truncated { offset, len }) => {
                assert_eq!(offset, bytes.len() as u64);
                assert_eq!(len, (bytes.len() / 2) as u64);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Recovery: restart from offset 0.
        let mut tail = TailReader::new(&path);
        assert!(!tail.poll().unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_from_offset_skips_consumed_records() {
        let bytes = jsonl_bytes(10, 4);
        let path = tmp_path("resume");
        std::fs::write(&path, &bytes).unwrap();
        let mut tail = TailReader::new(&path);
        let all = tail.poll().unwrap();
        let checkpoint = tail.snapshot();
        // A new reader restored at the final offset sees nothing new...
        let mut resumed = TailReader::restore(&path, &checkpoint, TailOptions::default());
        assert!(resumed.poll().unwrap().is_empty());
        // ...until more is appended.
        let more = jsonl_bytes(10, 4);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&more).unwrap();
        f.flush().unwrap();
        let extra = resumed.poll().unwrap();
        assert_eq!(extra.len(), all.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn blank_lines_and_invalid_json_behave_like_read_jsonl() {
        let records = sample_records(4, 5);
        let mut bytes = jsonl_bytes(4, 5);
        bytes.extend_from_slice(b"\n  \n");
        let mut asm = LineAssembler::new();
        let parsed = asm.push(&bytes).unwrap();
        assert_eq!(parsed.len(), records.len());
        // Cross-check against the one-shot reader.
        let oneshot = read_jsonl(&bytes[..]).unwrap();
        assert_eq!(parsed, oneshot);
        // Garbage fails cleanly.
        let mut asm = LineAssembler::new();
        assert!(asm.push(b"{not json}\n").is_err());
        let mut asm = LineAssembler::new();
        assert!(asm.push(&[0xff, 0xfe, b'\n']).is_err());
    }

    /// Rotation mid-partial-line under `Follow`: the writer truncates
    /// while the reader holds an incomplete line whose continuation
    /// lands at the new file's offset 0 — the concatenated stream must
    /// reproduce the one-shot parse exactly.
    #[test]
    fn followed_rotation_mid_partial_line_reassembles_the_stream() {
        let records = sample_records(10, 6);
        let bytes = jsonl_bytes(10, 6);
        let path = tmp_path("rotate-follow");
        // Cut mid-line past the halfway point so the post-rotation file
        // (the remaining bytes) is shorter than the consumed offset.
        let mut cut = 2 * bytes.len() / 3;
        while bytes[cut - 1] == b'\n' {
            cut += 1;
        }
        assert!(bytes.len() - cut < cut, "rotation must shrink the file");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let opts = TailOptions {
            rotation: RotationPolicy::Follow,
            ..TailOptions::default()
        };
        let mut tail = TailReader::with_options(&path, opts);
        let mut seen = tail.poll().unwrap();
        assert!(tail.pending_bytes() > 0, "cut must land mid-line");
        assert_eq!(tail.offset(), cut as u64);
        // Copytruncate: the file restarts with the rest of the stream.
        std::fs::write(&path, &bytes[cut..]).unwrap();
        seen.extend(tail.poll().unwrap());
        assert_eq!(tail.stats().rotations, 1);
        assert_eq!(seen, records);
        assert_eq!(tail.offset(), (bytes.len() - cut) as u64);
        assert_eq!(tail.pending_bytes(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// The quarantine budget skips and counts bad lines, then hard-fails
    /// with exact line/offset context once exhausted.
    #[test]
    fn quarantine_budget_skips_counts_then_fails_with_context() {
        let records = sample_records(5, 7);
        let good = jsonl_bytes(5, 7);
        let good_lines = good.iter().filter(|&&b| b == b'\n').count() as u64;
        let mut bytes = good.clone();
        bytes.extend_from_slice(b"{broken\n");
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let path = tmp_path("quarantine");
        std::fs::write(&path, &bytes).unwrap();
        let opts = TailOptions {
            max_bad_lines: 2,
            ..TailOptions::default()
        };
        let mut tail = TailReader::with_options(&path, opts);
        let seen = tail.poll().unwrap();
        assert_eq!(seen, records, "good records survive the bad lines");
        assert_eq!(tail.stats().bad_lines, 2);
        // A third bad line overruns the budget: located hard error.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"also broken\n").unwrap();
        f.flush().unwrap();
        match tail.poll() {
            Err(TraceError::BadLine {
                path: p,
                line,
                offset,
                ..
            }) => {
                assert!(p.contains("quarantine"));
                assert_eq!(line, good_lines + 3);
                assert_eq!(offset, bytes.len() as u64);
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A snapshot taken mid-stream (partial line held) restores a reader
    /// that continues byte-exactly, and the snapshot itself round-trips
    /// through JSON.
    #[test]
    fn snapshot_restores_mid_partial_line() {
        let records = sample_records(8, 8);
        let bytes = jsonl_bytes(8, 8);
        let path = tmp_path("snapshot");
        let cut = bytes.len() / 2 + 3; // mid-line with high probability
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut tail = TailReader::new(&path);
        let mut seen = tail.poll().unwrap();
        let snap = tail.snapshot();
        assert_eq!(snap.offset, cut as u64);
        assert_eq!(snap.pending.len(), tail.pending_bytes());
        let json = serde_json::to_string(&snap).unwrap();
        let back: TailSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        drop(tail);
        // A restored reader picks up exactly where the snapshot was.
        std::fs::write(&path, &bytes).unwrap();
        let mut tail = TailReader::restore(&path, &back, TailOptions::default());
        seen.extend(tail.poll().unwrap());
        assert_eq!(seen, records);
        assert_eq!(tail.pending_bytes(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Transient I/O errors are retried with deterministic backoff and
    /// surface as located `IoAt` once the attempt budget is exhausted.
    #[test]
    fn transient_errors_retry_then_surface_with_context() {
        #[derive(Debug)]
        struct Flaky {
            inner: FsSource,
            fail_next: u32,
        }
        impl TailSource for Flaky {
            fn size(&mut self) -> std::io::Result<Option<u64>> {
                if self.fail_next > 0 {
                    self.fail_next -= 1;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected",
                    ));
                }
                self.inner.size()
            }
            fn read_from(&mut self, offset: u64, buf: &mut Vec<u8>) -> std::io::Result<usize> {
                self.inner.read_from(offset, buf)
            }
            fn label(&self) -> String {
                self.inner.label()
            }
        }
        let records = sample_records(4, 9);
        let bytes = jsonl_bytes(4, 9);
        let path = tmp_path("flaky");
        std::fs::write(&path, &bytes).unwrap();
        let retry = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let opts = TailOptions {
            retry,
            ..TailOptions::default()
        };
        // Two failures fit inside a 3-attempt budget.
        let source = Flaky {
            inner: FsSource::new(&path),
            fail_next: 2,
        };
        let mut tail = TailReader::from_source(Box::new(source), opts);
        assert_eq!(tail.poll().unwrap(), records);
        assert_eq!(tail.stats().retries, 2);
        // Three failures exhaust it: located hard error.
        let source = Flaky {
            inner: FsSource::new(&path),
            fail_next: 3,
        };
        let mut tail = TailReader::from_source(Box::new(source), opts);
        match tail.poll() {
            Err(TraceError::IoAt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected IoAt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
