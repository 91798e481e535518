//! Error type for the trace layer.

use qni_model::ids::TaskId;
use qni_model::ModelError;
use std::fmt;

/// Errors raised by observation and serialization utilities.
#[derive(Debug)]
pub enum TraceError {
    /// A fraction was outside `[0, 1]`.
    BadFraction {
        /// The offending value.
        value: f64,
    },
    /// A time window was empty or non-finite.
    BadWindow {
        /// Window start.
        from: f64,
        /// Window end.
        until: f64,
    },
    /// A sliding-window schedule (or its application) was invalid.
    BadSchedule {
        /// What was wrong.
        what: &'static str,
    },
    /// An I/O error during trace reading/writing.
    Io(std::io::Error),
    /// A serialization error.
    Serde(serde_json::Error),
    /// Trace records describe a log the model rejects (a task with no
    /// visit, say).
    Model(ModelError),
    /// A task's records lack its `q0` system-entry record.
    MissingEntry {
        /// The task.
        task: TaskId,
    },
    /// Mask and log shapes disagree.
    ShapeMismatch {
        /// Expected number of events.
        expected: usize,
        /// Actual number of events.
        actual: usize,
    },
    /// A tailed file shrank below the reader's resume offset — the file
    /// was truncated or rotated out from under the tail.
    Truncated {
        /// The reader's byte offset (everything before it was consumed).
        offset: u64,
        /// The file's current length.
        len: u64,
    },
    /// A live trace violated the append-order contract required for
    /// incremental slicing (see [`crate::window::LiveSlicer`]).
    OutOfOrder {
        /// What was out of order.
        what: &'static str,
    },
    /// A trace line failed UTF-8 validation or JSON parsing, located
    /// precisely in its source so quarantine reports and hard failures
    /// name the exact offending input.
    BadLine {
        /// Source of the line (file path, or a synthetic label for
        /// in-memory streams).
        path: String,
        /// 1-based line number within the source.
        line: u64,
        /// Byte offset of the line's first byte. Best-effort after a
        /// followed rotation: a line straddling the rotation reports
        /// offset 0 of the new file.
        offset: u64,
        /// The underlying parse failure.
        message: String,
    },
    /// An I/O failure while tailing a file, with the reader's position
    /// for context (the plain [`TraceError::Io`] stays for path-less
    /// stream I/O).
    IoAt {
        /// The tailed file.
        path: String,
        /// The reader's byte offset when the operation failed.
        offset: u64,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadFraction { value } => {
                write!(f, "fraction must be in [0,1], got {value}")
            }
            TraceError::BadWindow { from, until } => {
                write!(f, "invalid window [{from}, {until})")
            }
            TraceError::BadSchedule { what } => {
                write!(f, "invalid window schedule: {what}")
            }
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::Serde(e) => write!(f, "serialization error: {e}"),
            TraceError::Model(e) => write!(f, "{e}"),
            TraceError::MissingEntry { task } => {
                write!(f, "task {task} has no q0 (system-entry) record")
            }
            TraceError::ShapeMismatch { expected, actual } => {
                write!(f, "mask covers {actual} events, log has {expected}")
            }
            TraceError::Truncated { offset, len } => {
                write!(
                    f,
                    "tailed file shrank to {len} bytes below resume offset {offset} \
                     (truncated or rotated); restart the tail from offset 0"
                )
            }
            TraceError::OutOfOrder { what } => {
                write!(f, "live trace violates append order: {what}")
            }
            TraceError::BadLine {
                path,
                line,
                offset,
                message,
            } => {
                write!(
                    f,
                    "bad trace line {line} (byte offset {offset}) in {path}: {message}"
                )
            }
            TraceError::IoAt {
                path,
                offset,
                source,
            } => {
                write!(
                    f,
                    "I/O error tailing {path} at byte offset {offset}: {source}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<ModelError> for TraceError {
    fn from(e: ModelError) -> Self {
        TraceError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(TraceError::BadFraction { value: 1.5 }
            .to_string()
            .contains("1.5"));
        assert!(TraceError::ShapeMismatch {
            expected: 4,
            actual: 2
        }
        .to_string()
        .contains('4'));
    }

    #[test]
    fn display_locates_bad_lines_and_io_failures() {
        let e = TraceError::BadLine {
            path: "/tmp/trace.jsonl".to_string(),
            line: 17,
            offset: 4321,
            message: "expected value".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("line 17"));
        assert!(s.contains("4321"));
        assert!(s.contains("/tmp/trace.jsonl"));
        assert!(s.contains("expected value"));

        let e = TraceError::IoAt {
            path: "/tmp/trace.jsonl".to_string(),
            offset: 99,
            source: std::io::Error::new(std::io::ErrorKind::Interrupted, "blip"),
        };
        let s = e.to_string();
        assert!(s.contains("offset 99"));
        assert!(s.contains("blip"));
    }
}
