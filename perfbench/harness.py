"""Pure helpers of the qni benchmark: statistics, span arithmetic, the
open-loop latency rule, seed derivation, and the parsers for the text the
`qni` binary prints. Nothing here starts a process, so every rule can be
checked by `test_harness.py` against captured sample text.
"""

import hashlib
import math
import re


class BenchError(Exception):
    """A failure that makes a run's numbers meaningless (build, setup,
    unparsable output); the run exits nonzero without a result."""


# --- seeds -----------------------------------------------------------------


def derive_seed(seed, *parts):
    """A 31-bit seed for one input or op, derived from the workload seed
    and a label, so every seed of a run follows from `--seed` alone."""
    text = ":".join(str(p) for p in (seed,) + parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


# --- statistics ------------------------------------------------------------

# A percentile is reported only when at least this many samples lie
# beyond it, so p50 needs 20 samples and p90 needs 100.
TAIL_SAMPLES = 10


def percentile_rank(n, p):
    """Nearest-rank index (1-based) of the `p`-th percentile of `n`
    samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile_supported(n, p):
    """Whether `n` samples leave at least `TAIL_SAMPLES` beyond the
    `p`-th percentile."""
    return n > 0 and n - percentile_rank(n, p) >= TAIL_SAMPLES


def percentile(values, p):
    """Nearest-rank `p`-th percentile; `None` when the sample is too
    small to support it (see `percentile_supported`)."""
    if not percentile_supported(len(values), p):
        return None
    return sorted(values)[percentile_rank(len(values), p) - 1]


def percentile_ms(seconds, p):
    """`percentile` of a sample in seconds, in milliseconds; raises when
    the run holds too few samples to report it."""
    v = percentile(seconds, p)
    if v is None:
        raise BenchError(f"p{p} needs {TAIL_SAMPLES} samples beyond it; the run has {len(seconds)}")
    return v * 1e3


def median(values):
    """The median (mean of the two middle values for an even count)."""
    s = sorted(values)
    if not s:
        raise BenchError("median of an empty sample")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def rel_err(estimates, truth):
    """Mean of |estimate - truth| / truth over matching rate vectors."""
    if len(estimates) != len(truth) or not truth:
        raise BenchError(f"{len(estimates)} estimates for {len(truth)} true rates")
    return sum(abs(e - t) / t for e, t in zip(estimates, truth)) / len(truth)


# --- spans -----------------------------------------------------------------


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (children may overlap, as on
    a thread pool, so their union is subtracted, clipped to the parent).

    `spans` is a list of dicts with `id`, `parent` (id or None), `start`
    and `end`. Returns `{id: self_time}`.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
        ]
        covered = _union_length([k for k in kids if k[1] > k[0]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# --- the open-loop feed ------------------------------------------------------


def closing_chunks(window_ends, entries, line_end_bytes, chunk_end_bytes):
    """For each window, the index of the append chunk that closes it, or
    None when no task enters at or after its end (it closes only when the
    stream is finished).

    A window `[start, end)` closes when the live slicer reads the q0 record
    of the first task entering at or after `end`. That record is readable
    once the chunk holding the end of its line has been appended, so the
    window's latency is measured from that chunk's due time.

    `entries[k]` is task k's entry time and `line_end_bytes[k]` the file
    offset just past its q0 line; `chunk_end_bytes` are the cumulative
    chunk end offsets (increasing).
    """
    out = []
    k = 0
    c = 0
    for end in window_ends:
        while k < len(entries) and entries[k] < end:
            k += 1
        if k == len(entries):
            out.append(None)
            continue
        while chunk_end_bytes[c] < line_end_bytes[k]:
            c += 1
        out.append(c)
    return out


def open_loop_latencies(read_times, closers, t0, due_offsets):
    """`{window: latency}` for every closed window whose row was read.

    Each latency runs from the *due* time `t0 + due_offsets[c]` of the
    window's closing chunk `c` to the time its row was read, so a late
    generator or a stalled watcher both count against the program rather
    than shifting the start of the clock."""
    return {
        k: read_times[k] - (t0 + due_offsets[c])
        for k, c in closers.items()
        if c is not None and k in read_times
    }


# --- parsers for the qni binary's output --------------------------------------

_FLOAT = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|NaN|nan)"


def _number(text, what):
    try:
        v = float(text)
    except ValueError:
        raise BenchError(f"unparsable {what}: {text!r}") from None
    return v


def parse_infer(text):
    """Parses `qni infer` stdout into `{"lambda": λ̂, "mu": [µ̂_1, ...],
    "rhat": [...], "ess": [...]}`.

    The convergence table (`queue split-R̂ pooled ESS`, rows q0..qQ) and
    the rate table (`queue rate µ̂ mean service mean waiting`, rows
    q1..qQ) both start rows with `q<N>`, so rows are assigned to the table
    whose header precedes them. Any missing piece raises `BenchError`.
    """
    table = None
    lam = None
    conv = {}
    rates = {}
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("queue") and "split-R̂" in s:
            table = "conv"
            continue
        if s.startswith("queue") and "rate µ̂" in s:
            table = "rate"
            continue
        m = re.match(r"arrival rate λ̂ = (" + _FLOAT + r")$", s)
        if m:
            lam = _number(m.group(1), "λ̂")
            table = None
            continue
        m = re.match(r"q(\d+)\s+(.*)$", s)
        if m and table is not None:
            q = int(m.group(1))
            cols = m.group(2).split()
            if table == "conv":
                if len(cols) != 2:
                    raise BenchError(f"bad convergence row: {line!r}")
                conv[q] = (_number(cols[0], "split-R̂"), _number(cols[1], "ESS"))
            else:
                if len(cols) != 3:
                    raise BenchError(f"bad rate row: {line!r}")
                rates[q] = _number(cols[0], "µ̂")
            continue
        if s and table is not None and not s.startswith("q"):
            table = None
    if lam is None:
        raise BenchError("infer output has no `arrival rate λ̂` line")
    if not rates or sorted(rates) != list(range(1, len(rates) + 1)):
        raise BenchError(f"infer rate table has queues {sorted(rates)}")
    if sorted(conv) != list(range(0, len(rates) + 1)):
        raise BenchError(f"infer convergence table has queues {sorted(conv)}")
    return {
        "lambda": lam,
        "mu": [rates[q] for q in sorted(rates)],
        "rhat": [conv[q][0] for q in sorted(conv)],
        "ess": [conv[q][1] for q in sorted(conv)],
    }


_WINDOW_LINE = re.compile(
    r"w(\d+)\s+\[\s*(" + _FLOAT + r"),\s*(" + _FLOAT + r")\)\s+(\d+)\s+(" + _FLOAT + r")"
)


def parse_window_line(line):
    """Parses one window row of `qni watch` / `qni stream` stdout into
    `(index, start, end, tasks, lambda_hat)`, or None for other lines."""
    m = _WINDOW_LINE.match(line.strip())
    if not m:
        return None
    return (
        int(m.group(1)),
        float(m.group(2)),
        float(m.group(3)),
        int(m.group(4)),
        float(m.group(5)),
    )


def parse_fingerprint(text):
    """The `fingerprint=<digest>` that `qni stream` and `qni watch` print
    last; raises `BenchError` when absent."""
    found = re.findall(r"^fingerprint=([0-9a-f]+)$", text, re.MULTILINE)
    if len(found) != 1:
        raise BenchError(f"expected one fingerprint line, found {len(found)}")
    return found[0]


def parse_trajectory_csv(text, num_queues):
    """Rows of a `--out` trajectory CSV as dicts with `window`, `end`,
    `carried` and `rates` (q0..q{num_queues-1})."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError("empty trajectory CSV")
    header = lines[0].split(",")
    want = ["window", "start", "end", "tasks", "events", "warm_started", "carried"]
    rate_cols = [f"rate_q{q}" for q in range(num_queues)]
    missing = [c for c in want + rate_cols if c not in header]
    if missing:
        raise BenchError(f"trajectory CSV lacks columns {missing}")
    col = {name: i for i, name in enumerate(header)}
    rows = []
    for l in lines[1:]:
        cells = l.split(",")
        if len(cells) != len(header):
            raise BenchError(f"bad trajectory CSV row: {l!r}")
        rows.append(
            {
                "window": int(cells[col["window"]]),
                "end": float(cells[col["end"]]),
                "carried": cells[col["carried"]] == "true",
                "rates": [float(cells[col[c]]) for c in rate_cols],
            }
        )
    return rows


def positive_finite(values):
    return all(math.isfinite(v) and v > 0 for v in values)
