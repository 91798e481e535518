"""The gated (untraced) workloads. They run only the commit's `qni`
binary on JSONL inputs generated from the workload seed and read only its
printed output and files, so a library API change cannot break them."""

import math
import os
import subprocess
import threading
import time
from dataclasses import dataclass

import harness as h
import procs
from harness import BenchError

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3
# A run holds at least this many timed ops, so its p90 has ten samples
# beyond it.
MIN_OPS = 100
# The end-to-end metrics every gated run reports, with their units.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rate_rel_err", "ratio"),
]


@dataclass(frozen=True)
class InferSpec:
    """A closed loop of one client running `qni infer` back to back over a
    rotating set of traces simulated with `qni simulate --tiers`."""

    tiers: tuple
    lam: float
    mu: float
    tasks: int
    observe: float
    traces: int
    flags: tuple
    ops_per_s: float
    warmup: int

    def truth(self):
        return [self.lam] + [self.mu] * sum(self.tiers)

    def ops(self, seconds):
        return max(MIN_OPS, round(seconds * self.ops_per_s))


INFER = {
    # Single-threaded baseline: moderate three-stage tandem traces, about
    # 10 % observed; the Gibbs sweep is almost all of each op.
    "infer-tandem": InferSpec(
        tiers=(1, 1, 1), lam=10.0, mu=14.0, tasks=500, observe=0.1, traces=24,
        flags=("--iterations", "100", "--threads", "1"), ops_per_s=7.0, warmup=6,
    ),
    # Sharded sweeps on a large, highly loaded fork-join trace: 7,500
    # tasks over 3 servers per tier put about 1,125 members in each
    # server's red-black wave, past the 2 x 512 fan-out threshold.
    "infer-forkjoin-sharded": InferSpec(
        tiers=(3, 3), lam=10.0, mu=4.0, tasks=7500, observe=0.1, traces=6,
        flags=("--iterations", "8", "--shards", "2", "--threads", "2"), ops_per_s=2.5,
        warmup=2,
    ),
}


def simulate(qni, spec, tasks, seed, path, workdir):
    procs.checked(
        [qni, "simulate", "--tiers", ",".join(map(str, spec.tiers)), "--lambda", spec.lam,
         "--mu", spec.mu, "--tasks", tasks, "--observe", spec.observe, "--seed", seed,
         "--out", path],
        workdir, "simulate",
    )


def infer_cmd(qni, spec, trace, seed):
    return [qni, "infer", "--trace", trace, "--seed", seed, *spec.flags]


def check_infer(spec, r):
    """Parses one op's output; returns its estimates or None on failure."""
    if r.rc != 0:
        return None
    try:
        est = h.parse_infer(r.stdout)
    except BenchError:
        return None
    rates = [est["lambda"]] + est["mu"]
    if len(rates) != len(spec.truth()) or not h.positive_finite(rates):
        return None
    return rates


def make_traces(qni, spec, seed, workdir):
    """Simulates the run's rotating set of traces from the workload seed."""
    paths = [workdir / f"trace{i}.jsonl" for i in range(spec.traces)]
    for i, p in enumerate(paths):
        simulate(qni, spec, spec.tasks, h.derive_seed(seed, "trace", i), p, workdir)
    return paths


def op_seed(seed, i):
    return h.derive_seed(seed, "op", i)


def infer_setup(qni, spec, seed, workdir):
    """Generates the run's traces and runs the warm-up ops; repeated
    `SETUP_REPS` times. Returns `(trace_paths, setup_times, warmup_rss)`."""
    times = []
    rss = 0
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        paths = make_traces(qni, spec, seed, workdir)
        for j in range(spec.warmup):
            r = procs.run(infer_cmd(qni, spec, paths[j % len(paths)],
                                    h.derive_seed(seed, "warmup", j)), workdir, "op")
            rss = max(rss, r.maxrss_kb)
        times.append(time.perf_counter() - t0)
    return paths, times, rss


def describe_inputs(paths):
    out = []
    for p in paths:
        d = procs.describe_trace(p)
        d["name"] = p.name
        out.append(d)
    return out


def run_infer(name, qni, seed, seconds, workdir):
    spec = INFER[name]
    paths, setup_times, rss = infer_setup(qni, spec, seed, workdir)
    n_ops = spec.ops(seconds)
    truth = spec.truth()
    lat, cpu, errs = [], 0.0, []
    failed = 0
    steal0 = procs.steal_s()
    t_start = time.perf_counter()
    for i in range(n_ops):
        r = procs.run(infer_cmd(qni, spec, paths[i % len(paths)], op_seed(seed, i)),
                      workdir, "op")
        lat.append(r.wall)
        cpu += r.cpu
        rss = max(rss, r.maxrss_kb)
        rates = check_infer(spec, r)
        if rates is None:
            failed += 1
        else:
            errs.append(h.rel_err(rates, truth))
    wall = time.perf_counter() - t_start
    steal = procs.steal_s() - steal0
    if not errs:
        raise BenchError(f"every one of {n_ops} `qni infer` ops failed")
    metrics = {
        "setup_s": h.median(setup_times),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss / 1024.0,
        "latency_p50_ms": h.percentile_ms(lat, 50),
        "latency_p90_ms": h.percentile_ms(lat, 90),
        "rate_rel_err": sum(errs) / len(errs),
    }
    prov = procs.provenance(describe_inputs(paths), {
        "steal_s": steal, "ops": n_ops, "setup_reps_s": setup_times,
    })
    return n_ops, failed, metrics, prov


# --- watch-live ----------------------------------------------------------------


class WatchSpec:
    """An open loop: a seeded tandem trace appended to a file on an
    absolute due-time schedule while one `qni watch` tails it."""

    tiers = (1, 1, 1)
    lam = 10.0
    mu = 20.0
    observe = 0.1
    # About 600 tasks per window and 300 per stride.
    width = 60.0
    stride = 30.0
    # Windows the backlog closes; the watcher fits them in one catch-up.
    backlog_windows = 30
    # Wall seconds between window closes in the live phase: 125 live
    # windows in 15 s, enough for a p90 with ten samples beyond it.
    close_every_s = 0.12
    # Longest wall gap folded into one append chunk: about one append per
    # window close, which keeps the generator's wake-ups few.
    tick_s = close_every_s
    # Share of chunk boundaries that fall inside a line.
    split_share = 0.3
    # The watcher sleeps `poll_ms` after every step, so a closing step
    # costs its fit plus one poll of the gap to the next close. At 20 ms
    # that is about half the gap, and a fit slowed by the program or by
    # host contention raises latency before the polls fall behind; at
    # the CLI's 50 ms default it was four fifths, and contention that
    # stretched the fits made later windows queue.
    poll_ms = 20
    # Each chunk's due time is delayed by a seeded share of one poll
    # interval. Appends a steady window close apart would meet the
    # watcher's polls at a phase set by the run's start and its fit time,
    # and that phase, not the program, would decide a run's latencies.
    # With the delay every window waits an independent share of a poll.
    due_jitter_s = poll_ms / 1000.0
    # One second without new bytes ends the watcher after the feed.
    idle_polls = 50
    # Short warm-started fits keep the watcher about a third busy, so a
    # slower program raises latency before a backlog grows.
    engine = ["--iterations", "16", "--burn-in", "8", "--warm-burn-in", "4",
              "--threads", "1"]

    def queues(self):
        return 1 + sum(self.tiers)

    def truth(self):
        return [self.lam] + [self.mu] * sum(self.tiers)

    def speed(self):
        """Trace seconds per wall second."""
        return self.stride / self.close_every_s

    def window_end(self, k):
        return k * self.stride + self.width


WATCH = WatchSpec()


def plan_feed(spec, info, seed):
    """Splits the trace into the backlog prefix and the live append chunks.

    Returns `(backlog_end, chunk_ends, chunk_offsets, backlog_windows)`:
    byte offsets ending each live chunk, each chunk's due time in seconds
    after the first live append, and the number of windows the backlog
    closes. Chunks hold whole tasks except that a seeded share of their
    boundaries is moved inside the next task's q0 line. A chunk is due
    when its last task has entered, plus a seeded delay of up to
    `spec.due_jitter_s`.
    """
    entries = info["entries"]
    starts = info["task_starts"]
    n = len(entries)
    kb = next(k for k, e in enumerate(entries) if e >= spec.window_end(spec.backlog_windows - 1))
    backlog_end = starts[kb + 1] if kb + 1 < n else info["bytes"]
    backlog_windows = 0
    while spec.window_end(backlog_windows) <= entries[kb]:
        backlog_windows += 1
    speed = spec.speed()
    t0 = entries[kb]
    # Group the remaining tasks into chunks of at most `tick_s` wall time.
    groups = []
    k = kb + 1
    while k < n:
        first = k
        while k + 1 < n and (entries[k + 1] - entries[first]) / speed < spec.tick_s:
            k += 1
        groups.append((first, k))
        k += 1
    rng_state = h.derive_seed(seed, "splits")
    chunk_ends, offsets = [], []
    for j, (first, last) in enumerate(groups):
        end = starts[last + 1] if last + 1 < n else info["bytes"]
        rng_state = h.derive_seed(rng_state, j)
        if last + 1 < n and rng_state % 1000 < spec.split_share * 1000:
            line_len = info["q0_line_ends"][last + 1] - end
            end += 1 + rng_state % (line_len - 1)
        chunk_ends.append(end)
        delay = h.derive_seed(seed, "delay", j) / 2.0**31 * spec.due_jitter_s
        due = (entries[last] - t0) / speed + delay
        offsets.append(max(offsets[-1], due) if offsets else due)
    return backlog_end, chunk_ends, offsets, backlog_windows


class LineReader:
    """Reads a process's stdout on a thread, stamping each line with the
    time it was read and indexing the window rows as they arrive."""

    def __init__(self, pipe):
        self.lines = []
        self.windows = {}
        self._eof = False
        self._cond = threading.Condition()
        self._pipe = pipe
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        for raw in iter(self._pipe.readline, b""):
            t = time.perf_counter()
            line = raw.decode(errors="replace")
            w = h.parse_window_line(line)
            with self._cond:
                self.lines.append(line)
                if w is not None:
                    self.windows.setdefault(w[0], t)
                self._cond.notify_all()
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def wait_window(self, index, timeout):
        """Read time of window `index`'s row, or None at end of output or
        after `timeout` seconds."""
        with self._cond:
            self._cond.wait_for(lambda: index in self.windows or self._eof, timeout)
            return self.windows.get(index)

    def join(self):
        self._thread.join()

    def text(self):
        with self._cond:
            return "".join(self.lines)


def watch_cmd(qni, spec, live, cp, out, seed):
    return [str(c) for c in [
        qni, "watch", "--trace", live, "--window", spec.width, "--stride", spec.stride,
        "--queues", spec.queues(), "--poll-ms", spec.poll_ms,
        "--idle-polls", spec.idle_polls, "--checkpoint", cp, "--checkpoint-every", 1,
        "--out", out, "--seed", seed, *spec.engine,
    ]]


def stream_cmd(qni, spec, trace, seed):
    return [qni, "stream", "--trace", trace, "--window", spec.width, "--stride",
            spec.stride, "--seed", seed, *spec.engine]


def wait_for(cond, timeout, what):
    deadline = time.perf_counter() + timeout
    while not cond():
        if time.perf_counter() > deadline:
            raise BenchError(f"timed out waiting for {what}")
        time.sleep(0.002)


class Watcher:
    """One `qni watch` process (or traced runner) whose stdout is read on
    a thread; reaped with `wait4` so its peak RSS is known."""

    def __init__(self, cmd, workdir):
        self.err = open(workdir / "watch.err", "wb")
        self.rc = None
        self.maxrss_kb = 0
        self.t_spawn = time.perf_counter()
        self.p = subprocess.Popen([str(c) for c in cmd], stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=self.err)
        self.reader = LineReader(self.p.stdout)

    def _reap(self, flags):
        if self.rc is not None:
            return True
        pid, status, ru = os.wait4(self.p.pid, flags)
        if pid == 0:
            return False
        self.rc = self.p.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = ru.ru_maxrss
        return True

    def exited(self):
        return self._reap(os.WNOHANG)

    def wait_window(self, index, timeout):
        """Read time of window `index`'s row; raises if the watcher ends
        its output or times out first."""
        t = self.reader.wait_window(index, timeout)
        if t is None:
            raise BenchError(f"no row for window {index} (watcher exit code {self.rc})")
        return t

    def close(self, timeout=0.0):
        """Waits up to `timeout` for the watcher to exit, kills it after
        that, and reaps it."""
        try:
            wait_for(self.exited, timeout, "the watcher to exit")
        except BenchError:
            pass
        if not self.exited():
            self.p.kill()
            self._reap(0)
        self.reader.join()
        self.p.stdout.close()
        self.err.close()


def watch_prepare(qni, spec, seed, seconds, workdir):
    """Simulates the run's trace: the backlog plus `seconds` of live
    appends at the spec's speed (never fewer than `MIN_OPS` windows)."""
    trace = workdir / "trace.jsonl"
    live_s = max(seconds, 1.2 * MIN_OPS * spec.close_every_s)
    horizon = spec.window_end(spec.backlog_windows) + live_s * spec.speed()
    tasks = int(math.ceil(spec.lam * horizon))
    simulate(qni, spec, tasks, h.derive_seed(seed, "trace"), trace, workdir)
    info = procs.describe_trace(trace)
    info["name"] = trace.name
    return trace, info


def catch_up(data, backlog_end, backlog_windows, workdir, cmd):
    """Starts a watcher on a freshly written backlog and returns it with
    the time from spawn until it emitted every backlog window."""
    live = workdir / "live.jsonl"
    for f in ("cp.json", "cp.json.tmp", "traj.csv"):
        (workdir / f).unlink(missing_ok=True)
    live.write_bytes(data[:backlog_end])
    w = Watcher(cmd, workdir)
    try:
        t_done = w.wait_window(backlog_windows - 1, 120)
    except BenchError:
        w.close()
        raise
    return w, t_done - w.t_spawn


def feed(live, data, backlog_end, chunk_ends, offsets, t0):
    """Appends each live chunk at its due time `t0 + offset`; returns
    each chunk's lateness in seconds."""
    late = []
    start = backlog_end
    with open(live, "ab") as f:
        for end, off in zip(chunk_ends, offsets):
            due = t0 + off
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            f.write(data[start:end])
            f.flush()
            late.append(time.perf_counter() - due)
            start = end
    return late


def live_schedule(spec, info, chunk_ends, backlog_windows):
    """`{window: closing chunk}` for the windows the live appends close."""
    last_entry = info["entries"][-1]
    count = 0
    while spec.window_end(count) <= last_entry:
        count += 1
    ends = [spec.window_end(k) for k in range(count)]
    closers = h.closing_chunks(ends, info["entries"], info["q0_line_ends"], chunk_ends)
    return {k: closers[k] for k in range(backlog_windows, count)}


def run_live(spec, watcher, info, data, plan, workdir):
    """Feeds the live phase to a caught-up watcher and waits for it to
    exit. Returns the window read times and the live-phase timings."""
    backlog_end, chunk_ends, offsets, backlog_windows = plan
    live_windows = live_schedule(spec, info, chunk_ends, backlog_windows)
    steal0 = procs.steal_s()
    t0 = time.perf_counter() + 0.02
    cpu0 = procs.proc_cpu_s(watcher.p.pid)
    t_last = cpu = None
    late = []
    try:
        late = feed(workdir / "live.jsonl", data, backlog_end, chunk_ends, offsets, t0)
        t_last = watcher.wait_window(max(live_windows), 60)
        cpu = procs.proc_cpu_s(watcher.p.pid) - cpu0
    except BenchError:
        pass
    finally:
        watcher.close(120)
    return {
        "live_windows": live_windows,
        "t0": t0,
        "t_last": t_last,
        "cpu": cpu,
        "steal": procs.steal_s() - steal0,
        "late": late,
        "times": dict(watcher.reader.windows),
        "stdout": watcher.reader.text(),
    }


def run_watch(qni, seed, seconds, workdir):
    spec = WATCH
    trace, info = watch_prepare(qni, spec, seed, seconds, workdir)
    data = trace.read_bytes()
    plan = plan_feed(spec, info, seed)
    backlog_end, chunk_ends, offsets, backlog_windows = plan
    wseed = h.derive_seed(seed, "watch")
    live = workdir / "live.jsonl"
    cmd = watch_cmd(qni, spec, live, workdir / "cp.json", workdir / "traj.csv", wseed)
    setup_times = []
    rss = 0
    for rep in range(SETUP_REPS):
        watcher, dt = catch_up(data, backlog_end, backlog_windows, workdir, cmd)
        setup_times.append(dt)
        if rep + 1 < SETUP_REPS:
            watcher.close()
            rss = max(rss, watcher.maxrss_kb)
    # The last catch-up's watcher keeps tailing through the live phase.
    live_run = run_live(spec, watcher, info, data, plan, workdir)
    rss = max(rss, watcher.maxrss_kb)
    live_windows = live_run["live_windows"]
    times = live_run["times"]
    t0 = live_run["t0"]
    lat = list(h.open_loop_latencies(times, live_windows, t0, offsets).values())
    failed = sum(1 for k in live_windows if k not in times)
    if watcher.rc != 0:
        failed = len(live_windows)
    # Correctness, untimed: finite positive rates in every window of the
    # final CSV, and the fingerprint of a `qni stream` replay of the
    # finished file.
    checks = {"exit_code": watcher.rc}
    rows, fp_watch = [], None
    try:
        fp_watch = h.parse_fingerprint(live_run["stdout"])
        rows = h.parse_trajectory_csv((workdir / "traj.csv").read_text(), spec.queues())
    except (BenchError, OSError) as e:
        checks["watch_output_error"] = str(e)
    replay = procs.run(stream_cmd(qni, spec, live, wseed), workdir, "replay")
    fp_replay = None
    replay_windows = -1
    if replay.rc == 0:
        fp_replay = h.parse_fingerprint(replay.stdout)
        replay_windows = sum(1 for l in replay.stdout.splitlines() if h.parse_window_line(l))
    checks.update({"fingerprint": fp_watch, "replay_fingerprint": fp_replay,
                   "csv_windows": len(rows), "replay_windows": replay_windows})
    if fp_watch is None or fp_watch != fp_replay or len(rows) != replay_windows:
        failed += 1
    failed += sum(1 for r in rows if not h.positive_finite(r["rates"]))
    # Accuracy over the ops: the windows the live appends closed.
    errs = [h.rel_err(r["rates"], spec.truth()) for r in rows
            if r["window"] in live_windows and not r["carried"]]
    if live_run["t_last"] is None or not errs or not lat:
        raise BenchError(f"watch-live produced no usable windows ({checks})")
    metrics = {
        "setup_s": h.median(setup_times),
        "wall_s": live_run["t_last"] - t0,
        "cpu_s": live_run["cpu"],
        "peak_rss_mb": rss / 1024.0,
        "latency_p50_ms": h.percentile_ms(lat, 50),
        "latency_p90_ms": h.percentile_ms(lat, 90),
        "rate_rel_err": sum(errs) / len(errs),
    }
    late_ms = sorted(x * 1e3 for x in live_run["late"]) or [float("nan")]
    prov = procs.provenance([info], {
        "steal_s": live_run["steal"],
        "generator_late_p50_ms": h.median(late_ms),
        "generator_late_max_ms": late_ms[-1],
        "chunks": len(chunk_ends),
        "backlog_windows": backlog_windows,
        "live_windows": len(live_windows),
        "setup_reps_s": setup_times,
        **checks,
    })
    # One op per live window plus the replay identity check.
    return len(live_windows) + 1, failed, metrics, prov
