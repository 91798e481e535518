"""The traced run (`--trace 1`): the workload's inputs and seeds, run
through the traced runner (`perfbench/tracer`), which times each layer's
public calls. Reports the per-layer metrics; a layer that does no work
on a workload reads 0 there.

It also checks that the traced run reproduces the untraced result: the
re-enacted fit must give rates bit-equal to `run_stem_parallel` and equal
to the CLI's printed rates at their printed precision, and both watch
passes must give the fingerprint of a `qni stream` replay.
"""

import json

import harness as h
import procs
import workloads as wl
from harness import BenchError

# Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = [
    ("trace.record.parse_ms", "ms"),
    ("trace.record.records", "count"),
    ("trace.record.share", "ratio"),
    ("trace.tail.poll_ms", "ms"),
    ("trace.tail.bytes", "bytes"),
    ("trace.tail.wait_ms", "ms"),
    ("trace.tail.empty_poll_ratio", "ratio"),
    ("trace.tail.retries", "count"),
    ("trace.tail.bad_lines", "count"),
    ("trace.window.push_ms", "ms"),
    ("trace.window.windows", "count"),
    ("trace.window.peak_open", "count"),
    ("trace.window.peak_buffered_tasks", "count"),
    ("core.init.ms", "ms"),
    ("core.init.share", "ratio"),
    ("core.gibbs.sweep_ms", "ms"),
    ("core.gibbs.sweeps", "count"),
    ("core.gibbs.share", "ratio"),
    ("core.gibbs.arrival_moves", "count"),
    ("core.gibbs.final_moves", "count"),
    ("core.gibbs.shift_moves", "count"),
    ("core.gibbs.arrival_groups", "count"),
    ("core.gibbs.mean_group_size", "count"),
    ("core.gibbs.fallback_ratio", "ratio"),
    ("core.gibbs.serial_sweep_ms", "ms"),
    ("core.gibbs.sharded_sweep_ms", "ms"),
    ("core.gibbs.shard_speedup", "ratio"),
    ("core.gibbs.sharded_cpu_per_wall", "ratio"),
    ("core.mstep.ms", "ms"),
    ("core.mstep.share", "ratio"),
    ("core.stem.self_ms", "ms"),
    ("core.diagnostics.ms", "ms"),
    ("core.stream.push_window_ms", "ms"),
    ("core.stream.push_window_p90_ms", "ms"),
    ("core.stream.wait_ms", "ms"),
    ("core.stream.warm_ratio", "ratio"),
    ("core.stream.carried_windows", "count"),
    ("core.stream.tasks_per_window", "count"),
    ("core.watch.live_step_ms", "ms"),
    ("core.watch.catchup_step_ms", "ms"),
    ("core.watch.checkpoint_ms", "ms"),
    ("core.watch.checkpoint_bytes", "bytes"),
    ("core.watch.lag_strides", "ratio"),
    ("cli.overhead_ms", "ms"),
    ("cli.share", "ratio"),
    ("trace_overhead_pct", "%"),
    ("trace.uncovered_share", "ratio"),
]

def load_spans(path):
    doc = json.loads(path.read_text())
    spans = [
        {"id": i, "name": s[0], "op": s[1], "parent": None if s[2] < 0 else s[2],
         "start": s[3], "end": s[4]}
        for i, s in enumerate(doc["spans"])
    ]
    return spans, doc["counters"]


def dur(s):
    return s["end"] - s["start"]


def ratio(a, b):
    return a / b if b else 0.0


def finish(values):
    """Fills every per-layer metric the workload did not measure with 0."""
    unknown = set(values) - {n for n, _ in PER_LAYER}
    if unknown:
        raise BenchError(f"unknown per-layer metrics {sorted(unknown)}")
    return {n: float(values.get(n, 0.0)) for n, _ in PER_LAYER}


def run(name, qni, tracer, seed, seconds, workdir):
    if name == "watch-live":
        return run_watch(qni, tracer, seed, seconds, workdir)
    return run_infer(name, qni, tracer, seed, workdir)


def summarize_op(spans):
    """Durations of one traced op's layers."""
    selfs = h.self_times(spans)

    def total(*names):
        return sum(dur(s) for s in spans if s["name"] in names)

    def self_of(name):
        return sum(selfs[s["id"]] for s in spans if s["name"] == name)

    return {
        "op": total("op"),
        "untraced": total("untraced.op"),
        "parse": total("trace.record.read_jsonl", "trace.record.from_records"),
        "init": total("core.init"),
        "sweep": total("core.gibbs.sweep"),
        "mstep": total("core.mstep"),
        "diag": total("core.diagnostics"),
        "fit_self": self_of("core.stem.fit"),
        "op_self": self_of("op"),
        "sweeps": [dur(s) for s in spans if s["name"] == "core.gibbs.sweep"],
        "serial": [dur(s) for s in spans if s["name"] == "core.gibbs.serial_sweep"],
    }


def run_infer(name, qni, tracer, seed, workdir):
    spec = wl.INFER[name]
    paths = wl.make_traces(qni, spec, seed, workdir)
    # One traced op per input of the rotating set.
    n = spec.traces
    flags = dict(zip(spec.flags[::2], spec.flags[1::2]))
    sharded = flags.get("--shards", "1") != "1"
    spans_path = workdir / "spans.json"
    ops_path = workdir / "ops.txt"
    ops, cli, counters = [], [], {}
    failed = 0
    steal0 = procs.steal_s()
    for i in range(n):
        path, op_seed = paths[i % len(paths)], wl.op_seed(seed, i)
        # The untraced CLI op and the traced op run back to back, so the
        # CLI overhead is a paired difference that slow host drift cancels.
        c = procs.run(wl.infer_cmd(qni, spec, path, op_seed), workdir, "op")
        ops_path.write_text(f"{path} {op_seed}\n")
        r = procs.run(
            [tracer, "infer", "--ops", ops_path, "--iterations", flags["--iterations"],
             "--shards", flags.get("--shards", "1"), "--threads", flags["--threads"],
             "--compare-serial", int(sharded), "--spans", spans_path],
            workdir, "tracer",
        )
        if r.rc != 0:
            raise BenchError(f"traced runner failed: {r.stderr.strip()[-400:]}")
        spans, cnt = load_spans(spans_path)
        for k, v in cnt.items():
            counters[k] = counters.get(k, 0.0) + v
        ops.append(summarize_op(spans))
        cli.append(c.wall)
        # Correctness: bit-equal to the library's fit (and the serial
        # replica), equal to the CLI's printed rates at their precision.
        rates = wl.check_infer(spec, c)
        shown = None if rates is None else " ".join(f"{x:.4f}" for x in rates)
        ok = cnt.get("check.bit_equal_ops") == 1 and f"op 0 rates {shown}" in r.stdout
        if sharded:
            ok = ok and cnt.get("check.serial_equal_ops") == 1
        failed += not ok

    def med(key):
        return h.median([o[key] for o in ops])

    def share(key):
        return h.median([o[key] / o["op"] for o in ops])

    sweeps = [d for o in ops for d in o["sweeps"]]
    serial = [d for o in ops for d in o["serial"]]
    overhead = h.median([c - o["op"] for c, o in zip(cli, ops)])
    values = {
        "trace.record.parse_ms": med("parse") * 1e3,
        "trace.record.records": counters["trace.record.records"] / n,
        "trace.record.share": share("parse"),
        "core.init.ms": med("init") * 1e3,
        "core.init.share": share("init"),
        "core.gibbs.sweep_ms": h.median(sweeps) * 1e3,
        "core.gibbs.sweeps": len(sweeps) / n,
        "core.gibbs.share": share("sweep"),
        "core.gibbs.arrival_moves": counters["core.gibbs.arrival_moves"] / len(sweeps),
        "core.gibbs.final_moves": counters["core.gibbs.final_moves"] / len(sweeps),
        "core.gibbs.shift_moves": counters["core.gibbs.shift_moves"] / len(sweeps),
        "core.gibbs.arrival_groups": counters["core.gibbs.arrival_groups"] / len(sweeps),
        "core.gibbs.mean_group_size": ratio(counters["core.gibbs.arrival_moves"],
                                            counters["core.gibbs.arrival_groups"]),
        "core.gibbs.fallback_ratio": ratio(counters["core.gibbs.group_fallbacks"],
                                           counters["core.gibbs.arrival_moves"]),
        "core.mstep.ms": med("mstep") * 1e3,
        "core.mstep.share": share("mstep"),
        "core.stem.self_ms": med("fit_self") * 1e3,
        "core.diagnostics.ms": med("diag") * 1e3,
        "cli.overhead_ms": overhead * 1e3,
        "cli.share": overhead / h.median(cli),
        "trace_overhead_pct": h.median([o["op"] / o["untraced"] - 1.0 for o in ops]) * 100.0,
        "trace.uncovered_share": share("op_self"),
    }
    if sharded:
        values.update({
            "core.gibbs.serial_sweep_ms": h.median(serial) * 1e3,
            "core.gibbs.sharded_sweep_ms": h.median(sweeps) * 1e3,
            "core.gibbs.shard_speedup": h.median(serial) / h.median(sweeps),
            "core.gibbs.sharded_cpu_per_wall": ratio(counters["core.gibbs.cpu_s"],
                                                     counters["core.gibbs.wall_s"]),
        })
    prov = procs.provenance(wl.describe_inputs(paths), {
        "traced_ops": n, "steal_s": procs.steal_s() - steal0,
    })
    return n, failed, finish(values), prov


def run_watch(qni, tracer, seed, seconds, workdir):
    spec = wl.WATCH
    trace, info = wl.watch_prepare(qni, spec, seed, seconds, workdir)
    data = trace.read_bytes()
    plan = wl.plan_feed(spec, info, seed)
    backlog_end, chunk_ends, offsets, backlog_windows = plan
    (workdir / "plan.txt").write_text(
        f"{backlog_end}\n" + "".join(f"{e} {o!r}\n" for e, o in zip(chunk_ends, offsets))
    )
    wseed = h.derive_seed(seed, "watch")
    live = workdir / "live.jsonl"
    spans_path = workdir / "spans.json"
    cmd = [tracer, "watch", "--trace", live, "--source", trace, "--plan", workdir / "plan.txt",
           "--window", spec.width, "--stride", spec.stride, "--queues", spec.queues(),
           "--seed", wseed, *spec.engine, "--poll-ms", spec.poll_ms,
           "--idle-polls", spec.idle_polls, "--checkpoint", workdir / "cp.json",
           "--out", workdir / "traj.csv", "--backlog-windows", backlog_windows,
           "--spans", spans_path]
    watcher, _ = wl.catch_up(data, backlog_end, backlog_windows, workdir, cmd)
    live_run = wl.run_live(spec, watcher, info, data, plan, workdir)
    if watcher.rc != 0:
        raise BenchError(f"traced runner exited {watcher.rc}")
    stdout = live_run["stdout"]
    replay = procs.checked(wl.stream_cmd(qni, spec, live, wseed), workdir, "replay")
    fp = h.parse_fingerprint(replay.stdout)
    layers_fp = [l.split("=", 1)[1] for l in stdout.splitlines()
                 if l.startswith("layers_fingerprint=")]
    failed = int(h.parse_fingerprint(stdout) != fp) + int(layers_fp != [fp])
    failed += sum(1 for k in live_run["live_windows"] if k not in live_run["times"])
    spans, c = load_spans(spans_path)
    selfs = h.self_times(spans)

    def durs(name, ops=None):
        return [dur(s) for s in spans if s["name"] == name and (ops is None or s["op"] in ops)]

    # Steps that closed windows are the ones followed by a checkpoint.
    closing = {s["op"] for s in spans if s["name"] == "core.watch.checkpoint"}
    pass1 = sum(map(sum, (durs("core.watch.catchup_step"), durs("core.watch.live_step"),
                          durs("core.watch.checkpoint"), durs("cli.emit"))))
    pass2 = sum(durs("trace.tail.poll")) + sum(durs("trace.window.push"))
    fits = [dur(s) for s in spans
            if s["name"] == "core.stream.push_window" and s["op"] >= backlog_windows]
    loop = next(s for s in spans if s["name"] == "watch.loop")
    windows = c["core.stream.windows"]
    values = {
        "trace.tail.poll_ms": ratio(c.get("trace.tail.busy_poll_s", 0.0),
                                    c.get("trace.tail.busy_polls", 0.0)) * 1e3,
        "trace.tail.bytes": c["trace.tail.bytes"],
        "trace.tail.wait_ms": ratio(c.get("trace.tail.wait_s", 0.0),
                                    c.get("trace.tail.chunks", 0.0)) * 1e3,
        "trace.tail.empty_poll_ratio": ratio(c.get("trace.tail.empty_polls", 0.0),
                                             c.get("trace.tail.polls", 0.0)),
        "trace.tail.retries": c["trace.tail.retries"],
        "trace.tail.bad_lines": c["trace.tail.bad_lines"],
        "trace.window.push_ms": sum(selfs[s["id"]] for s in spans
                                    if s["name"] == "trace.window.push") / windows * 1e3,
        "trace.window.windows": windows,
        "trace.window.peak_open": c["trace.window.peak_open"],
        "trace.window.peak_buffered_tasks": c["trace.window.peak_buffered_tasks"],
        "core.stream.push_window_ms": h.median(fits) * 1e3,
        "core.stream.push_window_p90_ms": (h.percentile(fits, 90) or 0.0) * 1e3,
        "core.stream.wait_ms": ratio(c.get("core.stream.wait_s", 0.0),
                                     c.get("core.stream.live_windows", 0.0)) * 1e3,
        "core.stream.warm_ratio": c["core.stream.warm_windows"] / windows,
        "core.stream.carried_windows": c["core.stream.carried_windows"],
        "core.stream.tasks_per_window": c["core.stream.tasks"] / windows,
        "core.watch.live_step_ms": h.median(durs("core.watch.live_step", closing)) * 1e3,
        "core.watch.catchup_step_ms": sum(durs("core.watch.catchup_step")) * 1e3,
        "core.watch.checkpoint_ms": h.median(durs("core.watch.checkpoint")) * 1e3,
        "core.watch.checkpoint_bytes": c["core.watch.checkpoint_bytes"],
        "core.watch.lag_strides": c.get("core.watch.lag_strides", 0.0),
        "cli.overhead_ms": h.median(durs("cli.emit", closing)) * 1e3,
        "cli.share": sum(durs("cli.emit")) / pass1,
        "trace_overhead_pct": c["trace.spans"] * c["trace.span_cost_s"]
        / (pass1 + pass2) * 100.0,
        "trace.uncovered_share": selfs[loop["id"]] / (dur(loop) - sum(durs("idle.sleep"))),
    }
    late_ms = sorted(x * 1e3 for x in live_run["late"]) or [float("nan")]
    prov = procs.provenance([info], {
        "steal_s": live_run["steal"],
        "generator_late_p50_ms": h.median(late_ms),
        "generator_late_max_ms": late_ms[-1],
        "fingerprint": fp,
        "backlog_windows": backlog_windows,
        "live_windows": len(live_run["live_windows"]),
    })
    return len(live_run["live_windows"]) + 2, failed, finish(values), prov
