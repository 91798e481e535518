"""Process plumbing of the qni benchmark: building the binaries, running
one `qni` process with its resource usage, reading a live process's CPU
time, and the host noise counters recorded with every run."""

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import BenchError

ROOT = Path(__file__).resolve().parent.parent
TRACER_MANIFEST = Path(__file__).resolve().parent / "tracer" / "Cargo.toml"
CLK_TCK = os.sysconf("SC_CLK_TCK")


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def _cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return r.returncode == 0


def build(tracer_needed):
    """Builds the commit's `qni` binary, and the traced runner when
    `tracer_needed`. The gated runs depend on the binary alone: a traced
    runner that no longer builds against the library is only attempted
    once per build directory (so it is ready for traced runs) and
    otherwise ignored. Returns `(qni, tracer_or_None)`."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "bin" / "qni.rs").is_file():
        raise BenchError(f"{ROOT} is not a qni checkout (no Cargo.toml or src/bin/qni.rs)")
    if not _cargo(["--bin", "qni"]):
        raise BenchError("cargo build of the qni binary failed")
    qni = target_dir() / "release" / "qni"
    tracer = target_dir() / "release" / "qni-perfbench-tracer"
    marker = target_dir() / "perfbench-tracer.attempted"
    if tracer_needed:
        if not _cargo(["--manifest-path", str(TRACER_MANIFEST)]):
            raise BenchError("cargo build of the traced runner failed")
        return qni, tracer
    if not marker.exists():
        _cargo(["--manifest-path", str(TRACER_MANIFEST)])
        marker.write_text("")
    return qni, None


@dataclass(frozen=True)
class ProcResult:
    rc: int
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: str
    stderr: str


def run(cmd, workdir, tag="proc"):
    """Runs one process to exit with its output in files (no pipe can
    block it) and returns its exit code, wall time from spawn to exit,
    user+sys CPU seconds and peak RSS from `wait4`."""
    out_path = workdir / f"{tag}.out"
    err_path = workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(
            [str(c) for c in cmd], stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        p.returncode,
        wall,
        ru.ru_utime + ru.ru_stime,
        ru.ru_maxrss,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def checked(cmd, workdir, tag="proc"):
    r = run(cmd, workdir, tag)
    if r.rc != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {r.rc}: {r.stderr.strip()[-400:]}")
    return r


def proc_cpu_s(pid):
    """User+sys CPU seconds of a live process (all its threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def steal_s():
    """Host-wide steal time so far (seconds, summed over CPUs)."""
    with open("/proc/stat") as f:
        cols = f.readline().split()
    return int(cols[8]) / CLK_TCK if len(cols) > 8 else 0.0


def describe_trace(path):
    """Digest and size of one JSONL input, plus its task entry times and
    the file offset just past each task's q0 line (for the live feed)."""
    data = path.read_bytes()
    entries = []
    q0_line_ends = []
    task_starts = []
    events = 0
    pos = 0
    for line in data.splitlines(keepends=True):
        rec = json.loads(line)
        if rec["queue"] == 0:
            if rec["task"] != len(entries):
                raise BenchError(f"{path.name}: tasks are not contiguous in file order")
            entries.append(rec["departure"])
            task_starts.append(pos)
            q0_line_ends.append(pos + len(line))
        events += 1
        pos += len(line)
    return {
        "digest": hashlib.sha256(data).hexdigest()[:16],
        "bytes": len(data),
        "tasks": len(entries),
        "events": events,
        "entries": entries,
        "task_starts": task_starts,
        "q0_line_ends": q0_line_ends,
    }


def provenance(inputs, extra):
    """The per-run record that tells a noisy host, a late generator or a
    changed input apart from a slower program."""
    rec = {
        "nproc": os.cpu_count(),
        "inputs": [
            {k: d[k] for k in ("name", "digest", "bytes", "tasks", "events")} for d in inputs
        ],
    }
    rec.update(extra)
    return rec
