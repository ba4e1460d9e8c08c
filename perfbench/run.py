"""Benchmark of borel-orbits: four exact-arithmetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--trace 0|1]       # all four workloads in turn

Workloads (README.md in this directory says why each was chosen):

    orbit-table  CLI `orbits C8 --anr 8 --csv`               items: records
    conjecture   CLI `conjecture-check C6 --node 6 --json`   items: orbit rows
    normal-form  library reduce_in_ideal/reduce_in_dual + replay over a
                 corpus generated from --seed                items: reductions
    label-count  CLI `count-anr C11 --node 11`               items: labels

Every sample is a fresh single-threaded child process (child.py), started
one at a time, so the load is a closed loop with one client.  With
--trace 0 the run first starts a few set-up-only children (set-up time),
then runs the workload in new children until --seconds have passed, and
reports the median of each end-to-end metric.  With --trace 1 it runs the
workload once untraced and twice with spans around the package's public
functions (tracer.py), checks that tracing changed no output and that
the counts repeat, and reports the per-layer metrics.  Every output is
checked against an oracle; failed operations are counted, not hidden.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
PACKAGE = ROOT / "src" / "borel_orbits" / "__init__.py"

SETUP_PROBES = 7        # set-up-only children per run; setup_s is their median
MIN_SAMPLES = 2         # workload children per untraced run, even past --seconds
RUN_DEADLINE_S = 165.0  # a run stops starting children here and kills late ones
SECOND_SEED_OFFSET = 1_000_003

# sha256 of the CLI stdout at the commit that introduced this benchmark
ORBIT_TABLE_SHA256 = "c79f37737f9478f288c8343d9c464d71d6b18e2949947b497890bb6e3d879727"
CONJECTURE_SHA256 = "b5bcac6f3af7d142cca64658ade1be8ef7de1f2826a4b193b62cdfe1ce7030e1"


# -- oracles ---------------------------------------------------------------

def d_count(n: int, k: int) -> int:
    """Labels of size k in the spinor nilradical of D_n (closed form)."""
    return comb(n, 2 * k) * factorial(2 * k) // (factorial(k) * 2 ** k) if 2 * k <= n else 0


def c_count(n: int, k: int) -> int:
    """Labels of size k in the symplectic nilradical of C_n (closed form)."""
    if k > n:
        return 0
    return sum(comb(n - 2 * t, k - t) * d_count(n, t) for t in range(min(k, n - k) + 1))


def c_counts(n: int) -> list:
    return [c_count(n, k) for k in range(n + 1)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_orbit_table(out: bytes) -> list:
    rows = list(csv.reader(io.StringIO(out.decode())))[1:]
    sizes = Counter(int(r[1]) for r in rows)
    problems = []
    if [sizes.get(k, 0) for k in range(9)] != c_counts(8) or len(rows) != 7193:
        problems.append(f"label counts by size {sorted(sizes.items())} != c_count(8, k)")
    if _sha256(out) != ORBIT_TABLE_SHA256:
        problems.append("stdout differs from the recorded digest")
    return problems


def check_conjecture(out: bytes) -> list:
    report = json.loads(out)
    sizes = Counter(len(r["orth_set"]) for r in report["rows"])
    problems = []
    if report["ok"] is not True:
        problems.append("report is not ok")
    if [sizes.get(k, 0) for k in range(7)] != c_counts(6) or len(report["rows"]) != 499:
        problems.append(f"rows by label size {sorted(sizes.items())} != c_count(6, k)")
    if _sha256(out) != CONJECTURE_SHA256:
        problems.append("stdout differs from the recorded digest")
    return problems


def check_label_count(out: bytes) -> list:
    head, _, total = out.decode().strip().rpartition("|")
    counts = [int(x) for x in head.split(":", 1)[1].split()]
    if counts != c_counts(11) or int(total) != 538078:
        return [f"counts {counts} | {total.strip()} != c_count(11, k)"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    items: Optional[int]                   # per sample; None: the corpus size
    check: Optional[Callable[[bytes], list]]


WORKLOADS = {w.name: w for w in (
    Workload("orbit-table", 7193, check_orbit_table),
    Workload("conjecture", 499, check_conjecture),
    Workload("normal-form", None, None),
    Workload("label-count", 538078, check_label_count),
)}


# -- child processes -------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: Path
    report: Optional[dict]


def spawn(args: list, tag: str, timeout: float) -> Sample:
    """Run child.py to completion; wall, CPU and peak RSS are its own.

    os.wait4 gives the rusage of this one child, where RUSAGE_CHILDREN
    would report the maximum over every child reaped so far.
    """
    stdout, stderr, report = (WORK / f"{tag}.{ext}" for ext in ("out", "err", "json"))
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    killed = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args, "--report", str(report)],
            stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(report.read_text()) if report.exists() else None
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, killed.is_set(), stdout, data)


@dataclass(frozen=True)
class Corpus:
    path: Path
    sha256: str
    items: int


class Run:
    """One invocation: a deadline, the samples taken and their verdicts."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.count = 0
        self.corpus = self.make_corpus(seed) if workload.items is None else None

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, args: list, kind: str) -> Sample:
        self.count += 1
        return spawn(args, f"{self.workload.name}.{kind}{self.count}", self.remaining())

    def make_corpus(self, seed: int) -> Corpus:
        """Write the normal-form corpus of a seed, before any timing."""
        path = WORK / f"{self.workload.name}.input{self.count + 1}.json"
        s = self.spawn(["corpus", "normal-form", "--seed", str(seed),
                        "--corpus", str(path)], "corpus")
        if s.exit_code != 0:
            fail(f"corpus generation for seed {seed} failed (exit {s.exit_code})", s)
        data = path.read_bytes()
        return Corpus(path, _sha256(data), len(json.loads(data)))

    def setup_probe(self) -> float:
        s = self.spawn(["setup", self.workload.name], "setup")
        if s.exit_code != 0:
            fail(f"set-up of {self.workload.name} failed (exit {s.exit_code})", s)
        return s.wall_s

    def items(self, corpus: Optional[Corpus] = None) -> int:
        corpus = corpus or self.corpus
        return self.workload.items if corpus is None else corpus.items

    def sample(self, trace: bool = False, corpus: Optional[Corpus] = None) -> Sample:
        """One checked workload child; its items count as attempted."""
        w = self.workload
        corpus = corpus or self.corpus
        args = ["run", w.name] + (["--corpus", str(corpus.path)] if corpus else [])
        s = self.spawn(args + (["--trace"] if trace else []), "run")
        items = self.items(corpus)
        problems = []
        if s.timed_out:
            problems.append("timed out")
        elif s.exit_code != 0 or s.report is None or s.report.get("rc") != 0:
            problems.append(f"exit {s.exit_code}: {tail(s.stdout.with_suffix('.err'))}")
        elif w.check is not None:
            try:
                problems += w.check(s.stdout.read_bytes())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        self.attempted += items
        if problems:
            self.failed += items
        elif s.report.get("failed"):
            self.failed += s.report["failed"]
            problems.append(f"{s.report['failed']} of {items} reductions failed")
        self.problems += [f"{s.stdout.stem}: {p}" for p in problems]
        return s

    def digest(self, s: Sample) -> Optional[str]:
        """Digest of what a sample computed: its stdout, or its checked results."""
        if s.report is None:
            return None
        return s.report["digest"] if self.corpus else _sha256(s.stdout.read_bytes())


def tail(path: Path, n: int = 300) -> str:
    text = path.read_text(errors="replace").strip() if path.exists() else ""
    return text[-n:].replace("\n", " | ")


def fail(message: str, s: Optional[Sample] = None) -> None:
    """The benchmark itself cannot run: exit nonzero without a result."""
    if s is not None:
        message += f": {tail(s.stdout.with_suffix('.err'))}"
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


# -- the two kinds of run --------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_untraced(run: Run, seconds: float) -> tuple:
    run.setup_probe()  # fills __pycache__ and the file cache, not measured
    setup = [run.setup_probe() for _ in range(SETUP_PROBES)]
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(run.sample())
        elapsed = time.perf_counter() - start
        typical = median([s.wall_s for s in samples])
        if len(samples) >= MIN_SAMPLES and elapsed + typical > seconds:
            break
        if typical > run.remaining() - 5.0:
            break
    rates = [run.items() / s.report["work_s"] for s in samples
             if s.report is not None and s.report.get("work_s")]
    metrics = {
        "wall_s": (median([s.wall_s for s in samples]), "s"),
        "cpu_s": (median([s.cpu_s for s in samples]), "s"),
        "setup_s": (median(setup), "s"),
        "items_per_s": (median(rates), "1/s"),
        "peak_rss_mb": (median([s.rss_mb for s in samples]), "MB"),
    }
    details = {"samples": len(samples),
               "wall_s_each": [round(s.wall_s, 4) for s in samples],
               "cpu_s_each": [round(s.cpu_s, 4) for s in samples],
               "setup_s_each": [round(x, 4) for x in setup]}
    return metrics, details


def layer_metrics(traced: list, untraced: Sample) -> dict:
    """Per-layer values from the traced samples (times: median; counts: first)."""
    first = traced[0]
    c = first["counts"]

    def self_s(group):
        return median([t["spans"][group][2] for t in traced])

    def calls(group):
        return first["spans"][group][0] if group in first["spans"] else first["calls"][group]

    def share(num, den):
        return num / den if den else 0.0

    reductions = calls("normal_form.reduce")
    values = {
        "root_system.build_s": self_s("root_system.build"),
        "root_system.minmax_calls": calls("root_system.minmax"),
        "root_system.minmax_s": self_s("root_system.minmax"),
        "ideals.validate_calls": calls("ideals.validate"),
        "ideals.validate_s": self_s("ideals.validate"),
        "orbits.labels": c["orbits.labels"],
        "orbits.enum_s": self_s("orbits.enum"),
        "orbits.shift_calls": calls("orbits.shift"),
        "orbits.shift_s": self_s("orbits.shift"),
        "orbits.peel_calls": calls("orbits.peel"),
        "orbits.peel_s": self_s("orbits.peel"),
        "weyl.sigma_calls": calls("weyl.sigma"),
        "weyl.sigma_s": self_s("weyl.sigma"),
        "weyl.reflection_calls": calls("weyl.reflection"),
        "weyl.length_calls": calls("weyl.length"),
        "weyl.length_s": self_s("weyl.length"),
        "weyl.abs_length_s": self_s("weyl.abs_length"),
        "weyl.bruhat_calls": calls("weyl.bruhat"),
        "weyl.bruhat_s": self_s("weyl.bruhat"),
        "weyl.bruhat_true_ratio": share(c["weyl.bruhat_true"], calls("weyl.bruhat")),
        "chevalley.table_s": self_s("chevalley.table"),
        "chevalley.exp_calls": calls("chevalley.exp"),
        "chevalley.exp_s": self_s("chevalley.exp"),
        "intlin.snf_calls": calls("intlin.snf"),
        "intlin.snf_s": self_s("intlin.snf"),
        "intlin.rank_calls": calls("intlin.rank"),
        "intlin.rank_s": self_s("intlin.rank"),
        "normal_form.reduce_calls": reductions,
        "normal_form.reduce_s": self_s("normal_form.reduce"),
        "normal_form.kill_steps": c["normal_form.kill_steps"],
        "normal_form.char_calls": calls("normal_form.char"),
        "normal_form.char_s": self_s("normal_form.char"),
        "normal_form.replay_s": self_s("normal_form.replay"),
        "normal_form.label_reuse": share(c["normal_form.label_reuse"], reductions),
        "normal_form.normalized_ratio": share(c["normal_form.normalized"], reductions),
        "anr.report_s": self_s("anr.report"),
        "anr.covers": c["anr.covers"],
        "anr.statistic_s": self_s("anr.statistic"),
        "cli.render_s": self_s("cli.render"),
        "cli.stdout_bytes": untraced.stdout.stat().st_size,
    }
    return {name: (value, layer_unit(name)) for name, value in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_reuse")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def exact_counts(trace: dict) -> dict:
    """Everything in a trace snapshot that must repeat exactly."""
    return {"calls": {g: v[0] for g, v in trace["spans"].items()} | trace["calls"],
            "counts": trace["counts"]}


def run_traced(run: Run, seed: int) -> tuple:
    untraced = run.sample()
    traced = [run.sample(trace=True) for _ in range(2)]
    reports = [s.report.get("trace") if s.report else None for s in traced]
    if any(r is None for r in reports):
        fail("a traced child wrote no trace", traced[0])
    checks = {
        "traced_output_matches_untraced": all(
            run.digest(s) == run.digest(untraced) for s in traced),
        "counts_repeat": exact_counts(reports[0]) == exact_counts(reports[1]),
        "self_time_within_wall": all(
            sum(v[2] for v in r["spans"].values()) <= s.wall_s
            for r, s in zip(reports, traced)),
    }
    if run.corpus is not None:
        other = run.make_corpus(seed + SECOND_SEED_OFFSET)
        failed = run.failed
        run.sample(corpus=other)
        checks["second_seed_corpus_differs"] = other.sha256 != run.corpus.sha256
        checks["second_seed_runs_clean"] = run.failed == failed
    run.problems += [f"self-check failed: {name}" for name, ok in checks.items() if not ok]
    metrics = layer_metrics(reports, untraced)
    overhead = median([s.wall_s for s in traced]) - untraced.wall_s
    metrics["trace.overhead_s"] = (overhead, "s")
    details = {"checks": checks, "untraced_wall_s": round(untraced.wall_s, 4),
               "traced_wall_s": [round(s.wall_s, 4) for s in traced]}
    return metrics, details


# -- environment and output ------------------------------------------------

def git_sha() -> Optional[str]:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), None)
    load = read("/proc/loadavg").split()
    return {"python": platform.python_version(), "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg_1m": float(load[0]) if load else None}


def bench(name: str, seed: int, seconds: float, trace: bool) -> None:
    env = environment()
    run = Run(WORKLOADS[name], seed)
    metrics, details = run_traced(run, seed) if trace else run_untraced(run, seconds)
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{name}: seed {seed}, {'traced' if trace else 'untraced'}, "
          f"one fresh child per sample")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:30s} {value:16.6f} {unit}")
    print(f"  {'error_rate':30s} {error_rate:16.6f} ratio "
          f"({run.failed} failed of {run.attempted} attempted)")
    for problem in run.problems:
        print(f"  problem: {problem}")
    if run.corpus is not None:
        details["corpus_sha256"] = run.corpus.sha256
        details["corpus_items"] = run.corpus.items
    print(json.dumps({"workload": name, "seed": seed, "env": env, "error_rate": error_rate,
                      "details": details}))
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if not PACKAGE.is_file():
        fail(f"{PACKAGE.relative_to(ROOT)} not found; run from a checkout of the repository")
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        bench(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
