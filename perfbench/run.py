"""Pipeline benchmark of the redchern CLI.

    python3 perfbench/run.py --workload verify-r6 --seed 0 --seconds 36 --trace 0

Runs one workload (see WORKLOADS and perfbench/README.md) as fresh
``python -m redchern.cli`` processes from the checkout's ``src/``, one
process at a time, and checks every output.  With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced (perfbench/tracer.py) instances and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name every
metric with its unit and record the environment.  The exit code is 0 when
every process passed the gate, 1 when one failed it, 2 when the program
cannot be found or imported (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import ROOT_SPAN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_REPEATS = 7
MIN_INSTANCES = 2  # untraced runs; a traced run needs at least one pair
JOB_TIMEOUT_S = 170

# stdout sha256 recorded at commit 532b50d.  universal-r7 takes no seed;
# the verify workloads are pinned at their default seed 0.
UNIVERSAL_R7_SHA = "10e7e18ac03135a8e47e7625c4b42ef0b23f69c6b9d07cd7776f41ff8bac84ae"
VERIFY_R6_SEED0_SHA = "eabe41a503739d8d471bf9f8707712e14897efda113683ad05b4a91c882c6e87"
TOY_SWEEP_SEED0_SHA = (
    "72637fa3aa079ab1128d8dede2c12a6d8358fd3ae32e8c63a3d7c745ea0db5a6",
    "c35e5cc1367798afeac0688f6376b26a7d04bfdb0b579cc07523c007c1e99ef4",
    "0c95aabbe01578a8f37a8929dfbff7fd8ea6a40d32331ad038ffe1e99e5305bf",
)
VERIFY_R6_CHECKS = 1610
TOY_BLOCK_CHECKS = 1200
TOY_BLOCK_SEEDS = 20  # verify.TOY_SEED_COUNT: block seed s covers s..s+19


@dataclass(frozen=True)
class Job:
    """One CLI process: its arguments and what its output must satisfy."""

    argv: tuple[str, ...]
    checks: int | None = None  # expected verify check count
    digest: str | None = None  # pinned stdout sha256


def universal_r7(seed: int) -> list[Job]:
    return [Job(("universal", "-n", "7", "--allow-large-rank"), digest=UNIVERSAL_R7_SHA)]


def verify_r6(seed: int) -> list[Job]:
    argv = ("verify", "--suite", "all", "--max-rank", "6", "--seed", str(seed))
    return [Job(argv, VERIFY_R6_CHECKS, VERIFY_R6_SEED0_SHA if seed == 0 else None)]


def toy_sweep(seed: int) -> list[Job]:
    """Three blocks with disjoint seed ranges; seed S covers 60S..60S+59."""
    jobs = []
    for k, pinned in enumerate(TOY_SWEEP_SEED0_SHA):
        block = (len(TOY_SWEEP_SEED0_SHA) * seed + k) * TOY_BLOCK_SEEDS
        argv = ("verify", "--suite", "toy-rings", "--max-rank", "5", "--seed", str(block))
        jobs.append(Job(argv, TOY_BLOCK_CHECKS, pinned if seed == 0 else None))
    return jobs


WORKLOADS = {"universal-r7": universal_r7, "verify-r6": verify_r6, "toy-sweep": toy_sweep}


def check_output(job: Job, returncode: int, stdout: bytes, stderr: bytes) -> list[str]:
    """The correctness gate for one process; returns its problems."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if job.digest is not None and hashlib.sha256(stdout).hexdigest() != job.digest:
        problems.append("stdout differs from the pinned digest")
    if job.checks is not None:
        try:
            statuses = [json.loads(line)["status"] for line in stdout.splitlines()]
        except (ValueError, KeyError, TypeError):
            return problems + ["stdout is not one JSON check per line"]
        if len(statuses) != job.checks:
            problems.append(f"{len(statuses)} checks, expected {job.checks}")
        failing = sum(1 for s in statuses if s != "pass")
        if failing:
            problems.append(f"{failing} checks failed")
        summary = f"{job.checks}/{job.checks} checks passed".encode()
        if summary not in stderr:
            problems.append("stderr lacks the all-passed summary")
    return problems


@dataclass
class Instance:
    """One execution of every job of a workload."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # A fixed hash seed keeps set and dict layouts, and so run times, alike
    # across processes; the reports do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_instance(jobs: list[Job], trace_prefix: Path | None = None) -> Instance:
    """Run the jobs one after another; traced through tracer.py when a prefix is given."""
    inst = Instance()
    for k, job in enumerate(jobs):
        if trace_prefix is None:
            argv = [sys.executable, "-m", "redchern.cli", *job.argv]
        else:
            tracer = str(Path(__file__).with_name("tracer.py"))
            argv = [sys.executable, tracer, f"{trace_prefix}-{k}", *job.argv]
        cpu0 = children_cpu_s()
        start = perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=child_env(), capture_output=True,
                timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            problems = [f"timed out after {JOB_TIMEOUT_S} s"]
            stdout = b""
        else:
            problems = check_output(job, proc.returncode, proc.stdout, proc.stderr)
            stdout = proc.stdout
        inst.wall_s += perf_counter() - start
        inst.cpu_s += children_cpu_s() - cpu0
        inst.digests.append(hashlib.sha256(stdout).hexdigest())
        if problems:
            inst.failed += 1
            inst.problems.append(f"{' '.join(job.argv)}: {'; '.join(problems)}")
    return inst


def repeat(run_once, seconds: float, minimum: int) -> list:
    """Call run_once at least `minimum` times, then while the next call fits in `seconds`."""
    samples = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        samples.append(run_once())
        last = perf_counter() - t0
        if len(samples) >= minimum and perf_counter() - start + last > seconds:
            return samples


def probe_program() -> dict | None:
    """Import the CLI once (untimed, it also writes bytecode); None if that fails."""
    code = (
        "import json, sys, redchern, redchern.cli; print(json.dumps("
        "{'backend': getattr(redchern, 'BACKEND', None), 'file': redchern.__file__,"
        " 'python': sys.version.split()[0]}))"
    )
    if not (SRC / "redchern" / "cli.py").is_file():
        return None
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return None
    info = json.loads(proc.stdout)
    if not Path(info.pop("file")).resolve().is_relative_to(SRC.resolve()):
        return None
    return info


def time_setup() -> tuple[float, bool]:
    """Wall time for a fresh interpreter to import redchern.cli, and success."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import redchern.cli"], cwd=ROOT, env=child_env(),
        capture_output=True, timeout=JOB_TIMEOUT_S,
    )
    return perf_counter() - start, proc.returncode == 0


def environment(program: dict) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "redchern").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": program["python"],
        "backend": program["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def layer_metrics(prefixes: list[Path]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of BENCHMARK.json except trace_overhead_s.

    A metric "<span>.<kind>" sums over the processes of one traced instance:
    calls, incl_s and self_s come from the spans, hit_ratio from the
    cache_info() counts, the rest from counters the tracer took at the
    span's boundary.  unattributed_s is the self time of the root span.
    Functions that did not run read 0.  Also returns the targets the
    tracer could not find.
    """
    per_name: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    missing: set[str] = set()
    for prefix in prefixes:
        spans = []
        child_time: dict[int, float] = {}
        with open(f"{prefix}.spans.jsonl", encoding="utf-8") as lines:
            for line in lines:
                span = json.loads(line)
                span["dur"] = span["end"] - span["start"]
                spans.append(span)
                if span["parent"] is not None:
                    child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["dur"]
        for span in spans:
            stats = per_name.setdefault(span["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["incl_s"] += span["dur"]
            stats["self_s"] += span["dur"] - child_time.get(span["id"], 0.0)
        recorded = json.loads(Path(f"{prefix}.counters.json").read_text(encoding="utf-8"))
        for key, value in recorded["counters"].items():
            counters[key] = counters.get(key, 0) + value
        missing.update(recorded["missing"])

    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    metrics = {"unattributed_s": per_name.get(ROOT_SPAN, zero)["self_s"]}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name in ("trace_overhead_s", "unattributed_s"):
            continue
        span, _, kind = name.rpartition(".")
        stats = per_name.get(span, zero)
        if kind in stats:
            metrics[name] = stats[kind]
        elif kind == "hit_ratio":
            hits = counters.get(f"{span}.hits", 0)
            looked_up = hits + counters.get(f"{span}.misses", 0)
            metrics[name] = hits / looked_up if looked_up else 0.0
        elif kind == "distinct_ratio":
            distinct = counters.get(f"{span}.distinct", 0)
            metrics[name] = distinct / stats["calls"] if stats["calls"] else 0.0
        else:
            metrics[name] = counters.get(name, 0)
    return metrics, sorted(missing)


@dataclass
class Tally:
    """What a run attempted and what failed the gate, with report lines."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)

    def add(self, inst: Instance, processes: int) -> Instance:
        self.attempted += processes
        self.failed += inst.failed
        self.problems.extend(inst.problems)
        return inst

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def measure_untraced(jobs: list[Job], seconds: float, tally: Tally) -> dict[str, float]:
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, ok = time_setup()
        tally.attempted += 1
        if not ok:
            tally.fail("import redchern.cli failed")
        setups.append(elapsed)
    runs = repeat(lambda: tally.add(run_instance(jobs), len(jobs)), seconds, MIN_INSTANCES)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tally.report.append(
        f"samples: {len(runs)} instances of {len(jobs)} processes, wall_s "
        + " ".join(f"{r.wall_s:.3f}" for r in runs)
        + f"; {SETUP_REPEATS} set-ups; medians reported"
    )
    return {
        "wall_s": median(r.wall_s for r in runs),
        "cpu_s": median(r.cpu_s for r in runs),
        "setup_s": median(setups),
        "peak_rss_mb": rss_kb / 1024,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
    }


def measure_traced(jobs: list[Job], seconds: float, tally: Tally, tag: str) -> dict[str, float]:
    pairs = []

    def traced_pair():
        plain = tally.add(run_instance(jobs), len(jobs))
        prefix = OUT / "trace" / f"{tag}-{len(pairs)}"
        traced = tally.add(run_instance(jobs, trace_prefix=prefix), len(jobs))
        if traced.digests != plain.digests:
            tally.fail("traced stdout differs from untraced stdout")
        layers, missing = layer_metrics([Path(f"{prefix}-{k}") for k in range(len(jobs))])
        layers["trace_overhead_s"] = traced.wall_s - plain.wall_s
        pairs.append(layers)
        if missing and len(pairs) == 1:
            tally.report.append("not wrapped (absent from the program): " + ", ".join(missing))

    repeat(traced_pair, seconds, 1)
    metrics = {}
    for name in pairs[0]:
        values = [layers[name] for layers in pairs]
        if UNITS[name] == "count" and len(set(values)) > 1:
            tally.fail(f"{name} differs between traced instances: {values}")
        metrics[name] = median(values)
    tally.report.append(f"samples: {len(pairs)} untraced/traced pairs; medians reported")
    return metrics


def measure(jobs: list[Job], seconds: float, trace: bool, tag: str) -> tuple[dict, Tally]:
    """Run one workload; return the result object and the tally behind it."""
    tally = Tally()
    if trace:
        metrics = measure_traced(jobs, seconds, tally, tag)
    else:
        metrics = measure_untraced(jobs, seconds, tally)
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in wanted},
    }
    return result, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    program = probe_program()
    if program is None:
        print(f"error: cannot import redchern.cli from {SRC}", file=sys.stderr)
        return 2
    env = environment(program)
    jobs = WORKLOADS[args.workload](args.seed)
    result, tally = measure(jobs, args.seconds, bool(args.trace), args.workload)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env}))
    for line in tally.report:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:>14.6g} {metric['unit']}")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
