"""Tests of the benchmark itself, on rank-3 stand-ins for the real workloads.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

RANK3_CHECKS = 629
RANK3_UNIVERSAL = ("universal", "-n", "3")
RANK3_VERIFY = ("verify", "--suite", "all", "--max-rank", "3", "--seed", "0")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(checks=RANK3_CHECKS, digest=None):
    return lambda seed: [
        run.Job(RANK3_UNIVERSAL, digest=digest),
        run.Job(RANK3_VERIFY, checks),
    ]


def run_tiny(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(run.WORKLOADS, "tiny", workload)
    code = run.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(monkeypatch, capsys, trace, section):
    code, lines, result = run_tiny(monkeypatch, capsys, tiny(), trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for name, unit in declared.items():
        assert printed.get(name) == unit
    env = json.loads(lines[0])["env"]
    assert {"commit", "python", "backend", "nproc", "loadavg"} <= set(env)


def test_traced_run_reaches_every_binding_site(monkeypatch, capsys):
    _, _, result = run_tiny(monkeypatch, capsys, tiny(), 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # verify.py, chern.py and universal.py each bind expand_linear_chain by
    # name; positivity calls it from verify.py only.
    assert metrics["kernels.expand_linear_chain.calls"] > 0
    assert 0 < metrics["kernels.expand_linear_chain.distinct_ratio"] < 1
    for suite in ("formula-agreement", "positivity", "toy-rings"):
        assert metrics[f"verify.{suite}.incl_s"] > 0
    assert metrics["oracle.rank_theory.hit_ratio"] > 0.9
    assert metrics["poly.evaluate.calls"] > 0


def test_wrong_digest_fails_the_gate(monkeypatch, capsys):
    code, _, result = run_tiny(monkeypatch, capsys, tiny(digest="0" * 64), 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 2  # the universal process of every instance


def test_wrong_check_count_fails_the_gate(monkeypatch, capsys):
    code, _, result = run_tiny(monkeypatch, capsys, tiny(checks=RANK3_CHECKS + 1), 0)
    assert code == 1
    assert not result["correct"]
    assert result["metrics"]["success_rate"]["value"] < 1


def test_gate_on_single_outputs():
    stdout = b'{"status":"pass"}\n{"status":"pass"}\n'
    digest = hashlib.sha256(stdout).hexdigest()
    summary = b"2/2 checks passed\n"
    assert run.check_output(run.Job(("x",), 2, digest), 0, stdout, summary) == []
    assert run.check_output(run.Job(("x",), 2, "0" * 64), 0, stdout, summary)
    assert run.check_output(run.Job(("x",), 3, digest), 0, stdout, summary)
    assert run.check_output(run.Job(("x",), 2, digest), 1, stdout, summary)
    failing = b'{"status":"pass"}\n{"status":"fail"}\n'
    assert run.check_output(run.Job(("x",), 2), 0, failing, summary)
    assert run.check_output(run.Job(("x",), 2), 0, b"not json\n", summary)


def test_pinned_workloads_at_default_seed():
    assert all(job.digest for name in run.WORKLOADS for job in run.WORKLOADS[name](0))
    assert not any(job.digest for job in run.WORKLOADS["verify-r6"](1))
    seeds = [int(job.argv[-1]) for s in (0, 1) for job in run.WORKLOADS["toy-sweep"](s)]
    assert seeds == [0, 20, 40, 60, 80, 100]
