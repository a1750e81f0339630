"""Suite runner: determinism, sorting, failure reporting."""

import json

import pytest

from redchern import chern, kernels, oracle, universal, verify


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nope", max_rank=2)


def test_run_all_rank_two_passes_and_sorts():
    results = verify.run_all(max_rank=2, seed=1)
    assert results and all(r.passed for r in results)
    keys = [(r.identity, r.ring, r.rank, r.seed) for r in results]
    assert keys == sorted(keys)


def test_symbolic_suites_report_ring_id():
    for name in ("formula-agreement", "twist", "c1-zero", "positivity"):
        results = verify.run_suite(name, max_rank=2)
        assert all(r.ring == verify.SYMBOLIC for r in results)


def test_toy_suite_seed_offsets():
    results = verify.run_suite("toy-rings", max_rank=2, seed=100)
    seeds = {r.seed for r in results}
    assert seeds == set(range(100, 100 + verify.TOY_SEED_COUNT))


def test_failures_serialize_with_witness(monkeypatch):
    bad = oracle.mutate_phi(oracle.rank_theory(2), i=2)
    monkeypatch.setattr(oracle, "rank_theory", lambda n: bad)
    results = verify.run_suite("toy-rings", max_rank=2)
    failing = [r for r in results if not r.passed]
    assert failing
    for r in failing:
        obj = r.to_json_obj()
        line = json.dumps(obj)
        assert json.loads(line)["status"] == "fail"
        assert obj["witness"] is None or "terms" in obj["witness"]


def test_triangularity_suite_shape():
    results = verify.run_suite("triangularity", max_rank=3)
    tags = sorted({r.identity for r in results})
    assert tags == ["triangularity", "triangularity-e-to-m"]
    assert all(r.passed for r in results)


def test_run_all_expands_each_chain_once(monkeypatch):
    # four chains per rank: shifted roots, twist, symmetric power, y-roots
    for cached in (
        chern.shifted_root_sigma,
        chern._twist_universal,
        chern.sym_power_det_inverse_chern,
        universal.y_root_product,
        universal.compute_phi,
        oracle.rank_theory,
    ):
        cached.cache_clear()
    inputs = []

    def counting(forms, nvars, cap):
        forms = tuple(tuple(f) for f in forms)
        inputs.append((forms, nvars, cap))
        return kernels.expand_linear_chain(forms, nvars, cap)

    monkeypatch.setattr(chern, "expand_linear_chain", counting)
    monkeypatch.setattr(universal, "expand_linear_chain", counting)
    assert all(r.passed for r in verify.run_all(max_rank=4))
    assert len(inputs) == 12
    assert len(set(inputs)) == 12
