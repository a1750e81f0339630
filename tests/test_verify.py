"""Suite runner: determinism, sorting, failure reporting."""

import json

import pytest

from redchern import chern, kernels, oracle, universal, verify
from redchern.poly import MPoly, e_vars


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
    # three chains per rank: shifted roots, twist, and the positivity
    # suite's own y-root product; s and F come from power sums instead
    for cached in (
        chern.shifted_root_sigma,
        chern._twist_universal,
        chern.sym_power_det_inverse_chern,
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
    monkeypatch.setattr(verify, "expand_linear_chain", counting)
    assert all(r.passed for r in verify.run_all(max_rank=4))
    assert len(inputs) == 9
    assert len(set(inputs)) == 9


@pytest.fixture
def fresh_phi():
    universal.compute_phi.cache_clear()
    yield
    universal.compute_phi.cache_clear()


def corrupt_s2(monkeypatch, extra):
    honest = universal.s_in_elementary

    def corrupted(n):
        s_list = honest(n)
        return [s_list[0], s_list[1] + extra(e_vars(n))] + s_list[2:]

    monkeypatch.setattr(universal, "s_in_elementary", corrupted)


def test_phi_roundtrip_catches_a_corrupted_s(monkeypatch, fresh_phi):
    # s and the symmetric-power classes share elementary_of_forms, so the
    # cross-check must still fail when s alone is wrong
    corrupt_s2(monkeypatch, lambda evt: MPoly.variable(evt, "e2"))
    results = verify.suite_phi_roundtrip(max_rank=3)
    assert any(not r.passed and r.identity == "phi-roundtrip" for r in results)


def test_phi_cannot_see_corruption_in_the_e1_ideal(monkeypatch, fresh_phi):
    # phi_i = psi_i(0, u_2, ..., u_n) and e_1 = s_1 / N, so adding a multiple
    # of e_1 to s_2 leaves every phi unchanged; only a check of s itself,
    # such as the differential test against the chain, can tell
    honest_psi = universal.solve_psi(3).psi
    corrupt_s2(monkeypatch, lambda evt: MPoly.variable(evt, "e1") ** 2)
    results = verify.suite_phi_roundtrip(max_rank=3)
    assert all(r.passed for r in results)
    assert universal.compute_phi(3).psi != honest_psi
