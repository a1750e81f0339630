"""Suite runner: determinism, sorting, failure reporting."""

import json
import sys
from fractions import Fraction

import pytest

from redchern import chern, oracle, poly, symfun, universal, verify
from redchern.poly import MPoly

from . import naive
from .naive import x_vars
from .test_mutations import (
    PER_RANK_CACHES,
    S,
    add_to,
    fresh_caches,
    minus_c2_term,
    off_by_one_twist,
    patched,
)
from .test_oracle import corrupt


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nope", max_rank=2)


def test_run_all_rank_two_passes_and_sorts():
    results = verify.run_suite("all", max_rank=2, seed=1)
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


def test_toy_suite_rejects_a_negative_seed():
    # seeds -5..-1 of the block would draw the bundles of seeds 5..1 again
    with pytest.raises(ValueError):
        verify.run_suite("toy-rings", max_rank=2, seed=-5)


def test_failures_serialize_with_witness(monkeypatch):
    bad = corrupt(oracle.rank_theory(2), "phi", 0)
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


def test_run_all_expands_no_chain():
    # s_1..s_n and the reduced, twisted and F classes come from power sums
    # and the binomial formula, and positivity reads s from the solved
    # system, so no module of the library binds the chain expansion
    for cached in (
        chern.shifted_root_sigma,
        chern.sym_power_det_inverse_chern,
        universal.compute_phi,
        oracle.rank_theory,
    ):
        cached.cache_clear()
    assert all(r.passed for r in verify.run_suite("all", max_rank=4))
    library = [m for name, m in sys.modules.items() if name.startswith("redchern")]
    assert poly in library and verify in library
    assert "redchern.kernels" not in sys.modules
    assert not any(hasattr(m, "expand_linear_chain") for m in library)


def test_toy_rings_draws_each_bundle_once(monkeypatch):
    # one draw per (ring, seed), at the max rank: 3 rings x 20 seeds, each
    # bundle checked at ranks 2..5 against every identity tag
    draws = []
    honest = oracle.random_bundle

    def counting(ring, n, seed):
        draws.append((ring.id, n, seed))
        return honest(ring, n, seed)

    monkeypatch.setattr(oracle, "random_bundle", counting)
    results = verify.suite_toy_rings(5, 0)
    assert len(results) == 240 * len(oracle.IDENTITY_TAGS)
    assert all(r.passed for r in results)
    assert len(draws) == 60
    assert len(set(draws)) == 60
    assert {n for _, n, _ in draws} == {5}


def bump_phi(n, j):
    """rank_theory(n) with u_j/7 added to phi_j."""
    theory = oracle.rank_theory(n)
    phi = list(theory.phi)
    phi[j - 2] = phi[j - 2] + MPoly.variable(phi[0].table, f"u{j}") * Fraction(1, 7)
    return theory._replace(phi=tuple(phi))


@pytest.mark.parametrize("j", (8, 12))
def test_toy_rings_see_every_degree_up_to_the_max_rank(j):
    # at rank 12 only nilpotent-line, Q[h]/(h^13), is nonzero in degrees 8
    # and 12, so it alone sees the bump, on every seed's phi round trip;
    # the line of the rank-5 catalog, h^6 = 0, misses it
    bad = bump_phi(12, j)
    seeds = range(verify.TOY_SEED_COUNT)

    def failures(max_rank):
        rings = [oracle.ToyRing(*spec) for spec in verify.toy_ring_specs(max_rank)]
        results = [r for ring in rings for r in oracle.check_bundles(ring, bad, seeds)]
        assert len(results) == 300
        return {(r.ring, r.identity, r.seed) for r in results if not r.passed}

    assert failures(12) == {("nilpotent-line", "phi-roundtrip", s) for s in seeds}
    assert failures(5) == set()


def test_a_rank_n_toy_check_is_the_same_at_every_max_rank_from_n():
    # a reproduce command reruns a toy check at --max-rank n, where
    # nilpotent-line is cut at h^(n+1); its report, witnesses included,
    # is the one of the larger run
    n = 4
    bad = corrupt(oracle.rank_theory(n), "reduced", n - 1)

    def report(max_rank):
        ring = oracle.ToyRing(*verify.toy_ring_specs(max_rank)[0])
        results = oracle.check_bundles(ring, bad, range(verify.TOY_SEED_COUNT))
        return [json.dumps(r.to_json_obj()) for r in results]

    assert report(n) == report(9)
    assert any('"fail"' in line for line in report(n))


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_positivity_reads_the_chains_m_coordinates(n):
    # the expanded product of the C(2n-1, n) forms, read in the m-basis, is
    # independent of the power sums, the triangular solve and the e-to-m table
    chain = MPoly(x_vars(n), naive.expand_linear_chain(naive.root_compositions(n), n, n))
    for r, m_coords in enumerate(verify._s_in_monomials(n), start=1):
        expected = naive.monomial_coefficients(chain.graded_component(r)).coeffs
        assert m_coords == expected


def test_triangularity_runs_no_solve():
    # the leads are read from s, so the suite makes no compute_phi miss
    universal.compute_phi.cache_clear()
    assert all(r.passed for r in verify.run_suite("triangularity", max_rank=4))
    assert universal.compute_phi.cache_info().misses == 0


def test_triangularity_reports_an_s2_without_its_lead(monkeypatch, fresh_caches):
    # s_2 less its c_2 term has lead 0, which the solve would refuse to
    # divide by; the suite reports it as a failure instead
    patched(*S, add_to, 2, minus_c2_term)(monkeypatch)
    results = verify.suite_triangularity(max_rank=4)
    failed = [(r.identity, r.rank) for r in results if not r.passed]
    assert failed == [("triangularity", n) for n in (2, 3, 4)]
    with pytest.raises(universal.InternalInconsistencyError, match="no c_2 component"):
        universal.compute_phi(4)


@pytest.mark.parametrize("k, i", ((1, 0), (2, 0), (2, 1), (2, 2)))
@pytest.mark.parametrize("n", range(2, 6))
def test_round_trip_catches_one_binomial_coefficient_off(monkeypatch, fresh_caches, n, k, i):
    # solve_psi reads the twist through its own binding, so a wrong twist
    # of sigma or of psi must fail its round trip psi(s(c)) = c
    patched(universal, "twisted_classes", off_by_one_twist, k, i)(monkeypatch)
    with pytest.raises(universal.InternalInconsistencyError, match="round trip"):
        universal.solve_psi(n)


def test_positivity_builds_one_e_to_m_table_per_partition():
    # the table does not depend on the variable count, so ranks 2..6 share
    # one build for each partition met on the way
    symfun._e_to_m_table.cache_clear()
    verify.run_suite("positivity", 6)
    assert symfun._e_to_m_table.cache_info().misses == 30


def test_run_all_computes_each_twist_once():
    # suite_twist and the toy-ring theory share one twist per rank
    chern.twist.cache_clear()
    oracle.rank_theory.cache_clear()
    assert all(r.passed for r in verify.run_suite("all", max_rank=4))
    info = chern.twist.cache_info()
    assert (info.misses, info.hits) == (3, 3)


@pytest.mark.parametrize(
    "run, ranks",
    (
        pytest.param(lambda: verify.run_suite("all", 6, 0), 5, id="all-to-rank-6"),
        pytest.param(lambda: verify.suite_toy_rings(5, 20), 4, id="toy-rings-to-rank-5"),
    ),
)
def test_each_per_rank_artifact_is_built_once_per_rank(run, ranks):
    # s and the reduced and symmetric-power classes share one Newton table
    # per rank, so every cache misses once for each rank it is asked for
    for cached in PER_RANK_CACHES:
        cached.cache_clear()
    assert all(r.passed for r in run())
    assert [f.cache_info().misses for f in PER_RANK_CACHES] == [ranks] * 7


def evaluate_calls(monkeypatch, run):
    """The number of polynomials of each MPoly.evaluate call while run() runs."""
    honest = MPoly.evaluate
    calls = []

    def spy(polys, values, one):
        calls.append(len(polys))
        return honest(polys, values, one)

    with monkeypatch.context() as patch:
        patch.setattr(MPoly, "evaluate", spy)
        run()
    return calls


def test_each_point_shares_one_monomial_memo(monkeypatch):
    # each point is one MPoly.evaluate call over all the polynomials taken
    # there, so one monomial table serves them all: the twist suite makes
    # two calls per rank, c1-zero one, brauer_reduced one, and each ring
    # and rank of the toy suite five
    for n in range(2, 7):
        oracle.rank_theory(n)

    def phi_at_sym_powers():
        for n in range(2, 7):
            universal.brauer_reduced(chern.sym_power_det_inverse_chern(n)[1:])

    toy_calls = [c for n in range(2, 5) for c in (2 * n, n, n, n, n - 1)] * 3
    runs = {
        "twist": (lambda: verify.suite_twist(6), [n for n in range(2, 7) for _ in "lr"]),
        "c1-zero": (lambda: verify.suite_c1_zero(6), list(range(2, 7))),
        "phi": (phi_at_sym_powers, list(range(1, 6))),
        "toy-rings": (lambda: verify.suite_toy_rings(4, 0), toy_calls),
    }
    for name, (run, sizes) in runs.items():
        assert evaluate_calls(monkeypatch, run) == sizes, name


def test_c1_zero_multiplies_each_monomial_once_per_rank(monkeypatch):
    for n in range(2, 7):
        chern.shifted_root_sigma(n)
    honest = poly.VarTable.multiply_into
    products = []

    def counting(self, out, a, b):
        products.append(1)
        return honest(self, out, a, b)

    monkeypatch.setattr(poly.VarTable, "multiply_into", counting)
    assert all(r.passed for r in verify.suite_c1_zero(6))
    assert len(products) == 35
