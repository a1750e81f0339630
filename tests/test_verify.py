"""Suite runner: determinism, sorting, failure reporting."""

import json
import sys
from fractions import Fraction

import pytest

from redchern import chern, oracle, poly, symfun, universal, verify
from redchern.poly import MPoly, c_vars

from . import naive
from .naive import x_vars
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


@pytest.fixture
def fresh_phi():
    universal.compute_phi.cache_clear()
    yield
    universal.compute_phi.cache_clear()


def corrupt_s(monkeypatch, change):
    honest = universal.s_in_elementary
    monkeypatch.setattr(universal, "s_in_elementary", lambda n: change(honest(n)))


def add_to_s2(extra):
    return lambda s: (s[0], s[1] + extra(s[1].table)) + s[2:]


def corrupt_series(monkeypatch, delta):
    # adds exp(t p_1) delta(n) (p_2 - p_1^2/n)/2 to the forms' series, to
    # t^n: p_2 - p_1^2/n is p_2 of the shifted roots x_i - p_1/n, and
    # exp(t p_1) shifts every form by p_1 = s_1/N, so the corrupted s_r are
    # still the classes of a family shifted by s_1/N and pass the solve
    def corrupted(n):
        series = symfun.forms_series(n, 0)
        p1, p2 = MPoly.variable(series.table, "p1"), MPoly.variable(series.table, "p2")
        shape = (p2 - p1**2 * Fraction(1, n)) * delta(n)
        extra = naive.truncate(naive.exp_p1(n, 1) * shape, n)
        corrupted_series = series + extra * Fraction(1, 2)
        return tuple(symfun.elementary_from_power_sums(corrupted_series))

    monkeypatch.setattr(universal, "s_in_elementary", corrupted)


@pytest.mark.parametrize(
    "change",
    (
        pytest.param(add_to_s2(lambda cvt: MPoly.variable(cvt, "c2")), id="s2-plus-e2"),
        # phi is solved on c_1 = 0, so adding a multiple of c_1 to s_2
        # leaves every phi unchanged, and no suite that reads phi sees it;
        # only the round trip through psi does
        pytest.param(
            add_to_s2(lambda cvt: MPoly.variable(cvt, "c1") ** 2),
            id="s2-plus-e1-squared",
        ),
        pytest.param(add_to_s2(lambda cvt: MPoly.variable(cvt, "c1")), id="s2-plus-e1"),
        # doubling s_1 makes lead_1 twice the form count
        pytest.param(lambda s: (2 * s[0],) + s[1:], id="twice-s1"),
        pytest.param(lambda s: (s[0], -s[1]) + s[2:], id="minus-s2"),
    ),
)
def test_solve_rejects_an_s_without_the_twist_structure(monkeypatch, fresh_phi, change):
    # psi comes from phi by the twist s_j -> sigma_j, which holds only for
    # the classes of a family of N forms shifted together, so the round trip
    # psi(s(c)) = c fails for these ad-hoc corruptions
    corrupt_s(monkeypatch, change)
    with pytest.raises(universal.InternalInconsistencyError):
        universal.compute_phi(3)


def test_phi_roundtrip_catches_a_corrupted_s(monkeypatch, fresh_phi):
    # s and the symmetric-power classes share the composition series and
    # elementary_from_power_sums, so the cross-check must still fail when s
    # alone is wrong
    corrupt_series(monkeypatch, lambda n: 1)
    results = verify.suite_phi_roundtrip(max_rank=4)
    assert failing_ranks(results, "phi-roundtrip") == {2, 3, 4}
    assert all(r.passed for r in results if r.identity != "phi-roundtrip")


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_positivity_reads_the_chains_m_coordinates(n):
    # the expanded product of the C(2n-1, n) forms, read in the m-basis, is
    # independent of the power sums, the triangular solve and the e-to-m table
    chain = MPoly(x_vars(n), naive.expand_linear_chain(naive.root_compositions(n), n, n))
    for r, m_coords in enumerate(verify._s_in_monomials(n), start=1):
        expected = naive.monomial_coefficients(chain.graded_component(r)).coeffs
        assert m_coords == expected


def test_positivity_catches_a_negative_m_coordinate(monkeypatch, fresh_phi):
    # the corruption adds delta/n to the m_11 coordinate of s_2, so
    # delta = -n (m_11 + 1) leaves m_11 = -1
    honest = universal.s_in_elementary

    def delta(n):
        s2 = honest(n)[1]
        lead = s2.coefficient(c_vars(n).unit(1))
        d = s2.coefficient((2,) + (0,) * (n - 1))
        return -n * (lead + 2 * d + 1)

    corrupt_series(monkeypatch, delta)
    results = verify.run_suite("positivity", max_rank=4)
    failed = [r for r in results if not r.passed]
    assert {r.rank for r in failed} == {2, 3, 4}
    for n in (2, 3, 4):
        s2_result = [r for r in results if r.rank == n][1]
        assert s2_result.witness.coeffs == {(1, 1): -1}
    line = json.dumps(failed[0].to_json_obj(), separators=(",", ":"))
    assert line == (
        '{"identity":"positivity","ring":"symbolic","rank":2,"seed":0,'
        '"status":"fail","witness":{"basis":"m","coeffs":'
        '[{"partition":[1,1],"coeff":"-1"}]}}'
    )


def test_triangularity_catches_a_negative_lead(monkeypatch, fresh_phi):
    # the corruption adds delta to lead_2
    corrupt_series(monkeypatch, lambda n: -100)
    assert universal.compute_phi(4).lead[1] < 0
    results = verify.suite_triangularity(max_rank=4)
    failed = {r.rank for r in results if not r.passed}
    assert failed == {2, 3, 4}
    assert all(r.identity == "triangularity" for r in results if not r.passed)


def test_triangularity_catches_a_term_of_the_wrong_weight(monkeypatch, fresh_phi):
    # a constant term in s_2 has weight 0, so s_2 is not homogeneous of
    # weight 2; at rank 2 it passes the solve
    corrupt_s(monkeypatch, add_to_s2(MPoly.one))
    s2 = universal.s_in_elementary(2)[1]
    assert s2.coefficient((0, 0)) == 1
    results = verify.suite_triangularity(max_rank=2)
    assert [r.identity for r in results if not r.passed] == ["triangularity"]


def test_triangularity_runs_no_solve(fresh_phi):
    # the leads are read from s, so the suite makes no compute_phi miss
    assert all(r.passed for r in verify.run_suite("triangularity", max_rank=4))
    assert universal.compute_phi.cache_info().misses == 0


def test_triangularity_reports_an_s2_without_its_lead(monkeypatch, fresh_phi):
    # s_2 less its c_2 term has lead 0, which the solve would refuse to
    # divide by; the suite reports it as a failure instead
    def drop_c2(s):
        unit = s[1].table.unit(1)
        lead = MPoly(s[1].table, {unit: s[1].coefficient(unit)})
        return (s[0], s[1] - lead) + s[2:]

    corrupt_s(monkeypatch, drop_c2)
    results = verify.suite_triangularity(max_rank=4)
    failed = [(r.identity, r.rank) for r in results if not r.passed]
    assert failed == [("triangularity", n) for n in (2, 3, 4)]
    with pytest.raises(universal.InternalInconsistencyError):
        universal.compute_phi(4)


def test_positivity_builds_one_e_to_m_table_per_partition():
    # the table does not depend on the variable count, so ranks 2..6 share
    # one build for each partition met on the way
    symfun._e_to_m_table.cache_clear()
    verify.run_suite("positivity", 6)
    assert symfun._e_to_m_table.cache_info().misses == 30


@pytest.mark.parametrize(
    "lam, extra, max_rank, ranks",
    (
        ((2, 1), {(2, 1): 1}, 4, {2, 3, 4}),  # the conj entry of e_21 becomes 2
        ((2,), {(2,): 1}, 4, {2, 3, 4}),  # e_2 gains m_2, above its conj (1, 1)
        # a weight-7 row, checked from rank 6 (weight n + 1) on
        ((4, 3), {(4, 3): 1}, 7, {6, 7}),
    ),
)
def test_triangularity_catches_a_corrupted_e_to_m_row(
    monkeypatch, lam, extra, max_rank, ranks
):
    honest = symfun.elementary_to_monomial

    def corrupted(mu):
        coords = honest(mu)
        if mu != lam:
            return coords
        coeffs = dict(coords.coeffs)
        for parts, c in extra.items():
            coeffs[parts] = coords.coefficient(parts) + c
        return symfun.SymPolyInBasis(coeffs)

    monkeypatch.setattr(symfun, "elementary_to_monomial", corrupted)
    results = verify.suite_triangularity(max_rank=max_rank)
    failed = {r.rank for r in results if not r.passed}
    assert failed == ranks
    assert all(r.identity == "triangularity-e-to-m" for r in results if not r.passed)


def failing_ranks(results, identity):
    failed = [r for r in results if r.identity == identity and not r.passed]
    assert all(r.witness is not None and not r.witness.is_zero() for r in failed)
    return {r.rank for r in failed}


def test_c1f_zero_catches_a_symmetric_power_twisted_twice(monkeypatch):
    # the forms m.x - 2 p_1 are the roots of Sym^n E (x) det^-2, whose first
    # class is -C(2n-1, n) c_1, not 0; phi at its classes misses the reduced
    # classes as well
    def twisted_twice(n):
        series = symfun.forms_series(n, 2)
        return tuple(symfun.elementary_from_power_sums(series))

    monkeypatch.setattr(chern, "sym_power_det_inverse_chern", twisted_twice)
    results = verify.suite_phi_roundtrip(max_rank=4)
    assert failing_ranks(results, "c1F-zero") == {2, 3, 4}
    witnesses = {r.rank: r.witness for r in results if r.identity == "c1F-zero"}
    for n, count in ((2, 3), (3, 10), (4, 35)):
        assert witnesses[n] == -count * MPoly.variable(c_vars(n), "c1")
    assert failing_ranks(results, "phi-roundtrip") == {2, 3, 4}
    assert sum(r.identity == "phi-roundtrip" and not r.passed for r in results) == 6


def test_formula_agreement_catches_a_corrupted_formula(monkeypatch):
    honest = chern.reduced_chern_formula

    def corrupted(n):
        classes = honest(n)
        wrong = classes[1] + MPoly.variable(classes[1].table, "c2")
        return (classes[0], wrong) + classes[2:]

    monkeypatch.setattr(chern, "reduced_chern_formula", corrupted)
    results = verify.suite_formula_agreement(max_rank=4)
    assert failing_ranks(results, "formula-agreement") == {2, 3, 4}
    assert sum(not r.passed for r in results) == 3


def test_run_all_computes_each_twist_once():
    # suite_twist and the toy-ring theory share one twist per rank
    chern.twist.cache_clear()
    oracle.rank_theory.cache_clear()
    assert all(r.passed for r in verify.run_suite("all", max_rank=4))
    info = chern.twist.cache_info()
    assert (info.misses, info.hits) == (3, 3)


PER_RANK_CACHES = (
    chern.shifted_root_sigma,
    chern.twist,
    chern.sym_power_det_inverse_chern,
    universal.s_in_elementary,
    universal.compute_phi,
    oracle.rank_theory,
    symfun._power_sums_in_elementary,
)


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


@pytest.fixture
def fresh_twist():
    # a cached honest twist would hide the corruption, and a cached corrupted
    # one would leak into later tests
    cached = (chern.twist, oracle.rank_theory)
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()


def off_by_one_twist(honest, k, i):
    """honest twisted_classes with one added to C(n - i, k - i), the
    coefficient of c_i t^(k - i) in c_k."""

    def corrupted(classes, n, t):
        out = list(honest(classes, n, t))
        if k <= len(out):
            out[k - 1] = out[k - 1] + (classes[i - 1] if i else 1) * t ** (k - i)
        return tuple(out)

    return corrupted


@pytest.mark.parametrize("k, i", ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)))
def test_twist_catches_one_binomial_coefficient_off(monkeypatch, fresh_twist, k, i):
    corrupted = off_by_one_twist(chern.twisted_classes, k, i)
    monkeypatch.setattr(chern, "twisted_classes", corrupted)
    results = verify.suite_twist(max_rank=4)
    assert failing_ranks(results, "twist") == set(range(max(k, 2), 5))


@pytest.mark.parametrize("k, i", ((1, 0), (2, 0), (2, 1), (2, 2)))
@pytest.mark.parametrize("n", range(2, 6))
def test_round_trip_catches_one_binomial_coefficient_off(monkeypatch, fresh_phi, n, k, i):
    # solve_psi reads the twist through its own binding, so a wrong twist
    # of sigma or of psi must fail its round trip psi(s(c)) = c
    corrupted = off_by_one_twist(universal.twisted_classes, k, i)
    monkeypatch.setattr(universal, "twisted_classes", corrupted)
    with pytest.raises(universal.InternalInconsistencyError, match="round trip"):
        universal.solve_psi(n)


def corrupt_reduced_class_2(monkeypatch, extra):
    honest = chern.shifted_root_sigma

    def corrupted(n):
        classes = honest(n)
        return (classes[0], classes[1] + extra(c_vars(n))) + classes[2:]

    monkeypatch.setattr(chern, "shifted_root_sigma", corrupted)


def test_c1_zero_catches_a_corrupted_reduced_class(monkeypatch):
    corrupt_reduced_class_2(monkeypatch, lambda cvt: MPoly.variable(cvt, "c2"))
    results = verify.suite_c1_zero(max_rank=4)
    assert failing_ranks(results, "c1-zero") == {2, 3, 4}


def test_c1_zero_cannot_see_corruption_in_the_c1_ideal(monkeypatch):
    # c1-zero sets c_1 = 0, so adding a multiple of c_1 to a reduced class
    # leaves it passing; the closed formula is what catches it
    corrupt_reduced_class_2(monkeypatch, lambda cvt: MPoly.variable(cvt, "c1") ** 2)
    assert all(r.passed for r in verify.suite_c1_zero(max_rank=4))
    results = verify.suite_formula_agreement(max_rank=4)
    assert failing_ranks(results, "formula-agreement") == {2, 3, 4}


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
