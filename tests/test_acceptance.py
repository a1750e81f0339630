"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is an exact equality of polynomials or rationals; there are no
numeric tolerances anywhere.  Each criterion prints a single PASS/FAIL line
with its elapsed time (run with -s to see them inline).  The budgets are
printed, not enforced: each is at least ten times the time of the criterion
run on its own on a shared 2-vCPU machine with Python 3.11.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from redchern import oracle, verify
from redchern.chern import (
    reduced_chern_formula,
    shifted_root_sigma,
    sym_power_det_inverse_chern,
    twist,
)
from redchern.cli import main as cli_main
from redchern.poly import MPoly, c_vars, u_vars
from redchern.universal import brauer_reduced, compute_phi, s_in_elementary, solve_psi

from . import naive
from .naive import monomial_coefficients, reduce_hom, x_vars, y_roots
from .test_chern import random_cpoly
from .test_oracle import check_identity, corrupt

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num, description, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num}] FAIL {description} ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num}] PASS {description} ({elapsed:.2f} s, budget {budget})")


def test_criterion_1_formula_agreement():
    with criterion(1, "closed formula equals root definition, ranks 2..6", "< 1 s"):
        for n in range(2, 7):
            assert reduced_chern_formula(n) == shifted_root_sigma(n)


def test_criterion_2_first_two_values():
    with criterion(2, "degree-1 class is 0, degree-2 class pinned, ranks 2..6", "< 1 s"):
        for n in range(2, 7):
            assert shifted_root_sigma(n)[0].is_zero()
            assert reduced_chern_formula(n)[0].is_zero()
            table = c_vars(n)
            c1 = MPoly.variable(table, "c1")
            c2 = MPoly.variable(table, "c2")
            expected = c2 - Fraction(n - 1, 2 * n) * c1**2
            assert shifted_root_sigma(n)[1] == expected
            assert reduced_chern_formula(n)[1] == expected


def test_criterion_3_characterization():
    with criterion(3, "characterization: c1-zero, twist invariance, uniqueness", "< 3 s"):
        # (a) setting c1 = 0 recovers the plain classes, ranks 2..6
        for n in range(2, 7):
            table = c_vars(n)
            point = [MPoly.zero(table)]
            point += [MPoly.variable(table, f"c{i}") for i in range(2, n + 1)]
            got = MPoly.evaluate(shifted_root_sigma(n), point, MPoly.one(table))
            assert list(got) == point
        # (b) substituting twisted classes leaves the class t-free, ranks 2..4
        for n in range(2, 5):
            twisted = twist(n)
            one = MPoly.one(twisted[0].table)
            identity = [MPoly.variable(one.table, f"c{i}") for i in range(1, n + 1)]
            reduced = shifted_root_sigma(n)
            at_twisted = list(MPoly.evaluate(reduced, twisted, one))
            assert at_twisted == list(MPoly.evaluate(reduced, identity, one))
        # (c) adding any multiple of c1 is erased, 50 seeded draws per (n, j)
        rng = random.Random(20230317)
        for n in range(2, 5):
            table = c_vars(n)
            for j in range(1, n + 1):
                target = shifted_root_sigma(n)[j - 1]
                for _ in range(50):
                    s = random_cpoly(n, rng, max_wdeg=3)
                    perturbed = MPoly.variable(table, f"c{j}") + s * MPoly.variable(
                        table, "c1"
                    )
                    assert reduce_hom(perturbed) == target


def _pipeline_checks(n, expected_count):
    roots = y_roots(n)
    assert roots.count == expected_count
    product = MPoly.one(x_vars(n))
    for form in roots.forms():
        product = naive.truncate(product * (1 + form), n)
    s_list = s_in_elementary(n)
    ups = solve_psi(n)
    assert all(lead > 0 for lead in ups.lead)
    assert ups.lead[0] == expected_count
    for i in range(1, n + 1):
        coords = monomial_coefficients(product.graded_component(i))
        assert all(c >= 0 for c in coords.coeffs.values())
        unit = c_vars(n).unit(i - 1)
        assert s_list[i - 1].coefficient(unit) == ups.lead[i - 1]
        assert s_list[i - 1] == s_list[i - 1].graded_component(i)
    back = MPoly.evaluate(ups.psi, s_list, MPoly.one(c_vars(n)))
    assert list(back) == [MPoly.variable(c_vars(n), f"c{r}") for r in range(1, n + 1)]


def test_criterion_4_generator_pipeline():
    with criterion(
        4, "root counts, positivity, triangular solve, psi round trip, ranks 2..4", "< 1 s"
    ):
        for n, count in ((2, 3), (3, 10), (4, 35)):
            _pipeline_checks(n, count)


def test_criterion_4_rank_five():
    with criterion(4, "the same pipeline at rank 5", "< 3 s"):
        _pipeline_checks(5, 126)


def test_criterion_5_symmetric_power_round_trip():
    with criterion(
        5, "phi recovers reduced classes from symmetric-power classes", "< 1 s"
    ):
        for n in range(2, 5):
            f_classes = sym_power_det_inverse_chern(n)
            recovered = brauer_reduced(f_classes[1:])
            for i in range(2, n + 1):
                assert recovered[i - 2] == shifted_root_sigma(n)[i - 1]
        for n in range(2, 6):
            assert sym_power_det_inverse_chern(n)[0].is_zero()
        # pinned values at rank 2, re-derived by independent subset expansion
        assert compute_phi(2).phi[0] == Fraction(1, 4) * MPoly.variable(
            u_vars(2), "u2"
        )
        forms = [naive.nlinear(2, (m1 - 1, m2 - 1)) for m1, m2 in ((2, 0), (0, 2), (1, 1))]
        c2f = naive.nsigma_of_forms(forms, 2, 2)
        table = c_vars(2)
        c1 = MPoly.variable(table, "c1")
        c2 = MPoly.variable(table, "c2")
        assert c2f == naive.expand_cpoly(4 * c2 - c1**2, 2)
        assert sym_power_det_inverse_chern(2)[1] == 4 * c2 - c1**2


def test_criterion_6_toy_ring_transfer():
    with criterion(
        6, "toy-ring transfer with 20 seeds per identity and mutation sensitivity", "< 5 s"
    ):
        results = verify.suite_toy_rings(max_rank=4, seed=0)
        per_key = {}
        for r in results:
            per_key[(r.identity, r.ring, r.rank)] = per_key.get(
                (r.identity, r.ring, r.rank), 0
            ) + 1
            assert r.passed, r.to_json_obj()
        assert all(count >= 20 for count in per_key.values())
        assert {k[0] for k in per_key} == set(oracle.IDENTITY_TAGS)
        # mutation sensitivity: a single perturbed coefficient must be caught
        ring = oracle.ToyRing(*verify.toy_ring_specs(4)[1])
        for n in range(2, 5):
            bad_phi = corrupt(oracle.rank_theory(n), "phi", 0)
            assert any(
                not check_identity("phi-roundtrip", ring, n, seed, theory=bad_phi).passed
                for seed in range(20)
            )
            bad_reduced = corrupt(oracle.rank_theory(n), "reduced", 1)
            assert any(
                not check_identity("c1-zero", ring, n, seed, theory=bad_reduced).passed
                for seed in range(20)
            )


def test_criterion_7_table_determinism(tmp_path):
    with criterion(7, "regression table is byte-identical and matches the golden", "< 1 s"):
        runner = CliRunner()
        for max_rank in (4, 6):
            paths = [tmp_path / f"t{max_rank}a.json", tmp_path / f"t{max_rank}b.json"]
            for p in paths:
                result = runner.invoke(
                    cli_main, ["table", "--max-rank", str(max_rank), "--out", str(p)]
                )
                assert result.exit_code == 0
            blob1, blob2 = (p.read_bytes() for p in paths)
            assert blob1 == blob2
            assert blob1 == (GOLDEN / f"table_rank{max_rank}.json").read_bytes()
