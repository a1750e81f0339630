"""Reduced classes: root definition, closed formula, twists, symmetric powers."""

import random
from fractions import Fraction
from math import comb

import pytest

from redchern.chern import (
    reduced_chern_formula,
    shifted_root_sigma,
    sym_power_det_inverse_chern,
    twist,
    twisted_classes,
)
from redchern.poly import MPoly, c_vars
from redchern.universal import s_in_elementary

from . import naive
from .naive import (
    det_class,
    elementary_symmetric,
    expand_linear_chain,
    reduce_hom,
    root_compositions,
    x_vars,
)

RANKS = (2, 3, 4, 5, 6)


def cvar(n, i):
    return MPoly.variable(c_vars(n), f"c{i}")


def naive_shifted_sigma(n, r):
    """sigma_r of the shifted roots, via subset sums over explicit forms."""
    avg = Fraction(1, n)
    forms = [
        naive.nlinear(n, tuple((1 - avg) if j == i else -avg for j in range(n)))
        for i in range(n)
    ]
    return naive.nsigma_of_forms(forms, r, n)


class TestReducedRoots:
    def test_first_class_vanishes(self):
        for n in RANKS:
            assert shifted_root_sigma(n)[0].is_zero()

    def test_rank_two(self):
        expected = cvar(2, 2) - Fraction(1, 4) * cvar(2, 1) ** 2
        assert shifted_root_sigma(2)[1] == expected

    def test_rank_three_top(self):
        n3 = c_vars(3)
        expected = (
            MPoly.variable(n3, "c3")
            - Fraction(1, 3) * MPoly.variable(n3, "c1") * MPoly.variable(n3, "c2")
            + Fraction(2, 27) * MPoly.variable(n3, "c1") ** 3
        )
        assert shifted_root_sigma(3)[2] == expected

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_against_independent_root_expansion(self, n):
        for r in range(1, n + 1):
            expanded = naive.expand_cpoly(shifted_root_sigma(n)[r - 1], n)
            assert expanded == naive_shifted_sigma(n, r)

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
    def test_against_the_chain_in_root_variables(self, n):
        # the product of the forms n x_i - sum x, expanded in the roots, is
        # independent of the power sums and the m-to-e reduction
        forms = [tuple(n - 1 if j == i else -1 for j in range(n)) for i in range(n)]
        chain = MPoly(x_vars(n), expand_linear_chain(forms, n, n))
        sigmas = [elementary_symmetric(i, n) for i in range(1, n + 1)]
        one = MPoly.one(x_vars(n))
        got = MPoly.evaluate(shifted_root_sigma(n), sigmas, one)
        for r, value in enumerate(got, start=1):
            assert value == chain.graded_component(r) * Fraction(1, n**r)


class TestClosedFormula:
    def test_degree_two_for_all_ranks(self):
        for n in RANKS:
            expected = cvar(n, 2) - Fraction(n - 1, 2 * n) * cvar(n, 1) ** 2
            assert reduced_chern_formula(n)[1] == expected

    def test_degree_one_vanishes(self):
        for n in RANKS:
            assert reduced_chern_formula(n)[0].is_zero()

    def test_rank_four_cross_check(self):
        expected = cvar(4, 2) - Fraction(3, 8) * cvar(4, 1) ** 2
        assert reduced_chern_formula(4)[1] == expected
        assert reduced_chern_formula(4)[1] == shifted_root_sigma(4)[1]

    def test_agreement_with_roots_everywhere(self):
        for n in RANKS:
            assert reduced_chern_formula(n) == shifted_root_sigma(n)


class TestTwist:
    # k classes of a rank-N bundle, k <= N: solve_psi twists the n classes
    # of the C(2n-1, n) forms, so k < N is the case it relies on
    @pytest.mark.parametrize(
        "k, N", [(k, N) for k in range(1, 6) for N in range(k, k + 4)]
    )
    def test_twists_compose_and_invert(self, k, N):
        table = c_vars(k).extend([("t", 1), ("u", 1)])
        c = tuple(MPoly.variable(table, f"c{i}") for i in range(1, k + 1))
        t, u = MPoly.variable(table, "t"), MPoly.variable(table, "u")
        by_t = twisted_classes(c, N, t)
        assert twisted_classes(by_t, N, u) == twisted_classes(c, N, t + u)
        assert twisted_classes(by_t, N, -t) == c

    def test_rank_two_second_class(self):
        tw = twist(2)
        target = tw[1].table
        c1, c2, t = (MPoly.variable(target, v) for v in ("c1", "c2", "t"))
        assert tw[1] == c2 + c1 * t + t**2

    def test_t_zero_specializes_back(self):
        for n in (2, 3, 4):
            back = [cvar(n, i) for i in range(1, n + 1)] + [MPoly.zero(c_vars(n))]
            got = MPoly.evaluate(twist(n), back, MPoly.one(c_vars(n)))
            assert list(got) == back[:n]

    def test_det_of_twist(self):
        for n in (2, 3):
            tw = twist(n)
            target = tw[0].table
            expected = MPoly.variable(target, "c1") + n * MPoly.variable(target, "t")
            assert det_class(tw) == expected

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    def test_against_the_chain_in_root_variables(self, n):
        # the roots of the twist are x_i + t; their expanded product is
        # independent of the binomial formula
        table = x_vars(n).extend([("t", 1)])
        forms = [tuple(1 if j in (i, n) else 0 for j in range(n + 1)) for i in range(n)]
        chain = MPoly(table, expand_linear_chain(forms, n + 1, n))
        one = MPoly.one(table)
        roots = [MPoly.variable(table, name) for name in table.names]
        plain = [elementary_symmetric(i, n) for i in range(1, n + 1)]
        sigmas = [*MPoly.evaluate(plain, roots[:n], one), roots[n]]
        for k, value in enumerate(MPoly.evaluate(twist(n), sigmas, one), start=1):
            assert value == chain.graded_component(k)


class TestDetClass:
    def test_free_vector(self):
        for n in (1, 3):
            classes = tuple(cvar(n, i) for i in range(1, n + 1))
            assert det_class(classes) == cvar(n, 1)


class TestSymPower:
    def test_rank_two_pinned_values(self):
        classes = sym_power_det_inverse_chern(2)
        assert classes[0].is_zero()
        assert classes[1] == 4 * cvar(2, 2) - cvar(2, 1) ** 2

    def test_first_class_vanishes_up_to_rank_five(self):
        for n in (2, 3, 4, 5):
            assert sym_power_det_inverse_chern(n)[0].is_zero()

    @pytest.mark.parametrize("n", (2, 3))
    def test_against_independent_expansion(self, n):
        forms = [
            naive.nlinear(n, tuple(v - 1 for v in m)) for m in root_compositions(n)
        ]
        classes = sym_power_det_inverse_chern(n)
        for k in range(1, n + 1):
            assert naive.expand_cpoly(classes[k - 1], n) == naive.nsigma_of_forms(
                forms, k, n
            )

    # the ids name the rank and the top degree checked, which is the rank
    @pytest.mark.parametrize("n", RANKS, ids=lambda n: f"{n}-{n}")
    def test_against_the_chain_in_root_variables(self, n):
        # expanding c_i = sigma_i(x) is independent of the m-to-e reduction
        forms = [tuple(v - 1 for v in m) for m in root_compositions(n)]
        chain = MPoly(x_vars(n), expand_linear_chain(forms, n, n))
        sigmas = [elementary_symmetric(i, n) for i in range(1, n + 1)]
        classes = sym_power_det_inverse_chern(n)
        one = MPoly.one(x_vars(n))
        for k, value in enumerate(MPoly.evaluate(classes, sigmas, one), start=1):
            assert value == chain.graded_component(k)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_is_s_twisted_by_det_inverse(self, n):
        # s_1..s_n are classes of Sym^n E, of rank N = C(2n-1, n), and f those
        # of Sym^n E (x) det^-1, so s twisted by -c_1 is f.  The library
        # builds each from its own series, and both are in c1..cn.
        f = twisted_classes(s_in_elementary(n), comb(2 * n - 1, n), -cvar(n, 1))
        assert f == sym_power_det_inverse_chern(n)

    def test_bounds(self):
        for build in (sym_power_det_inverse_chern, twist):
            with pytest.raises(ValueError):
                build(1)


def random_cpoly(n, rng, max_wdeg=4, terms=4):
    table = c_vars(n)
    out = MPoly.zero(table)
    for _ in range(terms):
        exps = [0] * n
        budget = rng.randint(0, max_wdeg)
        while budget:
            i = rng.randint(1, min(n, budget))
            exps[i - 1] += 1
            budget -= i
        out = out + MPoly(table, {tuple(exps): rng.randint(-4, 4)})
    return out


class TestReduceHom:
    def test_kills_c1(self):
        for n in (2, 3, 4):
            assert reduce_hom(cvar(n, 1)).is_zero()
            assert reduce_hom(cvar(n, 1) * cvar(n, 2)).is_zero()

    def test_sends_classes_to_reduced_classes(self):
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                assert reduce_hom(cvar(n, r)) == shifted_root_sigma(n)[r - 1]

    def test_multiplicative_and_idempotent(self):
        rng = random.Random(99)
        for n in (2, 3):
            for _ in range(10):
                p = random_cpoly(n, rng)
                q = random_cpoly(n, rng)
                assert reduce_hom(p * q) == reduce_hom(p) * reduce_hom(q)
                assert reduce_hom(p + q) == reduce_hom(p) + reduce_hom(q)
                assert reduce_hom(reduce_hom(p)) == reduce_hom(p)

    def test_uniqueness_against_c1_multiples(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for j in range(1, n + 1):
                for _ in range(10):
                    s = random_cpoly(n, rng, max_wdeg=3)
                    perturbed = cvar(n, j) + s * cvar(n, 1)
                    assert reduce_hom(perturbed) == shifted_root_sigma(n)[j - 1]

    def test_fixes_polynomials_in_reduced_classes(self):
        rng = random.Random(41)
        for n in (2, 3):
            generators = [shifted_root_sigma(n)[r - 1] for r in range(2, n + 1)]
            for _ in range(5):
                p = MPoly.one(c_vars(n)) * rng.randint(-3, 3)
                for cb in generators:
                    p = p + cb ** rng.randint(0, 2) * rng.randint(-2, 2)
                assert reduce_hom(p) == p

    def test_reduced_classes_specialize_to_plain_classes(self):
        # c1 -> 0 sends the reduced class back to c_r, which certifies that
        # the reduced classes are algebraically independent generators
        for n in RANKS:
            table = c_vars(n)
            point = [MPoly.zero(table)]
            point += [MPoly.variable(table, f"c{i}") for i in range(2, n + 1)]
            specialized = MPoly.evaluate(shifted_root_sigma(n), point, MPoly.one(table))
            assert list(specialized)[1:] == point[1:]

    def test_rejects_foreign_table(self):
        with pytest.raises(ValueError):
            reduce_hom(MPoly.one(x_vars(2)))
