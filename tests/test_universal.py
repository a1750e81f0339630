"""The triangular system, psi/phi, and the pushforward-class recipe."""

import random
from fractions import Fraction
from math import comb

import pytest

from redchern import oracle
from redchern.chern import (
    reduced_chern_formula,
    shifted_root_sigma,
    sym_power_det_inverse_chern,
    twist,
)
from redchern.poly import MPoly, c_vars, s_vars, u_vars
from redchern.symfun import partitions_of
from redchern.universal import (
    brauer_reduced,
    compute_phi,
    s_in_elementary,
    solve_psi,
)

from . import naive
from .naive import (
    elementary_symmetric,
    expand_linear_chain,
    monomial_coefficients,
    monomial_symmetric,
    x_vars,
    y_roots,
)


class TestYRoots:
    def test_counts(self):
        for n, count in ((2, 3), (3, 10), (4, 35), (5, 126)):
            roots = y_roots(n)
            assert roots.count == count == comb(2 * n - 1, n)

    def test_rank_two_forms(self):
        roots = y_roots(2)
        assert roots.compositions == ((2, 0), (0, 2), (1, 1))
        forms = roots.forms()
        assert forms[0] == 2 * MPoly.variable(x_vars(2), "x1")

    def test_composition_invariants(self):
        for n in (2, 3, 4):
            comps = y_roots(n).compositions
            assert all(sum(m) == n for m in comps)
            assert all(min(m) >= 0 for m in comps)

    def test_permutation_stability(self):
        comps = set(y_roots(3).compositions)
        swapped = {(m[1], m[0], m[2]) for m in comps}
        assert swapped == comps

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            y_roots(1)


class TestSInElementary:
    def test_rank_two_values(self):
        s1, s2 = s_in_elementary(2)
        cvt = c_vars(2)
        assert s1 == 3 * MPoly.variable(cvt, "c1")
        assert s2 == 4 * MPoly.variable(cvt, "c2") + 2 * MPoly.variable(cvt, "c1") ** 2

    def test_rank_two_against_naive_subsets(self):
        forms = [naive.nlinear(2, m) for m in ((2, 0), (0, 2), (1, 1))]
        s1, s2 = s_in_elementary(2)
        sigmas = [elementary_symmetric(i, 2) for i in (1, 2)]
        expanded = MPoly.evaluate([s1, s2], sigmas, MPoly.one(x_vars(2)))
        for r, value in enumerate(expanded, start=1):
            assert value.terms == naive.nsigma_of_forms(forms, r, 2)

    def test_lead_is_root_count(self):
        for n in (2, 3, 4):
            s_list = s_in_elementary(n)
            cvt = c_vars(n)
            assert s_list[0] == comb(2 * n - 1, n) * MPoly.variable(cvt, "c1")

    def test_homogeneity(self):
        for n in (2, 3):
            for r, s_c in enumerate(s_in_elementary(n), start=1):
                assert s_c.graded_component(r) == s_c

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    def test_against_the_chain_in_root_variables(self, n):
        # expanding c_i = sigma_i(x) is independent of the m-to-e reduction
        chain = MPoly(x_vars(n), expand_linear_chain(y_roots(n).compositions, n, n))
        sigmas = [elementary_symmetric(i, n) for i in range(1, n + 1)]
        one = MPoly.one(x_vars(n))
        expanded = MPoly.evaluate(s_in_elementary(n), sigmas, one)
        for r, value in enumerate(expanded, start=1):
            assert value == chain.graded_component(r)


class TestSolvePsi:
    def test_rank_two_pinned(self):
        ups = solve_psi(2)
        svt = s_vars(2)
        s1, s2 = MPoly.variable(svt, "s1"), MPoly.variable(svt, "s2")
        assert ups.psi[0] == Fraction(1, 3) * s1
        assert ups.psi[1] == Fraction(1, 4) * s2 - Fraction(1, 18) * s1**2
        assert ups.lead == (Fraction(3), Fraction(4))
        c1, c2 = (MPoly.variable(c_vars(2), v) for v in ("c1", "c2"))
        assert s_in_elementary(2) == (3 * c1, 4 * c2 + 2 * c1**2)

    def test_rank_three_pinned(self):
        # coefficients confirmed by subset-sum expansion of the ten forms
        ups = solve_psi(3)
        assert ups.lead == (Fraction(10), Fraction(15), Fraction(27))
        c1, c2, c3 = (MPoly.variable(c_vars(3), v) for v in ("c1", "c2", "c3"))
        assert s_in_elementary(3) == (
            10 * c1,
            15 * c2 + 40 * c1**2,
            27 * c3 + 111 * c2 * c1 + 82 * c1**3,
        )

    def test_rank_three_against_naive_subsets(self):
        forms = [naive.nlinear(3, m) for m in y_roots(3).compositions]
        e1 = naive.nsigma_vars(1, 3)
        e2 = naive.nsigma_vars(2, 3)
        e3 = naive.nsigma_vars(3, 3)
        s2 = naive.nsigma_of_forms(forms, 2, 3)
        assert s2 == naive.nadd(
            naive.nscale(e2, 15), naive.nscale(naive.nmul(e1, e1), 40)
        )
        s3 = naive.nsigma_of_forms(forms, 3, 3)
        expected = naive.nadd(
            naive.nadd(
                naive.nscale(e3, 27), naive.nscale(naive.nmul(e2, e1), 111)
            ),
            naive.nscale(naive.npow(e1, 3), 82),
        )
        assert s3 == expected

    def test_round_trip_to_rank_four(self):
        for n in (2, 3, 4):
            ups = solve_psi(n)
            s_list = s_in_elementary(n)
            back = MPoly.evaluate(ups.psi, s_list, MPoly.one(c_vars(n)))
            assert list(back) == [MPoly.variable(c_vars(n), c) for c in c_vars(n).names]

    def test_leads_positive_and_triangular(self):
        for n in (2, 3, 4):
            ups = solve_psi(n)
            assert all(c > 0 for c in ups.lead)
            assert ups.lead[0] == ups.count
            for r, s_r in enumerate(s_in_elementary(n), start=1):
                assert s_r == s_r.graded_component(r)
                assert s_r.coefficient(c_vars(n).unit(r - 1)) == ups.lead[r - 1]

    def test_positivity_of_s(self):
        for n in (2, 3, 4):
            roots = y_roots(n)
            product = MPoly.one(x_vars(n))
            for form in roots.forms():
                product = naive.truncate(product * (1 + form), n)
            for i in range(1, n + 1):
                coords = monomial_coefficients(product.graded_component(i))
                assert all(c >= 0 for c in coords.coeffs.values())

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_the_full_back_substitution(self, n):
        # the library solves on the slice c_1 = 0 and twists; the naive route
        # back-substitutes the whole system and then sets s_1 = 0
        psi, phi, lead = naive.back_substitute(s_in_elementary(n))
        ups = compute_phi(n)
        assert ups.psi == tuple(psi)
        assert ups.phi == tuple(phi)
        assert ups.lead == tuple(lead)

    def test_zero_lead_is_an_internal_error(self, monkeypatch):
        # a vanishing leading coefficient would falsify the whole solve; the
        # guard must trip rather than divide by zero or return garbage
        from redchern import universal as umod
        from redchern.universal import InternalInconsistencyError

        broken = [
            MPoly.zero(c_vars(2)),
            s_in_elementary(2)[1],
        ]
        monkeypatch.setattr(umod, "s_in_elementary", lambda n: broken)
        with pytest.raises(InternalInconsistencyError):
            umod.solve_psi(2)

    def test_rank_five_pipeline(self):
        ups = solve_psi(5)
        assert ups.count == 126
        assert all(c > 0 for c in ups.lead)
        assert ups.lead[0] == 126
        s_list = s_in_elementary(5)
        back = MPoly.evaluate(ups.psi, s_list, MPoly.one(c_vars(5)))
        assert list(back) == [MPoly.variable(c_vars(5), c) for c in c_vars(5).names]
        product = MPoly(
            x_vars(5), expand_linear_chain(y_roots(5).compositions, 5, 5)
        )
        for i in range(1, 6):
            coords = monomial_coefficients(product.graded_component(i))
            assert all(c >= 0 for c in coords.coeffs.values())


class TestLargeRank:
    def test_no_chain_is_expanded(self):
        # the rank-7 artifacts come from power sums and the binomial formula;
        # the chain expansion lives in the tests alone
        import sys

        from redchern import chern

        compute_phi.cache_clear()
        sym_power_det_inverse_chern.cache_clear()
        chern.shifted_root_sigma.cache_clear()
        chern.twist.cache_clear()
        compute_phi(7)
        sym_power_det_inverse_chern(6)
        chern.shifted_root_sigma(7)
        chern.twist(7)
        library = [m for name, m in sys.modules.items() if name.startswith("redchern")]
        assert not any(hasattr(m, "expand_linear_chain") for m in library)

    def test_rank_seven_leads_pinned(self):
        assert compute_phi(7).lead == (1716, 3003, 7007, 21021, 75803, 311493, 1409387)

    @pytest.mark.parametrize("n", (6, 8, 12))
    def test_integral_coefficients_are_stored_as_ints(self, n):
        # scalar products store an integral result as an int, so no
        # per-rank artifact keeps a Fraction with denominator 1
        ups = compute_phi(n)
        artifacts = {
            "s": s_in_elementary(n),
            "phi": ups.phi,
            "psi": ups.psi,
            "shifted_root_sigma": shifted_root_sigma(n),
            "sym_power_det_inverse_chern": sym_power_det_inverse_chern(n),
            "twist": twist(n),
            "reduced_chern_formula": reduced_chern_formula(n),
        }
        integral_fractions = {
            name: sum(
                type(c) is Fraction and c.denominator == 1
                for p in polys
                for c in p.terms.values()
            )
            for name, polys in artifacts.items()
        }
        assert integral_fractions == dict.fromkeys(artifacts, 0)
        assert all(type(c) is int for c in ups.lead)

    def test_rank_eight_solves(self):
        # solve_psi checks its own round trip psi(s(c)) = c before returning
        ups = compute_phi(8)
        assert ups.lead[0] == 6435 == comb(15, 8)
        assert all(c > 0 for c in ups.lead)
        assert len(ups.phi) == 7


class TestComputePhi:
    def test_rank_two_pinned(self):
        ups = compute_phi(2)
        assert ups.phi[0] == Fraction(1, 4) * MPoly.variable(u_vars(2), "u2")

    def test_no_constant_term(self):
        for n in (2, 3, 4):
            phis = compute_phi(n).phi
            assert all(phi.coefficient((0,) * (n - 1)) == 0 for phi in phis)
            zero = [MPoly.zero(u_vars(n))] * (n - 1)
            at_zero = MPoly.evaluate(phis, zero, MPoly.one(u_vars(n)))
            assert all(value.is_zero() for value in at_zero)

    def test_main_round_trip(self):
        for n in (2, 3, 4):
            f_classes = sym_power_det_inverse_chern(n)
            recovered = brauer_reduced(f_classes[1:])
            for i in range(2, n + 1):
                assert recovered[i - 2] == shifted_root_sigma(n)[i - 1]

    def test_json_shape(self):
        obj = compute_phi(2).to_json_obj()
        assert set(obj) == {"n", "N", "psi", "phi", "lead"}
        assert obj["n"] == 2 and obj["N"] == 3
        assert obj["lead"] == ["3", "4"]
        assert obj["phi"] == [
            {
                "vars": [{"name": "u2", "degree": 2}],
                "terms": [{"coeff": "1/4", "exps": [1]}],
            }
        ]


class TestBrauerReduced:
    def test_rank_two_pinned(self):
        table = c_vars(2)
        c1, c2 = MPoly.variable(table, "c1"), MPoly.variable(table, "c2")
        [out] = brauer_reduced([4 * c2 - c1**2])
        assert out == c2 - Fraction(1, 4) * c1**2

    def test_zero_inputs_give_zero(self):
        for n in (2, 3, 4):
            zeros = [MPoly.zero(u_vars(n))] * (n - 1)
            assert all(v.is_zero() for v in brauer_reduced(zeros))

    def test_rank_mismatch_raises_before_solving(self):
        # no classes is rank 1; compute_phi is neither computed nor read
        # from its cache
        before = compute_phi.cache_info()
        with pytest.raises(ValueError, match="rank 1 is below 2"):
            brauer_reduced([])
        assert compute_phi.cache_info() == before

    def test_toy_ring_comparison(self):
        # 3-fold comparison in a concrete ring: phi applied to toy F-classes
        # equals the toy evaluation of the symbolic reduced classes
        ring = oracle.ToyRing("cmp", [("a", 1), ("b", 1)], [{"a": 4}, {"b": 3}], 9)
        bundle = oracle.random_bundle(ring, 3, seed=5)
        one = MPoly.one(ring)
        f_classes = sym_power_det_inverse_chern(3)
        toy_f = list(MPoly.evaluate(f_classes[1:], bundle, one))
        recovered = brauer_reduced(toy_f)
        expected = MPoly.evaluate(shifted_root_sigma(3)[1:], bundle, one)
        assert recovered == list(expected)


class TestGeneration:
    def test_random_invariants_rewrite_through_s(self):
        # any symmetric polynomial is a polynomial in s_1..s_n: rewrite in
        # c1..cn, replace c_i by psi_i(s), expand s back, compare
        from .naive import express_in_elementary

        rng = random.Random(17)
        for n in (2, 3, 4):
            ups = solve_psi(n)
            s_list = s_in_elementary(n)
            pool = [lam for d in range(1, n + 1) for lam in partitions_of(d, n)]
            for _ in range(5):
                p = MPoly.zero(x_vars(n))
                for lam in rng.sample(pool, min(3, len(pool))):
                    p = p + monomial_symmetric(lam, n) * rng.randint(-3, 3)
                q_c = express_in_elementary(p)
                (q_s,) = MPoly.evaluate([q_c], ups.psi, MPoly.one(s_vars(n)))
                (back_c,) = MPoly.evaluate([q_s], s_list, MPoly.one(c_vars(n)))
                sigmas = [elementary_symmetric(i, n) for i in range(1, n + 1)]
                (expanded,) = MPoly.evaluate([back_c], sigmas, MPoly.one(x_vars(n)))
                assert expanded == p
