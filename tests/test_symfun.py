"""Partitions, bases, and the elementary-basis rewrite."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redchern.chern import shifted_root_sigma, sym_power_det_inverse_chern
from redchern.poly import MPoly, c_vars
from redchern.symfun import (
    SymPolyInBasis,
    _power_sums_in_elementary,
    conjugate,
    elementary_from_power_sums,
    elementary_to_monomial,
    forms_series,
    partitions_of,
    shifted_root_series,
)
from redchern.universal import s_in_elementary

from . import naive
from .naive import (
    NotSymmetricError,
    elementary_of_forms,
    elementary_product,
    elementary_symmetric,
    expand_in_roots,
    express_in_elementary,
    monomial_coefficients,
    monomial_symmetric,
    root_compositions,
    symmetry_witness,
    truncate,
    x_vars,
)


def P(*parts):
    return parts


partition_strategy = st.lists(
    st.integers(min_value=1, max_value=5), max_size=5
).map(lambda parts: tuple(sorted(parts, reverse=True)))


def coords_json(*parts):
    return {"basis": "m", "coeffs": [{"partition": list(parts), "coeff": "1"}]}


class TestPartition:
    def test_validation(self):
        # a partition is validated where it enters: as the e_lambda whose
        # m-coordinates are asked for
        for parts in ((1, 2), (2, 0), (2.0, 1), (True,), ("2", "1")):
            with pytest.raises(ValueError):
                elementary_to_monomial(parts)
        assert elementary_to_monomial([1]).coeffs == {P(1): 1}

    def test_conjugate_examples(self):
        assert conjugate(P()) == P()
        assert conjugate(P(3)) == P(1, 1, 1)
        assert conjugate(P(2, 1)) == P(2, 1)
        assert conjugate(P(1, 1, 1, 1)) == P(4)
        assert conjugate(P(4, 2, 1)) == P(3, 2, 1, 1)

    @given(partition_strategy)
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)

    def test_json(self):
        coords = SymPolyInBasis({P(2, 1): 1})
        assert coords.to_json_obj() == coords_json(2, 1)


class TestCompareOrder:
    """Within one weight partitions are ordered as tuples, largest part first."""

    def test_examples(self):
        assert P(2, 1) > P(1, 1, 1)
        assert not P(2, 1) > P(2, 1)
        assert P(3, 1) > P(2, 2)

    def test_total_within_weight(self):
        for d in range(1, 7):
            parts = partitions_of(d, d)
            for lam, mu in itertools.combinations(parts, 2):
                assert (lam > mu) != (mu > lam)


class TestPartitionsOf:
    def test_examples(self):
        assert partitions_of(3, 3) == [P(3), P(2, 1), P(1, 1, 1)]
        assert partitions_of(4, 2) == [P(4), P(3, 1), P(2, 2)]
        assert partitions_of(0, 5) == [P()]

    def test_descending_order(self):
        for d in range(1, 8):
            parts = partitions_of(d, d)
            for a, b in zip(parts, parts[1:]):
                assert a > b

    def test_counts(self):
        # p(d) for d = 0..8
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for d, count in enumerate(expected):
            assert len(partitions_of(d, max(d, 1))) == count

    def test_length_bound(self):
        assert all(len(lam) <= 2 for lam in partitions_of(6, 2))


class TestBases:
    def test_monomial_symmetric_small(self):
        assert monomial_symmetric(P(1, 1), 2) == MPoly(
            x_vars(2), {(1, 1): Fraction(1)}
        )
        assert monomial_symmetric(P(2), 2) == MPoly(
            x_vars(2), {(2, 0): 1, (0, 2): 1}
        )

    def test_monomial_symmetric_21_brute_force(self):
        # every distinct permutation of (2,1,0), coefficient 1
        expected = {e: Fraction(1) for e in set(itertools.permutations((2, 1, 0)))}
        assert monomial_symmetric(P(2, 1), 3) == MPoly(x_vars(3), expected)
        assert len(expected) == 6

    def test_monomial_symmetric_rejects_long_partition(self):
        with pytest.raises(ValueError):
            monomial_symmetric(P(1, 1, 1), 2)

    def test_elementary_product_examples(self):
        assert elementary_product(P(1), 3) == MPoly(
            x_vars(3), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        )
        # e_r = m_(1^r)
        assert elementary_product(P(2), 3) == monomial_symmetric(P(1, 1), 3)
        assert elementary_product(P(1, 1), 2) == MPoly(
            x_vars(2), {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        )

    def test_elementary_product_vanishes_beyond_n(self):
        assert elementary_product(P(3), 2).is_zero()

    def test_elementary_against_naive_subsets(self):
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                assert elementary_symmetric(r, n).terms == naive.nsigma_vars(r, n)


class TestElementaryToMonomial:
    def test_examples(self):
        assert elementary_to_monomial(P(1, 1)).coeffs == {
            P(2): Fraction(1),
            P(1, 1): Fraction(2),
        }
        assert elementary_to_monomial(P(2)).coeffs == {P(1, 1): Fraction(1)}
        assert elementary_to_monomial(P(2, 1)).coeffs == {
            P(2, 1): Fraction(1),
            P(1, 1, 1): Fraction(3),
        }

    def test_e2e1_against_naive_expansion(self):
        product = naive.nmul(naive.nsigma_vars(2, 3), naive.nsigma_vars(1, 3))
        coeff_211 = product[(2, 1, 0)]
        coeff_111 = product[(1, 1, 1)]
        coords = elementary_to_monomial(P(2, 1))
        assert coords.coefficient(P(2, 1)) == coeff_211 == 1
        assert coords.coefficient(P(1, 1, 1)) == coeff_111 == 3
        # the counts stay ints, and a missing coordinate reads as the int 0
        assert all(type(c) is int for c in coords.coeffs.values())
        assert type(coords.coefficient(P(3))) is int and coords.coefficient(P(3)) == 0

    def test_triangularity_up_to_weight_8(self):
        for d in range(1, 9):
            n = d
            for lam in partitions_of(d, n):
                coords = elementary_to_monomial(lam)
                conj = conjugate(lam)
                assert coords.coefficient(conj) == 1
                for mu in coords.coeffs:
                    if mu != conj:
                        assert mu < conj

    def test_basis_consistency_up_to_weight_8(self):
        for d in range(1, 9):
            n = d
            for lam in partitions_of(d, n):
                assert expand_in_roots(
                    elementary_to_monomial(lam), n
                ) == elementary_product(lam, n)

    def test_dimension_of_both_bases(self):
        # m-basis keys: length <= n; e-basis keys: parts <= n; same count
        for n in (2, 3, 4):
            for d in range(9):
                m_basis = partitions_of(d, n)
                e_basis = [
                    lam
                    for lam in partitions_of(d, max(d, 1))
                    if not lam or lam[0] <= n
                ]
                assert len(m_basis) == len(e_basis)
                assert sorted(map(conjugate, e_basis)) == sorted(m_basis)


class TestSymmetryCheck:
    def test_witness_on_asymmetric_input(self):
        p = MPoly(x_vars(2), {(1, 0): 1})
        witness = symmetry_witness(p)
        assert witness is not None and sorted(witness) == [0, 1]
        with pytest.raises(NotSymmetricError):
            express_in_elementary(p)
        with pytest.raises(NotSymmetricError):
            monomial_coefficients(p)

    def test_unequal_coefficients_detected(self):
        p = MPoly(x_vars(2), {(1, 0): 1, (0, 1): 2})
        assert symmetry_witness(p) is not None

    def test_symmetric_passes(self):
        p = elementary_product(P(2, 1), 4) + monomial_symmetric(P(2, 2), 4)
        assert symmetry_witness(p) is None


class TestExpressInElementary:
    def test_power_sum_two_vars(self):
        p = MPoly(x_vars(2), {(2, 0): 1, (0, 2): 1})
        assert express_in_elementary(p) == MPoly(c_vars(2), {(2, 0): 1, (0, 1): -2})

    def test_m21_two_vars(self):
        p = MPoly(x_vars(2), {(2, 1): 1, (1, 2): 1})
        assert express_in_elementary(p) == MPoly(c_vars(2), {(1, 1): 1})

    def test_sigma_identity(self):
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                q = express_in_elementary(elementary_symmetric(r, n))
                assert q == MPoly.variable(c_vars(n), f"c{r}")

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.data(),
    )
    def test_round_trip_from_e_side(self, n, data):
        cvt = c_vars(n)
        terms = data.draw(
            st.dictionaries(
                st.tuples(
                    *(st.integers(min_value=0, max_value=2) for _ in range(n))
                ),
                st.builds(
                    Fraction,
                    st.integers(min_value=-5, max_value=5),
                    st.integers(min_value=1, max_value=3),
                ),
                max_size=4,
            )
        )
        q = truncate(MPoly(cvt, terms), 8)
        sigmas = [elementary_symmetric(i, n) for i in range(1, n + 1)]
        (expanded,) = MPoly.evaluate([q], sigmas, MPoly.one(x_vars(n)))
        assert express_in_elementary(expanded) == q


class TestElementaryOfForms:
    def test_rank_two_roots(self):
        s1, s2 = elementary_of_forms([(2, 0), (0, 2), (1, 1)], 2, 2)
        c1, c2 = (MPoly.variable(c_vars(2), v) for v in ("c1", "c2"))
        assert s1 == 3 * c1
        assert s2 == 4 * c2 + 2 * c1**2

    def test_beyond_the_form_count_vanishes(self):
        # two nonzero forms x1 - x2 and x2 - x1 (plus a zero form)
        s1, s2, s3 = elementary_of_forms([(1, -1), (-1, 1), (0, 0)], 2, 3)
        c1, c2 = (MPoly.variable(c_vars(2), v) for v in ("c1", "c2"))
        assert s1.is_zero()
        assert s2 == 4 * c2 - c1**2
        assert s3.is_zero()

    def test_rejects_a_family_that_is_not_permutation_invariant(self):
        with pytest.raises(ValueError, match=r"\(x1 x2\)"):
            elementary_of_forms([(1, 0)], 2, 1)
        with pytest.raises(ValueError, match=r"\(x2 x3\)"):
            elementary_of_forms([(1, 1, 0)], 3, 1)

    def test_rejects_forms_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            elementary_of_forms([(1, 1, 1)], 2, 1)

    def test_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            elementary_of_forms([(1.5, 0), (0, 1.5)], 2, 2)


class TestPowerSumSeries:
    """The library's power-sum series against the forms route of tests/naive.py."""

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_power_sums_in_elementary(self, n):
        for k, p_c in enumerate(_power_sums_in_elementary(n), start=1):
            expected = {
                tuple(k if j == i else 0 for j in range(n)): Fraction(1)
                for i in range(n)
            }
            assert naive.expand_cpoly(p_c, n) == expected

    @pytest.mark.parametrize("n", (7, 8))
    def test_s_against_the_forms(self, n):
        expected = elementary_of_forms(root_compositions(n), n, n)
        assert s_in_elementary(n) == tuple(expected)

    @pytest.mark.parametrize("n", (7, 8))
    def test_symmetric_power_classes_against_the_forms(self, n):
        forms = [tuple(v - 1 for v in m) for m in root_compositions(n)]
        assert list(sym_power_det_inverse_chern(n)) == elementary_of_forms(forms, n, n)

    @pytest.mark.parametrize("n", (8, 9, 10))
    def test_shifted_roots_against_the_forms(self, n):
        forms = [tuple(n - 1 if j == i else -1 for j in range(n)) for i in range(n)]
        expected = [
            p * Fraction(1, n**r)
            for r, p in enumerate(elementary_of_forms(forms, n, n), start=1)
        ]
        assert list(shifted_root_sigma(n)) == expected

    def test_rejects_a_series_not_in_power_sums(self):
        # n is the series' variable count, and those variables must be p1..pn
        with pytest.raises(ValueError, match="p1..p2"):
            elementary_from_power_sums(MPoly.one(c_vars(2)))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_forms_series_against_newtons_recurrence(self, n):
        h = naive.composition_series(n)
        assert forms_series(n, 0) == h
        assert forms_series(n, 1) == truncate(naive.exp_p1(n, -1) * h, n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shifted_root_series_against_the_product(self, n):
        product = naive.exp_p1(n, -1) * naive.exp_power_sum(n, n)
        assert shifted_root_series(n) == truncate(product, n)


class TestMonomialCoefficients:
    def test_e1_squared(self):
        coords = monomial_coefficients(elementary_product(P(1, 1), 2))
        assert coords.coeffs == {P(2): Fraction(1), P(1, 1): Fraction(2)}

    def test_zero(self):
        assert monomial_coefficients(MPoly.zero(x_vars(3))).coeffs == {}

    def test_s2_at_rank_two_is_nonnegative(self):
        # sigma_2 of the forms 2x1, x1+x2, 2x2, by naive subset expansion
        forms = [
            naive.nlinear(2, (2, 0)),
            naive.nlinear(2, (1, 1)),
            naive.nlinear(2, (0, 2)),
        ]
        s2 = MPoly(x_vars(2), naive.nsigma_of_forms(forms, 2, 2))
        coords = monomial_coefficients(s2)
        assert coords.coeffs and all(c >= 0 for c in coords.coeffs.values())

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_positivity_propagates_through_products(self, data):
        n = 3
        pool = [lam for d in range(1, 4) for lam in partitions_of(d, n)]
        picks_strategy = st.lists(
            st.tuples(st.sampled_from(pool), st.integers(min_value=0, max_value=3)),
            min_size=1,
            max_size=3,
        )

        def factor(picks):
            return sum(
                (monomial_symmetric(lam, n) * c for lam, c in picks),
                MPoly.zero(x_vars(n)),
            )

        p = factor(data.draw(picks_strategy))
        q = factor(data.draw(picks_strategy))
        coords = monomial_coefficients(p * q)
        assert all(c >= 0 for c in coords.coeffs.values())


class TestSymPolyInBasis:
    def test_round_trip_through_expand(self):
        coords = SymPolyInBasis({P(2): Fraction(1), P(1, 1): Fraction(5, 3)})
        assert monomial_coefficients(expand_in_roots(coords, 3)).coeffs == coords.coeffs

    def test_json_order_and_round_trip(self):
        coords = SymPolyInBasis(
            {P(1, 1): Fraction(2), P(2): Fraction(1), P(1): Fraction(-1, 2)}
        )
        obj = coords.to_json_obj()
        assert [item["partition"] for item in obj["coeffs"]] == [[1], [2], [1, 1]]
        read = {tuple(i["partition"]): Fraction(i["coeff"]) for i in obj["coeffs"]}
        assert read == coords.coeffs


def test_root_compositions_counts_and_order():
    for n, count in ((2, 3), (3, 10), (4, 35)):
        comps = root_compositions(n)
        assert len(comps) == count
        assert all(sum(m) == n and min(m) >= 0 for m in comps)
        for i in range(n):
            assert comps[i] == tuple(n if j == i else 0 for j in range(n))
        tail = comps[n:]
        assert list(tail) == sorted(tail)
