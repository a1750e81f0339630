"""Polynomial substrate: arithmetic, truncation, substitution, JSON."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redchern.oracle import ToyRing
from redchern.symfun import elementary_to_monomial
from redchern.poly import (
    MPoly,
    VarTable,
    c_vars,
    render_latex,
    render_text,
)

from . import naive
from .naive import x_vars
from .strategies import coefficients, exponent_tuples, mpolys

X2 = x_vars(2)
C2 = c_vars(2)
C3 = c_vars(3)


def xp(name, table=X2):
    return MPoly.variable(table, name)


class TestVarTable:
    def test_basic(self):
        t = VarTable([("c1", 1), ("c2", 2)])
        assert t.names == ("c1", "c2")
        assert t.wdeg((2, 1)) == 4
        assert t.index("c2") == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            VarTable([("x", 0)])
        with pytest.raises(ValueError):
            VarTable([("x", 1), ("x", 1)])
        with pytest.raises(ValueError):
            t = VarTable([("x", 1)])
            t.index("y")


class TestMulTruncated:
    """MPoly products through VarTable.multiply_into, which truncates nothing."""

    def test_identity_factor(self):
        p = 1 + 3 * xp("x1") * xp("x2") - xp("x2") ** 2
        assert p * MPoly.one(X2) == p
        # c1 c2 has weighted degree 3 and is kept
        assert ((1 + xp("c1", C2)) * xp("c2", C2)).terms == {(0, 1): 1, (1, 1): 1}

    def test_mismatched_tables(self):
        with pytest.raises(ValueError):
            MPoly.one(X2) * MPoly.one(C2)


class TestMultiplyInto:
    """VarTable.multiply_into, the free ring's side of the product protocol."""

    def test_adds_into_a_nonempty_out(self):
        # (2 x1 + 1)(3 x2 - 1) added to 5 x1 - 6 x1 x2 + x2^2
        out = {(1, 0): 5, (1, 1): -6, (0, 2): 1}
        a = {(1, 0): 2, (0, 0): 1}
        b = {(0, 1): 3, (0, 0): -1}
        assert X2.multiply_into(out, a, b) is out
        # the x1 x2 coefficient cancels against out and stays as a zero
        assert out == {(1, 0): 3, (1, 1): 0, (0, 2): 1, (0, 1): 3, (0, 0): -1}

    def test_keeps_a_cancelled_coefficient_as_zero(self):
        diff, total = xp("x1") - xp("x2"), xp("x1") + xp("x2")
        raw = X2.multiply_into({}, diff.terms, total.terms)
        assert raw == {(2, 0): 1, (1, 1): 0, (0, 2): -1}
        # the product drops the zero
        assert (diff * total).terms == {(2, 0): 1, (0, 2): -1}

    def test_evaluate_drops_a_cancelled_coefficient(self):
        point = [xp("x1") - xp("x2"), xp("x1") + xp("x2")]
        (image,) = MPoly.evaluate([xp("x1") * xp("x2")], point, MPoly.one(X2))
        # x1^2 - x2^2, with no zero left at x1 x2
        assert image.terms == {(2, 0): 1, (0, 2): -1}


class TestSubstitute:
    def test_shifted_roots_sum_to_zero(self):
        half = Fraction(1, 2)
        s = xp("x1") + xp("x2")
        shift = [xp(name) - half * s for name in ("x1", "x2")]
        (image,) = MPoly.evaluate([s], shift, MPoly.one(X2))
        assert image.is_zero()

    def test_identity_assignment(self):
        p = xp("c1", C2)
        identity = [xp("c1", C2), xp("c2", C2)]
        assert list(MPoly.evaluate([p], identity, MPoly.one(C2))) == [p]

    def test_collapse_to_one_variable(self):
        t = VarTable([("t", 1)])
        tt = MPoly.variable(t, "t")
        p = xp("x1") * xp("x2")
        assert list(MPoly.evaluate([p], [tt, tt], MPoly.one(t))) == [tt**2]

    def test_unassigned_variable(self):
        p = xp("x1") + xp("x2")
        with pytest.raises(ValueError):
            list(MPoly.evaluate([p], [xp("x1"), None], MPoly.one(X2)))


class TestGradedComponent:
    def test_picks_weighted_degree(self):
        p = 1 + xp("c1", C2) + xp("c2", C2)
        assert p.graded_component(2) == xp("c2", C2)
        assert p.graded_component(3).is_zero()

    def test_square_of_sum(self):
        p = (xp("x1") + xp("x2")) ** 2
        assert p.graded_component(2) == p
        assert p == xp("x1") ** 2 + 2 * xp("x1") * xp("x2") + xp("x2") ** 2

    def test_components_sum_back(self):
        p = (1 + xp("c1", C2) + xp("c2", C2)) ** 2
        total = MPoly.zero(C2)
        for d in range(5):
            total = total + p.graded_component(d)
        assert total == p


@settings(max_examples=60)
@given(mpolys(X2), mpolys(X2), mpolys(X2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MPoly.zero(X2) == p
    assert p * MPoly.one(X2) == p
    assert (p - p).is_zero()


@settings(max_examples=40)
@given(mpolys(X2, max_terms=4, max_exp=2), mpolys(X2, max_terms=4, max_exp=2))
def test_substitution_is_a_homomorphism(p, q):
    images = [xp("x1") + 2 * xp("x2"), xp("x1") * xp("x2") - 1]
    one = MPoly.one(X2)
    p_at, q_at, pq_at, sum_at = MPoly.evaluate([p, q, p * q, p + q], images, one)
    assert pq_at == p_at * q_at
    assert sum_at == p_at + q_at


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MPoly(X2, {(1, 0): 0.1})
    with pytest.raises(TypeError):
        MPoly.constant(X2, 0.5)
    assert MPoly.constant(X2, "1/10") == MPoly.constant(X2, Fraction(1, 10))


@pytest.mark.parametrize(
    "build",
    (
        lambda: MPoly(X2, {(1.5, 0): 1}),
        # exponents decoded from JSON, as test_json_round_trip rebuilds them
        lambda: MPoly(X2, {tuple(json.loads("[2.7, 0]")): 1}),
        lambda: MPoly(X2, {(True, 0): 1}),
        lambda: VarTable([("x", 1.9)]),
        lambda: elementary_to_monomial((2.5, 1)),
    ),
    ids=(
        "float-exponent",
        "json-float-exponent",
        "bool-exponent",
        "float-degree",
        "float-part",
    ),
)
def test_non_integer_or_duplicate_input_rejected(build):
    # int() would truncate these silently
    with pytest.raises(ValueError):
        build()


def test_chain_against_repeated_mul():
    # the naive chain expansion must agree with folding MPoly products of the factors
    rng = random.Random(2024)
    for _ in range(20):
        nvars = rng.randint(1, 4)
        table = x_vars(nvars)
        forms = [
            tuple(rng.randint(-3, 3) for _ in range(nvars))
            for _ in range(rng.randint(1, 6))
        ]
        acc = MPoly.one(table)
        for form in forms:
            factor = {(0,) * nvars: 1}
            for i, m in enumerate(form):
                if m:
                    factor[table.unit(i)] = m
            acc = acc * MPoly(table, factor)
        assert naive.expand_linear_chain(forms, nvars, -1) == acc.terms


@settings(max_examples=60)
@given(mpolys(C3))
def test_json_round_trip(p):
    obj = json.loads(p.dumps())
    assert obj == p.to_json_obj()
    assert [(v["name"], v["degree"]) for v in obj["vars"]] == list(p.table.pairs)
    terms = [(tuple(t["exps"]), Fraction(t["coeff"])) for t in obj["terms"]]
    assert terms == p.sorted_terms()


def test_integral_coefficients_are_stored_as_ints():
    p = MPoly(C2, {(1, 0): Fraction(4, 2), (0, 1): -3, (0, 0): "6/3"})
    assert p.terms == {(1, 0): 2, (0, 1): -3, (0, 0): 2}
    assert all(type(c) is int for c in p.terms.values())
    assert type(MPoly.variable(C2, "c2").terms[(0, 1)]) is int
    assert type(p.coefficient((2, 2))) is int and p.coefficient((2, 2)) == 0
    assert all(type(c) is int for c in (p * 3).terms.values())
    half = p * Fraction(1, 2)
    assert half.terms == {(1, 0): 1, (0, 1): Fraction(-3, 2), (0, 0): 1}
    assert type(half.terms[0, 0]) is type(half.terms[1, 0]) is int
    assert type(half.terms[0, 1]) is Fraction
    # an int scalar that clears every denominator gives ints too
    assert all(type(c) is int for c in (half * 2).terms.values())
    # an int renders and serializes as the Fraction of the same value did
    for q, text in ((p, "2 + 2 c_1 - 3 c_2"), (half, "1 + c_1 - 3/2 c_2")):
        as_fractions = MPoly._wrap(C2, {e: Fraction(c) for e, c in q.terms.items()})
        assert render_text(q) == render_text(as_fractions) == text
        assert render_latex(q) == render_latex(as_fractions)
        assert q.dumps() == as_fractions.dumps()
    assert p.dumps() == (
        '{"vars":[{"name":"c1","degree":1},{"name":"c2","degree":2}],'
        '"terms":[{"coeff":"2","exps":[0,0]},{"coeff":"2","exps":[1,0]},'
        '{"coeff":"-3","exps":[0,1]}]}'
    )


def test_integral_sums_and_evaluations_are_stored_as_ints():
    a = MPoly(C2, {(1, 0): Fraction(1, 2)})
    assert (a + a).terms == {(1, 0): 1} and type((a + a).terms[1, 0]) is int
    assert type((a - (-a) + 1).terms[1, 0]) is int
    # c1 + c2 at the constants 1/2, 1/2: the common denominator is 1, so the
    # sum is never divided; 1/3 c1 + 1/3 c2 at 3/2, 3/2 is divided by 3
    point = VarTable(())
    half, three_halves = (MPoly.constant(point, Fraction(k, 2)) for k in (1, 3))
    one = MPoly.one(point)
    c1, c2 = xp("c1", C2), xp("c2", C2)
    (got,) = MPoly.evaluate([c1 + c2], [half, half], one)
    assert got.terms == {(): 1} and type(got.terms[()]) is int
    thirds = (c1 + c2) * Fraction(1, 3)
    (got,) = MPoly.evaluate([thirds], [three_halves, three_halves], one)
    assert got.terms == {(): 1} and type(got.terms[()]) is int


def test_json_canonical_form():
    p = xp("c2", C2) - Fraction(1, 4) * xp("c1", C2) ** 2
    obj = p.to_json_obj()
    assert obj["vars"] == [
        {"name": "c1", "degree": 1},
        {"name": "c2", "degree": 2},
    ]
    assert obj["terms"] == [
        {"coeff": "1", "exps": [0, 1]},
        {"coeff": "-1/4", "exps": [2, 0]},
    ]


def test_substitute_agrees_with_naive_evaluation():
    p = 2 * xp("c1", C2) ** 2 - xp("c2", C2) + 3
    values = [xp("x1") + xp("x2"), xp("x1") * xp("x2")]
    (by_subs,) = MPoly.evaluate([p], values, MPoly.one(X2))
    by_naive = naive.nevaluate(p, [v.terms for v in values], 2)
    assert by_subs.terms == by_naive


Y2 = VarTable([("y1", 1), ("y2", 2)])
Z1 = VarTable([("z", 1)])
Q = VarTable(())  # rational numbers are its constants
TOY = ToyRing("toy", [("a", 1), ("b", 2)], [{"a": 4}, {"a": 1, "b": 2}], 7)
TOY_A, TOY_B = MPoly(TOY, {(1, 0): 1}), MPoly(TOY, {(0, 1): 1})
DENOMINATORS = (1, 2, 3, 4, 6, 9)


def toy_reduce(terms):
    return naive.ntruncate(terms, (1, 2), [(4, 0), (1, 2)], 7)


def toy_point(images):
    """The point (c1, c2) at the TOY elements with the reduced term dicts images."""
    return [MPoly(TOY, terms) for terms in images]


def raw_toy_terms(coeffs=coefficients()):
    """Term dicts over TOY's exponents, before reduction."""
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=4
    )


class TestEvaluate:
    """Memoised evaluation against naive term-by-term evaluation."""

    @settings(max_examples=60, deadline=None)
    @given(mpolys(X2, max_terms=6, max_exp=5), mpolys(Y2, 3, 2), mpolys(Y2, 3, 2))
    def test_at_mpoly_points(self, p, v1, v2):
        (got,) = MPoly.evaluate([p], [v1, v2], MPoly.one(Y2))
        assert got.terms == naive.nevaluate(p, [v1.terms, v2.terms], 2)

    @settings(max_examples=60, deadline=None)
    @given(mpolys(C2, max_terms=6, max_exp=5), st.data())
    def test_at_toy_ring_points(self, p, data):
        images = [toy_reduce(data.draw(raw_toy_terms())) for _ in range(2)]
        (got,) = MPoly.evaluate([p], toy_point(images), MPoly.one(TOY))
        assert got.terms == naive.nevaluate(p, images, 2, toy_reduce)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(mpolys(X2, max_terms=6, max_exp=4), min_size=2, max_size=4),
        mpolys(Y2, 3, 2),
        mpolys(Y2, 3, 2),
    )
    def test_one_shared_table_at_mpoly_points(self, polys, v1, v2):
        got = MPoly.evaluate(polys, [v1, v2], MPoly.one(Y2))
        for p, value in zip(polys, got, strict=True):
            assert value.terms == naive.nevaluate(p, [v1.terms, v2.terms], 2)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(mpolys(C2, max_terms=6, max_exp=4), min_size=2, max_size=4), st.data())
    def test_one_shared_table_at_toy_ring_points(self, polys, data):
        images = [toy_reduce(data.draw(raw_toy_terms())) for _ in range(2)]
        got = MPoly.evaluate(polys, toy_point(images), MPoly.one(TOY))
        for p, value in zip(polys, got, strict=True):
            assert value.terms == naive.nevaluate(p, images, 2, toy_reduce)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            exponent_tuples(C2, 4),
            st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS)),
            max_size=6,
        ),
        st.data(),
    )
    def test_mixed_denominators(self, terms, data):
        # the coefficients are summed over their common denominator, and
        # each sum divided once; points have int or Fraction coefficients
        p = MPoly(C2, terms)
        ints = raw_toy_terms(st.integers(-3, 3).filter(bool))
        images = [toy_reduce(data.draw(s)) for s in (ints, ints | raw_toy_terms())]
        (got,) = MPoly.evaluate([p], toy_point(images), MPoly.one(TOY))
        assert got.terms == naive.nevaluate(p, images, 2, toy_reduce)
        v1, v2 = data.draw(mpolys(Y2, 3, 2)), data.draw(mpolys(Y2, 3, 2))
        (got,) = MPoly.evaluate([p], [v1, v2], MPoly.one(Y2))
        assert got.terms == naive.nevaluate(p, [v1.terms, v2.terms], 2)
        q1, q2 = data.draw(coefficients()), data.draw(coefficients())
        values = [MPoly.constant(Q, q1), MPoly.constant(Q, q2)]
        (got,) = MPoly.evaluate([p], values, MPoly.one(Q))
        assert got.terms == naive.nevaluate(p, [{(): q1}, {(): q2}], 0)

    def test_cancellation_leaves_no_stored_zero(self):
        p = MPoly(X2, {(2, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3), (1, 0): 1})
        z = MPoly.variable(Z1, "z")
        (got,) = MPoly.evaluate([p], [z, Fraction(3, 2) * z * z], MPoly.one(Z1))
        assert got.terms == {(1,): 1}
        (got,) = MPoly.evaluate([p], [2 * z, 6 * z * z + 6 * z], MPoly.one(Z1))
        assert got.terms == {}
        h = TOY_A * 2 + TOY_B
        point = [h, h * h * Fraction(3, 2) + h * 3]
        (got,) = MPoly.evaluate([p], point, MPoly.one(TOY))
        assert got.terms == {}
        values = [MPoly.constant(Q, 2), MPoly.constant(Q, 12)]
        (got,) = MPoly.evaluate([p], values, MPoly.one(Q))
        assert got.is_zero()

    def test_numerators_follow_a_replaced_terms_dict(self):
        # the integer numerators are kept per polynomial, never past its terms
        p = MPoly(X2, {(1, 0): Fraction(1, 2)})
        z = MPoly.variable(Z1, "z")
        (got,) = MPoly.evaluate([p], [z, None], MPoly.one(Z1))
        assert got == z * Fraction(1, 2)
        p.terms = {(0, 1): Fraction(2, 3), (0, 0): Fraction(1, 5)}
        (got,) = MPoly.evaluate([p], [None, z], MPoly.one(Z1))
        assert got == z * Fraction(2, 3) + Fraction(1, 5)

    def test_integral_coefficients_stay_ints(self):
        p = MPoly(C2, {(2, 0): 3, (1, 1): -2, (0, 1): 1, (0, 0): 5})
        a, b = TOY_A, TOY_B
        values = [a * 2 + b, b * 3 - a * a]
        got, halved = MPoly.evaluate([p, p * Fraction(1, 2)], values, MPoly.one(TOY))
        assert got.terms and all(type(c) is int for c in got.terms.values())
        assert halved * 2 == got
        assert any(isinstance(c, Fraction) for c in halved.terms.values())
        # a sum that the common denominator divides comes back as an int
        q = MPoly(C2, {(2, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
        (got,) = MPoly.evaluate([q], [a * 2, b * 3], MPoly.one(TOY))
        assert got.terms == {(2, 0): 2, (0, 1): 1}
        assert all(type(c) is int for c in got.terms.values())

    def test_high_degree(self):
        p = MPoly(X2, {(41, 0): 1, (20, 22): Fraction(-3, 2), (0, 45): 2, (3, 3): 5})
        v1 = 1 + MPoly.variable(Z1, "z")
        v2 = MPoly.variable(Z1, "z") - 2
        (got,) = MPoly.evaluate([p], [v1, v2], MPoly.one(Z1))
        assert got.terms == naive.nevaluate(p, [v1.terms, v2.terms], 1)
        a, b = TOY_A, TOY_B
        (got,) = MPoly.evaluate([p], [a + b, b], MPoly.one(TOY))
        assert got.terms == naive.nevaluate(p, [(a + b).terms, b.terms], 2, toy_reduce)

    @pytest.mark.parametrize("shared", (False, True))
    def test_missing_variable_raises(self, shared):
        # x2 occurs only in the second term, past a monomial already built;
        # shared, a value taken before p's has built x1 in the same table
        p = MPoly(X2, {(2, 0): 1, (1, 1): 3})
        polys = [MPoly(X2, {(1, 0): 1}), p] if shared else [p]
        z = MPoly.variable(Z1, "z")
        values = MPoly.evaluate(polys, [z, None], MPoly.one(Z1))
        if shared:
            assert next(values) == z
        with pytest.raises(ValueError, match="variable 'x2' has no value"):
            next(values)
        # a point without a slot for x2 names the table, not the variable
        with pytest.raises(ValueError, match=r"length 1 for VarTable\(x1:1, x2:1\)"):
            MPoly.evaluate(polys, [z], MPoly.one(Z1))

    def test_a_point_is_one_value_per_variable_in_table_order(self):
        z = MPoly.variable(Z1, "z")
        p = MPoly(X2, {(2, 0): 1, (0, 0): 3})
        # values[i] is the value of variable i; x2 occurs in no term
        assert list(MPoly.evaluate([p], [z, None], MPoly.one(Z1))) == [z * z + 3]
        x2 = MPoly.variable(X2, "x2")
        assert list(MPoly.evaluate([x2], [z, 2 * z], MPoly.one(Z1))) == [2 * z]
        with pytest.raises(ValueError, match="point of length 3 for"):
            MPoly.evaluate([p], [z, z, z], MPoly.one(Z1))
        with pytest.raises(TypeError, match="mapping"):
            MPoly.evaluate([p], {"x1": z, "x2": z}, MPoly.one(Z1))

    def test_a_slot_filled_between_values_is_read(self):
        # the slice solve's pattern: x2 gets its value from the first value
        # taken, before the second, which needs it, is taken
        z = MPoly.variable(Z1, "z")
        point = [z, None]
        polys = [xp("x1") * 2, xp("x1") ** 2 * xp("x2")]
        values = MPoly.evaluate(polys, point, MPoly.one(Z1))
        point[1] = next(values) + 1
        assert next(values) == z * z * (2 * z + 1)
        assert list(values) == []

    def test_tables_lengths_and_mappings_raise_at_the_call(self):
        z = MPoly.variable(Z1, "z")
        one = MPoly.one(Z1)
        with pytest.raises(ValueError, match="mismatched variable tables"):
            MPoly.evaluate([xp("x1"), xp("c1", C2)], [z, z], one)
        with pytest.raises(ValueError, match="point of length 1 for"):
            MPoly.evaluate([xp("x1"), xp("x2")], [z], one)
        with pytest.raises(TypeError, match="mapping"):
            MPoly.evaluate([xp("x1")], {0: z, 1: z}, one)

    def test_only_a_reached_none_raises(self):
        z = MPoly.variable(Z1, "z")
        one = MPoly.one(Z1)
        unreached = MPoly.evaluate([xp("x1"), xp("x1") ** 2], [z, None], one)
        assert list(unreached) == [z, z * z]
        reached = MPoly.evaluate([xp("x1"), xp("x2"), xp("x1")], [z, None], one)
        assert next(reached) == z
        with pytest.raises(ValueError, match="variable 'x2' has no value"):
            next(reached)

    def test_no_polys_give_nothing(self):
        z = MPoly.variable(Z1, "z")
        assert list(MPoly.evaluate([], [z, None], MPoly.one(Z1))) == []
        assert list(MPoly.evaluate((), [], MPoly.one(Z1))) == []

    def test_monomials_deeper_than_the_recursion_limit(self):
        p = MPoly(X2, {(1500, 0): 1, (2, 1): 1})
        z = MPoly.variable(Z1, "z")
        (got,) = MPoly.evaluate([p], [z, 2 * z], MPoly.one(Z1))
        assert got == MPoly(Z1, {(1500,): 1, (3,): 2})
        a = TOY_A
        assert list(MPoly.evaluate([p], [a, a * 2], MPoly.one(TOY))) == [a**3 * 2]


class TestRendering:
    def test_zero(self):
        assert render_text(MPoly.zero(C2)) == "0"
        assert render_latex(MPoly.zero(C2)) == "0"

    def test_text(self):
        p = xp("c2", C3) - Fraction(1, 3) * xp("c1", C3) ** 2
        assert render_text(p) == "c_2 - 1/3 c_1^2"

    def test_latex(self):
        p = xp("c2", C3) - Fraction(1, 3) * xp("c1", C3) ** 2
        assert render_latex(p) == r"c_2 - \frac{1}{3} c_1^2"

    def test_canonical_order_within_degree(self):
        p = xp("c1", C3) * xp("c2", C3) + xp("c3", C3) - 5
        assert render_text(p) == "-5 + c_3 + c_1 c_2"
