"""Toy rings, random bundles, identity specialization, projective bundles."""

import hashlib
import json
import random
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redchern import oracle, verify
from redchern.oracle import (
    IDENTITY_TAGS,
    ProjectiveBundleRing,
    ToyRing,
    SeedVector,
    _stack,
    check_bundles,
    random_bundle,
    rank_theory,
)
from redchern.poly import MPoly, VarTable, c_vars

from . import naive
from .strategies import coefficients, exponent_tuples

# ToyRing argument tuples (id, generators, relations, top_degree)
P2_SPEC = ("p2-even", [("h", 2)], [{"h": 3}], 8)
CURVES_SPEC = ("two-curves", [("h1", 1), ("h2", 1)], [{"h1": 2}, {"h2": 2}], 8)
RICH_SPEC = ("rich", [("a", 1), ("b", 2)], [{"a": 5}, {"b": 3}], 10)


# the toy-rings suite's catalog at max rank 5 and the rings of these tests
CATALOG = verify.toy_ring_specs(5)
TWO_LINES_SPEC = CATALOG[1]
ALL_SPECS = (*CATALOG, RICH_SPEC, CURVES_SPEC, P2_SPEC)


def check_identity(tag, ring, rank, seed, theory=None):
    """The result of one identity tag, picked from a one-seed check_bundles."""
    theory = rank_theory(rank) if theory is None else theory
    return check_bundles(ring, theory, [seed])[IDENTITY_TAGS.index(tag)]


def corrupt(theory, field, k):
    """theory with 1 added to the first canonical coefficient of field[k]."""
    polys = list(getattr(theory, field))
    p = polys[k]
    exps = p.sorted_terms()[0][0] if p.terms else (0,) * len(p.table)
    polys[k] = p + MPoly(p.table, {exps: 1})
    return theory._replace(**{field: tuple(polys)})


class TestMakeToyRing:
    def test_projective_plane_model(self):
        ring = ToyRing(*P2_SPEC)
        assert [len(ring.graded_basis(d)) for d in (0, 2, 4)] == [1, 1, 1]
        assert [len(ring.graded_basis(d)) for d in (1, 3, 5, 6)] == [0, 0, 0, 0]
        h = MPoly(ring, {(1,): 1})
        assert (h * h * h).is_zero()
        assert not (h * h).is_zero()

    def test_product_of_curves_model(self):
        ring = ToyRing(*CURVES_SPEC)
        assert len(ring.graded_basis(0)) == 1
        assert len(ring.graded_basis(1)) == 2
        assert len(ring.graded_basis(2)) == 1
        h1, h2 = MPoly(ring, {(1, 0): 1}), MPoly(ring, {(0, 1): 1})
        assert h1 * h2 == MPoly(ring, {(1, 1): 1})

    def test_empty_spec_is_the_rationals(self):
        ring = ToyRing("point", [], top_degree=4)
        assert len(ring.graded_basis(0)) == 1
        assert all(len(ring.graded_basis(d)) == 0 for d in range(1, 5))

    def test_rejects_bad_relations(self):
        with pytest.raises(ValueError):
            ToyRing("p2-even", [("h", 2)], [{}], 8)
        with pytest.raises(ValueError):
            ToyRing("p2-even", [("h", 2)], [{"h": 0}], 8)
        with pytest.raises(ValueError):
            ToyRing("p2-even", [("h", 2)], [{"nope": 2}], 8)

    @pytest.mark.parametrize(
        "override",
        (
            {"relations": [{"h": 2.7}]},
            {"relations": [{"h": True}]},
            {"relations": [{"h": "3"}]},
            {"top_degree": 4.9},
            {"top_degree": True},
            {"top_degree": "8"},
        ),
    )
    def test_rejects_non_int_powers_and_top_degree(self, override):
        # int() would truncate 2.7 to 2 and 4.9 to 4, and read True as 1
        ring_id, generators, relations, top_degree = P2_SPEC
        kwargs = {"relations": relations, "top_degree": top_degree, **override}
        with pytest.raises(ValueError):
            ToyRing(ring_id, generators, **kwargs)

    def test_top_degree_truncates(self):
        ring = ToyRing("trunc", [("h", 1)], top_degree=2)
        h = MPoly(ring, {(1,): 1})
        assert not (h * h).is_zero()
        assert (h * h * h).is_zero()


class TestToyElements:
    def test_arithmetic(self):
        ring = ToyRing(*CURVES_SPEC)
        a, b = MPoly(ring, {(1, 0): 1}), MPoly(ring, {(0, 1): 1})
        assert a + b == b + a
        assert (a + b) * (a - b) == a * a - b * b
        assert a * a == MPoly.zero(ring)
        assert (a + 1) * (b + 1) == a * b + a + b + 1
        assert Fraction(1, 2) * (a + a) == a

    def test_rejects_a_dead_monomial(self):
        # h1^2 = 0, so h1^2 is no element and neither h1 * h1^2 nor h1^2 * h1
        # can be formed
        ring = ToyRing(*CURVES_SPEC)
        with pytest.raises(ValueError, match=r"\(2, 0\)"):
            MPoly(ring, {(1, 0): 1, (2, 0): 1})

    def test_graded_pieces(self):
        ring = ToyRing(*RICH_SPEC)
        a, b = MPoly(ring, {(1, 0): 1}), MPoly(ring, {(0, 1): 1})
        x = a + b + 3
        assert x.graded_component(0) == MPoly.one(ring) * 3
        assert x.graded_component(1) == a
        assert x.graded_component(2) == b
        assert x.min_degree_component() == MPoly.one(ring) * 3

    def test_rings_do_not_mix(self):
        # a toy ring on h is no free ring on h; their elements never mix
        free = VarTable([("h", 1)])
        ring = ToyRing("line", [("h", 1)], [{"h": 3}], 4)
        assert free != ring and ring != free
        assert not (free == ring or ring == free)
        x, y = MPoly.variable(free, "h"), MPoly(ring, {(1,): 1})
        for op in (add, sub, mul):
            with pytest.raises(ValueError, match="mismatched"):
                op(x, y)
            with pytest.raises(ValueError, match="mismatched"):
                op(y, x)
        with pytest.raises(ValueError, match="mismatched"):
            list(MPoly.evaluate([x], [y] * len(x.table), MPoly.one(x.table)))

    def test_json_uses_mpoly_schema(self):
        ring = ToyRing(*CURVES_SPEC)
        obj = MPoly(ring, {(1, 0): 2}).to_json_obj()
        assert obj["vars"] == [
            {"name": "h1", "degree": 1},
            {"name": "h2", "degree": 1},
        ]
        assert obj["terms"] == [{"coeff": "2", "exps": [1, 0]}]


@st.composite
def random_rings(draw, multivariable=False):
    """A toy ring on 1..3 generators of degree 1..3, with its raw data.

    With multivariable set, the ring has 2..3 generators and its first
    relation involves at least two of them.
    """
    ngens = draw(st.integers(min_value=2 if multivariable else 1, max_value=3))
    names = [f"g{i}" for i in range(ngens)]
    degrees = draw(st.lists(st.integers(1, 3), min_size=ngens, max_size=ngens))

    def relation(min_size):
        return st.dictionaries(
            st.sampled_from(names), st.integers(1, 4), min_size=min_size
        )

    relations = draw(st.lists(relation(1), max_size=3))
    if multivariable:
        relations.insert(0, draw(relation(2)))
    top = draw(st.integers(min_value=0, max_value=9))
    ring = ToyRing("random", list(zip(names, degrees)), relations, top)
    patterns = [tuple(rel.get(name, 0) for name in names) for rel in relations]
    return ring, degrees, patterns, top


def raw_terms(nvars, max_exp=4, max_size=6):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(nvars)))
    return st.dictionaries(exps, coefficients(), max_size=max_size)


class TestCappedProduct:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_full_product_then_filter(self, data):
        ring, degrees, patterns, top = data.draw(random_rings())
        nvars = len(degrees)
        a, b = data.draw(raw_terms(nvars)), data.draw(raw_terms(nvars))

        def reduce(t):
            return naive.ntruncate(t, degrees, patterns, top)

        expected = reduce(naive.nmul(reduce(a), reduce(b)))
        product = MPoly(ring, reduce(a)) * MPoly(ring, reduce(b))
        assert product.terms == expected

    def test_top_degree_zero_keeps_only_constants(self):
        ring = ToyRing("point", [("a", 1), ("b", 2)], [{"a": 1, "b": 1}], 0)
        assert ring.graded_basis(0) == ((0, 0),) and ring.graded_basis(1) == ()
        x = MPoly(ring, {(0, 0): 3})
        assert (x * x).terms == {(0, 0): 9}

    def test_multivariable_relation(self):
        ring = ToyRing("ab", [("a", 1), ("b", 1)], [{"a": 1, "b": 2}], 6)
        a, b = MPoly(ring, {(1, 0): 1}), MPoly(ring, {(0, 1): 1})
        assert (a * b).terms == {(1, 1): 1}
        assert (a * b * b).is_zero()
        assert (b**4).terms == {(0, 4): 1}

    def test_graded_basis_is_enumerated_once(self):
        ring = ToyRing(*RICH_SPEC)
        assert ring.graded_basis(3) is ring.graded_basis(3)
        assert ring.graded_basis(3) == ((1, 1), (3, 0))
        assert ring.graded_basis(-1) == () and ring.graded_basis(11) == ()

    def test_multiplication_table_is_built_once_on_surviving_monomials(self):
        builds = []

        class CountingRing(ToyRing):
            @cached_property
            def _products(self):
                builds.append(self.id)
                return ToyRing._products.func(self)

        ring = CountingRing("ab", [("a", 1), ("b", 2)], [{"a": 2, "b": 1}, {"b": 3}], 7)
        x = MPoly(ring, {(0, 0): 1, (1, 0): 2, (0, 1): -1})
        ab = MPoly(ring, {(1, 1): 1})
        for _ in range(4):
            x = x * x + ab
        assert builds == ["ab"]
        live = {e for d in range(8) for e in ring.graded_basis(d)}
        table = ring._products
        assert set(table) == live
        for ea, row in table.items():
            products = {eb: tuple(map(sum, zip(ea, eb))) for eb in live}
            assert row == {eb: e for eb, e in products.items() if e in live}


class TestExponentValidation:
    @pytest.mark.parametrize(
        "exps", [(1,), (1, 0, 0), (), (-1, 2), (0, -3), (1.0, 0), (True, 0)]
    )
    def test_bad_keys_rejected(self, exps):
        # a key that is no surviving monomial is rejected when the element is
        # built; so are (1.0, 0) and (True, 0), which equal the live (1, 0)
        ring = ToyRing(*CURVES_SPEC)
        with pytest.raises(ValueError):
            MPoly(ring, {exps: 1})


class TestRandomBundle:
    def test_deterministic(self):
        ring = ToyRing(*RICH_SPEC)
        b1 = random_bundle(ring, 3, seed=42)
        b2 = random_bundle(ring, 3, seed=42)
        assert all(x == y for x, y in zip(b1, b2))
        b3 = random_bundle(ring, 3, seed=43)
        assert any(x != y for x, y in zip(b1, b3))

    def test_over_the_rationals_all_classes_vanish(self):
        ring = ToyRing("point", [], top_degree=6)
        bundle = random_bundle(ring, 3, seed=1)
        assert all(c.is_zero() for c in bundle)

    def test_empty_graded_piece_gives_zero(self):
        ring = ToyRing(*P2_SPEC)  # only even degrees are populated
        bundle = random_bundle(ring, 3, seed=9)
        assert bundle[0].is_zero()
        assert bundle[2].is_zero()

    def test_classes_are_a_tuple_drawn_in_their_degrees(self):
        ring = ToyRing(*RICH_SPEC)
        bundle = random_bundle(ring, 4, seed=3)
        assert type(bundle) is tuple and len(bundle) == 4
        assert all(c.graded_component(i) == c for i, c in enumerate(bundle, 1))

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            random_bundle(ToyRing(*P2_SPEC), 1, seed=0)

    def test_negative_seed_rejected(self):
        # random.Random reads -5 as 5, which would repeat seed 5's bundle
        with pytest.raises(ValueError):
            random_bundle(ToyRing(*RICH_SPEC), 3, seed=-5)

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec[0])
    def test_a_bundle_is_the_start_of_every_higher_rank_bundle(self, spec):
        # so the toy-rings suite draws each seed once, at its max rank
        ring = ToyRing(*spec)
        for s in range(20):
            top = random_bundle(ring, 5, s)
            for n in range(2, 6):
                assert random_bundle(ring, n, s) == top[:n]

    def test_a_block_builds_one_generator_per_bundle_line_and_sample(
        self, monkeypatch
    ):
        # 3 rings x 20 seeds draw a bundle and a line once, and each of the
        # 3 x 4 x 20 projective checks draws its own sample
        built = []

        class Counting(random.Random):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(random, "Random", Counting)
        assert all(r.passed for r in verify.suite_toy_rings(5, 0))
        assert len(built) == 360
        assert sorted(set(built)) == sorted(
            {s for seed in range(20) for s in (seed, (seed + 1) << 4, (seed + 3) << 4)}
        )


class TestCheckIdentity:
    @pytest.mark.parametrize("tag", IDENTITY_TAGS)
    @pytest.mark.parametrize("spec", (CURVES_SPEC, RICH_SPEC))
    def test_universal_identities_pass(self, tag, spec):
        ring = ToyRing(*spec)
        for rank in (2, 3):
            for seed in range(5):
                result = check_identity(tag, ring, rank, seed)
                assert result.passed, result.to_json_obj()

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            check_identity("nonsense", ToyRing(*CURVES_SPEC), 2, 0)

    def test_corrupted_phi_fails_with_witness(self):
        ring = ToyRing(*RICH_SPEC)
        bad = corrupt(rank_theory(3), "phi", 0)
        failures = [
            check_identity("phi-roundtrip", ring, 3, seed, theory=bad)
            for seed in range(20)
        ]
        assert any(not r.passed for r in failures)
        witnessed = [r for r in failures if not r.passed]
        assert all(r.witness is not None for r in witnessed)
        assert all(not r.witness.is_zero() for r in witnessed)

    def test_corrupted_reduced_class_fails(self):
        ring = ToyRing(*RICH_SPEC)
        bad = corrupt(rank_theory(3), "reduced", 1)
        failures = [
            check_identity("c1-zero", ring, 3, seed, theory=bad)
            for seed in range(20)
        ]
        assert any(not r.passed for r in failures)

    @pytest.mark.parametrize(
        "tag, corrupt",
        [
            ("twist", lambda th: corrupt(th, "twisted", 0)),
            ("twist", lambda th: corrupt(th, "twisted", th.rank - 1)),
            ("c1F-zero", lambda th: corrupt(th, "f_classes", 0)),
        ],
    )
    def test_corrupted_theory_fails_with_witness(self, tag, corrupt):
        ring = ToyRing(*TWO_LINES_SPEC)
        for n in range(2, 5):
            bad = corrupt(rank_theory(n))
            assert bad != rank_theory(n)
            results = [
                check_identity(tag, ring, n, seed, theory=bad) for seed in range(20)
            ]
            failed = [r for r in results if not r.passed]
            assert failed, (tag, n)
            assert all(r.witness is not None and not r.witness.is_zero() for r in failed)

    def test_failing_report_line_pinned(self):
        ring = ToyRing(*TWO_LINES_SPEC)
        bad = corrupt(rank_theory(3), "phi", 0)
        result = check_identity("phi-roundtrip", ring, 3, 0, theory=bad)
        line = json.dumps(result.to_json_obj(), separators=(",", ":"))
        assert line == (
            '{"identity":"phi-roundtrip","ring":"two-lines","rank":3,"seed":0,'
            '"status":"fail","witness":{"vars":[{"name":"a","degree":1},'
            '{"name":"b","degree":1}],"terms":[{"coeff":"-45","exps":[2,0]}]}}'
        )

    def test_report_shape(self):
        ring = ToyRing(*CURVES_SPEC)
        obj = check_identity("twist", ring, 2, 3).to_json_obj()
        assert obj == {
            "identity": "twist",
            "ring": "two-curves",
            "rank": 2,
            "seed": 3,
            "status": "pass",
            "witness": None,
        }


# base-ring products of check_bundles on two-lines at rank 5, seed 7 alone
# or the toy-rings suite's block of seeds 0..19: P(E) multiplies through
# the base's table, so every one is made by the stacked evaluations
PRODUCTS_AT_RANK_FIVE = 49


class ProductCountingRing(ToyRing):
    """A toy ring that counts the base-ring products multiplied in it."""

    products = 0

    def multiply_into(self, out, a, b):
        self.products += 1
        return ToyRing.multiply_into(self, out, a, b)


class TestCheckBundle:
    def test_one_result_per_tag_in_order(self):
        ring = ToyRing(*RICH_SPEC)
        results = check_bundles(ring, rank_theory(3), [7])
        assert tuple(r.identity for r in results) == IDENTITY_TAGS
        assert all(r.passed for r in results)
        assert {(r.ring, r.rank, r.seed) for r in results} == {("rich", 3, 7)}
        # an empty block is still a point of rank 3, with no results
        assert check_bundles(ring, rank_theory(3), []) == ()

    def test_products_counted_and_c1_free_monomials_reused(self, monkeypatch):
        # one fixed rank-5 bundle: every base-ring product is counted, and
        # each of the five points is one MPoly.evaluate call; the c1 = 0
        # point's monomials free of c1 are c2..c5 themselves, which cost no
        # product, so no table needs to carry them over from the c point
        ring = ProductCountingRing(*TWO_LINES_SPEC)
        theory = rank_theory(5)
        points = []  # each point's length and whether its first value is zero
        honest = MPoly.evaluate

        def spy(polys, values, one):
            points.append((len(values), values[0].is_zero()))
            return honest(polys, values, one)

        monkeypatch.setattr(MPoly, "evaluate", spy)
        assert all(r.passed for r in check_bundles(ring, theory, [7]))
        assert ring.products == PRODUCTS_AT_RANK_FIVE
        # c, (c, t), the twisted classes, the c1 = 0 point and the f-classes
        assert points == [(5, False), (6, False), (5, False), (5, True), (4, False)]

    def test_a_block_of_seeds_is_evaluated_once(self, monkeypatch):
        # the suite checks each ring and rank in one call over its 20 seeds,
        # which share every evaluation, so the block makes the products of
        # one seed; the projective-bundle tag makes no base-ring product
        blocks = {}  # (ring, rank) -> (seeds, products) of its last call
        honest = oracle.check_bundles

        def spy(ring, theory, seeds, draws):
            before = ring.products
            results = honest(ring, theory, seeds, draws)
            blocks[ring.id, theory.rank] = (list(seeds), ring.products - before)
            return results

        monkeypatch.setattr(oracle, "ToyRing", ProductCountingRing)
        monkeypatch.setattr(oracle, "check_bundles", spy)
        assert all(r.passed for r in verify.suite_toy_rings(5, 0))
        assert len(blocks) == 12
        assert all(seeds == list(range(20)) for seeds, _ in blocks.values())
        assert blocks["two-lines", 5][1] == PRODUCTS_AT_RANK_FIVE

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_memo_carried_to_c1_zero_matches_fresh_and_naive(self, data):
        # one call over the reduced and f-classes at the c1 = 0 point, with
        # one monomial table for all of them, against the naive route
        ring, degrees, patterns, top = data.draw(random_rings())
        n = data.draw(st.integers(min_value=2, max_value=5))
        bundle = random_bundle(ring, n, data.draw(st.integers(0, 10**6)))
        polys = rank_theory(n).reduced + rank_theory(n).f_classes
        flat = [MPoly.zero(ring), *bundle[1:]]
        images = [{}] + [c.terms for c in bundle[1:]]

        def reduce(t):
            return naive.ntruncate(t, degrees, patterns, top)

        got = MPoly.evaluate(polys, flat, MPoly.one(ring))
        for p, value in zip(polys, got, strict=True):
            assert value.terms == naive.nevaluate(p, images, len(degrees), reduce)

    def test_mutations_fail_as_with_one_bundle_per_tag(self):
        # Every failing (mutation, rank, seed, tag) with its witness, pinned
        # from the per-tag route in which each tag drew its own bundle and
        # evaluated the reduced classes itself.  Sharing the bundle and its
        # evaluations across tags, and stacking the suite's 20 seeds into
        # one evaluation, must hide no mutation from any tag and seed.
        ring = ToyRing(*TWO_LINES_SPEC)
        # each field with the degree of its first entry
        fields = (("phi", 2), ("reduced", 1), ("twisted", 1), ("f_classes", 1))
        records, failing_tags = [], {}
        for name, first in fields:
            for n in range(2, 5):
                for k in range(first, n + 1):
                    bad = corrupt(rank_theory(n), name, k - first)
                    for r in check_bundles(ring, bad, range(20)):
                        if not r.passed:
                            witness = r.witness.to_json_obj()
                            records.append([name, k, n, r.seed, r.identity, witness])
                            failing_tags.setdefault(name, set()).add(r.identity)
        assert failing_tags == {
            "phi": {"phi-roundtrip"},
            "reduced": {"twist", "c1-zero", "phi-roundtrip"},
            "twisted": {"twist"},
            "f_classes": {"c1F-zero", "phi-roundtrip"},
        }
        assert len(records) == 879
        blob = json.dumps(records, separators=(",", ":"), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "428aed094154c5dc8d844bdf3a153f4ba13c7b5f6b9ed5c860c8b643407cf9a0"
        )


def report(results):
    """Each result's seed, tag, status and witness JSON, in order."""
    return [
        (r.seed, r.identity, r.status, r.to_json_obj()["witness"])
        for r in results
    ]


class TestStackedSeeds:
    @pytest.mark.parametrize("field", (None, "phi", "reduced", "twisted", "f_classes"))
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec[0])
    def test_a_block_equals_its_one_seed_calls(self, spec, field):
        # stacking seeds 0..19 into one evaluation changes no seed's report,
        # for the honest theory and one corrupted entry per field
        ring = ToyRing(*spec)
        failed = 0
        for n in range(2, 6):
            theory = rank_theory(n)
            if field is not None:
                theory = corrupt(theory, field, 0)
            block = check_bundles(ring, theory, range(20))
            alone = [r for s in range(20) for r in check_bundles(ring, theory, [s])]
            assert report(block) == report(alone)
            failed += sum(not r.passed for r in block)
        # p2-even has no odd degree, so a corrupted degree-1 term of the
        # twisted c1 vanishes there
        vanishes = (spec, field) == (P2_SPEC, "twisted")
        assert (failed > 0) == (field is not None and not vanishes)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_each_slot_evaluates_exactly_as_its_own_bundle(self, data):
        ring, degrees, patterns, top = data.draw(random_rings())
        n = data.draw(st.integers(min_value=2, max_value=4))
        seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
        k = len(seeds)
        scales = data.draw(st.lists(coefficients(), min_size=k, max_size=k))
        table = c_vars(n)
        mixed = st.builds(
            Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 9))
        )
        terms = st.dictionaries(exponent_tuples(table), mixed, max_size=6)
        p = MPoly(table, data.draw(terms))
        # slot s holds bundle s with its classes scaled by scales[s]
        images = [
            [(c * q).terms for c in random_bundle(ring, n, seed)]
            for seed, q in zip(seeds, scales)
        ]
        values = [_stack(ring, [MPoly(ring, t[i]) for t in images]) for i in range(n)]
        (got,) = MPoly.evaluate([p], values, _stack(ring, [MPoly.one(ring)] * k))

        def reduce(t):
            return naive.ntruncate(t, degrees, patterns, top)

        for s, classes in enumerate(images):
            slot = {e: c[s] for e, c in got.terms.items() if c[s]}
            assert slot == naive.nevaluate(p, classes, len(degrees), reduce)
        assert all(type(c) is SeedVector for c in got.terms.values())
        assert all(type(x) in (int, Fraction) for c in got.terms.values() for x in c)


class TestProjectiveBundleRing:
    def test_trivial_bundle_over_rationals(self):
        ring = ToyRing("point", [], top_degree=6)
        for n in (2, 3, 4):
            ext = ProjectiveBundleRing(ring, (MPoly.zero(ring),) * n)
            # the extension is then plainly the truncated polynomial ring on xi
            power = ext._product([{(): 1}])
            for k in range(n):
                assert power == [{(): 1} if i == k else {} for i in range(n)]
                power = ext._product(power, [{}, {(): 1}])
            assert power == [{}] * n

    def test_rank_is_the_class_count(self):
        ring = ToyRing(*RICH_SPEC)
        assert ProjectiveBundleRing(ring, random_bundle(ring, 3, seed=0)).rank == 3
        with pytest.raises(ValueError):
            ProjectiveBundleRing(ring, ())

    def test_rejects_classes_that_are_not_over_the_base(self):
        # classes of another two-generator ring would be read as the base's
        # monomials, and free-ring classes have no row in its table
        ring, other = ToyRing(*RICH_SPEC), ToyRing(*CURVES_SPEC)
        free = VarTable(ring.pairs)
        foreign = (
            random_bundle(other, 2, seed=0),
            (MPoly.variable(free, "a"), MPoly.variable(free, "b")),
            (MPoly.one(ring), MPoly.one(other)),
        )
        for classes in foreign:
            with pytest.raises(ValueError, match=r"over ToyRing\('rich'\)"):
                ProjectiveBundleRing(ring, classes)
        # an equal ring built again is the same base
        bundle = random_bundle(ToyRing(*RICH_SPEC), 2, seed=0)
        assert ProjectiveBundleRing(ring, bundle).rank == 2

    def test_building_an_extension_builds_no_var_table(self, monkeypatch):
        # P(E) is a kernel on coefficient lists over its base's table, so
        # the toy suite builds one VarTable per ring, none per extension
        built = []
        honest = VarTable.__init__

        def counting(self, pairs):
            built.append(type(self))
            honest(self, pairs)

        monkeypatch.setattr(VarTable, "__init__", counting)
        assert all(r.passed for r in verify.suite_toy_rings(5, 0))
        assert built.count(ToyRing) == 3
        assert ProjectiveBundleRing not in built
        ring = ToyRing(*CURVES_SPEC)
        ext = ProjectiveBundleRing(ring, random_bundle(ring, 2, 0))
        assert not isinstance(ext, VarTable)

    def test_rank_two_doubles_dimensions(self):
        ring = ToyRing("h3", [("h", 1)], [{"h": 3}], 8)
        ext = ProjectiveBundleRing(ring, random_bundle(ring, 2, seed=4))
        # b xi^i over base monomials b and i < 2 stay distinct unit vectors,
        # so the degree-d piece has the dimension of the base's d and d - 1
        for i in range(2):
            xi_i = [{}] * i + [{(0,): 1}]
            for e in (e for d in range(9) for e in ring.graded_basis(d)):
                expected = [{e: 1} if j == i else {} for j in range(2)]
                assert ext._product([{e: 1}], xi_i) == expected

    def test_relation_residue_reduces_to_zero(self):
        ring = ToyRing(*RICH_SPEC)
        for seed in range(5):
            ext = ProjectiveBundleRing(ring, random_bundle(ring, 3, seed=seed))
            assert ext.relation_residue() == [{}] * 3

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_product_matches_naive_convolution_and_reduction(self, data):
        # full factors of n entries each, as the projective-bundle tag
        # multiplies its two coefficient lists
        ring, degrees, patterns, top = data.draw(random_rings(multivariable=True))
        n = data.draw(st.integers(min_value=2, max_value=6))
        bundle = random_bundle(ring, n, data.draw(st.integers(0, 10**6)))
        ext = ProjectiveBundleRing(ring, bundle)

        def reduce(t):
            return naive.ntruncate(t, degrees, patterns, top)

        vectors = [
            [reduce(data.draw(raw_terms(len(degrees)))) for _ in range(n)]
            for _ in range(2)
        ]
        if data.draw(st.booleans()):
            # positive constant terms everywhere: the constant term of each
            # xi^k, k >= n, is then a sum of positive products, so every
            # head of the reduction is nonzero, xi^(2n-2) down to xi^n
            for t in vectors[0] + vectors[1]:
                t[(0,) * len(degrees)] = data.draw(st.integers(1, 3))
        classes = [c.terms for c in bundle]
        expected = naive.nprojective_mul(*vectors, classes, reduce)
        assert ext._product(*vectors) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_kernel_matches_naive_convolution_and_reduction(self, data):
        # the projective-bundle tag multiplies coefficient lists with
        # _product directly; without a second factor it reduces one list
        ring, degrees, patterns, top = data.draw(random_rings(multivariable=True))
        n = data.draw(st.integers(min_value=2, max_value=6))
        bundle = random_bundle(ring, n, data.draw(st.integers(0, 10**6)))
        ext = ProjectiveBundleRing(ring, bundle)

        def reduce(t):
            return naive.ntruncate(t, degrees, patterns, top)

        def draw_list(size):
            return [reduce(data.draw(raw_terms(len(degrees)))) for _ in range(size)]

        def padded(x):
            return [*x, *({} for _ in range(n - len(x)))]

        # factors of up to n entries, and an element of up to n + 1 to reduce
        a, b = (draw_list(data.draw(st.integers(1, n))) for _ in range(2))
        c = draw_list(data.draw(st.integers(1, n + 1)))
        classes = [t.terms for t in bundle]
        one = {(0,) * len(degrees): 1}
        expected = naive.nprojective_mul(padded(a), padded(b), classes, reduce)
        assert ext._product(a, b) == expected
        assert ext._product(c) == naive.nprojective_mul(padded(c), [one], classes, reduce)

    def test_multiplication_respects_the_relation(self):
        ring = ToyRing(*CURVES_SPEC)
        c1, c2 = random_bundle(ring, 2, seed=11)
        ext = ProjectiveBundleRing(ring, (c1, c2))
        xi = [{}, MPoly.one(ring).terms]
        assert ext._product(xi, xi) == [(-c2).terms, (-c1).terms]


def projective_results():
    """The projective-bundle results of the toy-rings suite at rank 5."""
    results = verify.suite_toy_rings(5, 0)
    return [r for r in results if r.identity == "projective-bundle"]


def flip_the_relation(monkeypatch):
    """Make every projective extension reduce by xi^n = +(c_1 xi^(n-1) + ... + c_n)."""
    honest = ProjectiveBundleRing._product

    def flipped(self, a, b=None):
        negated = tuple(-c for c in self.classes)
        return honest(ProjectiveBundleRing(self.base, negated), a, b)

    monkeypatch.setattr(ProjectiveBundleRing, "_product", flipped)


def test_projective_bundle_catches_a_sign_flipped_relation(monkeypatch):
    # the flipped relation still gives an associative, commutative ring, so
    # only the relation residue sees it
    flip_the_relation(monkeypatch)
    results = projective_results()
    assert len(results) == 240
    assert not any(r.passed for r in results)
    # the residue's witness is a class of positive degree, never the unit,
    # and its report lines are pinned
    assert all(r.witness != MPoly.one(r.witness.table) for r in results)
    lines = "".join(
        json.dumps(r.to_json_obj(), separators=(",", ":")) + "\n" for r in results
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "f922a3041386f5472d59299c4973550d26b266c12f87554af8d359f6b7b6c29a"
    )
    monkeypatch.setattr(
        ProjectiveBundleRing, "relation_residue", lambda self: [{}] * self.rank
    )
    assert all(r.passed for r in projective_results())


def mutate_the_product(monkeypatch, mutation):
    """Make every product of two factors in P(E) return mutation(self, a, product).

    An element written down, which _product reduces alone, is left as it
    is, so the relation residue stays zero.
    """
    honest = ProjectiveBundleRing._product

    def mutated(self, a, b=None):
        result = honest(self, a, b)
        return result if b is None else mutation(self, a, result)

    monkeypatch.setattr(ProjectiveBundleRing, "_product", mutated)


def test_projective_bundle_catches_a_noncommutative_product(monkeypatch):
    # a product with a stray left factor keeps the relation residue zero,
    # which never multiplies, but breaks commutativity of the sample
    def stray(self, a, product):
        return [naive.nadd(x, y) for x, y in zip(product, a)]

    mutate_the_product(monkeypatch, stray)
    failed = [r for r in projective_results() if not r.passed]
    assert len(failed) == 233
    assert all(r.witness == MPoly.one(r.witness.table) for r in failed)


def test_projective_bundle_catches_a_product_scaled_by_xi(monkeypatch):
    # every product times xi stays associative and commutative, and the
    # relation residue stays zero, so only the unit law u 1 = u sees it
    honest = ProjectiveBundleRing._product

    def scaled(self, a, product):
        return honest(self, product, [{}, MPoly.one(self.base).terms])

    mutate_the_product(monkeypatch, scaled)
    failed = [r for r in projective_results() if not r.passed]
    assert len(failed) == 212
    assert all(r.witness == MPoly.one(r.witness.table) for r in failed)
