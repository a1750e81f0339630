"""One mutation matrix for every verify tag.

Each row corrupts one source of the theory in the library, runs
`verify.run_suite("all", max_rank)` under the corruption and asserts its
exact outcome: the number of failing checks in each column, or that the
run raises InternalInconsistencyError.  A column is an (identity,
symbolic|toy) pair that the honest report emits, so a new tag cannot land
without a row that makes it fail.
"""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import comb
from typing import NamedTuple

import pytest
from click.testing import CliRunner

from redchern import chern, oracle, symfun, universal, verify
from redchern.cli import main
from redchern.oracle import ProjectiveBundleRing, ToyRing
from redchern.poly import MPoly, c_vars

from . import naive

SYM, TOY = "symbolic", "toy"
RAISES = universal.InternalInconsistencyError


def column(result) -> tuple[str, str]:
    return (result.identity, SYM if result.ring == verify.SYMBOLIC else TOY)


PER_RANK_CACHES = (
    chern.shifted_root_sigma,
    chern.twist,
    chern.sym_power_det_inverse_chern,
    universal.s_in_elementary,
    universal.compute_phi,
    oracle.rank_theory,
    symfun._power_sums_in_elementary,
)


@pytest.fixture
def fresh_caches():
    # a cached honest artifact would hide a corruption, and a cached
    # corrupted one would leak into later tests
    caches = (*PER_RANK_CACHES, symfun._e_to_m_table)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def patched(owner, name, change, *params):
    """The corruption that replaces owner.name, as honest, by the function
    change(honest, *params, *args) of its arguments args."""

    def corrupt(monkeypatch):
        honest = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: change(honest, *params, *args))

    return corrupt


def add_to(honest, k, extra, n):
    """honest(n) with extra(entry) added to its entry k (from 1), if it has one."""
    out = honest(n)
    if len(out) < k:
        return out
    return out[: k - 1] + (out[k - 1] + extra(out[k - 1]),) + out[k:]


def var(name, power=1):
    return lambda p: MPoly.variable(p.table, name) ** power


def minus_c2_term(s2):
    # s_2 less its c_2 term has lead 0
    unit = s2.table.unit(1)
    return MPoly(s2.table, {unit: -s2.coefficient(unit)})


def shape(series):
    """p_2 - p_1^2/n, which is p_2 of the shifted roots x_i - p_1/n."""
    p1, p2 = (MPoly.variable(series.table, name) for name in ("p1", "p2"))
    return p2 - p1**2 * Fraction(1, len(series.table))


def state(series):
    # the bump of the forms' series in ROADMAP "State"
    return shape(series) ** 2 * Fraction(1, 7)


def corrupt_series(honest, shifts, delta, n, shift):
    """Add exp((1 - shift) t p_1) delta(series), to t^n, to the forms' series
    at each of the shifts: shift 0 feeds s alone, shift 1 the f-classes.

    exp(t p_1) shifts every form by p_1 = s_1/N, so the corrupted s_r are
    still the classes of a family shifted by s_1/N and pass the solve.
    """
    series = honest(n, shift)
    if shift not in shifts:
        return series
    return series + naive.truncate(naive.exp_p1(n, 1 - shift) * delta(series), n)


def negative_m11(series):
    # s_2 = lead c_2 + d c_1^2 has m_11 coordinate lead + 2 d, and the
    # corruption adds 2 delta/n to it, so it becomes -1
    n, table = len(series.table), c_vars(len(series.table))
    s2 = symfun.elementary_from_power_sums(series)[1]
    m11 = s2.coefficient(table.unit(1)) + 2 * s2.coefficient((2,) + (0,) * (n - 1))
    return shape(series) * Fraction(-n * (m11 + 1), 2)


def off_by_one_twist(honest, k, i, classes, n, t):
    """twisted_classes with one added to C(n - i, k - i), the coefficient of
    c_i t^(k - i) in c_k."""
    out = list(honest(classes, n, t))
    if k <= len(out):
        out[k - 1] = out[k - 1] + (classes[i - 1] if i else 1) * t ** (k - i)
    return tuple(out)


def bump_e_to_m(honest, lam, mu):
    """elementary_to_monomial with one added to the m_lam coordinate of e_lam."""
    coords = honest(mu)
    if mu != lam:
        return coords
    return symfun.SymPolyInBasis({**coords.coeffs, lam: coords.coefficient(lam) + 1})


def sym_power_twisted_twice(honest, n):
    # the forms m.x - 2 p_1 are the roots of Sym^n E (x) det^-2
    return tuple(symfun.elementary_from_power_sums(symfun.forms_series(n, 2)))


def flip_the_relation(honest, self, a, b=None):
    """Reduce in every P(E) by xi^n = +(c_1 xi^(n-1) + ... + c_n)."""
    return honest(ProjectiveBundleRing(self.base, tuple(-c for c in self.classes)), a, b)


def mutate_the_product(honest, mutation, self, a, b=None):
    """Every product of two factors in P(E) becomes mutation(honest, self, a,
    product); an element written down, which _product reduces alone, is left
    as it is, so the relation residue stays zero."""
    result = honest(self, a, b)
    return result if b is None else mutation(honest, self, a, result)


def scaled_by_xi(honest, self, a, product):
    # stays associative and commutative, so only the unit law sees it
    return honest(self, product, [{}, MPoly.one(self.base).terms])


def stray_left_factor(honest, self, a, product):
    # breaks commutativity of the sample
    return [naive.nadd(x, y) for x, y in zip(product, a)]


# extra checks that a row runs under its corruption, after its outcome


def sign_flip_witnesses(monkeypatch, results):
    # the residue's witness is a class of positive degree, never the unit,
    # and its report lines, in the suite's ring order, are pinned
    rings = [spec[0] for spec in verify.toy_ring_specs(5)]
    flipped = [r for r in results if r.identity == "projective-bundle"]
    flipped.sort(key=lambda r: rings.index(r.ring))
    assert all(r.witness != MPoly.one(r.witness.table) for r in flipped)
    lines = "".join(json.dumps(r.to_json_obj(), separators=(",", ":")) + "\n" for r in flipped)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "f922a3041386f5472d59299c4973550d26b266c12f87554af8d359f6b7b6c29a"
    )
    # the flipped relation still gives an associative, commutative ring, so
    # only the relation residue sees it
    monkeypatch.setattr(ProjectiveBundleRing, "relation_residue", lambda self: [{}] * self.rank)
    assert all(r.passed for r in verify.suite_toy_rings(5, 0))


def unit_witnesses(monkeypatch, results):
    failed = [r for r in results if r.identity == "projective-bundle" and not r.passed]
    assert all(r.witness == MPoly.one(r.witness.table) for r in failed)


def positivity_witness_line(monkeypatch, results):
    positivity = [r for r in results if r.identity == "positivity"]
    for n in (2, 3, 4):
        assert [r for r in positivity if r.rank == n][1].witness.coeffs == {(1, 1): -1}
    assert json.dumps(positivity[1].to_json_obj(), separators=(",", ":")) == (
        '{"identity":"positivity","ring":"symbolic","rank":2,"seed":0,"status":"fail",'
        '"witness":{"basis":"m","coeffs":[{"partition":[1,1],"coeff":"-1"}]}}'
    )


def c1f_witnesses(monkeypatch, results):
    # the first class of Sym^n E (x) det^-2 is -C(2n-1, n) c_1, not 0
    witnesses = [r.witness for r in results if column(r) == ("c1F-zero", SYM)]
    assert witnesses == [-comb(2 * n - 1, n) * MPoly.variable(c_vars(n), "c1") for n in (2, 3, 4)]


class Row(NamedTuple):
    corrupt: object  # applies the corruption with monkeypatch
    max_rank: int
    outcome: object  # a Counter of failing checks per column, or RAISES
    extra: object = None  # more checks under the corruption: (monkeypatch, results)


def fails(*cells) -> Counter:
    """The failing checks per column, from (identity, symbolic, toy) cells."""
    return Counter(
        {(identity, kind): count for identity, *counts in cells
         for kind, count in zip((SYM, TOY), counts) if count}
    )


SERIES = (symfun, "forms_series", corrupt_series)
S = (universal, "s_in_elementary")
REDUCED = (chern, "shifted_root_sigma")
E_TO_M = (symfun, "elementary_to_monomial", bump_e_to_m)
PRODUCT = (ProjectiveBundleRing, "_product")


# the toy counts read each seed's line and sample
TWIST_OFF_BY_ONE = {  # (k, i): formula-agreement, twist and toy twist failures
    (1, 0): (3, 6, 165), (1, 1): (3, 6, 162), (2, 0): (3, 6, 165),
    (2, 1): (3, 6, 153), (2, 2): (3, 6, 168), (3, 1): (2, 3, 100),
}
SHIFTED_FAMILY = fails(("phi-roundtrip", 4, 176), ("triangularity", 3, 0))
FORMULA_AND_TWIST = fails(("formula-agreement", 3, 0), ("twist", 3, 154))

ROWS = {
    "series-at-shift-0": Row(patched(*SERIES, (0,), state), 5, fails(("phi-roundtrip", 2, 114))),
    "series-at-shift-1": Row(patched(*SERIES, (1,), state), 5, fails(("phi-roundtrip", 2, 114))),
    # s and the f-classes move together, so no tag sees it
    "series-at-both-shifts": Row(patched(*SERIES, (0, 1), state), 5, fails()),
    "newton-p3-plus-c3": Row(
        patched(symfun, "_power_sums_in_elementary", add_to, 3, var("c3")), 4, RAISES
    ),
    **{
        f"twist-off-by-one-k{k}-i{i}": Row(
            patched(chern, "twisted_classes", off_by_one_twist, k, i), 4,
            fails(("formula-agreement", agree, 0), ("twist", sym, toy)),
        )
        for (k, i), (agree, sym, toy) in TWIST_OFF_BY_ONE.items()
    },
    **{
        f"solve-twist-off-by-one-k{k}-i{i}": Row(
            patched(universal, "twisted_classes", off_by_one_twist, k, i), 4, RAISES
        )
        for k, i in ((1, 0), (2, 0), (2, 1), (2, 2))
    },
    "s2-negative-lead": Row(
        patched(*SERIES, (0,), lambda series: shape(series) * -50), 4,
        SHIFTED_FAMILY + fails(("positivity", 1, 0)),
    ),
    "s2-negative-m11": Row(
        patched(*SERIES, (0,), negative_m11), 4,
        SHIFTED_FAMILY + fails(("positivity", 6, 0)), positivity_witness_line,
    ),
    "s2-lead-missing": Row(patched(*S, add_to, 2, minus_c2_term), 4, RAISES),
    # a constant term has weight 0; at rank 2 it passes the solve
    "s2-wrong-weight": Row(
        patched(*S, add_to, 2, lambda s2: MPoly.one(s2.table)), 2,
        fails(("phi-roundtrip", 1, 60), ("triangularity", 1, 0)),
    ),
    # psi comes from phi by the twist s_j -> sigma_j, which holds only for
    # the classes of a family of N forms shifted together; phi is solved on
    # c_1 = 0, so only the round trip through psi sees a term in c_1
    "s2-plus-e2": Row(patched(*S, add_to, 2, var("c2")), 4, RAISES),
    "s2-plus-e1-squared": Row(patched(*S, add_to, 2, var("c1", 2)), 4, RAISES),
    "s2-plus-e1": Row(patched(*S, add_to, 2, var("c1")), 4, RAISES),
    "twice-s1": Row(patched(*S, add_to, 1, lambda s1: s1), 4, RAISES),
    "minus-s2": Row(patched(*S, add_to, 2, lambda s2: -2 * s2), 4, RAISES),
    # the conj entry of e_21 becomes 2; e_2 gains m_2, above its conj (1, 1);
    # the weight-7 row of e_43 is checked from rank 6 (weight n + 1) on
    "e-to-m-21": Row(patched(*E_TO_M, (2, 1)), 4, fails(("triangularity-e-to-m", 3, 0))),
    "e-to-m-2": Row(patched(*E_TO_M, (2,)), 4, fails(("triangularity-e-to-m", 3, 0))),
    "e-to-m-43": Row(patched(*E_TO_M, (4, 3)), 7, fails(("triangularity-e-to-m", 2, 0))),
    "reduced-plus-c2": Row(
        patched(*REDUCED, add_to, 2, var("c2")), 4,
        FORMULA_AND_TWIST + fails(("c1-zero", 3, 168), ("phi-roundtrip", 3, 168)),
    ),
    # c1-zero sets c_1 = 0, so it alone misses a term in c_1
    "reduced-plus-c1-squared": Row(
        patched(*REDUCED, add_to, 2, var("c1", 2)), 4,
        FORMULA_AND_TWIST + fails(("phi-roundtrip", 3, 162)),
    ),
    "formula-plus-c2": Row(
        patched(chern, "reduced_chern_formula", add_to, 2, var("c2")), 4,
        fails(("formula-agreement", 3, 0)),
    ),
    "sym-power-twisted-twice": Row(
        patched(chern, "sym_power_det_inverse_chern", sym_power_twisted_twice), 4,
        fails(("c1F-zero", 3, 162), ("phi-roundtrip", 6, 162)), c1f_witnesses,
    ),
    "relation-sign-flipped": Row(
        patched(*PRODUCT, flip_the_relation), 5,
        fails(("projective-bundle", 0, 240)), sign_flip_witnesses,
    ),
    "product-scaled-by-xi": Row(
        patched(*PRODUCT, mutate_the_product, scaled_by_xi), 5,
        fails(("projective-bundle", 0, 228)), unit_witnesses,
    ),
    "product-stray-left-factor": Row(
        patched(*PRODUCT, mutate_the_product, stray_left_factor), 5,
        fails(("projective-bundle", 0, 240)), unit_witnesses,
    ),
    # every class and sample is zero, so every toy check passes
    "random-element-zero": Row(
        patched(ToyRing, "random_element", lambda honest, self, d, rng: MPoly.zero(self)),
        4, fails(),
    ),
}


def outcome(max_rank):
    """The failing checks of every suite per column, or RAISES; and the results."""
    try:
        results = verify.run_suite("all", max_rank)
    except RAISES:
        return RAISES, None
    return Counter(column(r) for r in results if not r.passed), results


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_row(monkeypatch, fresh_caches, row):
    row.corrupt(monkeypatch)
    got, results = outcome(row.max_rank)
    assert got == row.outcome
    if row.extra is not None:
        row.extra(monkeypatch, results)


def test_every_column_fails_in_some_row():
    # the columns are the honest report's, and a row may name no other
    columns = {column(r) for r in verify.run_suite("all", 2)}
    failing = {c for row in ROWS.values() if row.outcome is not RAISES for c in row.outcome}
    assert failing == columns


def test_a_solve_that_raises_is_reported_not_dumped(monkeypatch, fresh_caches):
    patched(*S, add_to, 2, var("c2"))(monkeypatch)
    result = CliRunner().invoke(main, ["verify", "--max-rank", "2"])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == "error: psi_2 at rank 2 fails the round trip through s(c)\n"
