"""Named verification suites over the symbolic and toy-ring checks.

Each suite returns CheckResult records; the CLI serializes them as JSON
lines.  Symbolic suites run in the free polynomial rings and report under
ring id "symbolic"; the toy-ring suite specializes every universal identity
to seeded random bundles over a small catalog of rings.  Results are sorted,
so reports are deterministic for a given seed regardless of any execution
interleaving.
"""

from __future__ import annotations

from redchern import chern, oracle, symfun, universal
from redchern.oracle import CheckResult
from redchern.poly import MPoly, c_vars

SYMBOLIC = "symbolic"


def toy_ring_specs(max_rank: int) -> tuple:
    """The toy-ring catalog as ToyRing arguments; a relation reads monomial = 0.

    At max rank M, nilpotent-line is Q[h]/(h^{M+1}), nonzero in every degree
    a run checks; a rank-n check reads degrees <= n only, as at any M >= n.
    """
    return (
        ("nilpotent-line", [("h", 1)], [{"h": max_rank + 1}], max_rank),
        ("two-lines", [("a", 1), ("b", 1)], [{"a": 3}, {"b": 4}], 10),
        ("mixed-degrees", [("h", 1), ("g", 2)], [{"h": 4}, {"g": 3}], 10),
    )


TOY_SEED_COUNT = 20


def _result(identity, rank, ok, witness=None) -> CheckResult:
    return CheckResult(
        identity, SYMBOLIC, rank, 0, "pass" if ok else "fail", witness
    )


def _compare(identity, rank, lhs, rhs) -> list[CheckResult]:
    """One check of lhs_i = rhs_i per pair; a failure's witness is lhs_i - rhs_i."""
    results = []
    for got, want in zip(lhs, rhs):
        diff = got - want
        ok = diff.is_zero()
        results.append(_result(identity, rank, ok, None if ok else diff))
    return results


def suite_formula_agreement(max_rank: int, seed: int = 0) -> list[CheckResult]:
    """Closed binomial formula against the root definition, exactly."""
    results = []
    for n in range(2, max_rank + 1):
        lhs, rhs = chern.reduced_chern_formula(n), chern.shifted_root_sigma(n)
        results += _compare("formula-agreement", n, lhs, rhs)
    return results


def suite_twist(max_rank: int, seed: int = 0) -> list[CheckResult]:
    """Substituting twisted classes into a reduced class must eliminate t.

    The right side is the class at the identity point (c_1, ..., c_n) of (c, t).
    """
    results = []
    for n in range(2, max_rank + 1):
        twisted = chern.twist(n)
        table = twisted[0].table
        one = MPoly.one(table)
        at_self = [MPoly.variable(table, name) for name in table.names[:n]]
        reduced = chern.shifted_root_sigma(n)
        lhs = MPoly.evaluate(reduced, twisted, one)
        results += _compare("twist", n, lhs, MPoly.evaluate(reduced, at_self, one))
    return results


def suite_c1_zero(max_rank: int, seed: int = 0) -> list[CheckResult]:
    """Setting c_1 = 0 in a reduced class must leave the plain class, so the
    point (0, c_2, ..., c_n) is also the right side, class by class."""
    results = []
    for n in range(2, max_rank + 1):
        table = c_vars(n)
        point = [MPoly.variable(table, name) for name in table.names]
        point[0] = MPoly.zero(table)
        lhs = MPoly.evaluate(chern.shifted_root_sigma(n), point, MPoly.one(table))
        results += _compare("c1-zero", n, lhs, point)
    return results


def suite_phi_roundtrip(max_rank: int, seed: int = 0) -> list[CheckResult]:
    """phi_i at the symmetric-power classes must return the reduced classes."""
    results = []
    for n in range(2, max_rank + 1):
        f_classes = chern.sym_power_det_inverse_chern(n)
        results += _compare("c1F-zero", n, f_classes[:1], [0])
        recovered = universal.brauer_reduced(f_classes[1:])
        reduced = chern.shifted_root_sigma(n)[1:]
        results += _compare("phi-roundtrip", n, recovered, reduced)
    return results


def _s_in_monomials(n: int) -> list[dict]:
    """m-coordinates of the library's s_1..s_n, keyed by partition.

    Each monomial c1^a1 ... cn^an of s_r in universal.s_in_elementary(n),
    c_i standing for e_i of the roots, is the e_mu of the partition mu
    with a_i parts i, and elementary_to_monomial maps it to the m-basis;
    a weight r <= n has no partition with more than n parts, so every
    coordinate it gives holds in n variables.
    """
    out = []
    for s_r in universal.s_in_elementary(n):
        m_coords = {}
        for exps, coeff in s_r.terms.items():
            mu = tuple(i for i in range(n, 0, -1) for _ in range(exps[i - 1]))
            for lam, count in symfun.elementary_to_monomial(mu).coeffs.items():
                m_coords[lam] = m_coords.get(lam, 0) + coeff * count
        out.append(m_coords)
    return out


def suite_positivity(max_rank: int, seed: int = 0) -> list[CheckResult]:
    """Every s_r of the library must have nonnegative m-basis coordinates.

    A failure's witness is the negative m-coordinates.
    """
    results = []
    for n in range(2, max_rank + 1):
        for m_coords in _s_in_monomials(n):
            bad = {lam: c for lam, c in m_coords.items() if c < 0}
            witness = symfun.SymPolyInBasis(bad) if bad else None
            results.append(_result("positivity", n, not bad, witness))
    return results


def suite_triangularity(max_rank: int, seed: int = 0) -> list[CheckResult]:
    """Leading structure of the s-system, and of the e-to-m change of basis
    in weights 1..n + 1, which covers every row the positivity suite reads.

    Each s_r must be homogeneous of weight r with a positive lead, its
    coefficient of c_r; both are read from s itself, so no solve runs.
    """
    results = []
    for n in range(2, max_rank + 1):
        ok = all(
            s_r.coefficient(s_r.table.unit(r - 1)) > 0
            and s_r == s_r.graded_component(r)
            for r, s_r in enumerate(universal.s_in_elementary(n), start=1)
        )
        results.append(_result("triangularity", n, ok))
        ok_em = True
        for d in range(1, n + 2):
            for lam in symfun.partitions_of(d, n):
                if lam and lam[0] > n:
                    continue
                coords = symfun.elementary_to_monomial(lam)
                conj = symfun.conjugate(lam)
                if coords.coefficient(conj) != 1:
                    ok_em = False
                for mu in coords.coeffs:
                    if mu > conj:
                        ok_em = False
        results.append(_result("triangularity-e-to-m", n, ok_em))
    return results


def suite_toy_rings(max_rank: int, seed: int = 0) -> list[CheckResult]:
    """Specialize every universal identity over the toy-ring catalog.

    One check_bundles call per ring and rank, on seeds drawn once per ring.
    """
    results = []
    seeds = range(seed, seed + TOY_SEED_COUNT)
    for spec in toy_ring_specs(max_rank):
        ring = oracle.ToyRing(*spec)
        draws = [oracle.random_draw(ring, max_rank, s) for s in seeds]
        for n in range(2, max_rank + 1):
            results.extend(oracle.check_bundles(ring, oracle.rank_theory(n), seeds, draws))
    return results


# identities reported under a suite of another name
_SUITE_OF_IDENTITY = {"c1F-zero": "phi-roundtrip", "triangularity-e-to-m": "triangularity"}


def suite_of(result: CheckResult) -> str:
    """The suite whose report holds this check: toy-rings for a toy check."""
    if result.ring != SYMBOLIC:
        return "toy-rings"
    return _SUITE_OF_IDENTITY.get(result.identity, result.identity)


_SUITES = {
    "formula-agreement": suite_formula_agreement,
    "twist": suite_twist,
    "c1-zero": suite_c1_zero,
    "phi-roundtrip": suite_phi_roundtrip,
    "positivity": suite_positivity,
    "triangularity": suite_triangularity,
    "toy-rings": suite_toy_rings,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, max_rank: int = 4, seed: int = 0) -> list[CheckResult]:
    """The named suite's results, or every suite's for "all", sorted."""
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}")
    results = [r for suite in names for r in _SUITES[suite](max_rank, seed)]
    results.sort(key=lambda r: (r.identity, r.ring, r.rank, r.seed))
    return results
