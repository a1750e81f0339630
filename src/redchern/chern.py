"""Formal Chern-root calculus for reduced Chern classes.

The splitting dictionary sends c_i to the elementary symmetric polynomial
sigma_i of the degree-1 root variables x1..xn.  Shifting every root by minus
the average root gives the shifted roots f_i = x_i - (x1+...+xn)/n, whose
elementary symmetric polynomials are the reduced classes: symmetric, so they
rewrite as polynomials in c1..cn.

To keep the hot expansions integral, every product of shifted linear forms
is computed over the integer forms n*x_i - (x1+...+xn) and rescaled by 1/n^r
per graded piece.  The roots of the rank-n symmetric power twisted by the
inverse determinant are the forms sum_i (m_i - 1) x_i, a family closed under
permuting the x_i, so their classes come from power sums in partition
coordinates (symfun.elementary_of_forms) with no product expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from redchern import symfun
from redchern.kernels import expand_linear_chain
from redchern.poly import MPoly, VarTable, c_vars, x_vars

def ensure_rank(n: int, floor: int = 2) -> None:
    if n < floor:
        raise ValueError(f"rank {n} is below {floor}")


@dataclass(frozen=True)
class ChernVector:
    """Rank plus classes c_1..c_n of a symbolic vector bundle; c_0 is 1."""

    rank: int
    classes: tuple[MPoly, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if len(self.classes) != self.rank:
            raise ValueError("need exactly rank classes")
        table = self.classes[0].table
        for cls in self.classes:
            if cls.table != table:
                raise ValueError("classes must share one variable table")

    @property
    def table(self) -> VarTable:
        return self.classes[0].table

    @classmethod
    def free(cls, n: int) -> "ChernVector":
        """The universal bundle symbol: classes are the free variables c1..cn."""
        table = c_vars(n)
        return cls(n, tuple(MPoly.variable(table, f"c{i}") for i in range(1, n + 1)))


def _express_as_chern(p: MPoly, n: int) -> MPoly:
    """Certify symmetry, rewrite in the elementary basis, rename e_i -> c_i."""
    return symfun.express_in_elementary(p).with_table(c_vars(n))


@lru_cache(maxsize=None)
def shifted_root_sigma(n: int) -> tuple[MPoly, ...]:
    """sigma_r(f1..fn) for r = 1..n as polynomials in the root variables."""
    ensure_rank(n)
    forms = [tuple(n - 1 if j == i else -1 for j in range(n)) for i in range(n)]
    chain = expand_linear_chain(forms, n, n)
    product = MPoly(x_vars(n), chain)
    return tuple(
        product.graded_component(r) * Fraction(1, n**r) for r in range(1, n + 1)
    )


def reduced_chern_roots(n: int, r: int) -> MPoly:
    """The degree-r reduced class at rank n, from the root definition."""
    ensure_rank(n)
    if not 1 <= r <= n:
        raise ValueError(f"index {r} outside 1..{n}")
    return _express_as_chern(shifted_root_sigma(n)[r - 1], n)


def reduced_chern_formula(n: int, r: int) -> MPoly:
    """The degree-r reduced class at rank n, from the closed binomial formula."""
    ensure_rank(n)
    if not 1 <= r <= n:
        raise ValueError(f"index {r} outside 1..{n}")
    table = c_vars(n)
    result = MPoly.zero(table)
    for i in range(r + 1):
        coeff = Fraction((-1) ** (r - i) * comb(n - i, r - i), n ** (r - i))
        exps = [0] * n
        exps[0] += r - i
        if i >= 1:
            exps[i - 1] += 1
        result = result + MPoly.monomial(table, tuple(exps), coeff)
    return result


@lru_cache(maxsize=None)
def _twist_universal(n: int, t_name: str) -> tuple[MPoly, ...]:
    """Classes of the twist by a line class t, over c1..cn plus t."""
    ext_x = x_vars(n).extend([(t_name, 1)])
    forms = [
        tuple(1 if j == i or j == n else 0 for j in range(n + 1)) for i in range(n)
    ]
    product = MPoly(ext_x, expand_linear_chain(forms, n + 1, -1))
    univ_table = c_vars(n).extend([(t_name, 1)])
    t_poly = MPoly.variable(univ_table, t_name)
    xt = x_vars(n)
    twisted = []
    for k in range(1, n + 1):
        component = product.graded_component(k)
        total = MPoly.zero(univ_table)
        for j in range(k + 1):
            slice_terms = {
                exps[:n]: coeff
                for exps, coeff in component.terms.items()
                if exps[n] == j
            }
            if not slice_terms:
                continue
            x_part = MPoly(xt, slice_terms)
            total = total + _express_as_chern(x_part, n).embed(univ_table) * t_poly**j
        twisted.append(total)
    return tuple(twisted)


def twist(cv: ChernVector, t_name: str = "t") -> ChernVector:
    """Classes of the bundle tensored with a line bundle of class t.

    Substituting t = 0 recovers cv.
    """
    n = cv.rank
    ensure_rank(n, floor=1)
    if t_name in cv.table.names:
        raise ValueError(f"line-class variable {t_name!r} must be fresh")
    target = cv.table.extend([(t_name, 1)])
    assignment = {
        f"c{i}": cv.classes[i - 1].embed(target) for i in range(1, n + 1)
    }
    assignment[t_name] = MPoly.variable(target, t_name)
    return ChernVector(
        n, tuple(p.substitute(assignment) for p in _twist_universal(n, t_name))
    )


def det_class(cv: ChernVector) -> MPoly:
    """First class of the determinant line bundle: the root sum, i.e. c_1."""
    return cv.classes[0]


@lru_cache(maxsize=None)
def sym_power_det_inverse_chern(n: int, k_max: int) -> tuple[MPoly, ...]:
    """Classes 1..k_max of the rank-n symmetric power twisted by det inverse.

    The roots of that bundle are the integer forms sum_i (m_i - 1) x_i over
    compositions m of n; the first class vanishes identically.
    """
    ensure_rank(n)
    count = comb(2 * n - 1, n)
    if not 1 <= k_max <= count:
        raise ValueError(f"k_max {k_max} outside 1..{count}")
    forms = [tuple(v - 1 for v in m) for m in symfun.root_compositions(n)]
    return tuple(
        p.with_table(c_vars(n)) for p in symfun.elementary_of_forms(forms, n, k_max)
    )


def reduce_hom(q: MPoly) -> MPoly:
    """The algebra endomorphism sending each c_r to the reduced class.

    Implemented by root substitution and re-expression, so the homomorphism
    property is inherited from substitution.  Idempotent; kills c_1.
    """
    n = len(q.table)
    if q.table != c_vars(n):
        raise ValueError("reduce_hom expects a polynomial over the free c-variables")
    ensure_rank(n)
    sigmas = shifted_root_sigma(n)
    image = q.substitute({f"c{i}": sigmas[i - 1] for i in range(1, n + 1)})
    if image.is_zero():
        return MPoly.zero(c_vars(n))
    return _express_as_chern(image, n)
