"""Tiny standalone polynomial engine used as an independent oracle.

Deliberately shares no code with redchern: plain dicts from exponent tuples
to Fractions, quadratic-time multiplication, elementary symmetric
polynomials summed over explicit subsets, expanded products of linear
forms, and term-by-term evaluation.  Slow but obviously correct, so test
expectations derived here are independent of the package's kernels.
The exceptions are the last four sections, built on the package: weighted
truncation and two maps on c-space polynomials; the root-space side of
symmetric functions (polynomials in x1..xn, their symmetry check, their
m-coordinates and their rewrite in c1..cn, c_i standing for e_i of the
roots); the forms route to e_r of a permutation-invariant family of
integer linear forms (list every form, sum its power sums in the m-basis,
rewrite them in c1..cn, apply Newton's
identities) and Newton's recurrence for the forms' exponential power-sum
series, the references for the library's power-sum series; and the
full back-substitution of the triangular system, the reference for the
library's slice solve and twists.  Only the tests use them.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod

from redchern.chern import ensure_rank, shifted_root_sigma
from redchern.poly import MPoly, VarTable, c_vars, s_vars, u_vars
from redchern.symfun import (
    SymPolyInBasis,
    _e_to_m_table,
    conjugate,
    partitions_of,
)


def nconst(nvars, value):
    q = Fraction(value)
    return {(0,) * nvars: q} if q else {}


def nvar(nvars, i):
    exps = [0] * nvars
    exps[i] = 1
    return {tuple(exps): Fraction(1)}


def nadd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def nscale(a, q):
    q = Fraction(q)
    return {e: c * q for e, c in a.items()} if q else {}


def nmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def npow(a, k):
    nvars = len(next(iter(a))) if a else 0
    out = nconst(nvars, 1)
    for _ in range(k):
        out = nmul(out, a)
    return out


def nlinear(nvars, coeffs):
    """The linear form sum coeffs[i] * x_i."""
    return {
        tuple(1 if j == i else 0 for j in range(nvars)): Fraction(c)
        for i, c in enumerate(coeffs)
        if c
    }


def nsigma_of_forms(forms, r, nvars):
    """Elementary symmetric polynomial of the given forms, by subset sums."""
    total = {}
    for subset in combinations(forms, r):
        prod = nconst(nvars, 1)
        for f in subset:
            prod = nmul(prod, f)
        total = nadd(total, prod)
    return total


def nsigma_vars(r, nvars):
    """sigma_r(x_1..x_n) as a plain dict."""
    forms = [nvar(nvars, i) for i in range(nvars)]
    return nsigma_of_forms(forms, r, nvars)


def expand_cpoly(mp, nvars):
    """Expand an MPoly in c-variables into root variables, naively.

    Consumes only the raw term data of mp; every product is computed here,
    with c_i replaced by the subset-sum sigma_i.
    """
    total = {}
    for exps, coeff in mp.terms.items():
        prod = nconst(nvars, 1)
        for i, e in enumerate(exps):
            for _ in range(e):
                prod = nmul(prod, nsigma_vars(i + 1, nvars))
        total = nadd(total, nscale(prod, coeff))
    return total


def expand_linear_chain(forms, nvars, cap):
    """Expand prod_j (1 + L_j) for linear forms L_j with integer coefficients.

    forms is an iterable of length-nvars coefficient tuples; every variable
    has degree 1, so the degree of a term is the sum of its exponents, and
    terms above degree cap are dropped (cap -1: none).  Returns an
    exponent-tuple -> integer coefficient dict.
    """
    acc = {(0,) * nvars: 1}
    for form in forms:
        nonzero = [(i, m) for i, m in enumerate(form) if m]
        if not nonzero:
            continue
        nxt = dict(acc)
        for e, c in acc.items():
            if cap >= 0 and sum(e) >= cap:
                continue
            for i, m in nonzero:
                e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                nxt[e2] = nxt.get(e2, 0) + c * m
        acc = nxt
    return {e: c for e, c in acc.items() if c != 0}


def ntruncate(a, degrees, relations, top):
    """Drop the terms above weighted degree top or divisible by a relation.

    relations are exponent tuples, each read as the monomial it names = 0.
    """
    return {
        e: c
        for e, c in a.items()
        if sum(x * d for x, d in zip(e, degrees)) <= top
        and not any(all(x >= p for x, p in zip(e, rel)) for rel in relations)
    }


def nevaluate(mp, images, nvars, reduce=lambda a: a):
    """Evaluate an MPoly term by term, with plain dicts as the images.

    images[i] is the term dict standing for the i-th variable of mp; every
    power is a fresh chain of products, each passed through reduce.
    """
    total = {}
    for exps, coeff in mp.terms.items():
        prod = nconst(nvars, 1)
        for i, e in enumerate(exps):
            for _ in range(e):
                prod = reduce(nmul(prod, images[i]))
        total = nadd(total, nscale(prod, coeff))
    return reduce(total)


def nprojective_mul(a, b, classes, reduce):
    """Product in the projective extension, on coefficient lists of term dicts.

    a and b stand for sum a_i xi^i with len(classes) = n entries each, and
    classes are the term dicts of c_1..c_n.  The two vectors are convolved
    into 2n - 1 entries with nmul and reduce; then, from the top power
    down, each xi^k with k >= n is replaced by -(c_1 xi^{k-1} + ... +
    c_n xi^{k-n}).
    """
    n = len(classes)
    raw = [{} for _ in range(2 * n - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] = nadd(raw[i + j], reduce(nmul(x, y)))
    for k in range(2 * n - 2, n - 1, -1):
        for i in range(1, n + 1):
            shifted = nscale(nmul(classes[i - 1], raw[k]), -1)
            raw[k - i] = nadd(raw[k - i], reduce(shifted))
    return raw[:n]


# ---- maps on package polynomials, built on the package ----


def truncate(p, cap):
    """p with every term of weighted degree above cap dropped."""
    return MPoly(p.table, ntruncate(p.terms, p.table.degrees, (), cap))


def det_class(classes):
    """First class of the determinant line bundle: the root sum, i.e. c_1."""
    return classes[0]


def reduce_hom(q):
    """The algebra endomorphism sending each c_r to the reduced class.

    One substitution, so the homomorphism property is inherited from
    substitution.  Idempotent; kills c_1.
    """
    n = len(q.table)
    if q.table != c_vars(n):
        raise ValueError("reduce_hom expects a polynomial over the free c-variables")
    (reduced,) = MPoly.evaluate([q], shifted_root_sigma(n), MPoly.one(q.table))
    return reduced


# ---- symmetric polynomials in root variables, built on the package ----


def x_vars(n: int) -> VarTable:
    """Chern-root style variables x1..xn, all of degree 1."""
    return VarTable((f"x{i}", 1) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def elementary_symmetric(r: int, n: int) -> MPoly:
    """The elementary symmetric polynomial of degree r in x1..xn (zero if r > n)."""
    table = x_vars(n)
    if r == 0:
        return MPoly.one(table)
    if r > n:
        return MPoly.zero(table)
    terms = {}
    for subset in combinations(range(n), r):
        exps = [0] * n
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = Fraction(1)
    return MPoly(table, terms)


def monomial_symmetric(lam: tuple[int, ...], n: int) -> MPoly:
    """m_lambda in n variables: the sum over distinct permutations of x^lambda."""
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    padded = lam + (0,) * (n - len(lam))
    table = x_vars(n)
    return MPoly(table, {e: Fraction(1) for e in set(permutations(padded))})


def elementary_product(lam: tuple[int, ...], n: int) -> MPoly:
    """e_lambda = product of elementary symmetric polynomials, one per part."""
    result = MPoly.one(x_vars(n))
    for p in lam:
        result = result * elementary_symmetric(p, n)
    return result


def expand_in_roots(coords: SymPolyInBasis, n: int) -> MPoly:
    """Expand m-basis coordinates into an explicit polynomial in x1..xn."""
    result = MPoly.zero(x_vars(n))
    for lam, coeff in coords.coeffs.items():
        result = result + monomial_symmetric(lam, n) * coeff
    return result


class NotSymmetricError(ValueError):
    """Raised when a polynomial is not invariant under variable permutations.

    witness is an index permutation pi (new exponent i comes from position
    pi[i]) under which the polynomial changes.
    """

    def __init__(self, witness: tuple[int, ...]):
        self.witness = witness
        super().__init__(f"polynomial is not symmetric; witness permutation {witness}")


def _matching_permutation(src, dst) -> tuple[int, ...]:
    """A permutation pi with dst[i] == src[pi[i]] for exponent multisets."""
    pools: dict[int, list[int]] = {}
    for j, v in enumerate(src):
        pools.setdefault(v, []).append(j)
    return tuple(pools[v].pop() for v in dst)


def _orbit_size(rep) -> int:
    """Number of distinct permutations of an exponent multiset."""
    size = 1
    for k in range(2, len(rep) + 1):
        size *= k
    mult: dict[int, int] = {}
    for v in rep:
        mult[v] = mult.get(v, 0) + 1
    for m in mult.values():
        for k in range(2, m + 1):
            size //= k
    return size


def symmetry_witness(p: MPoly):
    """None when p is symmetric, else a witness permutation of variable indices.

    Invariance under all n! permutations is equivalent to every orbit of
    exponent vectors being fully present with one shared coefficient, so the
    pass path only counts orbit members; permutations are materialized only
    to construct a witness.
    """
    degrees = set(p.table.degrees)
    if len(degrees) > 1:
        raise ValueError("symmetry is only defined for equal-degree variables")
    groups: dict[tuple[int, ...], dict] = {}
    for exps, coeff in p.terms.items():
        rep = tuple(sorted(exps, reverse=True))
        groups.setdefault(rep, {})[exps] = coeff
    for rep, present in groups.items():
        base_exps, base_coeff = next(iter(present.items()))
        if len(present) == _orbit_size(rep) and all(
            c == base_coeff for c in present.values()
        ):
            continue
        for member in permutations(rep):
            if present.get(member) != base_coeff:
                return _matching_permutation(base_exps, member)
    return None


def monomial_coefficients(p: MPoly) -> SymPolyInBasis:
    """The m-basis coordinates of a symmetric polynomial."""
    witness = symmetry_witness(p)
    if witness is not None:
        raise NotSymmetricError(witness)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms.items():
        rep = tuple(sorted(exps, reverse=True))
        if rep == exps:
            coeffs[tuple(v for v in rep if v)] = coeff
    return SymPolyInBasis(coeffs)


def express_in_elementary(p: MPoly) -> MPoly:
    """Rewrite a symmetric polynomial as a polynomial in c1..cn.

    Exact inverse of expansion: substituting c_i = sigma_i(x) into the result
    recovers p.  Non-symmetric input raises NotSymmetricError with a witness.
    """
    if any(d != 1 for d in p.table.degrees):
        raise ValueError("input must live in degree-1 root variables")
    return _monomial_to_elementary(monomial_coefficients(p), len(p.table))


@dataclass(frozen=True)
class YRootSet:
    """The linear forms m_1 x_1 + ... + m_n x_n with m a composition of n."""

    rank: int
    compositions: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.compositions)

    def forms(self) -> list[MPoly]:
        table = x_vars(self.rank)
        return [
            MPoly(table, {table.unit(i): Fraction(m[i]) for i in range(self.rank) if m[i]})
            for m in self.compositions
        ]


def y_roots(n: int) -> YRootSet:
    """The root set at rank n: exactly C(2n-1, n) forms, n*x_i first."""
    ensure_rank(n)
    return YRootSet(n, root_compositions(n))


# ---- e_r of a family of integer linear forms, built on the package ----


def _monomial_to_elementary(coords: SymPolyInBasis, n: int) -> MPoly:
    """Rewrite m-basis coordinates in n variables as a polynomial in c1..cn.

    The lexicographically largest remaining lambda is the leading term of
    e_{lambda'}, so subtracting c * e_{lambda'} clears it and touches only
    smaller partitions of the same weight.
    """
    work = {lam: c for lam, c in coords.coeffs.items() if c}
    out: dict[tuple[int, ...], Fraction] = {}
    while work:
        lam = max(work, key=lambda parts: (sum(parts), parts))
        coeff = work[lam]
        conj = conjugate(lam)
        exps = [0] * n
        for p in conj:
            exps[p - 1] += 1
        out[tuple(exps)] = coeff
        for mu, count in _e_to_m_table(conj).items():
            if len(mu) > n:
                continue
            rest = work.get(mu, 0) - coeff * count
            if rest:
                work[mu] = rest
            else:
                work.pop(mu, None)
    return MPoly(c_vars(n), out)


def _multinomial(k: int, parts) -> int:
    out, rest = 1, k
    for p in parts:
        out *= comb(rest, p)
        rest -= p
    return out


def elementary_of_forms(forms, n: int, r_max: int) -> list[MPoly]:
    """e_1..e_{r_max} of the values of integer linear forms, in c1..cn.

    forms are length-n coefficient tuples whose multiset is closed under
    permuting the variables, so every power sum of the values is symmetric:
    P_k = sum over lambda of multinom(k; lambda) * S(lambda) * m_lambda with
    S(lambda) = sum_f prod_j f_j^lambda_j.  Each P_k is rewritten in the
    e-basis and Newton's identities r e_r = sum_i (-1)^(i-1) e_{r-i} P_i
    give the elementary symmetric functions of the forms.
    """
    forms = [tuple(f) for f in forms]
    if any(len(f) != n for f in forms):
        raise ValueError(f"every form needs {n} coefficients")
    family = Counter(forms)
    for i in range(n - 1):
        swapped = Counter(f[:i] + (f[i + 1], f[i]) + f[i + 2:] for f in forms)
        if swapped != family:
            raise ValueError(
                f"forms are not invariant under the transposition (x{i + 1} x{i + 2})"
            )
    cvt = c_vars(n)
    prefixes = {
        length: Counter(f[:length] for f in forms) for length in range(1, n + 1)
    }
    power_sums = []
    for k in range(1, r_max + 1):
        coeffs = {}
        for lam in partitions_of(k, n):
            total = sum(
                count * prod(v**p for v, p in zip(head, lam))
                for head, count in prefixes[len(lam)].items()
            )
            if total:
                coeffs[lam] = _multinomial(k, lam) * total
        power_sums.append(_monomial_to_elementary(SymPolyInBasis(coeffs), n))
    sigmas = [MPoly.one(cvt)]
    for r in range(1, r_max + 1):
        acc = MPoly.zero(cvt)
        for i in range(1, r + 1):
            term = sigmas[r - i] * power_sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        sigmas.append(acc * Fraction(1, r))
    return sigmas[1:]


def root_compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """All (m_1..m_n) with m_i >= 0 summing to n: the index set of the y-roots.

    Ordered with the n extreme compositions n*delta_i first, then the rest
    ascending lexicographically.  The count is C(2n-1, n).
    """
    extremes = [tuple(n if j == i else 0 for j in range(n)) for i in range(n)]
    extreme_set = set(extremes)

    def gen(slots, rest):
        if slots == 1:
            yield (rest,)
            return
        for first in range(rest + 1):
            for tail in gen(slots - 1, rest - first):
                yield (first,) + tail

    rest = sorted(m for m in gen(n, n) if m not in extreme_set)
    result = tuple(extremes) + tuple(rest)
    assert len(result) == comb(2 * n - 1, n)
    return result


def p_vars(n: int) -> VarTable:
    """Power-sum variables p1..pn with deg p_a = a: t-degree is weighted degree."""
    return VarTable((f"p{a}", a) for a in range(1, n + 1))


def exp_p1(n: int, sign: int) -> MPoly:
    """exp(sign t p_1) = prod_i exp(sign t x_i), to t^n, in p_1..p_n."""
    zeros = (0,) * (n - 1)
    terms = {(j,) + zeros: Fraction(sign**j, factorial(j)) for j in range(n + 1)}
    return MPoly(p_vars(n), terms)


def exp_power_sum(n: int, scale: int) -> MPoly:
    """sum_i exp(scale t x_i) over n roots, to t^n: n + sum_a scale^a p_a / a!."""
    table = p_vars(n)
    terms = {(0,) * n: n}
    for a in range(1, n + 1):
        terms[table.unit(a - 1)] = Fraction(scale**a, factorial(a))
    return MPoly(table, terms)


def composition_series(n: int) -> MPoly:
    """sum over compositions m of n of exp(t m.x), to t^n, in p_1..p_n.

    That sum is h_n(exp(t x_1), ..., exp(t x_n)), built by Newton's identity
    m h_m = sum_j P_j h_{m-j} with P_j = sum_i exp(j t x_i) (Macdonald,
    Symmetric Functions, Ch. I Sec. 2), each product truncated at t^n.
    """
    h = [MPoly.one(p_vars(n))]
    for m in range(1, n + 1):
        acc = MPoly.zero(p_vars(n))
        for j in range(1, m + 1):
            acc = acc + truncate(exp_power_sum(n, j) * h[m - j], n)
        h.append(acc * Fraction(1, m))
    return h[n]


# ---- the full triangular solve, built on the package ----


def back_substitute(s_list):
    """psi, phi and lead of the triangular system s_1..s_n in c1..cn.

    Back-substitutes c_r = (s_r - lower terms)/lead_r over every partition,
    so psi_r is a polynomial in s_1..s_r, then sets s_1 = 0 in each psi_i
    and renames s_j to u_j for phi_i.
    """
    n = len(s_list)
    cvt, svt, uvt = c_vars(n), s_vars(n), u_vars(n)
    psi, leads = [], []
    for r, s_c in enumerate(s_list, start=1):
        unit = cvt.unit(r - 1)
        lead = s_c.coefficient(unit)
        leads.append(lead)
        rest = s_c - MPoly(cvt, {unit: lead})
        point = psi + [None] * (n - len(psi))
        (rest_s,) = MPoly.evaluate([rest], point, MPoly.one(svt))
        psi.append((MPoly.variable(svt, f"s{r}") - rest_s) * (Fraction(1) / lead))
    at_slice = [MPoly.zero(uvt)] + [MPoly.variable(uvt, name) for name in uvt.names]
    phi = list(MPoly.evaluate(psi[1:], at_slice, MPoly.one(uvt)))
    return psi, phi, leads
