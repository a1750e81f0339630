"""Tiny standalone polynomial engine used as an independent oracle.

Deliberately shares no code with redchern: plain dicts from exponent tuples
to Fractions, quadratic-time multiplication, elementary symmetric
polynomials summed over explicit subsets, and term-by-term evaluation.  Slow but obviously correct, so
test expectations derived here are independent of the package's kernels.
The one exception is the last section: two maps on c-space polynomials
that only the tests use, built on the package.
"""

from fractions import Fraction
from itertools import combinations

from redchern.chern import shifted_root_sigma
from redchern.poly import c_vars


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


# ---- maps on c-space polynomials, built on the package ----


def det_class(cv):
    """First class of the determinant line bundle: the root sum, i.e. c_1."""
    return cv.classes[0]


def reduce_hom(q):
    """The algebra endomorphism sending each c_r to the reduced class.

    One substitution, so the homomorphism property is inherited from
    substitution.  Idempotent; kills c_1.
    """
    n = len(q.table)
    if q.table != c_vars(n):
        raise ValueError("reduce_hom expects a polynomial over the free c-variables")
    sigmas = shifted_root_sigma(n)
    return q.substitute({f"c{i}": sigmas[i - 1] for i in range(1, n + 1)})
