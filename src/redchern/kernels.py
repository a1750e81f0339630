"""Kernels for sparse polynomial sums and products.

add_terms adds MPoly values and toy-ring elements; mul_trunc multiplies
MPoly values in full.  Toy-ring products go through their ring's
multiplication table instead (oracle.ToyRing.multiply_into).

Term dicts map exponent tuples to nonzero coefficients (Fraction or int).
"""

from operator import add


def add_terms(pa, pb):
    """Sum of two term dicts; coefficients that cancel are dropped."""
    out = dict(pa)
    for e, c in pb.items():
        prev = out.get(e)
        total = c if prev is None else prev + c
        if total:
            out[e] = total
        elif prev is not None:
            del out[e]
    return out


def mul_trunc(pa, pb):
    """Full product of two term dicts: despite the name, it truncates nothing."""
    if not pa or not pb:
        return {}
    if len(pb) > len(pa):
        pa, pb = pb, pa
    out = {}
    for ea, ca in pa.items():
        for eb, cb in pb.items():
            e = tuple(map(add, ea, eb))
            prev = out.get(e)
            out[e] = ca * cb if prev is None else prev + ca * cb
    return {e: c for e, c in out.items() if c != 0}
