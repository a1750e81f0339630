"""Kernels for sparse polynomial sums and truncated products.

add_terms adds MPoly values and toy-ring elements; mul_trunc multiplies
MPoly values.  Toy-ring products go through their ring's multiplication
table instead (oracle.ToyRing.multiply_into).

Term dicts map exponent tuples to nonzero coefficients (Fraction or int).
A cap of -1 means no truncation.
"""

from operator import add, mul


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


def mul_trunc(pa, pb, wdegs, cap):
    """Multiply two term dicts, dropping products of weighted degree > cap.

    wdegs gives the weighted degree of each variable, so the degree of an
    exponent tuple is the dot product with wdegs.
    """
    if not pa or not pb:
        return {}
    if len(pb) > len(pa):
        pa, pb = pb, pa
    bitems = [(sum(map(mul, eb, wdegs)), eb, cb) for eb, cb in pb.items()]
    if cap >= 0:
        bitems.sort(key=lambda item: item[0])
    out = {}
    for ea, ca in pa.items():
        wa = sum(map(mul, ea, wdegs))
        for wb, eb, cb in bitems:
            if cap >= 0 and wa + wb > cap:
                break
            e = tuple(map(add, ea, eb))
            prev = out.get(e)
            out[e] = ca * cb if prev is None else prev + ca * cb
    return {e: c for e, c in out.items() if c != 0}
