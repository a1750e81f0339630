"""Universal polynomials tying reduced classes to symmetric-power classes.

For rank n, the N = C(2n-1, n) linear forms m_1 x_1 + ... + m_n x_n (over
all compositions m of n) have elementary symmetric polynomials s_1, s_2, ...
whose first n members generate the ring of symmetric polynomials: each s_r
is lead_r * c_r plus a combination of products of lower c's with lead_r > 0.
Like every class family, s is written in c1..cn, c_i standing for e_i of
the roots.
The forms have integer coefficients, so s_r and lead_r are integral, and
their coefficients are stored as ints.
The s_r come from the power-sum series h_n(exp(t x_1), ..., exp(t x_n)) of
the forms, read off in closed form (symfun.forms_series); no form is listed
and no polynomial in root variables is built.

The reduced classes live on the slice c_1 = 0, where s_1 = N c_1 vanishes.
Back-substituting the triangular system restricted to that slice solves c_i
as a rational polynomial phi_i(u_2..u_n) in u_j = s_j; evaluated at the
classes of the twisted symmetric power of a bundle, phi_i returns the
bundle's reduced classes, which is what makes the recipe applicable to any
projective-space bundle through its pushforward classes.  psi_i, which
solves c_i in s_1..s_n and equals phi_i at s_1 = 0, follows from phi by two
twists of the binomial formula (chern.twisted_classes): one to the classes
of the forms of the shifted roots x_i - c_1/n, one back by c_1/n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

from redchern import symfun
from redchern.chern import ensure_rank, twisted_classes
from redchern.poly import MPoly, c_vars, format_rational, s_vars, u_vars


class InternalInconsistencyError(RuntimeError):
    """A structural fact the triangular solve relies on failed to hold."""


@lru_cache(maxsize=None)
def s_in_elementary(n: int) -> tuple[MPoly, ...]:
    """s_1..s_n in c1..cn, from the forms' power-sum series, once per process."""
    ensure_rank(n)
    return tuple(symfun.elementary_from_power_sums(symfun.forms_series(n, 0)))


class UniversalPolys(NamedTuple):
    """The solved system at one rank.

    The system solved is s_in_elementary(rank); phi[i-2] expresses c_i on
    the slice c_1 = 0 in u_j = s_j, and equals psi_i with s_1 = 0;
    psi[i-1] expresses c_i in s_1..s_n; lead[r-1] is the (positive)
    coefficient of c_r in s_r.
    """

    rank: int
    count: int
    psi: tuple[MPoly, ...]
    phi: tuple[MPoly, ...]
    lead: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "n": self.rank,
            "N": self.count,
            "psi": [p.to_json_obj() for p in self.psi],
            "phi": [p.to_json_obj() for p in self.phi],
            "lead": [format_rational(c) for c in self.lead],
        }


def solve_psi(n: int) -> UniversalPolys:
    """Solve phi on the slice c_1 = 0, then get psi from phi by two twists.

    On c_1 = 0 each s_r is lead_r c_r plus terms in c_2..c_{r-1}, so
    back-substituting c_r = (u_r - lower terms)/lead_r gives phi_r in
    u_j = s_j.  Shifting every root by c_1/n = s_1/(nN) shifts each of
    the N forms by s_1/N: the shifted roots have c_1 = 0, their forms have
    the classes sigma_j of s twisted by -s_1/N (sigma_1 = 0), and their c_i
    is phi_i(sigma).  Twisting those back by c_1/n gives psi_r.  The round
    trip psi_i(s(c)) = c_i is verified exactly before returning.
    """
    s_list = s_in_elementary(n)
    count = comb(2 * n - 1, n)
    cvt, svt, uvt = c_vars(n), s_vars(n), u_vars(n)
    leads, rests = [], []
    for r, s_r in enumerate(s_list, start=1):
        unit = cvt.unit(r - 1)
        lead = s_r.coefficient(unit)
        if lead == 0:
            raise InternalInconsistencyError(
                f"s_{r} at rank {n} has no c_{r} component"
            )
        leads.append(lead)
        # s_r on the slice c_1 = 0, less its lead term
        on_slice = {e: c for e, c in s_r.terms.items() if e[0] == 0 and e != unit}
        rests.append(MPoly(cvt, on_slice))
    slice_point: list = [None] * n
    # phi_r fills slot r - 1 before rest_{r+1}, which may need it, is taken
    one_u = MPoly.one(uvt)
    for r, rest_u in enumerate(MPoly.evaluate(rests[1:], slice_point, one_u), start=2):
        slice_point[r - 1] = (MPoly.variable(uvt, f"u{r}") - rest_u) * (
            Fraction(1) / leads[r - 1]
        )
    phi = tuple(slice_point[1:])
    s = [MPoly.variable(svt, f"s{j}") for j in range(1, n + 1)]
    sigma = twisted_classes(s, count, s[0] * Fraction(-1, count))
    shifted = [MPoly.zero(svt), *MPoly.evaluate(phi, sigma[1:], MPoly.one(svt))]
    psi = twisted_classes(shifted, n, s[0] * Fraction(1, n * count))
    for r, back in enumerate(MPoly.evaluate(psi, s_list, MPoly.one(cvt)), start=1):
        if back != MPoly.variable(cvt, f"c{r}"):
            raise InternalInconsistencyError(
                f"psi_{r} at rank {n} fails the round trip through s(c)"
            )
    return UniversalPolys(rank=n, count=count, psi=psi, phi=phi, lead=tuple(leads))


@lru_cache(maxsize=None)
def compute_phi(n: int) -> UniversalPolys:
    """The solved system at rank n, computed once per process."""
    return solve_psi(n)


def brauer_reduced(pushforward_classes: Sequence) -> list:
    """Evaluate phi_2..phi_n at the classes u_2..u_n of a pushforward bundle.

    The inputs, phi's point, are MPolys over any commutative coefficient
    ring (a VarTable's free ring or a toy ring), and the rank n is their
    count plus one.  phi is evaluated in their ring, whose one is MPoly.one
    of their table, in one call; when they are the classes of the twisted
    symmetric power of a bundle, the output is that bundle's reduced
    classes.
    """
    n = len(pushforward_classes) + 1
    ensure_rank(n)
    one = MPoly.one(pushforward_classes[0].table)
    return list(MPoly.evaluate(compute_phi(n).phi, pushforward_classes, one))
