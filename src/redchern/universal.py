"""Universal polynomials tying reduced classes to symmetric-power classes.

For rank n, the C(2n-1, n) linear forms m_1 x_1 + ... + m_n x_n (over all
compositions m of n) have elementary symmetric polynomials s_1, s_2, ...
whose first n members generate the ring of symmetric polynomials: each s_r
is lead_r * e_r plus a combination of products of lower e's with lead_r > 0,
and back-substituting through that triangular system solves e_i as a
rational polynomial psi_i in s_1..s_n.  The s_r come from the closed
power-sum series h_n(exp(t x_1), ..., exp(t x_n)) of the forms
(symfun.composition_series); no form is listed and no polynomial in root
variables is built.

Setting s_1 to zero in psi_i gives phi_i(u_2..u_n); evaluated at the classes
of the twisted symmetric power of a bundle, phi_i returns the bundle's
reduced classes, which is what makes the recipe applicable to any
projective-space bundle through its pushforward classes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from redchern import symfun
from redchern.chern import ensure_rank
from redchern.poly import MPoly, e_vars, format_rational, s_vars, u_vars


class InternalInconsistencyError(RuntimeError):
    """A structural fact the triangular solve relies on failed to hold."""


def s_in_elementary(n: int) -> list[MPoly]:
    """s_1..s_n in the elementary basis, from the composition series."""
    ensure_rank(n)
    return symfun.elementary_from_power_sums(symfun.composition_series(n), n)


@dataclass(frozen=True)
class UniversalPolys:
    """The solved system at one rank.

    s[r-1] is s_r in e1..en, the system that was solved; psi[i-1] expresses
    e_i in s_1..s_n; phi[i-2] is psi_i with s_1 = 0 and s_j renamed u_j;
    lead[r-1] is the (positive) coefficient of e_r in s_r.
    """

    rank: int
    count: int
    s: tuple[MPoly, ...]
    psi: tuple[MPoly, ...]
    phi: tuple[MPoly, ...]
    lead: tuple[Fraction, ...]

    def to_json_obj(self) -> dict:
        return {
            "n": self.rank,
            "N": self.count,
            "psi": [p.to_json_obj() for p in self.psi],
            "phi": [p.to_json_obj() for p in self.phi],
            "lead": [format_rational(c) for c in self.lead],
        }


def solve_psi(n: int) -> UniversalPolys:
    """Back-substitute the triangular system e_r = (s_r - lower terms)/lead_r.

    The round trip psi_i(s(e)) = e_i is verified exactly before returning.
    """
    s_list = s_in_elementary(n)
    evt = e_vars(n)
    svt = s_vars(n)
    solved: list[MPoly] = []
    leads: list[Fraction] = []
    for r in range(1, n + 1):
        s_e = s_list[r - 1]
        unit = evt.unit(r - 1)
        lead = s_e.coefficient(unit)
        if lead == 0:
            raise InternalInconsistencyError(
                f"s_{r} at rank {n} has no e_{r} component"
            )
        leads.append(lead)
        rest = s_e - MPoly.monomial(evt, unit, lead)
        if rest.is_zero():
            rest_s = MPoly.zero(svt)
        else:
            rest_s = rest.substitute(
                {f"e{i}": solved[i - 1] for i in range(1, r)}
            )
        psi_r = (MPoly.variable(svt, f"s{r}") - rest_s) * (Fraction(1) / lead)
        solved.append(psi_r)
    substitution = {f"s{i}": s_list[i - 1] for i in range(1, n + 1)}
    for r in range(1, n + 1):
        back = solved[r - 1].substitute(substitution)
        if back != MPoly.variable(evt, f"e{r}"):
            raise InternalInconsistencyError(
                f"psi_{r} at rank {n} fails the round trip through s(e)"
            )
    return UniversalPolys(
        rank=n,
        count=comb(2 * n - 1, n),
        s=tuple(s_list),
        psi=tuple(solved),
        phi=(),
        lead=tuple(leads),
    )


@lru_cache(maxsize=None)
def compute_phi(n: int) -> UniversalPolys:
    """Complete the solved system with phi_i = psi_i(0, u_2, ..., u_n)."""
    ups = solve_psi(n)
    uvt = u_vars(n)
    assignment = {"s1": MPoly.zero(uvt)}
    for j in range(2, n + 1):
        assignment[f"s{j}"] = MPoly.variable(uvt, f"u{j}")
    phi = tuple(ups.psi[i - 1].substitute(assignment) for i in range(2, n + 1))
    return replace(ups, phi=phi)


def brauer_reduced(n: int, pushforward_classes: Sequence) -> list:
    """Evaluate phi_2..phi_n at the classes of a pushforward bundle.

    The inputs are the degree-2..n classes, as elements of any commutative
    coefficient ring (MPoly values or toy-ring elements); when they are the
    classes of the twisted symmetric power of a bundle, the output is that
    bundle's reduced classes.
    """
    ups = compute_phi(n)
    if len(pushforward_classes) != n - 1:
        raise ValueError(
            f"rank {n} needs {n - 1} classes, got {len(pushforward_classes)}"
        )
    values = {f"u{j}": pushforward_classes[j - 2] for j in range(2, n + 1)}
    one = pushforward_classes[0].ring_one()
    return [ups.phi[i - 2].evaluate(values, one) for i in range(2, n + 1)]
