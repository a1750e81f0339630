"""Exact reduced Chern class calculus over the rationals.

Subpackage map:
    kernels    term-dict sums; truncated products of MPoly values
    poly       sparse exact polynomials, truncation, substitution, JSON
    symfun     partitions, e-to-m table, power-sum series to e-coordinates
    chern      reduced classes, twists, symmetric powers, no root variables
    universal  the triangular system, psi/phi, the pushforward recipe
    oracle     toy graded rings and identity specialization
    verify     named verification suites
    cli        command-line entry points
"""

from redchern.poly import MPoly, VarTable
from redchern.symfun import Partition

__version__ = "0.1.0"

__all__ = ["MPoly", "Partition", "VarTable", "__version__"]
