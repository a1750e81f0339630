"""Exact reduced Chern class calculus over the rationals.

Subpackage map:
    poly       sparse exact polynomials with int or Fraction coefficients,
               the one element type of every ring; the free ring's table,
               evaluation in any ring as the one ring map, JSON output
    symfun     partitions as part tuples, e-to-m table, closed power-sum
               series of the root families and their classes in c1..cn
    chern      reduced classes, twists, symmetric powers as cached class
               tuples, no root variables
    universal  s_1..s_n in c1..cn, phi by the slice solve, psi by
               two twists, the pushforward recipe
    oracle     toy graded rings as VarTable presentations, P(E) products
               as one kernel on coefficient lists, identity specialization
               with one evaluation per ring and rank over stacked seeds
    verify     named verification suites
    cli        command-line entry points
"""

from redchern.poly import MPoly, VarTable

__version__ = "0.1.0"

__all__ = ["MPoly", "VarTable", "__version__"]
