"""Exact six-oscillator SU(3) x Sp(2,R) construction.

Sparse exact polynomials over Q(sqrt 3), oscillator bilinear generators with a
commutator-verification engine, the normalized SU(3) x Sp(2,R) basis states,
trace removal, and the isometric equivalence map onto functions on the unit
sphere in C^3.
"""

__version__ = "0.1.0"
