"""Exact-arithmetic verification of cyclic orbifold constructions on the Leech lattice."""

__version__ = "0.1.0"
