"""Finite quadratic-form combinatorics on Z_n x Z_n and assembly of
cyclic-orbifold characters.

For a fixed-point-free isometry of order n, the simple modules of the
fixed subalgebra are indexed by pairs (i, j) in Z_n x Z_n: i names the
twisted sector, j the eigencomponent.  The index group carries the
quadratic form q(i, j) = ij/n mod 1, and extensions of the fixed
subalgebra correspond to subgroups on which q vanishes.  This module
enumerates those subgroups exhaustively, classifies which labels carry
integral weights, and sums the matching character pieces into the
character of the orbifold extension.  A label is a pair (i, j) of
residues 0 <= i, j < n; the modulus n is passed once beside it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from .isometry import Isometry, multiplicative_order
from .qseries import FracSeries
from .sectors import eigencomponent_character, sector_invariants, twisted_character

__all__ = [
    "IsotropicSubgroup",
    "MAX_ISOTROPIC_MODULUS",
    "integral_weight_labels",
    "maximal_isotropic_subgroups",
    "orbifold_character",
    "weight_one_dimension_H2",
]

# Exhaustive subgroup enumeration is quadratic in the number of q-null
# elements; n = 30 keeps it instant while covering every modulus in use.
MAX_ISOTROPIC_MODULUS = 30

Label = tuple[int, int]


def _q(a: Label, n: int) -> int:
    """Numerator of q(a) = ij/n mod 1."""
    return a[0] * a[1] % n


class IsotropicSubgroup(NamedTuple):
    """Subgroup of Z_n x Z_n on which q vanishes identically: its sorted
    elements and a generating tuple, as maximal_isotropic_subgroups
    finds them."""

    generators: tuple[Label, ...]
    elements: tuple[Label, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _span(gens: Iterable[Label], n: int) -> frozenset[Label]:
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for g in gens:
            step = ((x + g[0]) % n, (y + g[1]) % n)
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return frozenset(seen)


def _generating_tuple(elements: tuple[Label, ...], members: frozenset[Label],
                      n: int) -> tuple[Label, ...]:
    for a in elements:
        # a lies in members, so it generates them when its order is |members|
        if n // gcd(n, *a) == len(members):
            return (a,)
    for a in elements:
        for b in elements:
            if _span((a, b), n) == members:
                return (a, b)
    raise AssertionError("subgroups of Z_n x Z_n are two-generated")


def maximal_isotropic_subgroups(n: int) -> list[IsotropicSubgroup]:
    """All maximal subgroups of Z_n x Z_n on which q vanishes, by
    exhaustive search, sorted by their element lists.

    Every subgroup of Z_n x Z_n is generated by two elements, and the
    span of q-null elements a, b is q-null exactly when the pairing
    b(a, b) vanishes (q(sa + tb) = st*b(a, b) mod 1), which for null a
    and b is q(a + b); so scanning null pairs visits every isotropic
    subgroup.  A pair is skipped when one span found already holds both
    elements: their span lies inside it, so it is that span or not
    maximal.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if n > MAX_ISOTROPIC_MODULUS:
        raise ValueError(
            f"exhaustive enumeration is capped at n = {MAX_ISOTROPIC_MODULUS}")
    null = [(i, j) for i in range(n) for j in range(n) if _q((i, j), n) == 0]
    spans: list[frozenset[Label]] = []
    # bit s of inside[a] is set when the s-th span found holds a
    inside: dict[Label, int] = {}
    for k, a in enumerate(null):
        for b in null[k:]:
            if inside.get(a, 0) & inside.get(b, 0):
                continue
            if _q((a[0] + b[0], a[1] + b[1]), n) == 0:
                span = _span((a, b), n)
                bit = 1 << len(spans)
                spans.append(span)
                for member in span:
                    inside[member] = inside.get(member, 0) | bit
    maximal = [h for h in spans if not any(h < k for k in spans)]
    out = []
    for members in sorted(maximal, key=sorted):
        elements = tuple(sorted(members))
        out.append(IsotropicSubgroup(
            generators=_generating_tuple(elements, members, n),
            elements=elements))
    return out


def integral_weight_labels(n: int, i: int) -> set[int]:
    """Eigencomponents of sector i whose weights are integral:
    { j : ij = 0 mod n }."""
    if n < 1:
        raise ValueError("modulus must be positive")
    return {j for j in range(n) if _q((i, j), n) == 0}


def orbifold_character(g: Isometry, cutoff: Fraction | int,
                       theta: FracSeries) -> FracSeries:
    """Character of the orbifold extension along the subgroup {(i, 0)},
    n the order of g: the j = 0 eigencomponent of the untwisted space
    plus the integral-weight class of every twisted sector.

    A sector whose unique integral-weight label is j = 0 adds its class.
    A sector with several labels aggregates several simple modules in
    that class, so it is refused with a ValueError unless its conformal
    weight lies above the cutoff, where it adds nothing.  So is a sector
    whose conformal weight is not a multiple of 1/n.  theta is the
    theta series of the lattice of g, which the untwisted part reads.
    """
    n = multiplicative_order(g)
    total = eigencomponent_character(g, 0, cutoff, theta)
    for i in range(1, n):
        inv = sector_invariants(g, i)
        if (inv.rho * n).denominator != 1:
            raise ValueError(
                f"sector {i} has conformal weight {inv.rho}, "
                f"not a multiple of 1/{n}")
        labels = integral_weight_labels(n, i)
        if labels == {0}:
            twisted = twisted_character(inv, Fraction(cutoff))
            total = total + twisted.extract_weight_class(0)
        elif inv.rho <= cutoff:
            raise ValueError(
                f"sector {i} has integral-weight labels {sorted(labels)} "
                f"at conformal weight {inv.rho}, within the cutoff")
    return total


def weight_one_dimension_H2(g: Isometry, theta: FracSeries) -> int:
    """Weight-one dimension of the extension along {(i, 0)}, theta the
    theta series of the lattice of g."""
    return orbifold_character(g, 1, theta).coefficient_at(1)
