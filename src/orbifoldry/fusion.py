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
from typing import Iterable

from .isometry import Isometry, multiplicative_order
from .qseries import FracSeries, Rational
from .sectors import eigencomponent_character, sector_invariants, twisted_character

__all__ = [
    "IsotropicSubgroup",
    "MAX_ISOTROPIC_MODULUS",
    "MismatchedModulus",
    "ModulusTooLarge",
    "NotSeparable",
    "WeightHypothesisFailed",
    "integral_weight_labels",
    "maximal_isotropic_subgroups",
    "orbifold_character",
    "weight_one_by_sector",
    "weight_one_dimension_H2",
]

# Exhaustive subgroup enumeration is quadratic in the number of q-null
# elements; n = 30 keeps it instant while covering every modulus in use.
MAX_ISOTROPIC_MODULUS = 30

Label = tuple[int, int]


class MismatchedModulus(ValueError):
    """An isometry of odd order where the weight-one count needs 2p."""


class ModulusTooLarge(ValueError):
    """Exhaustive enumeration refused beyond MAX_ISOTROPIC_MODULUS."""


class NotSeparable(ValueError):
    """A twisted sector's integral-weight class mixes several labels."""


class WeightHypothesisFailed(ValueError):
    """A sector's conformal weight does not lie in (1/n)Z."""


def _q(a: Label, n: int) -> int:
    """Numerator of q(a) = ij/n mod 1."""
    return a[0] * a[1] % n


class IsotropicSubgroup:
    """Subgroup of Z_n x Z_n on which q vanishes identically."""

    __slots__ = ("n", "generators", "elements")

    def __init__(self, n: int, generators: tuple[Label, ...],
                 elements: tuple[Label, ...]) -> None:
        self.n, self.generators, self.elements = n, generators, elements
        members = set(self.elements)
        if (0, 0) not in members:
            raise ValueError("a subgroup contains the unit (0, 0)")
        if len(members) != len(self.elements):
            raise ValueError("element list has repeats")
        for i, j in self.generators + self.elements:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"({i}, {j}) is not reduced mod {n}")
        for a in self.elements:
            if _q(a, n):
                raise ValueError(f"q({a}) = {Fraction(_q(a, n), n)} != 0")
        for a in self.elements:
            for b in self.elements:
                if ((a[0] + b[0]) % n, (a[1] + b[1]) % n) not in members:
                    raise ValueError("element list is not closed under sums")
        if _span(self.generators, n) != members:
            raise ValueError("generators do not generate the element list")

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
        raise ModulusTooLarge(
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
            n, generators=_generating_tuple(elements, members, n),
            elements=elements))
    return out


def integral_weight_labels(n: int, i: int) -> set[int]:
    """Eigencomponents of sector i whose weights are integral:
    { j : ij = 0 mod n }."""
    if n < 1:
        raise ValueError("modulus must be positive")
    return {j for j in range(n) if _q((i, j), n) == 0}


def orbifold_character(g: Isometry, cutoff: Rational,
                       theta: FracSeries) -> FracSeries:
    """Character of the orbifold extension along the subgroup {(i, 0)},
    n the order of g: the j = 0 eigencomponent of the untwisted space
    plus the integral-weight class of every twisted sector.

    Each nonzero sector must have a unique integral-weight label
    (necessarily j = 0); otherwise the extracted class aggregates
    several simple modules and the sum is not the extension character,
    which is reported as NotSeparable.  theta is the theta series of the
    lattice of g, which the untwisted part reads.
    """
    n = multiplicative_order(g)
    for i in range(1, n):
        labels = integral_weight_labels(n, i)
        if labels != {0}:
            raise NotSeparable(
                f"sector {i} has integral-weight labels {sorted(labels)}")
    sectors = [sector_invariants(g, i) for i in range(1, n)]
    for inv in sectors:
        if (inv.rho * n).denominator != 1:
            raise WeightHypothesisFailed(
                f"sector {inv.power} has conformal weight {inv.rho}, "
                f"not a multiple of 1/{n}")
    total = eigencomponent_character(g, n, 0, cutoff, theta)
    for inv in sectors:
        twisted = twisted_character(inv, Fraction(cutoff))
        total = total + twisted.extract_weight_class(0)
    return total


def weight_one_by_sector(g: Isometry) -> dict[int, int]:
    """Weight-one coefficient of the integral-weight class of each twisted
    sector i that reaches weight one in the extension along {(i, 0)},
    for an isometry of even order 2p: these are the odd sectors other
    than p, each contributing its count of 1/2p-weight modes.

    The even and p sectors are certified absent by their conformal
    weights exceeding one.
    """
    p, odd = divmod(multiplicative_order(g), 2)
    if odd:
        raise MismatchedModulus(f"isometry has odd order {2 * p + 1}")
    per: dict[int, int] = {}
    for i in range(1, 2 * p):
        inv = sector_invariants(g, i)
        if i % 2 == 0 or i == p:
            if inv.rho <= 1:
                raise WeightHypothesisFailed(
                    f"sector {i} reaches weight one (rho = {inv.rho})")
            continue
        integral = twisted_character(inv, Fraction(1)).extract_weight_class(0)
        contribution = integral.coefficient_at(1)
        if contribution.denominator != 1:
            raise WeightHypothesisFailed(
                f"sector {i} has non-integer weight-one coefficient")
        per[i] = int(contribution)
    return per


def weight_one_dimension_H2(g: Isometry) -> int:
    """Weight-one dimension of the extension along {(i, 0)} for an
    isometry of even order 2p: the sum of weight_one_by_sector."""
    return sum(weight_one_by_sector(g).values())
