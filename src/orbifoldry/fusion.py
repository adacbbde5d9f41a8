"""Finite quadratic-form combinatorics on Z_n x Z_n and assembly of
cyclic-orbifold characters.

For a fixed-point-free isometry of order n, the simple modules of the
fixed subalgebra are indexed by pairs (i, j) in Z_n x Z_n: i names the
twisted sector, j the eigencomponent.  The index group carries the
quadratic form q(i, j) = ij/n mod 1, and extensions of the fixed
subalgebra correspond to subgroups on which q vanishes.  This module
enumerates those subgroups exhaustively, classifies which labels carry
integral weights, and sums the matching character pieces into the
character of the orbifold extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from .isometry import Isometry, multiplicative_order
from .lattice import DEFAULT_NODE_BUDGET, Lattice
from .qseries import FracSeries, Rational
from .sectors import eigencomponent_character, sector_invariants, twisted_character

__all__ = [
    "FusionLabel",
    "IsotropicSubgroup",
    "MAX_ISOTROPIC_MODULUS",
    "MismatchedModulus",
    "ModulusTooLarge",
    "NotSeparable",
    "QuadSpace",
    "WeightHypothesisFailed",
    "bilinear_form",
    "fusion_product",
    "integral_weight_labels",
    "maximal_isotropic_subgroups",
    "orbifold_character",
    "q_delta",
    "weight_one_dimension_H2",
]

# Exhaustive subgroup enumeration is quadratic in the number of q-null
# elements; n = 30 keeps it instant while covering every modulus in use.
MAX_ISOTROPIC_MODULUS = 30


class MismatchedModulus(ValueError):
    """Labels or isometries whose moduli disagree."""


class ModulusTooLarge(ValueError):
    """Exhaustive enumeration refused beyond MAX_ISOTROPIC_MODULUS."""


class NotSeparable(ValueError):
    """A twisted sector's integral-weight class mixes several labels."""


class WeightHypothesisFailed(ValueError):
    """A sector's conformal weight does not lie in (1/n)Z."""


@dataclass(frozen=True, order=True)
class FusionLabel:
    """Index (i, j) mod n: sector number and eigencomponent."""

    i: int
    j: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "i", self.i % self.n)
        object.__setattr__(self, "j", self.j % self.n)


@dataclass(frozen=True)
class QuadSpace:
    """Z_n x Z_n carrying the quadratic form q(i, j) = ij/n mod 1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("modulus must be positive")

    def label(self, i: int, j: int) -> FusionLabel:
        return FusionLabel(i, j, self.n)

    def elements(self) -> list[FusionLabel]:
        return [FusionLabel(i, j, self.n)
                for i in range(self.n) for j in range(self.n)]


def _q_numerator(a: FusionLabel) -> int:
    return a.i * a.j % a.n


def _pairing_numerator(a: FusionLabel, b: FusionLabel) -> int:
    return (a.i * b.j + a.j * b.i) % a.n


def q_delta(a: FusionLabel) -> Fraction:
    """ij/n reduced mod 1."""
    return Fraction(_q_numerator(a), a.n)


def fusion_product(a: FusionLabel, b: FusionLabel) -> FusionLabel:
    """Componentwise sum mod n; (0, 0) is the unit."""
    if a.n != b.n:
        raise MismatchedModulus(f"labels live in Z_{a.n} and Z_{b.n}")
    return FusionLabel(a.i + b.i, a.j + b.j, a.n)


def bilinear_form(a: FusionLabel, b: FusionLabel) -> Fraction:
    """Polarization q(a + b) - q(a) - q(b) mod 1, that is
    (a.i b.j + a.j b.i)/n mod 1."""
    if a.n != b.n:
        raise MismatchedModulus(f"labels live in Z_{a.n} and Z_{b.n}")
    return Fraction(_pairing_numerator(a, b), a.n)


@dataclass(frozen=True)
class IsotropicSubgroup:
    """Subgroup of Z_n x Z_n on which q vanishes identically."""

    generators: tuple[FusionLabel, ...]
    elements: tuple[FusionLabel, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a subgroup contains at least the unit")
        n = self.elements[0].n
        members = set(self.elements)
        if len(members) != len(self.elements):
            raise ValueError("element list has repeats")
        for a in self.elements:
            if a.n != n:
                raise MismatchedModulus("mixed moduli in one subgroup")
            if _q_numerator(a):
                raise ValueError(f"q(({a.i},{a.j})) = {q_delta(a)} != 0")
        for a in self.elements:
            for b in self.elements:
                if fusion_product(a, b) not in members:
                    raise ValueError("element list is not closed under sums")
        if _span(self.generators, n) != frozenset((a.i, a.j) for a in members):
            raise ValueError("generators do not generate the element list")

    @property
    def order(self) -> int:
        return len(self.elements)


def _span(gens: Iterable[FusionLabel], n: int) -> frozenset[tuple[int, int]]:
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for g in gens:
            step = ((x + g.i) % n, (y + g.j) % n)
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return frozenset(seen)


def _generating_tuple(elements: tuple[FusionLabel, ...],
                      members: frozenset[tuple[int, int]],
                      n: int) -> tuple[FusionLabel, ...]:
    for a in elements:
        # a lies in members, so it generates them when its order is |members|
        if n // gcd(n, a.i, a.j) == len(members):
            return (a,)
    for a in elements:
        for b in elements:
            if _span((a, b), n) == members:
                return (a, b)
    raise AssertionError("subgroups of Z_n x Z_n are two-generated")


def maximal_isotropic_subgroups(space: QuadSpace) -> list[IsotropicSubgroup]:
    """All maximal subgroups on which q vanishes, by exhaustive search.

    Every subgroup of Z_n x Z_n is generated by two elements, and the
    span of q-null elements a, b is q-null exactly when the pairing
    b(a, b) vanishes (q(sa + tb) = st*b(a, b) mod 1), so scanning null
    pairs visits every isotropic subgroup.  A pair is skipped when one
    span found already holds both elements: their span lies inside it,
    so it is that span or not maximal.
    """
    n = space.n
    if n > MAX_ISOTROPIC_MODULUS:
        raise ModulusTooLarge(
            f"exhaustive enumeration is capped at n = {MAX_ISOTROPIC_MODULUS}")
    null = [a for a in space.elements() if _q_numerator(a) == 0]
    spans: list[frozenset[tuple[int, int]]] = []
    # bit s of inside[(i, j)] is set when the s-th span found holds (i, j)
    inside: dict[tuple[int, int], int] = {}
    for k, a in enumerate(null):
        for b in null[k:]:
            if inside.get((a.i, a.j), 0) & inside.get((b.i, b.j), 0):
                continue
            if _pairing_numerator(a, b) == 0:
                span = _span((a, b), n)
                bit = 1 << len(spans)
                spans.append(span)
                for member in span:
                    inside[member] = inside.get(member, 0) | bit
    maximal = [h for h in spans if not any(h < k for k in spans)]
    out = []
    for members in sorted(maximal, key=sorted):
        elements = tuple(FusionLabel(i, j, n) for i, j in sorted(members))
        out.append(IsotropicSubgroup(
            generators=_generating_tuple(elements, members, n),
            elements=elements))
    return out


def integral_weight_labels(space: QuadSpace, i: int) -> set[int]:
    """Eigencomponents of sector i whose weights are integral:
    { j : ij = 0 mod n }."""
    n = space.n
    return {j for j in range(n) if (i * j) % n == 0}


def orbifold_character(lattice: Lattice, g: Isometry, n: int, cutoff: Rational,
                       theta: FracSeries | None = None,
                       budget: int = DEFAULT_NODE_BUDGET) -> FracSeries:
    """Character of the orbifold extension along the subgroup {(i, 0)}:
    the j = 0 eigencomponent of the untwisted space plus the
    integral-weight class of every twisted sector.

    Each nonzero sector must have a unique integral-weight label
    (necessarily j = 0); otherwise the extracted class aggregates
    several simple modules and the sum is not the extension character,
    which is reported as NotSeparable.  theta optionally supplies a
    precomputed theta series for the untwisted part.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    order = multiplicative_order(g)
    if order != n:
        raise MismatchedModulus(f"isometry has order {order}, not {n}")
    space = QuadSpace(n)
    for i in range(1, n):
        labels = integral_weight_labels(space, i)
        if labels != {0}:
            raise NotSeparable(
                f"sector {i} has integral-weight labels {sorted(labels)}")
    sectors = [sector_invariants(lattice, g, i) for i in range(1, n)]
    for inv in sectors:
        if (inv.rho * n).denominator != 1:
            raise WeightHypothesisFailed(
                f"sector {inv.power} has conformal weight {inv.rho}, "
                f"not a multiple of 1/{n}")
    total = eigencomponent_character(lattice, g, n, 0, cutoff,
                                     theta=theta, budget=budget)
    for inv in sectors:
        twisted = twisted_character(inv, Fraction(cutoff))
        total = total + twisted.extract_weight_class(0)
    return total


def weight_one_dimension_H2(lattice: Lattice, g: Isometry, p: int) -> int:
    """Weight-one dimension of the extension along {(i, 0)} for an
    order-2p isometry: only the odd sectors other than p reach weight
    one, and each contributes its count of 1/2p-weight modes.

    The even and p sectors are certified absent by their conformal
    weights exceeding one.
    """
    order = multiplicative_order(g)
    if order != 2 * p:
        raise MismatchedModulus(f"isometry has order {order}, not {2 * p}")
    total = 0
    for i in range(1, 2 * p):
        inv = sector_invariants(lattice, g, i)
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
        total += int(contribution)
    return total
