"""Loaders for the matrices shipped with the package.

The data directory resolves in order: explicit argument, the
ORBIFOLDRY_DATA environment variable, then the packaged data/ folder.
Shipped isometries are re-verified on every load.
"""

from __future__ import annotations

import os
from pathlib import Path

from .isometry import CycloProfile, Isometry, cyclotomic_profile, verify_isometry
from .lattice import Lattice, load_lattice, parse_matrix

SUPPORTED_P = (3, 5, 7, 13)

LEECH_FILE = "leech_gram.txt"
GENERATOR_FILES = ("co0_gen_a.txt", "co0_gen_b.txt")


class DataMissing(FileNotFoundError):
    """A required data file is absent from the resolved data directory."""


def resolve_data_dir(data_dir: str | os.PathLike | None = None) -> Path:
    if data_dir is not None:
        return Path(data_dir)
    env = os.environ.get("ORBIFOLDRY_DATA")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def _read(data_dir: str | os.PathLike | None, name: str) -> str:
    path = resolve_data_dir(data_dir) / name
    try:
        return path.read_text()
    except FileNotFoundError as exc:
        raise DataMissing(f"required data file missing: {path}") from exc


def load_leech(data_dir: str | os.PathLike | None = None) -> Lattice:
    """The rank-24 even unimodular lattice with minimal norm 4, as an
    LLL-reduced Gram matrix."""
    lattice = load_lattice(_read(data_dir, LEECH_FILE), label="leech")
    if lattice.rank != 24 or lattice.determinant() != 1:
        raise ValueError("shipped lattice data is not unimodular of rank 24")
    return lattice


def load_generators(data_dir: str | os.PathLike | None = None,
                    lattice: Lattice | None = None) -> tuple[Isometry, Isometry]:
    """The shipped pair of automorphism-group generators."""
    lat = lattice if lattice is not None else load_leech(data_dir)
    a, b = (verify_isometry(lat, parse_matrix(_read(data_dir, name)))
            for name in GENERATOR_FILES)
    return a, b


def sigma_profile(p: int) -> CycloProfile:
    """Spectral profile that defines a fixed-point-free order-2p isometry:
    all eigenvalues primitive 2p-th roots of unity."""
    if p not in SUPPORTED_P:
        raise ValueError(f"p must be one of {SUPPORTED_P}, got {p}")
    return CycloProfile.of({2 * p: 24 // (p - 1)})


def load_sigma(p: int, data_dir: str | os.PathLike | None = None,
               lattice: Lattice | None = None) -> Isometry:
    """The shipped order-2p fixed-point-free isometry for p in {3,5,7,13},
    verified on load: Gram preservation, unimodularity, spectral profile."""
    if p not in SUPPORTED_P:
        raise ValueError(f"p must be one of {SUPPORTED_P}, got {p}")
    lat = lattice if lattice is not None else load_leech(data_dir)
    g = verify_isometry(lat, parse_matrix(_read(data_dir, f"sigma_p{p}.txt")))
    if cyclotomic_profile(g) != sigma_profile(p):
        raise ValueError(f"sigma data for p={p} has the wrong spectral profile")
    return g
