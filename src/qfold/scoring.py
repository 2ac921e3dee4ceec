"""Pairwise residue contact energies and peptide handling.

Energy matrices are 20x20 symmetric tables over the one-letter amino-acid
alphabet, loaded from CSV (``#`` comment lines allowed, header row of residue
codes, one labelled row per residue).  Two tables ship with the package and
can be addressed by name instead of path:

``mj1996``
    Statistical contact potential, RT units.
``hp``
    Hydrophobic-polar toy model (-1 per H-H contact).

``QFOLD_DATA`` overrides the bundled data directory.

Interaction strength falls off with the neighbour shell, and two shells are
scored.  For FCC contacts at squared distances 2 and 4 the scale factors are
1 and 1/sqrt(2); on the tetrahedral lattice the second shell scales by
sqrt(3/8), the exact ratio of first- to second-shell distances there.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .exceptions import MatrixFormatError, UnknownResidueError
from .lattice import FCC, TET

#: Canonical internal residue order (alphabetical one-letter codes).
RESIDUES = "ACDEFGHIKLMNPQRSTVWY"

_RES_INDEX = {r: i for i, r in enumerate(RESIDUES)}

#: Names resolvable without a path, mapped to bundled files.
BUNDLED_MATRICES = {
    "mj1996": "mj1996_table3.csv",
    "hp": "hp.csv",
}

_SYMMETRY_TOL = 1e-9


def data_dir() -> Path:
    """Directory holding bundled tables; QFOLD_DATA takes precedence."""
    override = os.environ.get("QFOLD_DATA")
    if override:
        return Path(override)
    return Path(resources.files("qfold") / "data")


@dataclass(frozen=True)
class EnergyMatrix:
    """Symmetric residue-residue contact energies in RESIDUES order."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (20, 20):
            raise MatrixFormatError(
                f"energy matrix must be 20x20, got {self.values.shape}"
            )

    def __getitem__(self, pair) -> float:
        a, b = pair
        return float(self.values[_RES_INDEX[a], _RES_INDEX[b]])


def validate_peptide(sequence: str) -> str:
    """Uppercase and check a peptide against the 20-letter alphabet."""
    seq = sequence.strip().upper()
    if not seq:
        raise UnknownResidueError("peptide sequence is empty")
    bad = sorted({c for c in seq if c not in _RES_INDEX})
    if bad:
        raise UnknownResidueError(f"unknown residue codes {bad} in {sequence!r}")
    return seq


def load_matrix(source: str | Path) -> EnergyMatrix:
    """Load an energy matrix from a path or a bundled-table name."""
    path = Path(source)
    name = str(source)
    if not path.exists() and name in BUNDLED_MATRICES:
        path = data_dir() / BUNDLED_MATRICES[name]
    if not path.exists():
        raise MatrixFormatError(f"no such matrix file or bundled name: {source}")

    rows = {}
    header = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = [c.upper() for c in cells[1:]]
            continue
        res = cells[0].upper()
        try:
            rows[res] = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}:{lineno}: non-numeric entry") from exc

    if header is None:
        raise MatrixFormatError(f"{path}: no header row")
    missing = sorted(set(RESIDUES) - set(header)) + sorted(set(RESIDUES) - set(rows))
    if missing:
        raise MatrixFormatError(f"{path}: missing residues {sorted(set(missing))}")
    extra = sorted(set(header) - set(RESIDUES))
    if extra:
        raise MatrixFormatError(f"{path}: unknown residue columns {extra}")
    extra = sorted(set(rows) - set(RESIDUES))
    if extra:
        raise MatrixFormatError(f"{path}: unknown residue rows {extra}")

    values = np.zeros((20, 20))
    for res, row in rows.items():
        if len(row) != len(header):
            raise MatrixFormatError(f"{path}: row {res} has {len(row)} entries")
        for col, v in zip(header, row):
            values[_RES_INDEX[res], _RES_INDEX[col]] = v
    asym = np.abs(values - values.T).max()
    if asym > _SYMMETRY_TOL:
        raise MatrixFormatError(f"{path}: matrix asymmetric (max |e_ij - e_ji| = {asym})")
    return EnergyMatrix(name=Path(source).stem, values=values)


def load_masses() -> dict:
    """Residue masses in daltons."""
    path = data_dir() / "residue_masses.csv"
    masses = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("residue"):
            continue
        res, mass = line.split(",")
        masses[res.strip().upper()] = float(mass)
    missing = sorted(set(RESIDUES) - set(masses))
    if missing:
        raise MatrixFormatError(f"{path}: missing masses for {missing}")
    return masses


# ---------------------------------------------------------------------------
# shell scaling
# ---------------------------------------------------------------------------


def scale_factor(lattice: str, level: int) -> float:
    """Interaction scale of neighbour shell 1 (the contact) or 2."""
    if level not in (1, 2):
        raise MatrixFormatError(f"neighbour level must be 1 or 2, got {level}")
    if lattice == FCC:
        return 1.0 / math.sqrt(level)
    if lattice == TET:
        return 1.0 if level == 1 else math.sqrt(3.0 / 8.0)
    raise MatrixFormatError(f"unknown lattice {lattice!r}")


def epsilon_table(matrix: EnergyMatrix, peptide: str) -> np.ndarray:
    """(N, N) table of first-shell energies for a validated peptide."""
    idx = np.array([_RES_INDEX[r] for r in peptide])
    return matrix.values[np.ix_(idx, idx)]
