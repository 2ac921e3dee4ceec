"""Post-processing: decoding sampled bitstrings, structure metrics, file formats.

Sampled bitstrings are converted to turn sequences by stripping the ancilla
bits and aggregating counts per configuration; energies are re-scored
geometrically from the decoded conformation rather than trusted from the
sampled ancillas.  Structure metrics are the mass-weighted radius of
gyration and the Kabsch superposition RMSD (proper rotations only).

On-disk formats:

* XYZ: count line, comment line, then one ``<residue> <x> <y> <z>`` line per
  bead, six-decimal fixed point, angstroms.  Consecutive beads sit 3.8 A
  apart (face-centered cubic lattice units scale by 3.8/sqrt(2), tetrahedral
  integer units by 3.8/sqrt(3)).
* topobj: a header line, then one block per conformer (``energy``/``turns``/
  ``bits``/coordinate lines) separated by blank lines, ascending energy.
* Energy-probability report: tab-delimited rows sorted by energy with a
  cumulative-probability column, plus an optional JSON mirror.
* shots.tsv (``ShotTable``): one ``<bits>\t<count>`` line per observed
  bitstring, sorted; the parser also takes blank lines, ``#`` comments and
  any whitespace between the two fields.

The XYZ and topobj writers are exact inverses of their parsers byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import EmptyStructureError, EncodingError, ParseError
from .lattice import (
    FCC,
    LATTICES,
    TET,
    EncodingLayout,
    TurnSequence,
    coords_from_turns,
    fcc_coords,
    squared_distance_matrix,
    turns_from_string,
    unpack_configuration,
)
from .scoring import load_masses

BOND_ANGSTROMS = 3.8


def lattice_scale(lattice: str) -> float:
    """Angstroms per integer coordinate unit for 3.8 A bonds."""
    if lattice == FCC:
        return BOND_ANGSTROMS / math.sqrt(2.0)
    if lattice == TET:
        return BOND_ANGSTROMS / math.sqrt(3.0)
    raise EncodingError(f"unknown lattice {lattice!r}")


# ---------------------------------------------------------------------------
# decoding sampled bitstrings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShotTable:
    """Counts per observed bitstring from a sampling run."""

    counts: dict
    shots: int

    def __post_init__(self):
        if self.shots < 1:
            raise EncodingError("a shot table needs at least one shot")
        if sum(self.counts.values()) != self.shots:
            raise EncodingError("shot counts do not sum to the shot total")

    def to_text(self) -> str:
        lines = [f"{bits}\t{count}" for bits, count in sorted(self.counts.items())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ShotTable":
        counts = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or set(parts[0]) - {"0", "1"}:
                raise ParseError(f"line {lineno}: expected '<bits> <count>'")
            try:
                count = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad count {parts[1]!r}") from exc
            if count < 0:
                raise ParseError(f"line {lineno}: negative count")
            if counts and len(parts[0]) != len(next(iter(counts))):
                raise ParseError(f"line {lineno}: bitstrings differ in width")
            counts[parts[0]] = counts.get(parts[0], 0) + count
        if not counts:
            raise ParseError("shot table is empty")
        shots = sum(counts.values())
        if shots < 1:
            raise ParseError("shot counts sum to zero")
        return cls(counts=counts, shots=shots)


@dataclass(frozen=True)
class DecodedEntry:
    turns: TurnSequence
    probability: float
    energy: float | None
    redundant: bool
    backtrack: bool
    overlap: bool
    # integer bead coordinates; None when a redundant codeword leaves no geometry
    coords: np.ndarray | None = field(repr=False, compare=False)

    @property
    def valid(self) -> bool:
        return not (self.redundant or self.backtrack or self.overlap)

    @cached_property
    def turn_string(self) -> str:
        return self.turns.to_string()


@dataclass(frozen=True)
class DecodedEnsemble:
    entries: tuple
    e_star: float | None = None

    @property
    def modal(self) -> DecodedEntry:
        return self.entries[0]

    @property
    def total_probability(self) -> float:
        return math.fsum(e.probability for e in self.entries)

    @property
    def valid_probability(self) -> float:
        return math.fsum(e.probability for e in self.entries if e.valid)


def decode_samples(shots: ShotTable, layout: EncodingLayout, energy_fn, e_star=None):
    """Aggregate a shot table into turn-sequence entries.

    ``energy_fn`` maps a ``(D, N, N)`` stack of squared-distance matrices to
    their geometric energies (``search.squared_distance_scorer``); it is
    called once, on every decodable configuration.  Entries whose
    configuration contains a redundant codeword carry no energy.  Each
    distinct configuration is decoded once, and its entry keeps the
    coordinates.  Entries come back sorted by descending
    probability with ties broken by turn string, so ``ensemble.modal`` is
    the modal sequence.
    """
    n_config = layout.n_config_bits
    width = layout.total_qubits
    per_config: dict = {}
    for bits, count in shots.counts.items():
        if len(bits) != width:
            raise EncodingError(f"bitstring length {len(bits)} != layout width {width}")
        key = bits[:n_config]
        per_config[key] = per_config.get(key, 0) + count

    seqs = [unpack_configuration(bits, layout.n_beads) for bits in per_config]
    # every decodable configuration at once: coordinates (D, N, 3) and
    # squared distances (D, N, N), integers throughout
    labels = [seq.turns for seq in seqs if seq.is_decodable]
    coords = fcc_coords(np.array(labels, dtype=np.intp).reshape(-1, layout.n_beads - 1))
    squared = squared_distance_matrix(coords, FCC)
    # a backtrack puts bead i+2 on bead i; an overlap puts bead j >= i+3 on it
    coincide = squared == 0
    backtracks = (coincide & np.eye(layout.n_beads, k=2, dtype=bool)).any(axis=(1, 2))
    far = np.triu(np.ones((layout.n_beads,) * 2, dtype=bool), 3)
    overlaps = (coincide & far).any(axis=(1, 2))
    energies = energy_fn(squared).tolist()
    decoded = zip(coords, energies, backtracks.tolist(), overlaps.tolist())
    entries = []
    for seq, count in zip(seqs, per_config.values()):
        probability = count / shots.shots
        if seq.is_decodable:
            chain, energy, backtrack, overlap = next(decoded)
            entries.append(
                DecodedEntry(seq, probability, energy, False, backtrack, overlap, chain)
            )
        else:
            entries.append(DecodedEntry(seq, probability, None, True, False, False, None))
    entries.sort(key=lambda e: (-e.probability, e.turn_string))
    return DecodedEnsemble(entries=tuple(entries), e_star=e_star)


# ---------------------------------------------------------------------------
# structure metrics
# ---------------------------------------------------------------------------


def radius_of_gyration(coords, masses=None):
    """Mass-weighted root-mean-square distance from the center of mass.

    ``coords`` is one ``(n, 3)`` structure, giving a float, or a stack
    ``(..., n, 3)`` of structures with the same masses, giving an array.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim < 2 or coords.shape[-2] == 0 or coords.shape[-1] != 3:
        raise EmptyStructureError("need an (n, 3) coordinate array with n >= 1")
    n = coords.shape[-2]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=float)
    if masses.shape != (n,):
        raise EncodingError("one mass per bead required")
    if np.any(masses <= 0.0):
        raise EncodingError("masses must be positive")
    total = masses.sum()
    center = (masses[:, None] * coords).sum(axis=-2) / total
    offsets = coords - center[..., None, :]
    squares = np.einsum("...ij,...ij->...i", offsets, offsets)
    rg = np.sqrt((masses * squares).sum(axis=-1) / total)
    return float(rg) if coords.ndim == 2 else rg


def kabsch_rmsd(a, b) -> float:
    """RMSD after optimal proper-rotation superposition of ``a`` onto ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise EncodingError("coordinate arrays must share an (n, 3) shape")
    if a.shape[0] == 0:
        raise EmptyStructureError("need at least one bead")
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    cov = ac.T @ bc
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.diag([1.0, 1.0, d])
    rotation = vt.T @ flip @ u.T
    diff = ac @ rotation.T - bc
    return float(np.sqrt(np.einsum("ij,ij->", diff, diff) / a.shape[0]))


# ---------------------------------------------------------------------------
# XYZ files
# ---------------------------------------------------------------------------


def scaled_coords(conf, lattice: str | None = None) -> np.ndarray:
    """Angstrom coordinates of a turn sequence or raw integer array."""
    if isinstance(conf, TurnSequence):
        return coords_from_turns(conf) * lattice_scale(conf.lattice)
    if lattice is None:
        raise EncodingError("raw coordinate arrays need an explicit lattice")
    return np.asarray(conf, dtype=float) * lattice_scale(lattice)


def xyz_text(peptide: str, coords_angstrom, comment: str) -> str:
    coords = np.asarray(coords_angstrom, dtype=float)
    if coords.shape[0] != len(peptide):
        raise EncodingError("peptide length differs from coordinate count")
    if "\n" in comment:
        raise EncodingError("comment must be a single line")
    lines = [str(len(peptide)), comment]
    for residue, row in zip(peptide, coords):
        lines.append(f"{residue} {row[0]:.6f} {row[1]:.6f} {row[2]:.6f}")
    return "\n".join(lines) + "\n"


def write_xyz(seq: TurnSequence, peptide: str) -> str:
    """The XYZ text of a chain."""
    comment = f"{seq.lattice} lattice chain, bonds {BOND_ANGSTROMS} A"
    return xyz_text(peptide, scaled_coords(seq), comment)


def parse_xyz(text: str):
    """Inverse of the XYZ writer: returns (peptide, coordinates, comment)."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ParseError("xyz needs a count line and a comment line")
    try:
        count = int(lines[0].strip())
    except ValueError as exc:
        raise ParseError(f"bad atom count {lines[0]!r}") from exc
    comment = lines[1]
    rows = lines[2:]
    if len(rows) != count:
        raise ParseError(f"expected {count} atom lines, found {len(rows)}")
    peptide = []
    coords = np.empty((count, 3))
    for i, row in enumerate(rows):
        parts = row.split()
        if len(parts) != 4 or len(parts[0]) != 1:
            raise ParseError(f"atom line {i + 1}: expected '<residue> <x> <y> <z>'")
        peptide.append(parts[0])
        try:
            coords[i] = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"atom line {i + 1}: bad coordinate") from exc
    return "".join(peptide), coords, comment


# ---------------------------------------------------------------------------
# topobj files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopobjRecord:
    energy: float
    turn_string: str
    bits: str | None
    coords_angstrom: np.ndarray


@dataclass(frozen=True)
class TopobjDocument:
    lattice: str
    peptide: str
    records: tuple


def topobj_text(document: TopobjDocument) -> str:
    blocks = [f"topobj lattice={document.lattice} peptide={document.peptide}"]
    for rec in document.records:
        lines = [f"energy {rec.energy!r}", f"turns {rec.turn_string}"]
        if rec.bits is not None:
            lines.append(f"bits {rec.bits}")
        for row in rec.coords_angstrom:
            lines.append(f"{row[0]:.6f} {row[1]:.6f} {row[2]:.6f}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_topobj(topk, lattice: str, peptide: str) -> str:
    """Serialize a search TopK to topobj text (``topobj_text`` for a parsed
    document)."""
    scale = lattice_scale(lattice)
    records = tuple(
        TopobjRecord(
            energy=float(rec.energy),
            turn_string=rec.turns.to_string(),
            bits=rec.bits if lattice == FCC else None,
            coords_angstrom=rec.coords * scale,
        )
        for rec in topk.records
    )
    return topobj_text(TopobjDocument(lattice, peptide, records))


def parse_topobj(text: str) -> TopobjDocument:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    if not blocks:
        raise ParseError("topobj document is empty")
    header = blocks[0].splitlines()
    if len(header) != 1 or not header[0].startswith("topobj "):
        raise ParseError("first block must be the single-line topobj header")
    fields = dict(
        part.split("=", 1) for part in header[0].split()[1:] if "=" in part
    )
    lattice = fields.get("lattice")
    peptide = fields.get("peptide", "")
    if lattice not in LATTICES:
        raise ParseError(f"header names unknown lattice {lattice!r}")
    records = []
    previous = -math.inf
    for index, block in enumerate(blocks[1:], 1):
        lines = block.splitlines()
        if len(lines) < 2 or not lines[0].startswith("energy "):
            raise ParseError(f"block {index}: expected an energy line first")
        try:
            energy = float(lines[0][len("energy ") :])
        except ValueError as exc:
            raise ParseError(f"block {index}: bad energy") from exc
        if energy < previous:
            raise ParseError(f"block {index}: records must ascend by energy")
        previous = energy
        if not lines[1].startswith("turns "):
            raise ParseError(f"block {index}: expected a turns line")
        turn_string = lines[1][len("turns ") :]
        turns_from_string(turn_string, lattice)  # validates labels
        cursor = 2
        bits = None
        if cursor < len(lines) and lines[cursor].startswith("bits "):
            bits = lines[cursor][len("bits ") :]
            cursor += 1
        coord_rows = lines[cursor:]
        if len(coord_rows) != len(turn_string) + 1:
            raise ParseError(f"block {index}: expected {len(turn_string) + 1} beads")
        coords = np.empty((len(coord_rows), 3))
        for i, row in enumerate(coord_rows):
            parts = row.split()
            if len(parts) != 3:
                raise ParseError(f"block {index}: bad coordinate line")
            try:
                coords[i] = [float(v) for v in parts]
            except ValueError as exc:
                raise ParseError(f"block {index}: bad coordinate") from exc
        records.append(
            TopobjRecord(
                energy=energy,
                turn_string=turn_string,
                bits=bits,
                coords_angstrom=coords,
            )
        )
    return TopobjDocument(lattice=lattice, peptide=peptide, records=tuple(records))


# ---------------------------------------------------------------------------
# energy-probability report
# ---------------------------------------------------------------------------

REPORT_COLUMNS = (
    "energy",
    "probability",
    "cumulative",
    "turns",
    "rg_angstrom",
    "ground",
    "flags",
)


def _entry_flags(entry: DecodedEntry) -> str:
    flags = [
        name
        for name, hit in (
            ("redundant", entry.redundant),
            ("backtrack", entry.backtrack),
            ("overlap", entry.overlap),
        )
        if hit
    ]
    return "+".join(flags) if flags else "ok"


def energy_probability_report(
    ensemble: DecodedEnsemble, peptide: str | None = None
) -> tuple:
    """The ``report.tsv`` and ``report.json`` texts of an ensemble.

    The TSV holds tab-delimited rows sorted by energy with a cumulative
    column; the JSON holds the same rows as objects, next to the ensemble's
    ``e_star``.

    Rows whose energy matches ``e_star`` within 1e-9 are marked as ground.
    Undecodable entries sort last with blank energy and radius columns.
    Masses for the radius of gyration come from the bundled residue-mass
    table when ``peptide`` is given, else they are unit masses.
    """
    e_star, masses = ensemble.e_star, None
    if peptide is not None:
        table = load_masses()
        masses = np.array([table[r] for r in peptide])
    scored = [e for e in ensemble.entries if e.energy is not None]
    unscored = [e for e in ensemble.entries if e.energy is None]
    scored.sort(key=lambda e: (e.energy, e.turn_string))
    unscored.sort(key=lambda e: e.turn_string)

    radii = []
    if scored:
        chains = np.stack([e.coords for e in scored])
        radii = radius_of_gyration(scaled_coords(chains, scored[0].turns.lattice), masses)

    lines = ["\t".join(REPORT_COLUMNS)]
    rows = []
    cumulative = 0.0
    for entry, rg in itertools.zip_longest(scored + unscored, list(radii)):
        cumulative += entry.probability
        if entry.energy is None:
            energy_text = rg_text = ""
            ground = False
        else:
            energy_text = f"{entry.energy:.6f}"
            rg = float(rg)
            rg_text = f"{rg:.6f}"
            ground = e_star is not None and abs(entry.energy - e_star) <= 1e-9
        row = {
            "energy": None if entry.energy is None else entry.energy,
            "probability": entry.probability,
            "cumulative": cumulative,
            "turns": entry.turn_string,
            "rg_angstrom": rg,
            "ground": ground,
            "flags": _entry_flags(entry),
        }
        rows.append(row)
        lines.append(
            "\t".join(
                [
                    energy_text,
                    f"{entry.probability:.6f}",
                    f"{cumulative:.6f}",
                    entry.turn_string,
                    rg_text,
                    "*" if ground else "",
                    row["flags"],
                ]
            )
        )
    doc = json.dumps({"e_star": e_star, "rows": rows}, indent=2) + "\n"
    return "\n".join(lines) + "\n", doc
