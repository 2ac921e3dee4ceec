"""Lattice geometry and turn encodings for face-centred-cubic and tetrahedral chains.

A conformation of an ``N``-bead chain is a sequence of ``N - 1`` turns, each turn
selecting the lattice vector that joins consecutive beads.

On the FCC lattice the twelve nearest-neighbour directions are addressed by the
labels ``0..b`` (hex).  Each label owns a unique 4-bit codeword; the four
words that address no direction are *redundant* and are penalised at the
Hamiltonian level rather than forbidden structurally.  Qubit layout: turn 0 is
pinned to label ``0`` and holds no bits; ``turn_bits`` places turn 1 on
``q0 q1`` (the codewords ``q0 q1 0 0``) and turn ``j >= 2`` on
``q_{4j-6} .. q_{4j-3}``, ``4 N - 10`` configuration bits in all, and
``turn_words`` gives each turn's words and their labels.  ``EncodingLayout``
adds one ancilla qubit per interaction pair after the configuration bits;
``MODES`` names the two Hamiltonian encodings built on it.

On the tetrahedral (diamond) lattice each bead has four neighbours.  Bond
vectors alternate in sign along the chain, so a single absolute turn label in
``{0, 1, 2, 3}`` per bond fixes the walk.  Coordinates are kept as integer
triples in units of ``1/sqrt(3)`` of the bond length.

Bit conventions used everywhere in this package: character ``i`` of a bitstring
(read left to right) is variable ``q_i``, and bit ``i`` of a basis-state index
``b`` (that is, ``(b >> i) & 1``) is the same variable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .exceptions import EncodingError

# ---------------------------------------------------------------------------
# lattice kinds
# ---------------------------------------------------------------------------

FCC = "fcc"
TET = "tet"

LATTICES = (FCC, TET)


# ---------------------------------------------------------------------------
# FCC turn tables
# ---------------------------------------------------------------------------

#: The twelve FCC nearest-neighbour vectors in label order 0..b.
FCC_VECTORS = np.array(
    [
        [1, 1, 0],    # 0
        [-1, -1, 0],  # 1
        [-1, 1, 0],   # 2
        [1, -1, 0],   # 3
        [0, 1, 1],    # 4
        [0, -1, -1],  # 5
        [0, 1, -1],   # 6
        [0, -1, 1],   # 7
        [1, 0, 1],    # 8
        [-1, 0, -1],  # 9
        [1, 0, -1],   # a
        [-1, 0, 1],   # b
    ],
    dtype=np.int64,
)

#: 4-bit codeword assigned to each label, same order as FCC_VECTORS.
FCC_CODEWORDS = (
    "0000", "0011", "1100", "1111",
    "1001", "0101", "1010", "0110",
    "1000", "0100", "1011", "0111",
)

#: Hex digits used when rendering FCC turn labels as text.
TURN_CHARS = "0123456789ab"

_CODEWORD_TO_LABEL = {code: label for label, code in enumerate(FCC_CODEWORDS)}
_CHAR_TO_LABEL = {c: i for i, c in enumerate(TURN_CHARS)}


def turn_bits(j: int) -> range:
    """Configuration bits of turn ``j >= 1``: ``q0 q1`` for turn 1, then
    ``q_{4j-6} .. q_{4j-3}``."""
    if j < 1:
        raise EncodingError(f"turn {j} holds no configuration bits")
    return range(max(4 * j - 6, 0), 4 * j - 2)


@functools.cache
def turn_words(j: int) -> MappingProxyType:
    """Label of every word turn ``j >= 1`` may hold, in binary order; None
    marks a redundant word.  A turn on ``w < 4`` bits holds the codewords
    whose last ``4 - w`` bits are 0, written by their first ``w``."""
    width = len(turn_bits(j))
    codes = (f"{k:04b}" for k in range(16))
    words = {c[:width]: _CODEWORD_TO_LABEL.get(c) for c in codes if "1" not in c[width:]}
    return MappingProxyType(words)


#: Turn-1 labels selected by the two free prefix bits q0 q1 = 00, 01, 10, 11.
SECOND_TURN_LABELS = tuple(turn_words(1).values())


def inverse_label(label: int) -> int:
    """Label of the opposite FCC direction.  Codewords pair labels as 2k, 2k+1."""
    return label ^ 1


# ---------------------------------------------------------------------------
# tetrahedral turn tables
# ---------------------------------------------------------------------------

#: The four tetrahedral bond vectors, integer triples in units of 1/sqrt(3).
TET_VECTORS = np.array(
    [
        [1, 1, 1],
        [1, -1, -1],
        [-1, 1, -1],
        [-1, -1, 1],
    ],
    dtype=np.int64,
)


# ---------------------------------------------------------------------------
# turn sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TurnSequence:
    """A decoded turn sequence.

    ``turns`` holds one label per bond.  For FCC chains a ``None`` entry marks
    a 4-bit group that decoded to a redundant codeword; such sequences carry no
    geometry.  For tetrahedral chains the labels are absolute turns 0..3.
    """

    lattice: str
    turns: tuple

    @property
    def redundant_positions(self) -> tuple:
        """Turn indices whose 4-bit group decoded to a redundant codeword."""
        return tuple(j for j, t in enumerate(self.turns) if t is None)

    @property
    def is_decodable(self) -> bool:
        return not self.redundant_positions

    def to_string(self) -> str:
        """Render as text: hex labels for FCC, digits 0..3 for TET.

        Redundant FCC groups render as ``'x'``.
        """
        if self.lattice == FCC:
            return "".join("x" if t is None else TURN_CHARS[t] for t in self.turns)
        return "".join(str(t) for t in self.turns)


def turns_from_string(text: str, lattice: str) -> TurnSequence:
    """Parse the output of :meth:`TurnSequence.to_string`."""
    if lattice == FCC:
        turns = []
        for c in text:
            if c == "x":
                turns.append(None)
            elif c in _CHAR_TO_LABEL:
                turns.append(_CHAR_TO_LABEL[c])
            else:
                raise EncodingError(f"invalid FCC turn character {c!r}")
        return TurnSequence(FCC, tuple(turns))
    if lattice == TET:
        turns = []
        for c in text:
            if c not in "0123":
                raise EncodingError(f"invalid tetrahedral turn character {c!r}")
            turns.append(int(c))
        return TurnSequence(TET, tuple(turns))
    raise EncodingError(f"unknown lattice {lattice!r}")


# ---------------------------------------------------------------------------
# configuration bitstrings (FCC)
# ---------------------------------------------------------------------------


def n_config_bits(n_beads: int) -> int:
    """Number of configuration bits for an FCC chain: ``4 N - 10``."""
    if n_beads < 3:
        raise EncodingError(f"need at least 3 beads, got {n_beads}")
    return turn_bits(n_beads - 2).stop


#: The two Hamiltonian encodings: fitted overlap penalties, or constraints.
MODE_POLYFIT = "polyfit"
MODE_VQEC = "vqec"
MODES = (MODE_POLYFIT, MODE_VQEC)


@dataclass(frozen=True)
class EncodingLayout:
    """Variable indexing for an N-bead chain: the configuration bits, then
    one ancilla per interaction pair."""

    n_beads: int

    def __post_init__(self):
        if self.n_beads < 3:
            raise EncodingError(f"need at least 3 beads, got {self.n_beads}")

    @property
    def n_config_bits(self) -> int:
        return n_config_bits(self.n_beads)

    @functools.cached_property
    def pairs(self) -> tuple:
        """Interaction pairs (m, n) with n >= m + 2, lexicographic order."""
        n = self.n_beads
        return tuple((m, nn) for m in range(n - 2) for nn in range(m + 2, n))

    @property
    def n_ancillas(self) -> int:
        """``len(pairs)``, counted without building the pairs."""
        return (self.n_beads - 1) * (self.n_beads - 2) // 2

    @property
    def total_qubits(self) -> int:
        return self.n_config_bits + self.n_ancillas

    def ancilla_qubit(self, a: int) -> int:
        """Qubit of ancilla ``a``, the ancilla of ``pairs[a]``."""
        if not 0 <= a < self.n_ancillas:
            raise EncodingError(f"ancilla {a} out of range 0..{self.n_ancillas - 1}")
        return self.n_config_bits + a

    def turn_qubits(self, j: int) -> range:
        """Qubits of turn ``j``, 1 <= j <= N-2 (``turn_bits``)."""
        if not 1 <= j <= self.n_beads - 2:
            raise EncodingError(f"turn index {j} out of range 1..{self.n_beads - 2}")
        return turn_bits(j)


def encode_turn(label: int) -> str:
    """4-bit codeword of an FCC turn label."""
    if not 0 <= label < 12:
        raise EncodingError(f"turn label {label} out of range 0..11")
    return FCC_CODEWORDS[label]


def unpack_configuration(bits: str, n_beads: int) -> TurnSequence:
    """Decode a configuration bitstring into a turn sequence.

    Character ``i`` of ``bits`` is variable ``q_i``.  Turn 0 is label 0 by
    construction; turn ``j >= 1`` is the label of the word on its
    ``turn_bits``.  Redundant words yield ``None`` in that slot.

    Raises
    ------
    EncodingError
        If the string length differs from ``4 * n_beads - 10`` or contains
        characters other than '0'/'1'.
    """
    expect = n_config_bits(n_beads)
    if len(bits) != expect:
        raise EncodingError(
            f"configuration for {n_beads} beads needs {expect} bits, got {len(bits)}"
        )
    if bits.strip("01"):
        raise EncodingError("configuration bits must be '0'/'1'")
    # the words are checked binary now, so each is a key of its turn's map
    turns = [0]
    for j in range(1, n_beads - 1):
        span = turn_bits(j)
        turns.append(turn_words(j)[bits[span.start : span.stop]])
    return TurnSequence(FCC, tuple(turns))


def pack_configuration(seq: TurnSequence) -> str:
    """Inverse of :func:`unpack_configuration` for fully decodable sequences."""
    if seq.lattice != FCC:
        raise EncodingError("only FCC sequences pack to configuration bits")
    turns = seq.turns
    if len(turns) < 2:
        raise EncodingError("need at least two turns (three beads)")
    if turns[0] != 0:
        raise EncodingError("turn 0 must be label 0")
    bits = []
    for j, t in enumerate(turns[1:], start=1):
        if t is None:
            raise EncodingError(f"turn {j} is redundant; cannot pack")
        word = encode_turn(t)[: len(turn_bits(j))]
        if turn_words(j).get(word) != t:
            raise EncodingError(f"turn {j} label {t} not reachable from its bits")
        bits.append(word)
    return "".join(bits)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def _chain_coords(steps: np.ndarray) -> np.ndarray:
    # bead 0 at the origin, bead k the sum of bonds 0..k-1; bonds on axis -2
    coords = np.zeros(steps.shape[:-2] + (steps.shape[-2] + 1, 3), dtype=np.int64)
    np.cumsum(steps, axis=-2, out=coords[..., 1:, :])
    return coords


def fcc_coords(labels) -> np.ndarray:
    """Integer FCC bead coordinates of turn labels, origin at bead 0.

    ``labels`` is one row of ``n_beads - 1`` labels, or a stack of rows
    ``(..., n_beads - 1)``; the result has shape ``(..., n_beads, 3)``,
    dtype int64.
    """
    return _chain_coords(FCC_VECTORS[np.asarray(labels, dtype=np.intp)])


def coords_from_turns(seq: TurnSequence) -> np.ndarray:
    """Integer bead coordinates of a turn sequence, origin at bead 0.

    FCC coordinates are plain lattice units; tetrahedral coordinates are in
    units of ``1/sqrt(3)`` with bond signs alternating along the chain.

    Returns
    -------
    numpy.ndarray
        Shape ``(n_beads, 3)``, dtype int64.
    """
    if seq.lattice == FCC:
        if not seq.is_decodable:
            raise EncodingError(
                f"redundant groups at turns {seq.redundant_positions}; no geometry"
            )
        return fcc_coords(seq.turns)
    if seq.lattice == TET:
        signs = np.array([1 if i % 2 == 0 else -1 for i in range(len(seq.turns))])
        return _chain_coords(TET_VECTORS[list(seq.turns)] * signs[:, None])
    raise EncodingError(f"unknown lattice {seq.lattice!r}")


def pair_squared_distance(coords: np.ndarray, i: int, j: int, lattice: str) -> int:
    """Squared distance between beads ``i`` and ``j`` in lattice units.

    FCC uses the integer Euclidean square.  Tetrahedral chains use the
    four-dimensional count representation: with ``(dx, dy, dz)`` the integer
    displacement and ``w^2 = (j - i) mod 2`` the sublattice parity,

        d^2 = (dx^2 + dy^2 + dz^2 + w^2) / 4,

    which makes a single bond d^2 = 1 and the second shell d^2 = 2.
    """
    d = coords[j] - coords[i]
    e2 = int(d @ d)
    if lattice == FCC:
        return e2
    if lattice == TET:
        return (e2 + (j - i) % 2) // 4
    raise EncodingError(f"unknown lattice {lattice!r}")


def squared_distance_matrix(coords: np.ndarray, lattice: str) -> np.ndarray:
    """All-pairs squared distances, same convention as pair_squared_distance.

    ``coords`` is one ``(n, 3)`` chain or a stack ``(..., n, 3)`` of them.
    """
    d = coords[..., :, None, :] - coords[..., None, :, :]
    e2 = np.einsum("...ijk,...ijk->...ij", d, d)
    if lattice == FCC:
        return e2
    n = coords.shape[-2]
    idx = np.arange(n)
    parity = (idx[None, :] - idx[:, None]) % 2
    return (e2 + parity) // 4
