"""Assembly of the diagonal folding Hamiltonian over a concrete qubit layout.

The objective for an ``N``-bead FCC chain is

    H = H_back + H_redun + H_olap + H_int

where ``H_back`` penalises immediate backtracks (turn followed by its
inverse), ``H_redun`` penalises the four codewords that address no direction,
``H_olap`` (dense penalty-fit mode only) penalises bead overlaps at chain
separation >= 3 through fitted penalty polynomials of the squared distances,
and ``H_int`` scores first-shell contacts: one ancilla qubit per bead pair
``(m, n)``, ``n >= m + 2``, multiplying ``epsilon_mn * (3 - D_mn)``.  An
ancilla only lowers the energy when its pair sits at contact distance
(``D = 2``); at any larger distance the term is positive for attractive
``epsilon < 0``, so the optimizer switches the ancilla off (self-penalizing,
no extra consistency terms needed).

In the constrained mode the overlap physics moves out of the objective into
explicit constraint polynomials ``2 - D_mn`` for every pair at separation
>= 2 (bonded neighbours satisfy ``D = 2`` identically and are omitted).

Qubit layout (``lattice.EncodingLayout``): configuration bits 0 .. 4N-11
first, turn ``j`` on ``lattice.turn_bits(j)`` holding
``lattice.turn_words(j)``; then ancilla ``a`` of the lexicographic pair order
on qubit ``4N - 10 + a``.  Every term loops over turns 1 .. N-2 through one
indicator, ``indicator_poly``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EncodingError, ParseError, QfoldError
from .lattice import (
    FCC_VECTORS,
    MODE_POLYFIT,
    MODE_VQEC,
    MODES,
    EncodingLayout,
    inverse_label,
    turn_words,
)
from .pb import PBPolynomial, table_support, value_table
from .scoring import EnergyMatrix, epsilon_table, validate_peptide

INSTANCE_FORMAT_VERSION = 1

# the fixed weights of H_back and H_redun; a run sets only the overlap height P0
LAM_BACK = 50.0
LAM_REDUN = 50.0


# ---------------------------------------------------------------------------
# indicator and position polynomials
# ---------------------------------------------------------------------------


def _literal_product(qubits, code: str, n_vars: int) -> PBPolynomial:
    # product over positions: q if bit '1', (1 - q) if bit '0'
    poly = PBPolynomial.constant(1.0, n_vars)
    for q, bit in zip(qubits, code):
        var = PBPolynomial.variable(q, n_vars)
        poly = poly * (var if bit == "1" else (1 - var))
    return poly


def indicator_poly(layout: EncodingLayout, j: int, word: str) -> PBPolynomial:
    """Indicator of turn ``j`` holding ``word`` on its qubits.

    Evaluates to 1 exactly on assignments whose turn-``j`` bits equal
    ``word``, which has one character per qubit: two for turn 1, four after.
    """
    qubits = layout.turn_qubits(j)
    if len(word) != len(qubits) or word.strip("01"):
        raise EncodingError(
            f"turn {j} words are {len(qubits)} binary characters, got {word!r}"
        )
    return _literal_product(qubits, word, layout.total_qubits)


def _step_polys(layout: EncodingLayout, j: int) -> tuple:
    """Displacement of bond ``j`` as three polynomials (x, y, z)."""
    n_vars = layout.total_qubits
    if j == 0:
        return tuple(
            PBPolynomial.constant(float(FCC_VECTORS[0][c]), n_vars) for c in range(3)
        )
    out = [PBPolynomial.zero(n_vars) for _ in range(3)]
    for word, label in turn_words(j).items():
        if label is None:
            continue
        ind = indicator_poly(layout, j, word)
        for c in range(3):
            v = float(FCC_VECTORS[label][c])
            if v:
                out[c] = out[c] + ind * v
    return tuple(out)


def _bead_positions(layout: EncodingLayout, count: int) -> list:
    """Coordinates of beads 0 .. count-1, each as polynomials (x, y, z).

    Bead 0 sits at the origin and bead m + 1 is bead m plus step m, so every
    step polynomial is built once.
    """
    positions = [tuple(PBPolynomial.zero(layout.total_qubits) for _ in range(3))]
    for j in range(count - 1):
        step = _step_polys(layout, j)
        positions.append(tuple(positions[j][c] + step[c] for c in range(3)))
    return positions


def position_polys(layout: EncodingLayout, m: int) -> tuple:
    """Coordinates of bead ``m`` as polynomials (x_m, y_m, z_m).

    Bead 0 sits at the origin; bead 1 adds only the fixed first turn; each
    later bead adds one sum of direction indicators of its turn.
    """
    if not 0 <= m < layout.n_beads:
        raise EncodingError(f"bead index {m} out of range 0..{layout.n_beads - 1}")
    return _bead_positions(layout, m + 1)[m]


def _squared_distance(pos_m: tuple, pos_n: tuple) -> PBPolynomial:
    total = PBPolynomial.zero(pos_m[0].n_vars)
    for c in range(3):
        delta = pos_n[c] - pos_m[c]
        total = total + delta * delta
    return total


def distance_poly(layout: EncodingLayout, m: int, n: int) -> PBPolynomial:
    """Squared distance between beads ``m`` and ``n`` as a polynomial."""
    if not 0 <= m < n < layout.n_beads:
        raise EncodingError(f"need 0 <= m < n < {layout.n_beads}, got ({m}, {n})")
    positions = _bead_positions(layout, n + 1)
    return _squared_distance(positions[m], positions[n])


def pair_distance_polys(layout: EncodingLayout) -> dict:
    """``D_mn`` for every interaction pair, keyed ``(m, n)``.

    Bead positions are built once and shared by all pairs.  Every
    coefficient is an integer, so the terms equal ``distance_poly``'s.
    """
    positions = _bead_positions(layout, layout.n_beads)
    return {
        (m, n): _squared_distance(positions[m], positions[n]) for m, n in layout.pairs
    }


# ---------------------------------------------------------------------------
# Hamiltonian terms
# ---------------------------------------------------------------------------


def build_h_back(layout: EncodingLayout) -> PBPolynomial:
    """Backtrack penalty: each turn followed by its inverse costs LAM_BACK.

    For every consecutive pair of turns, the indicator of each direction
    word of the first times that of its inverse label's word on the second.
    """
    total = PBPolynomial.zero(layout.total_qubits)
    for j in range(1, layout.n_beads - 2):
        following = {label: word for word, label in turn_words(j + 1).items()}
        for word, label in turn_words(j).items():
            if label is not None:
                here = indicator_poly(layout, j, word)
                back = following[inverse_label(label)]
                total = total + here * indicator_poly(layout, j + 1, back)
    return total * LAM_BACK


def build_h_redun(layout: EncodingLayout) -> PBPolynomial:
    """Penalty of LAM_REDUN on each word that addresses no direction."""
    total = PBPolynomial.zero(layout.total_qubits)
    for j in range(1, layout.n_beads - 1):
        for word, label in turn_words(j).items():
            if label is None:
                total = total + indicator_poly(layout, j, word)
    return total * LAM_REDUN


def build_h_int(
    layout: EncodingLayout,
    matrix: EnergyMatrix,
    peptide: str,
    distances: dict,
) -> PBPolynomial:
    """Contact reward: Sum_{pairs} q^a_mn * epsilon_mn * (3 - D_mn).

    ``peptide`` is validated, and ``distances`` is ``pair_distance_polys(layout)``.
    """
    if len(peptide) != layout.n_beads:
        raise EncodingError(
            f"peptide length {len(peptide)} != layout beads {layout.n_beads}"
        )
    eps = epsilon_table(matrix, peptide)
    n_vars = layout.total_qubits
    total = PBPolynomial.zero(n_vars)
    for a, (m, n) in enumerate(layout.pairs):
        ancilla = PBPolynomial.variable(layout.ancilla_qubit(a), n_vars)
        gap = 3.0 - distances[m, n]
        total = total + ancilla * gap * float(eps[m, n])
    return total


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemInstance:
    """An assembled optimization problem.

    ``objective`` is the full diagonal Hamiltonian; ``constraints`` (non-empty
    only in constrained mode) are the pair polynomials ``2 - D_mn`` whose
    expectations must be driven nonpositive.
    """

    layout: EncodingLayout
    mode: str
    peptide: str
    matrix_name: str
    p0: float
    objective: PBPolynomial
    constraints: tuple = field(default_factory=tuple)

    @property
    def n_qubits(self) -> int:
        return self.layout.total_qubits

    def to_json(self) -> str:
        doc = {
            "version": INSTANCE_FORMAT_VERSION,
            "mode": self.mode,
            "peptide": self.peptide,
            "matrix": self.matrix_name,
            "layout": {"n_beads": self.layout.n_beads},
            "penalties": {"lam_back": LAM_BACK, "lam_redun": LAM_REDUN, "p0": self.p0},
            "n_vars": self.objective.n_vars,
            "objective": self.objective.terms_as_lists(),
            "constraints": [c.terms_as_lists() for c in self.constraints],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        """Parse ``to_json``'s document.

        A document of another format version raises ``EncodingError``; any
        other malformed document, weights other than ``LAM_BACK`` and
        ``LAM_REDUN`` among them, raises ``ParseError``.
        """
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"instance is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("instance must be a JSON object")
        if doc.get("version") != INSTANCE_FORMAT_VERSION:
            raise EncodingError(
                f"unsupported instance format version {doc.get('version')!r}"
            )
        try:
            if not isinstance(doc["peptide"], str):
                raise ParseError("instance peptide must be a string")
            peptide = validate_peptide(doc["peptide"])
            n_beads = doc["layout"]["n_beads"]
            # checked before the layout, whose size grows with n_beads
            if type(n_beads) is not int or n_beads != len(peptide):
                raise ParseError("layout n_beads does not match the peptide")
            layout = EncodingLayout(n_beads)
            n_vars = doc["n_vars"]
            if type(n_vars) is not int or n_vars != layout.total_qubits:
                raise ParseError("n_vars does not match the layout")
            if doc["mode"] not in MODES or not isinstance(doc["matrix"], str):
                raise ParseError("instance mode or matrix name is malformed")
            pen = doc["penalties"]
            weights = [pen[key] for key in ("lam_back", "lam_redun", "p0")]
            if any(type(w) not in (int, float) for w in weights):
                raise ParseError("penalty weights must be numbers")
            if weights[:2] != [LAM_BACK, LAM_REDUN]:
                raise ParseError(f"lam_back and lam_redun are fixed at {LAM_BACK}")
            return cls(
                layout=layout,
                mode=doc["mode"],
                peptide=peptide,
                matrix_name=doc["matrix"],
                p0=float(weights[2]),
                objective=PBPolynomial.from_terms(doc["objective"], n_vars),
                constraints=tuple(
                    PBPolynomial.from_terms(terms, n_vars) for terms in doc["constraints"]
                ),
            )
        except ParseError:
            raise
        except (QfoldError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed instance: {exc!r}") from exc


def assemble(
    mode: str,
    peptide: str,
    matrix: EnergyMatrix,
    p0: float = 50.0,
    fits: dict | None = None,
) -> ProblemInstance:
    """Build the full problem instance for one peptide, on the
    ``EncodingLayout`` of its length.

    Dense mode composes one fitted overlap penalty per pair at separation
    >= 3 into the objective (``fits`` maps separation to fit, each at
    ``p0``; omitted fits are computed here at that P0).  Up front
    it raises ``EncodingError`` for a missing fit or one at another P0, and
    ``DegreeOverflowError`` when a pair's distance has more than
    ``pb.MAX_TABLE_VARS`` variables, which happens from N = 9.  Constrained
    mode instead emits ``2 - D_mn`` constraint polynomials for every pair at
    separation >= 2.
    """
    if mode not in MODES:
        raise EncodingError(f"mode must be one of {MODES}, got {mode!r}")
    peptide = validate_peptide(peptide)
    layout = EncodingLayout(len(peptide))
    if mode == MODE_VQEC and fits is not None:
        raise EncodingError("penalty fits are a dense-mode input")

    distances = pair_distance_polys(layout)
    objective = (
        build_h_back(layout)
        + build_h_redun(layout)
        + build_h_int(layout, matrix, peptide, distances)
    )
    constraints: list = []

    if mode == MODE_POLYFIT:
        # imported here: constrained-mode runs never load the penalty fits
        from . import polyfit as pf

        dense_pairs = [(m, n) for m, n in layout.pairs if n - m >= 3]
        for pair in dense_pairs:
            table_support(distances[pair])  # fail before composing any penalty
        if fits is None:
            fits = pf.fit_family(layout.n_beads, p0=p0)
        for s in sorted({n - m for m, n in dense_pairs}):
            if s not in fits:
                raise EncodingError(f"no penalty fit for separation {s}")
            if fits[s].p0 != p0:
                raise EncodingError(f"the separation-{s} fit has p0 {fits[s].p0}, not {p0}")
        for m, n in dense_pairs:
            objective = objective + pf.build_olap_penalty(fits[n - m], distances[m, n])
    else:
        constraints = [2.0 - distances[pair] for pair in layout.pairs]

    return ProblemInstance(
        layout=layout,
        mode=mode,
        peptide=peptide,
        matrix_name=matrix.name,
        p0=p0,
        objective=objective,
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# diagonal tables
# ---------------------------------------------------------------------------


class InstanceTables:
    """Dense per-configuration tables exploiting the ancilla structure.

    Every ancilla appears only in its own linear term, so the objective
    splits as ``base(c) + sum_a q_a * pair_a(c)`` with all tables indexed by
    the configuration bits alone: ``base_table``, ``pair_tables[a]`` for
    ancilla ``a`` in pair order, and one ``constraint_tables`` entry per
    constraint.  This keeps large instances (24 qubits) out of full 2^n
    territory and gives the exact ancilla-optimal energy per configuration
    in closed form.
    """

    def __init__(self, instance: ProblemInstance):
        layout = instance.layout
        config_vars = range(layout.n_config_bits)
        ancilla_of = {1 << layout.ancilla_qubit(a): a for a in range(layout.n_ancillas)}
        ancilla_mask = sum(ancilla_of)

        base = {}
        per_ancilla = [{} for _ in ancilla_of]
        for mask, coeff in instance.objective.terms.items():
            hit = mask & ancilla_mask
            if hit == 0:
                base[mask] = coeff
            elif hit in ancilla_of:
                per_ancilla[ancilla_of[hit]][mask ^ hit] = coeff
            else:
                raise EncodingError("objective couples ancillas; tables do not apply")

        n_vars = instance.objective.n_vars
        self.base_table = value_table(
            PBPolynomial(n_vars, base, _canonical=True), config_vars
        )
        self.pair_tables = [
            value_table(PBPolynomial(n_vars, terms, _canonical=True), config_vars)
            for terms in per_ancilla
        ]
        self.constraint_tables = [
            value_table(c, config_vars) for c in instance.constraints
        ]

    def ancilla_optimal_energies(self) -> np.ndarray:
        """Exact min over ancillas of the objective, per configuration."""
        energies = self.base_table.copy()
        for table in self.pair_tables:
            energies += np.minimum(table, 0.0)
        return energies
