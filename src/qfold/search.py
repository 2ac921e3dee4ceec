"""Classical exhaustive conformation search: the ground-truth oracle.

Enumerates every non-backtracking turn sequence (FCC: second turn restricted
to its four symmetry-unique labels, later turns excluding the inverse of
their predecessor, 4 * 11^(N-3) sequences; tetrahedral: absolute labels 0..3
with the first two bonds pinned to 0 and 1 and each later bond excluding its
predecessor's label, 3^(N-3) sequences), scores each self-avoiding one, and
keeps the K lowest.

The sweep places one bead per level of the turn tree.  A prefix keeps its
coordinates, one shell code per scoring pair and the energy of its placed
pairs, so a new bead costs only its distances to the earlier beads, and a
prefix whose new bead overlaps is dropped with its subtree.  Prefixes are
expanded breadth-first until one stands for at most ``CHUNK`` sequences;
blocks of that frontier are grown to full length, and leaf energies add the
pair terms in the order ``squared_distance_scorer`` adds them, from the same
shell-code table.

A prefix's bound is its energy plus, for every pair with a bead still to
place, that pair's most negative table entry; no extension scores below it.
Once K leaves are kept, a prefix whose bound exceeds the K-th energy by
more than a rounding margin (1e-9 times one plus the table's absolute sum:
the bound adds the terms in another order than the leaves do) is dropped
with its subtree, on the frontier and after each turn; ties at the cut-off
survive, so the records are those of the full sweep, in (energy, turn
string) order, bit-identical for any chunk size.  The sweep takes the
frontier in stable order of bound, so the cut-off tightens early, and sizes
its blocks by the sequences that survived in the block before.  Dropped
subtrees, overlapping or pruned, still count in ``visited``, which is
always the enumeration size; pruned ones also count in ``pruned``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EncodingError
from .lattice import (
    FCC,
    FCC_VECTORS,
    LATTICES,
    SECOND_TURN_LABELS,
    TET,
    TET_VECTORS,
    TurnSequence,
    coords_from_turns,
    pack_configuration,
    squared_distance_matrix,
)
from .scoring import EnergyMatrix, epsilon_table, scale_factor, validate_peptide

# the energy an overlapping pair adds; the search drops any sequence at or above it
COLLISION_PENALTY = 10000.0

# sequences below one block of prefixes, grown to full length together
CHUNK = 8192

# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    lattice: str
    peptide: str
    matrix: EnergyMatrix
    k: int = 100
    nn_level: int = 1

    def __post_init__(self):
        if self.lattice not in LATTICES:
            raise EncodingError(f"unknown lattice {self.lattice!r}")
        # frozen: the canonical peptide is set once, before anything reads it
        object.__setattr__(self, "peptide", validate_peptide(self.peptide))
        if self.k < 1:
            raise EncodingError("k must be >= 1")
        if self.nn_level not in (1, 2):
            raise EncodingError("nn_level must be 1 or 2")


@dataclass(frozen=True)
class ConformerRecord:
    energy: float
    turns: TurnSequence
    bits: str
    coords: np.ndarray

    @property
    def turn_string(self) -> str:
        return self.turns.to_string()


@dataclass(frozen=True)
class TopK:
    """``visited`` counts every sequence of the enumeration; ``pruned`` counts
    those the energy bound dropped unscored, which depends only on the config
    and ``CHUNK``, so every rerun gives the same count."""

    k: int
    records: tuple
    visited: int
    pruned: int


def enumeration_size(lattice: str, n_beads: int) -> int:
    """Number of non-backtracking sequences the sweep visits (big integer)."""
    if n_beads < 3:
        raise EncodingError(f"need at least 3 beads, got {n_beads}")
    if lattice == FCC:
        return 4 * 11 ** (n_beads - 3)
    if lattice == TET:
        return 3 ** (n_beads - 3)
    raise EncodingError(f"unknown lattice {lattice!r}")


# ---------------------------------------------------------------------------
# pair scoring tables
# ---------------------------------------------------------------------------


def _pair_rules(pep: str, config: SearchConfig):
    """Per-pair (i, j, first-shell energy, second-shell energy) tuples for a
    validated peptide.

    Energies are ``scoring.epsilon_table``'s, the table the Hamiltonian's
    contact terms read, times ``scoring.scale_factor`` of their shell.  A
    zero entry disables that shell for the pair.
    """
    eps = epsilon_table(config.matrix, pep)
    first, second = (scale_factor(config.lattice, level) for level in (1, 2))
    n = len(pep)
    rules = []
    for i in range(n - 1):
        for j in range(i + 2, n):
            e, scored = float(eps[i, j]), config.lattice == FCC or j - i >= 5
            # tetrahedral contacts join odd separations only
            near = scored and (config.lattice == FCC or (j - i) % 2 == 1)
            far = scored and config.nn_level == 2
            rules.append((i, j, e * first if near else 0.0, e * second if far else 0.0))
    return rules


def _scoring_tables(rules, lattice: str):
    """The shell code of each squared distance 0..12, 12 standing for any
    larger: 0 (no contact), 1 (first shell), 2 (second shell) or 3 (overlap);
    and one row per pair rule of its energy at each code."""
    d2, shell = np.arange(13), 2 if lattice == FCC else 1
    codes = np.select([d2 == 0, d2 == shell, d2 == 2 * shell], [3, 1, 2])
    table = np.array([(0.0, e1, e2, COLLISION_PENALTY) for *_, e1, e2 in rules])
    return codes.astype(np.int8), table.reshape(-1, 4)


def squared_distance_scorer(peptide: str, config: SearchConfig):
    """``squared -> energy`` for one peptide, with the pair rules built once.

    ``squared`` is one conformation's ``squared_distance_matrix``, scored
    as a float, or a ``(..., N, N)`` stack of them, scored as an array.
    Overlaps add ``COLLISION_PENALTY``.  FCC scores pairs j - i >= 2 at
    d^2 = 2 (and d^2 = 4 at nn_level 2); tetrahedral chains score pairs
    j - i >= 5, odd separations at d^2 = 1 and (at nn_level 2) d^2 = 2
    contacts.  Terms add in ``_pair_rules`` order, for each conformation
    of a stack alike.
    """
    peptide = validate_peptide(peptide)
    rules = _pair_rules(peptide, config)
    first, last = np.array([r[:2] for r in rules], dtype=np.intp).reshape(-1, 2).T
    codes, table = _scoring_tables(rules, config.lattice)
    n_beads = len(peptide)

    def score(squared):
        if squared.shape[-2:] != (n_beads, n_beads):
            raise EncodingError("conformation length differs from peptide length")
        code = codes[np.minimum(squared[..., first, last], 12)]
        energy = np.zeros(code.shape[:-1])
        for row in range(len(rules)):
            energy += table[row, code[..., row]]
        return float(energy) if squared.ndim == 2 else energy

    return score


def conformation_energy(conf, peptide: str, config: SearchConfig) -> float:
    """Score one conformation, a TurnSequence or an integer coordinate array
    (``squared_distance_scorer``, built for one call)."""
    coords = conf if isinstance(conf, np.ndarray) else coords_from_turns(conf)
    squared = squared_distance_matrix(coords, config.lattice)
    return squared_distance_scorer(peptide, config)(squared)


# ---------------------------------------------------------------------------
# prefix-incremental sweep
# ---------------------------------------------------------------------------


class _Tree:
    """The search tree of one config: bond vectors, scoring pairs, subtree sizes.

    A block of M prefixes ending at turn t (beads 0..t+1 placed) is four
    arrays, prefix axis last: turn labels (N-1, M) int8, bead coordinates
    (N, 3, M) int16, one shell code per scoring pair (R, M) int8 and the
    energy of the pairs placed so far (M,) float64.  A code is 0 (no
    contact), 1 (first shell), 2 (second shell) or 3 (overlap).
    Turns from 2 on try every bond label: the one that backtracks lands on
    bead t-1, so the overlap test drops it with the other overlaps.
    ``below[t]`` counts the sequences that extend a prefix ending at turn t.
    ``rest[b]`` sums, over the pairs with a bead past b, the pair's lowest
    table entry, so a prefix placed up to bead b has no extension below its
    energy plus ``rest[b]`` (its bound), up to ``margin``.
    """

    def __init__(self, config: SearchConfig):
        n = self.n_beads = len(config.peptide)
        fcc = config.lattice == FCC
        vectors = (FCC_VECTORS if fcc else TET_VECTORS).astype(np.int16)
        self.labels = [np.arange(len(vectors), dtype=np.int8)] * (n - 1)
        self.labels[1] = np.array(SECOND_TURN_LABELS if fcc else (1,), dtype=np.int8)
        self.options = [len(l) - (t >= 2) for t, l in enumerate(self.labels)]
        # tetrahedral bond signs alternate along the chain
        self.steps = [vectors if fcc or t % 2 == 0 else -vectors for t in range(n - 1)]
        # bead t+1 = bead t + v lies at integer square |r|^2 - 2 r.v + |v|^2
        # from bead i, r = bead i - bead t; tetrahedral pairs add their
        # sublattice parity, and code[min(square, 12)] reads off the shell
        self.minus2v = [-2.0 * s[l] for s, l in zip(self.steps, self.labels)]
        self.offset = [
            2 if fcc else 3 + (t + 1 - np.arange(t)[:, None]) % 2 for t in range(n - 1)
        ]
        # a pair that cannot score only ever adds an exact 0.0 (a leaf with an
        # overlap is dropped), so it is left out
        rules = [r for r in _pair_rules(config.peptide, config) if r[2] or r[3]]
        self.pairs = [(i, j) for i, j, _, _ in rules]
        self.code, self.table = _scoring_tables(rules, config.lattice)
        if not fcc:
            self.code = self.code[np.arange(13) // 4]
        # per bead j: the code rows of the pairs (i, j) and their beads i
        first, last = np.array(self.pairs, dtype=np.intp).reshape(-1, 2).T
        self.ending = [(np.flatnonzero(last == j), first[last == j]) for j in range(n)]
        self.below = [math.prod(self.options[t + 1 :]) for t in range(n - 1)]
        lowest = self.table.min(axis=1)
        self.rest = [float(lowest[last > b].sum()) for b in range(n)]
        # a bound and a leaf energy add the same terms in other orders, so
        # they round apart by about R * 2**-53 times the terms' absolute sum
        self.margin = 1e-9 * (1.0 + np.abs(self.table[:, :3]).sum())

    def root(self):
        labels = np.zeros((self.n_beads - 1, 1), dtype=np.int8)
        coords = np.zeros((self.n_beads, 3, 1), dtype=np.int16)
        coords[1, :, 0] = self.steps[0][0]
        codes = np.zeros((len(self.pairs), 1), dtype=np.int8)
        return labels, coords, codes, np.zeros(1)

    def place(self, prefixes, t: int) -> np.ndarray:
        """Codes of bead t+1 against beads 0..t-1, shape (t, labels of turn t, M)."""
        coords = prefixes[1]
        r = (coords[:t] - coords[t]).astype(np.float64)
        square = self.minus2v[t] @ r
        square += ((r * r).sum(axis=1) + self.offset[t])[:, None, :]
        return self.code[np.minimum(square, 12, out=square).astype(np.intp)]

    def grow(self, prefixes, t: int, cutoff: float = math.inf):
        """Extend every prefix by turn t, dropping each child that overlaps
        or whose bound exceeds ``cutoff``.

        Every extension of an overlapping prefix overlaps too, and none of a
        dropped child's is below its bound.  Returns the children, the
        sequences below every dropped child and those below the children
        dropped by the bound alone.
        """
        near = self.place(prefixes, t)
        option, parent = np.nonzero((near != 3).all(axis=0))
        rows, beads = self.ending[t + 1]
        new = near[beads[:, None], option, parent]
        energy = prefixes[3][parent] + self.table[rows[:, None], new].sum(axis=0)
        alive = energy + self.rest[t + 1] <= cutoff
        bounded = parent.size
        option, parent, energy = option[alive], parent[alive], energy[alive]
        labels, coords, codes = (a[..., parent] for a in prefixes[:3])
        labels[t] = self.labels[t][option]
        coords[t + 1] = coords[t] + self.steps[t][labels[t]].T
        codes[rows] = new[:, alive]
        below = self.below[t]
        dropped = self.options[t] * near.shape[2] - parent.size
        pruned = bounded - parent.size
        return (labels, coords, codes, energy), dropped * below, pruned * below

    def leaves(self, prefixes):
        """Non-overlap flags and energies of every full-length extension,
        shape (labels, M).  Pair terms add in ``_pair_rules`` order, as
        ``squared_distance_scorer`` adds them."""
        last = self.n_beads - 1
        near = self.place(prefixes, last - 1)
        energy = np.zeros(near.shape[1:])
        for row, (i, j) in enumerate(self.pairs):
            energy += self.table[row, near[i] if j == last else prefixes[2][row]]
        return (near != 3).all(axis=0), energy


def _best(energy: np.ndarray, labels: np.ndarray, k: int):
    """The k lowest (energy, label column) pairs in (energy, turn string) order.

    Turn strings have one character per label and the characters sort as the
    labels do, so comparing label columns compares the strings.
    """
    order = np.lexsort((*labels[::-1], energy))[:k]
    return energy[order], labels[:, order]


def _sweep(tree: _Tree, prefixes, turn: int, k: int, chunk: int):
    """The best k leaves below prefixes ending at ``turn``.

    Returns their energies and label columns, plus the numbers of sequences
    visited and pruned.  The prefixes are taken in order of their bounds,
    and blocks of them are grown to full length one turn at a time.  Once
    k leaves are kept, every prefix whose bound exceeds the k-th energy by
    more than the rounding margin is dropped, on the frontier and after each
    turn.  A block holds prefixes worth about ``chunk`` surviving sequences:
    the first one is sized by its full subtrees, each later one by the
    survivors per prefix of the one before, at most twice as many prefixes.
    """
    order = np.argsort(prefixes[3], kind="stable")
    prefixes = tuple(a[..., order] for a in prefixes)
    bounds = prefixes[3] + tree.rest[turn + 1]
    best = np.empty(0), np.empty((tree.n_beads - 1, 0), dtype=np.int8)
    visited = pruned = lo = 0
    cutoff, end = math.inf, bounds.size
    step = max(1, chunk // tree.below[turn])
    while lo < end:
        hi = min(lo + step, end)
        block = tuple(a[..., lo:hi] for a in prefixes)
        for t in range(turn + 1, tree.n_beads - 2):
            block, dropped, cut = tree.grow(block, t, cutoff)
            visited += dropped
            pruned += cut
        ok, energy = tree.leaves(block)
        work = tree.options[-1] * ok.shape[1]
        visited += work
        keep = ok & (energy < COLLISION_PENALTY)
        if best[0].size == k:
            keep &= energy <= best[0][-1]
        option, parent = np.nonzero(keep)
        e = energy[option, parent]
        if e.size > k:  # the block's k best, ties included
            tied = e <= np.partition(e, k - 1)[k - 1]
            option, parent, e = option[tied], parent[tied], e[tied]
        labels = block[0][:, parent]
        labels[-1] = tree.labels[-1][option]
        best = _best(np.concatenate([best[0], e]), np.hstack([best[1], labels]), k)
        if best[0].size == k:
            cutoff = best[0][-1] + tree.margin
            end = int(np.searchsorted(bounds, cutoff, side="right"))
        step = max(1, min(2 * (hi - lo), (hi - lo) * chunk // max(work, 1)))
        lo = hi
    # the frontier from lo on is above the cut-off
    skipped = (bounds.size - lo) * tree.below[turn]
    return *best, visited + skipped, pruned + skipped


def search(config: SearchConfig) -> TopK:
    """Sweep the full conformation space and return the top-K records.

    Self-intersecting conformations never enter the list, even when
    favourable contacts pull their penalized energy back under the
    collision threshold; energies at or above the threshold are likewise
    excluded.
    """
    n_beads = len(config.peptide)
    if n_beads < 3:
        raise EncodingError("need at least 3 beads")
    tree, chunk = _Tree(config), CHUNK
    prefixes, turn, visited = tree.root(), 0, 0
    while turn < n_beads - 3 and tree.below[turn] > chunk:
        turn += 1
        prefixes, dropped, _ = tree.grow(prefixes, turn)
        visited += dropped

    energies, labels, swept, pruned = _sweep(tree, prefixes, turn, config.k, chunk)
    records = []
    for e, row in zip(energies, labels.T):
        seq = TurnSequence(config.lattice, tuple(row.tolist()))
        bits = pack_configuration(seq) if config.lattice == FCC else seq.to_string()
        records.append(ConformerRecord(float(e), seq, bits, coords_from_turns(seq)))
    return TopK(k=config.k, records=tuple(records), visited=visited + swept, pruned=pruned)
