"""Exhaustive search versus an independent recursive enumerator and the former
odometer sweep (tests/util.py)."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from qfold import search as search_module
from qfold.exceptions import EncodingError, QfoldError
from qfold.lattice import (
    FCC_VECTORS,
    SECOND_TURN_LABELS,
    TET_VECTORS,
    TurnSequence,
    coords_from_turns,
    pack_configuration,
    squared_distance_matrix,
    turns_from_string,
    unpack_configuration,
)
from qfold.scoring import RESIDUES, epsilon_table, load_matrix
from qfold.search import (
    COLLISION_PENALTY,
    ConformerRecord,
    SearchConfig,
    TopK,
    conformation_energy,
    enumeration_size,
    search,
    squared_distance_scorer,
)
from util import reference_conformation_energy, reference_search

MJ = load_matrix("mj1996")
TURN_CHARS = "0123456789ab"


# --- independent oracle: plain recursion, tuple arithmetic, no shared code ---


def recursive_fcc_turns(n_beads):
    def rec(turns):
        if len(turns) == n_beads - 1:
            yield tuple(turns)
            return
        if not turns:
            options = [0]
        elif len(turns) == 1:
            options = list(SECOND_TURN_LABELS)
        else:
            options = [l for l in range(12) if l != (turns[-1] ^ 1)]
        for label in options:
            yield from rec(turns + [label])

    yield from rec([])


def recursive_tet_turns(n_beads):
    for rel in itertools.product(range(3), repeat=n_beads - 3):
        absolute = [0, 1]
        for r in rel:
            absolute.append((r + absolute[-1] + 1) % 4)
        yield tuple(absolute)


def oracle_positions(turns, lattice):
    pos = [(0, 0, 0)]
    table = FCC_VECTORS if lattice == "fcc" else TET_VECTORS
    for bond, label in enumerate(turns):
        sign = 1 if lattice == "fcc" or bond % 2 == 0 else -1
        v = table[label]
        pos.append(tuple(pos[-1][a] + sign * int(v[a]) for a in range(3)))
    return pos


def oracle_energy(turns, peptide, lattice, nn_level, penalty=10000.0):
    """Returns (energy, collided)."""
    eps = epsilon_table(MJ, peptide)
    pos = oracle_positions(turns, lattice)
    energy = 0.0
    collided = False
    for i in range(len(pos) - 1):
        for j in range(i + 2, len(pos)):
            raw = sum((pos[j][a] - pos[i][a]) ** 2 for a in range(3))
            d2 = raw if lattice == "fcc" else (raw + (j - i) % 2) // 4
            if d2 == 0:
                energy += penalty
                collided = True
            elif lattice == "fcc" and d2 == 2:
                energy += eps[i, j]
            elif lattice == "fcc" and d2 == 4 and nn_level == 2:
                energy += eps[i, j] / math.sqrt(2)
            elif lattice == "tet" and j - i >= 5:
                if (j - i) % 2 == 1 and d2 == 1:
                    energy += eps[i, j]
                elif nn_level == 2 and d2 == 2:
                    energy += eps[i, j] * math.sqrt(3.0 / 8.0)
    return energy, collided


def oracle_topk(peptide, lattice, nn_level, k, penalty=10000.0):
    enum = recursive_fcc_turns if lattice == "fcc" else recursive_tet_turns
    chars = TURN_CHARS if lattice == "fcc" else "0123"
    rows = []
    for turns in enum(len(peptide)):
        energy, collided = oracle_energy(turns, peptide, lattice, nn_level, penalty)
        if collided or energy >= penalty:
            continue
        rows.append((energy, "".join(chars[t] for t in turns)))
    rows.sort()
    return rows[:k]


def config(**kw):
    base = dict(lattice="fcc", peptide="KLVF", matrix=MJ, k=10)
    base.update(kw)
    return SearchConfig(**base)


# --- enumeration sizes ---


def test_enumeration_size_fcc():
    assert enumeration_size("fcc", 3) == 4
    assert enumeration_size("fcc", 4) == 44
    assert enumeration_size("fcc", 6) == 5324
    assert enumeration_size("fcc", 12) == 4 * 11**9


def test_enumeration_size_tet():
    assert enumeration_size("tet", 3) == 1
    assert enumeration_size("tet", 4) == 3
    assert enumeration_size("tet", 6) == 27


def test_enumeration_size_errors():
    with pytest.raises(EncodingError):
        enumeration_size("bcc", 6)
    with pytest.raises(EncodingError):
        enumeration_size("fcc", 2)


# --- config validation ---


@pytest.mark.parametrize(
    "bad",
    [
        dict(lattice="hex"),
        dict(k=0),
        dict(nn_level=3),
        dict(nn_level=0),
        dict(peptide="KLXF"),
    ],
)
def test_config_rejects(bad):
    with pytest.raises(QfoldError):
        config(**bad)


def test_search_rejects_a_two_residue_chain():
    with pytest.raises(EncodingError):
        search(config(peptide="KL"))


# --- conformation_energy ---


def test_straight_chain_scores_zero():
    turns = TurnSequence("fcc", (0,) * 5)
    assert conformation_energy(turns, "KLVFFA", config(peptide="KLVFFA")) == 0.0


def test_overlap_adds_collision_penalty():
    # fcc triangle 0 -> 9 -> 7 returns to the origin: beads 0 and 3 coincide;
    # polar-polar contacts score zero so nothing offsets the penalty
    turns = turns_from_string("097", "fcc")
    cfg = config(peptide="GGGG", matrix=load_matrix("hp"))
    energy = conformation_energy(turns, "GGGG", cfg)
    assert energy >= COLLISION_PENALTY


def test_energy_accepts_coordinate_array():
    turns = turns_from_string("093", "fcc")
    cfg = config()
    by_turns = conformation_energy(turns, "KLVF", cfg)
    by_coords = conformation_energy(coords_from_turns(turns), "KLVF", cfg)
    assert by_turns == by_coords


@pytest.mark.parametrize("peptide", ["KLVF", "klvf", "KLVF ", " klvf", "\tKLVF\n"])
def test_energy_scores_the_canonical_peptide(peptide):
    # the shape check and the pair rules both read the validated peptide
    turns = TurnSequence("fcc", (0, 9, 3))
    energy = conformation_energy(turns, peptide, config())
    assert energy == conformation_energy(turns, "KLVF", config())
    assert energy == pytest.approx(-13.13)


def test_energy_matches_oracle_everywhere_fcc():
    cfg = config(peptide="GNLVS", nn_level=2)
    for turns in recursive_fcc_turns(5):
        seq = TurnSequence("fcc", turns)
        want, _ = oracle_energy(turns, "GNLVS", "fcc", 2)
        assert conformation_energy(seq, "GNLVS", cfg) == pytest.approx(want, abs=1e-12)


def test_energy_matches_oracle_everywhere_tet():
    cfg = config(lattice="tet", peptide="KLVFFA", nn_level=2)
    for turns in recursive_tet_turns(6):
        seq = TurnSequence("tet", turns)
        want, _ = oracle_energy(turns, "KLVFFA", "tet", 2)
        assert conformation_energy(seq, "KLVFFA", cfg) == pytest.approx(
            want, abs=1e-12
        )


@pytest.mark.parametrize("lattice", ["fcc", "tet"])
@pytest.mark.parametrize("matrix_name", ["mj1996", "hp"])
def test_scorer_equals_former_scalar_scorer(lattice, matrix_name):
    # random turn labels, backtracks and overlaps included; energies are
    # compared with ==, for turn sequences, coordinate arrays and squared
    # distance matrices, one at a time and as one (40, N, N) stack
    rng = np.random.default_rng(len(lattice) + len(matrix_name))
    labels = 12 if lattice == "fcc" else 4
    overlaps = 0
    for n_beads in range(3, 10):
        peptide = "".join(rng.choice(list(RESIDUES), n_beads))
        for nn_level in (1, 2):
            cfg = config(
                lattice=lattice,
                peptide=peptide,
                matrix=load_matrix(matrix_name),
                nn_level=nn_level,
            )
            score = squared_distance_scorer(peptide, cfg)
            stack, wants = [], []
            for _ in range(40):
                seq = TurnSequence(lattice, tuple(rng.integers(0, labels, n_beads - 1)))
                coords = coords_from_turns(seq)
                squared = squared_distance_matrix(coords, lattice)
                want = reference_conformation_energy(seq, peptide, cfg)
                overlaps += want >= COLLISION_PENALTY
                assert score(squared) == want
                assert conformation_energy(seq, peptide, cfg) == want
                assert conformation_energy(coords, peptide, cfg) == want
                stack.append(squared)
                wants.append(want)
            assert np.array_equal(score(np.stack(stack)), wants)
    assert overlaps > 0


def test_length_mismatch_rejected():
    with pytest.raises(EncodingError):
        conformation_energy(turns_from_string("093", "fcc"), "KLVFF", config())


# --- search against the oracle ---


@pytest.mark.parametrize("nn_level", [1, 2])
def test_search_matches_oracle_fcc(nn_level):
    cfg = config(peptide="GNLVS", nn_level=nn_level, k=40)
    top = search(cfg)
    want = oracle_topk("GNLVS", "fcc", nn_level, 40)
    got = [(r.energy, r.turn_string) for r in top.records]
    assert len(got) == len(want)
    for (ge, gt), (we, wt) in zip(got, want):
        assert gt == wt
        assert ge == pytest.approx(we, abs=1e-12)


@pytest.mark.parametrize("nn_level", [1, 2])
def test_search_matches_oracle_tet(nn_level):
    cfg = config(lattice="tet", peptide="KLVFFA", nn_level=nn_level, k=27)
    top = search(cfg)
    want = oracle_topk("KLVFFA", "tet", nn_level, 27)
    got = [(r.energy, r.turn_string) for r in top.records]
    assert got[0][0] < 0.0  # the ground contact is real, not vacuous
    assert len(got) == len(want)
    for (ge, gt), (we, wt) in zip(got, want):
        assert gt == wt
        assert ge == pytest.approx(we, abs=1e-12)


def test_known_minima():
    top = search(config(k=1))
    assert top.records[0].energy == pytest.approx(-13.13, abs=1e-9)
    assert top.records[0].turn_string == "093"
    top = search(config(peptide="GNLVS", k=1))
    assert top.records[0].energy == pytest.approx(-14.29, abs=1e-9)
    assert top.records[0].turn_string == "0936"


def test_visited_counts_complete():
    assert search(config(k=2)).visited == 44
    assert search(config(peptide="GNLVS", k=2)).visited == 484
    assert search(config(peptide="KLVFFA", k=2)).visited == 5324
    assert search(config(lattice="tet", peptide="KLVFFA", k=2)).visited == 27


def test_config_keeps_the_canonical_peptide():
    # the tree and the pair rules read the one stored peptide, so padded
    # lowercase text searches exactly as its canonical form does
    raw = SearchConfig("fcc", "klvf ", MJ)
    assert raw.peptide == "KLVF"
    top, want = search(raw), search(SearchConfig("fcc", "KLVF", MJ))
    assert top.visited == want.visited == 44
    assert top.pruned == want.pruned
    assert [(r.energy, r.turn_string, r.bits) for r in top.records] == [
        (r.energy, r.turn_string, r.bits) for r in want.records
    ]


def test_no_collided_or_threshold_records():
    top = search(config(peptide="GNLVS", k=484))
    assert len(top.records) < 484
    for rec in top.records:
        assert rec.energy < 10000.0
        coords = rec.coords
        n = coords.shape[0]
        for i in range(n - 1):
            for j in range(i + 2, n):
                assert np.any(coords[i] != coords[j])


# --- determinism across chunk sizes ---


def same_topk(a: TopK, b: TopK) -> bool:
    if a.visited != b.visited or len(a.records) != len(b.records):
        return False
    return all(
        x.energy == y.energy
        and x.turn_string == y.turn_string
        and x.bits == y.bits
        and np.array_equal(x.coords, y.coords)
        for x, y in zip(a.records, b.records)
    )


def test_chunk_invariance(monkeypatch):
    ref = search(config(peptide="GNLVS", k=25))
    for chunk in (7, 13, 484):
        monkeypatch.setattr(search_module, "CHUNK", chunk)
        assert same_topk(ref, search(config(peptide="GNLVS", k=25)))


@pytest.mark.parametrize("lattice", ["fcc", "tet"])
@pytest.mark.parametrize("chunk", [1, 7, 11, 13, 121, 10**6])
def test_split_boundary_invariance(monkeypatch, lattice, chunk):
    # N=7: the block splits fall inside the turn tree, where the
    # blocks after the first prune; every split gives the unpruned odometer
    # sweep's records
    base = dict(lattice=lattice, peptide="KLVFFAE", nn_level=2, k=40)
    ref = search(config(**base))
    want, visited = reference_search(config(**base))
    assert_same_records(ref, want, visited, lattice)
    assert ref.visited == enumeration_size(lattice, 7)
    monkeypatch.setattr(search_module, "CHUNK", chunk)
    assert same_topk(ref, search(config(**base)))


@pytest.mark.parametrize("lattice", ["fcc", "tet"])
def test_visited_is_enumeration_size(lattice):
    # pruned subtrees count once each: from N=7 on, an FCC frontier takes
    # more than one block, and the blocks after the first prune
    for n_beads in range(3, 9):
        peptide = "KLVFFAEG"[:n_beads]
        top = search(config(lattice=lattice, peptide=peptide, k=1))
        assert top.visited == enumeration_size(lattice, n_beads)
        assert (top.pruned > 0) == (lattice == "fcc" and n_beads >= 7)


# --- the prefix sweep against the former odometer sweep ---


def assert_same_records(top, want, visited, lattice):
    """``top`` holds the odometer sweep's records, energies compared with ==."""
    assert top.visited == visited
    assert [(r.energy, r.turn_string) for r in top.records] == want
    for rec in top.records:
        seq = turns_from_string(rec.turn_string, lattice)
        assert rec.turns == seq
        bits = pack_configuration(seq) if lattice == "fcc" else rec.turn_string
        assert rec.bits == bits
        assert np.array_equal(rec.coords, coords_from_turns(seq))


@pytest.mark.parametrize("lattice", ["fcc", "tet"])
@pytest.mark.parametrize("matrix_name", ["mj1996", "hp"])
@pytest.mark.parametrize("nn_level", [1, 2])
def test_search_equals_odometer_sweep(lattice, matrix_name, nn_level):
    matrix = load_matrix(matrix_name)
    rng = np.random.default_rng(["fcc", "tet"].index(lattice) * 4 + nn_level)
    for n_beads in range(3, 8):
        peptide = "".join(rng.choice(list(RESIDUES), n_beads))
        cfg = SearchConfig(lattice, peptide, matrix, nn_level=nn_level)
        every = enumeration_size(lattice, n_beads) + 1  # more than the valid folds
        want, visited = reference_search(replace(cfg, k=every))
        for k in (1, 10, every):
            assert_same_records(search(replace(cfg, k=k)), want[:k], visited, lattice)


def test_search_equals_odometer_sweep_n8():
    # the HP cases' 10th and 11th energies tie; in LGGGGGGL only the end
    # pair scores, so every prefix's bound equals the cut-off, -1, and no
    # prefix may be pruned: each must compete on its turn strings
    hp = load_matrix("hp")
    for cfg in (
        SearchConfig("fcc", "MCMPKHHR", MJ, k=25, nn_level=2),
        SearchConfig("fcc", "MCMPKHHR", MJ, k=1),
        SearchConfig("fcc", "LLLLLLLL", hp, k=10),
        SearchConfig("fcc", "LGGGGGGL", hp, k=10),
    ):
        want, visited = reference_search(replace(cfg, k=cfg.k + 1))
        if cfg.matrix is hp:
            assert want[cfg.k - 1][0] == want[cfg.k][0]
        top = search(cfg)
        assert type(top.pruned) is int
        assert (top.pruned > 0) == (cfg.peptide != "LGGGGGGL")
        assert_same_records(top, want[: cfg.k], visited, "fcc")


@pytest.mark.parametrize("lattice", ["fcc", "tet"])
@pytest.mark.parametrize("nn_level", [1, 2])
def test_prefix_bound_is_admissible(lattice, nn_level):
    # every prefix of N=6 sequences, at every turn: its bound is at or below
    # its best self-avoiding completion, scored by the plain-recursion oracle
    cfg = config(lattice=lattice, peptide="MCMPKH", nn_level=nn_level)
    enum = recursive_fcc_turns if lattice == "fcc" else recursive_tet_turns
    best = {}
    for turns in enum(6):
        energy, collided = oracle_energy(turns, "MCMPKH", lattice, nn_level)
        if collided:
            continue
        for t in range(len(turns)):
            best[turns[: t + 1]] = min(best.get(turns[: t + 1], math.inf), energy)
    tree = search_module._Tree(cfg)
    assert 0 < tree.margin < 1e-6
    prefixes, checked = tree.root(), 0
    for t in range(1, 5):
        prefixes, _, _ = tree.grow(prefixes, t)
        for labels, energy in zip(prefixes[0].T, prefixes[3]):
            key = tuple(labels[: t + 1].tolist())
            assert energy + tree.rest[t + 1] <= best.get(key, math.inf) + tree.margin
            checked += key in best
    assert checked > 0


def test_prefix_of_larger_k():
    small = search(config(peptide="GNLVS", k=5))
    large = search(config(peptide="GNLVS", k=20))
    assert [r.turn_string for r in small.records] == [
        r.turn_string for r in large.records[:5]
    ]


# --- record fields and re-scoring ---


def test_record_fields_roundtrip():
    cfg = config(peptide="KLVFFA", k=12)
    for rec in search(cfg).records:
        assert isinstance(rec, ConformerRecord)
        assert unpack_configuration(rec.bits, 6) == rec.turns
        assert np.array_equal(rec.coords, coords_from_turns(rec.turns))
        assert conformation_energy(rec.turns, "KLVFFA", cfg) == pytest.approx(
            rec.energy, abs=1e-9
        )


def test_tet_record_bits_are_turn_string():
    cfg = config(lattice="tet", peptide="KLVFFA", k=5)
    for rec in search(cfg).records:
        assert rec.bits == rec.turn_string
        assert conformation_energy(rec.turns, "KLVFFA", cfg) == pytest.approx(
            rec.energy, abs=1e-9
        )

