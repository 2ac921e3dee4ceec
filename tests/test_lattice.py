"""Turn encoding and integer geometry tests.

Expected values for the codeword table and the decode examples were frozen
from an independent hand-decoding of the twelve direction codewords.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfold import lattice as lat
from qfold.exceptions import EncodingError

# ---------------------------------------------------------------------------
# codeword table
# ---------------------------------------------------------------------------


def test_codeword_table_is_a_bijection_over_16():
    redundant = {word for word, label in lat.turn_words(2).items() if label is None}
    all_codes = set(lat.FCC_CODEWORDS) | redundant
    assert len(lat.FCC_CODEWORDS) == 12
    assert redundant == {"0010", "0001", "1101", "1110"}
    assert len(all_codes) == 16
    assert all_codes == {"".join(b) for b in itertools.product("01", repeat=4)}


def test_direction_vectors_are_the_twelve_fcc_neighbours():
    vecs = {tuple(v) for v in lat.FCC_VECTORS}
    expected = {
        p for p in itertools.product((-1, 0, 1), repeat=3) if sum(x * x for x in p) == 2
    }
    assert vecs == expected
    assert len(vecs) == 12


def test_inverse_label_flips_low_bit_and_negates_vector():
    for label in range(12):
        inv = lat.inverse_label(label)
        assert inv == label ^ 1
        assert (lat.FCC_VECTORS[label] == -lat.FCC_VECTORS[inv]).all()


def test_decode_turn_examples():
    assert lat.FCC_CODEWORDS.index("0000") == 0
    assert lat.FCC_CODEWORDS.index("1011") == 10
    assert lat.turn_words(2)["0010"] is None
    assert lat.turn_words(3)["0001"] is None


def test_encode_decode_roundtrip():
    for label in range(12):
        assert lat.FCC_CODEWORDS.index(lat.encode_turn(label)) == label
    with pytest.raises(EncodingError):
        lat.encode_turn(12)


def test_second_turn_labels_come_from_prefix_codewords():
    for bits, label in zip(("00", "01", "10", "11"), lat.SECOND_TURN_LABELS):
        assert lat.FCC_CODEWORDS.index(bits + "00") == label


# ---------------------------------------------------------------------------
# configuration bitstrings
# ---------------------------------------------------------------------------


def test_config_bit_count():
    assert lat.n_config_bits(3) == 2
    assert lat.n_config_bits(6) == 14
    with pytest.raises(EncodingError):
        lat.n_config_bits(2)


def test_unpack_examples():
    assert lat.unpack_configuration("10", 3).turns == (0, 8)
    assert lat.unpack_configuration("001011", 4).turns == (0, 0, 10)
    seq = lat.unpack_configuration("000010", 4)
    assert seq.turns == (0, 0, None)
    assert seq.redundant_positions == (2,)
    assert not seq.is_decodable
    assert seq.to_string() == "00x"


def test_unpack_length_mismatch():
    with pytest.raises(EncodingError):
        lat.unpack_configuration("0000", 4)
    with pytest.raises(EncodingError):
        lat.unpack_configuration("00102x", 4)


def test_pack_unpack_identity_over_all_small_configs():
    for n_beads in (3, 4, 5):
        nb = lat.n_config_bits(n_beads)
        for x in range(1 << nb):
            bits = "".join(str((x >> i) & 1) for i in range(nb))
            seq = lat.unpack_configuration(bits, n_beads)
            if seq.is_decodable:
                assert lat.pack_configuration(seq) == bits


def test_pack_rejects_unreachable_turn1():
    with pytest.raises(EncodingError):
        lat.pack_configuration(lat.TurnSequence(lat.FCC, (0, 4, 0)))
    with pytest.raises(EncodingError):
        lat.pack_configuration(lat.TurnSequence(lat.FCC, (1, 0, 0)))


@pytest.mark.parametrize(
    "seq",
    [lat.TurnSequence(lat.TET, (0, 1, 2)), lat.TurnSequence(lat.FCC, (0,)),
     lat.TurnSequence(lat.FCC, (0, None, 3))],
    ids=["tet", "one-turn", "redundant-turn"],
)
def test_pack_rejects_what_has_no_configuration_bits(seq):
    with pytest.raises(EncodingError):
        lat.pack_configuration(seq)


# ---------------------------------------------------------------------------
# geometry: FCC
# ---------------------------------------------------------------------------


def test_coords_example():
    seq = lat.turns_from_string("08", lat.FCC)
    np.testing.assert_array_equal(
        lat.coords_from_turns(seq), [[0, 0, 0], [1, 1, 0], [2, 1, 1]]
    )


def test_coords_rejects_redundant():
    with pytest.raises(EncodingError):
        lat.coords_from_turns(lat.TurnSequence(lat.FCC, (0, None)))


fcc_turns = st.lists(st.integers(0, 11), min_size=1, max_size=12).map(
    lambda ts: lat.TurnSequence(lat.FCC, tuple(ts))
)


@given(fcc_turns)
def test_fcc_bead_parity_stays_even(seq):
    coords = lat.coords_from_turns(seq)
    assert (coords.sum(axis=1) % 2 == 0).all()


@given(fcc_turns)
def test_fcc_steps_are_table_vectors(seq):
    coords = lat.coords_from_turns(seq)
    table = {tuple(v) for v in lat.FCC_VECTORS}
    for step in np.diff(coords, axis=0):
        assert tuple(step) in table


@given(fcc_turns)
def test_distance_matrix_agrees_with_pairwise(seq):
    coords = lat.coords_from_turns(seq)
    mat = lat.squared_distance_matrix(coords, lat.FCC)
    n = coords.shape[0]
    for i in range(n):
        for j in range(n):
            assert mat[i, j] == lat.pair_squared_distance(coords, i, j, lat.FCC)


@given(fcc_turns)
def test_fcc_pair_distance_bounds_and_parity(seq):
    coords = lat.coords_from_turns(seq)
    n = coords.shape[0]
    for i in range(n - 1):
        for j in range(i + 1, n):
            d2 = lat.pair_squared_distance(coords, i, j, lat.FCC)
            assert d2 % 2 == 0
            assert d2 <= 2 * (j - i) ** 2


# ---------------------------------------------------------------------------
# geometry: tetrahedral
# ---------------------------------------------------------------------------


def test_tet_repeating_label_backtracks():
    seq = lat.TurnSequence(lat.TET, (0, 0, 1, 1))
    coords = lat.coords_from_turns(seq)
    np.testing.assert_array_equal(coords[2], coords[0])
    np.testing.assert_array_equal(coords[4], coords[2])


tet_turns = st.lists(st.integers(0, 3), min_size=1, max_size=14).map(
    lambda ts: lat.TurnSequence(lat.TET, tuple(ts))
)


@settings(max_examples=60)
@given(tet_turns)
def test_tet_distance_equals_signed_direction_counts(seq):
    # independent route: d^2 = sum_t n_t^2 with n_t the signed count of
    # direction t used between the two beads
    coords = lat.coords_from_turns(seq)
    n = coords.shape[0]
    for i in range(n - 1):
        for j in range(i + 1, n):
            counts = np.zeros(4, dtype=int)
            for k in range(i, j):
                counts[seq.turns[k]] += 1 if k % 2 == 0 else -1
            d2 = lat.pair_squared_distance(coords, i, j, lat.TET)
            assert d2 == int((counts**2).sum())
            assert d2 == lat.squared_distance_matrix(coords, lat.TET)[i, j]


def test_tet_shell_distances():
    seq = lat.TurnSequence(lat.TET, (0, 1))
    coords = lat.coords_from_turns(seq)
    assert lat.pair_squared_distance(coords, 0, 1, lat.TET) == 1
    assert lat.pair_squared_distance(coords, 0, 2, lat.TET) == 2


# ---------------------------------------------------------------------------
# strings
# ---------------------------------------------------------------------------


def test_turn_string_roundtrip():
    seq = lat.TurnSequence(lat.FCC, (0, 9, 10, 11, 3))
    assert lat.turns_from_string(seq.to_string(), lat.FCC) == seq
    tseq = lat.TurnSequence(lat.TET, (0, 1, 2, 3))
    assert lat.turns_from_string(tseq.to_string(), lat.TET) == tseq
    # a redundant FCC group reads back as None
    redundant = lat.turns_from_string("0x3", lat.FCC)
    assert redundant == lat.TurnSequence(lat.FCC, (0, None, 3))
    assert redundant.to_string() == "0x3"
    with pytest.raises(EncodingError):
        lat.turns_from_string("0c", lat.FCC)
    with pytest.raises(EncodingError):
        lat.turns_from_string("04", lat.TET)


@pytest.mark.parametrize("lattice, n_labels", [(lat.FCC, 12), (lat.TET, 4)])
def test_stacked_geometry_equals_each_chain(lattice, n_labels):
    rng = np.random.default_rng(n_labels)
    seqs = [
        lat.TurnSequence(lattice, tuple(int(t) for t in rng.integers(0, n_labels, 5)))
        for _ in range(8)
    ]
    chains = np.stack([lat.coords_from_turns(seq) for seq in seqs])
    if lattice == lat.FCC:
        assert np.array_equal(lat.fcc_coords([seq.turns for seq in seqs]), chains)
    stacked = lat.squared_distance_matrix(chains, lattice)
    for chain, squared in zip(chains, stacked):
        assert np.array_equal(squared, lat.squared_distance_matrix(chain, lattice))
