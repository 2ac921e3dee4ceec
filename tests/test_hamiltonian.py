"""Hamiltonian assembly tests.

The geometric oracle (tests/util.py) re-derives every expected value from
the lattice tables and the energy matrix alone; nothing here is copied from
the builder under test.
"""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfold import hamiltonian as ham
from qfold import lattice as lat
from qfold import pb, polyfit, scoring
from qfold.exceptions import EncodingError, ParseError
from util import (
    REFERENCE_LABELS,
    bits_to_mask,
    decodable_masks,
    geometric_fcc_energy,
    json_values,
    mask_to_bits,
    mutated_json,
    objective_diagonal,
    position_polys,
    reference_turn_word,
)


@pytest.fixture(scope="module")
def mj():
    return scoring.load_matrix("mj1996")


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_layout_counts():
    lay = ham.EncodingLayout(6)
    assert lay.n_config_bits == 14
    assert lay.n_ancillas == 10
    assert lay.total_qubits == 24
    for n in range(3, 12):
        lay = ham.EncodingLayout(n)
        assert lay.total_qubits == (4 * n - 10) + (n - 1) * (n - 2) // 2


def test_layout_pairs_lexicographic():
    lay = ham.EncodingLayout(5)
    assert lay.pairs == ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4))
    assert lay.ancilla_qubit(0) == lay.n_config_bits
    assert lay.ancilla_qubit(5) == lay.total_qubits - 1
    for a in (-1, 6):
        with pytest.raises(EncodingError):
            lay.ancilla_qubit(a)


def test_turn_qubits():
    lay = ham.EncodingLayout(6)
    assert tuple(lay.turn_qubits(1)) == (0, 1)
    assert tuple(lay.turn_qubits(2)) == (2, 3, 4, 5)
    assert tuple(lay.turn_qubits(4)) == (10, 11, 12, 13)
    for j in (0, 5):
        with pytest.raises(EncodingError):
            lay.turn_qubits(j)


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------


def test_indicator_selects_exactly_its_codeword():
    lay = ham.EncodingLayout(4)
    ind = ham.indicator_poly(lay, 2, "0000")
    for bits in itertools.product("01", repeat=4):
        group = "".join(bits)
        mask = bits_to_mask("00" + group)
        assert ind.evaluate(mask) == (1.0 if group == "0000" else 0.0)
    ind_0111 = ham.indicator_poly(lay, 2, "0111")
    assert ind_0111.evaluate(bits_to_mask("00" + "0111")) == 1.0


def test_indicators_partition_unity():
    lay = ham.EncodingLayout(4)
    total = pb.PBPolynomial.zero(lay.total_qubits)
    for bits in itertools.product("01", repeat=4):
        total = total + ham.indicator_poly(lay, 2, "".join(bits))
    assert total.terms == {0: 1.0}


def test_indicator_errors():
    lay = ham.EncodingLayout(4)
    assert ham.indicator_poly(lay, 1, "10").evaluate(bits_to_mask("10")) == 1.0
    for j, word in ((0, "0000"), (3, "0000"), (1, "0000"), (2, "00"), (2, "012")):
        with pytest.raises(EncodingError):
            ham.indicator_poly(lay, j, word)


@pytest.mark.parametrize("n_beads", [4, 5])
def test_turn_indicators_match_an_independent_decoder(n_beads):
    # over every configuration, each word's indicator is 1 exactly where the
    # hand-restated decoder reads that word, and the word's label is the one
    # that decoder gives (None for the redundant words)
    lay = ham.EncodingLayout(n_beads)
    nb = lay.n_config_bits
    masks = range(1 << nb)
    turns = [
        lat.unpack_configuration(mask_to_bits(mask, nb), n_beads).turns for mask in masks
    ]
    for j in range(1, n_beads - 1):
        read = [reference_turn_word(mask, j) for mask in masks]
        assert [t[j] for t in turns] == [REFERENCE_LABELS.get(word) for word in read]
        words = lat.turn_words(j)
        assert len(words) == 1 << len(lay.turn_qubits(j))
        cover = np.zeros(1 << nb)
        for word, label in words.items():
            code = word.ljust(4, "0")  # a turn-1 word stands for word + "00"
            table = pb.value_table(ham.indicator_poly(lay, j, word), range(nb))
            np.testing.assert_array_equal(table, [float(r == code) for r in read])
            assert label == REFERENCE_LABELS.get(code)
            cover += table
        np.testing.assert_array_equal(cover, 1.0)


# ---------------------------------------------------------------------------
# positions and distances
# ---------------------------------------------------------------------------


def test_position_examples():
    lay = ham.EncodingLayout(4)
    p1 = position_polys(lay, 1)
    assert [c.evaluate(0) for c in p1] == [1.0, 1.0, 0.0]
    assert all(c.degree() == 0 for c in p1)
    p2 = position_polys(lay, 2)
    assert [c.evaluate(bits_to_mask("100000")) for c in p2] == [2.0, 1.0, 1.0]
    p3 = position_polys(lay, 3)
    assert [c.evaluate(0) for c in p3] == [3.0, 3.0, 0.0]


def test_positions_match_geometry_everywhere():
    n_beads = 4
    lay = ham.EncodingLayout(n_beads)
    polys = [position_polys(lay, m) for m in range(n_beads)]
    for mask, seq in decodable_masks(n_beads):
        coords = lat.coords_from_turns(seq)
        for m in range(n_beads):
            assert [c.evaluate(mask) for c in polys[m]] == list(map(float, coords[m]))


def test_distance_poly_basics():
    lay = ham.EncodingLayout(4)
    assert ham.distance_poly(lay, 0, 1).terms == {0: 2.0}
    d13 = ham.distance_poly(lay, 1, 3)
    assert d13.evaluate(bits_to_mask("000011")) == 0.0  # turn 2 backtracks turn 1
    with pytest.raises(EncodingError):
        ham.distance_poly(lay, 2, 2)


def test_distance_matches_geometry_and_bounds():
    n_beads = 4
    lay = ham.EncodingLayout(n_beads)
    nb = lay.n_config_bits
    masks = decodable_masks(n_beads)
    for m in range(n_beads - 1):
        for n in range(m + 1, n_beads):
            poly = ham.distance_poly(lay, m, n)
            for mask, seq in masks:
                coords = lat.coords_from_turns(seq)
                assert poly.evaluate(mask) == lat.pair_squared_distance(
                    coords, m, n, lat.FCC
                )
            table = pb.value_table(poly, list(range(nb)))
            assert table.max() <= 2 * (n - m) ** 2 + 1e-9
            assert table.min() >= -1e-9


# ---------------------------------------------------------------------------
# H terms
# ---------------------------------------------------------------------------


def test_h_back_values():
    lay = ham.EncodingLayout(4)
    hb = ham.build_h_back(lay)
    assert hb.evaluate(bits_to_mask("000011")) == 50.0  # turns [0, 0, 1]
    assert hb.evaluate(0) == 0.0  # straight chain
    # turn-1 reversal: prefix 01 -> label 9, turn 2 = label 8 (codeword 1000)
    assert hb.evaluate(bits_to_mask("011000")) == 50.0


def test_h_back_zero_on_all_non_backtracking_configs():
    lay = ham.EncodingLayout(5)
    hb = ham.build_h_back(lay)
    for mask, seq in decodable_masks(5):
        backtracks = sum(
            1 for a, b in zip(seq.turns, seq.turns[1:]) if b == lat.inverse_label(a)
        )
        assert hb.evaluate(mask) == pytest.approx(50.0 * backtracks, abs=1e-9)


def test_h_back_locality_eight():
    hb = ham.build_h_back(ham.EncodingLayout(6))
    assert hb.degree() == 8


def test_h_redun_counts_redundant_groups():
    lay = ham.EncodingLayout(5)
    hr = ham.build_h_redun(lay)
    assert hr.evaluate(bits_to_mask("0000100000")) == 50.0  # group 2 holds 0010
    assert hr.evaluate(bits_to_mask("0000100010")) == 100.0  # groups 2 and 3
    for mask, _ in decodable_masks(5):
        assert hr.evaluate(mask) == 0.0


def test_h_int_sign_structure(mj):
    lay = ham.EncodingLayout(4)
    hi = ham.build_h_int(lay, mj, "KLVF", ham.pair_distance_polys(lay))
    eps = scoring.epsilon_table(mj, "KLVF")
    a03 = lay.ancilla_qubit(lay.pairs.index((0, 3)))
    # straight chain: D_{0,3} = 18, every other pair far too; switch a_{0,3} on
    mask = 1 << a03
    assert hi.evaluate(mask) == pytest.approx(eps[0, 3] * (3 - 18))
    assert hi.evaluate(mask) > 0  # attractive eps < 0 penalizes itself off contact
    assert hi.evaluate(0) == 0.0
    # compact conformation with D_{0,2} = 2: reward exactly eps_{0,2}
    for mask, seq in decodable_masks(4):
        coords = lat.coords_from_turns(seq)
        if lat.pair_squared_distance(coords, 0, 2, lat.FCC) == 2:
            a02 = lay.ancilla_qubit(lay.pairs.index((0, 2)))
            assert hi.evaluate(mask | (1 << a02)) == pytest.approx(eps[0, 2])
            break
    else:
        pytest.fail("no configuration with D_{0,2} = 2 found")


def test_h_int_peptide_length_checked(mj):
    lay = ham.EncodingLayout(4)
    with pytest.raises(EncodingError):
        ham.build_h_int(lay, mj, "KLVFF", ham.pair_distance_polys(lay))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_vqec_shape(mj):
    inst = ham.assemble("vqec", "KLVFFA", mj)
    assert inst.mode == "vqec"
    assert len(inst.constraints) == 10
    inst3 = ham.assemble("vqec", "KLV", mj)
    assert len(inst3.constraints) == 1


def test_assemble_polyfit_shape(mj):
    inst = ham.assemble("polyfit", "KLVF", mj)
    assert inst.constraints == ()
    with pytest.raises(EncodingError):
        ham.assemble("vqec", "KLVF", mj, fits=polyfit.fit_family(4))
    with pytest.raises(EncodingError):
        ham.assemble("anneal", "KLVF", mj)


def test_assemble_rejects_fits_at_another_p0(mj):
    # the instance would record p0 = 20 while its objective is the p0 = 50 one
    fits = polyfit.fit_family(5, p0=50.0)
    with pytest.raises(EncodingError, match="p0"):
        ham.assemble("polyfit", "KLVFF", mj, 20.0, fits)
    # the fits of a 4-bead chain lack the 5-bead chain's separation 4
    with pytest.raises(EncodingError, match="separation 4"):
        ham.assemble("polyfit", "KLVFF", mj, 50.0, {3: fits[3]})


def test_assemble_term_counts_klvffa(mj):
    # counts on the canonical multilinear form with the fixed prefix
    # substituted away; the dense construction must stay >= 5x larger
    vqec = ham.assemble("vqec", "KLVFFA", mj)
    dense = ham.assemble("polyfit", "KLVFFA", mj)
    assert vqec.objective.term_count() == 2890
    assert dense.objective.term_count() == 18877
    assert dense.objective.term_count() >= 5 * vqec.objective.term_count()


def _per_pair_reference(mode, layout, peptide, matrix):
    """``assemble`` with every pair's D_mn rebuilt from scratch by ``distance_poly``."""
    n_vars = layout.total_qubits
    eps = scoring.epsilon_table(matrix, peptide)
    objective = ham.build_h_back(layout) + ham.build_h_redun(layout)
    h_int = pb.PBPolynomial.zero(n_vars)
    for a, (m, n) in enumerate(layout.pairs):
        ancilla = pb.PBPolynomial.variable(layout.ancilla_qubit(a), n_vars)
        h_int = h_int + ancilla * (3.0 - ham.distance_poly(layout, m, n)) * float(eps[m, n])
    objective = objective + h_int
    if mode == "vqec":
        return objective, [2.0 - ham.distance_poly(layout, m, n) for m, n in layout.pairs]
    fits = polyfit.fit_family(layout.n_beads)
    for m, n in layout.pairs:
        if n - m >= 3:
            objective = objective + polyfit.build_olap_penalty(
                fits[n - m], ham.distance_poly(layout, m, n)
            )
    return objective, []


@pytest.mark.parametrize("peptide", ["KLV", "KLVF", "GNLVS", "KLVFFA"])
@pytest.mark.parametrize("mode", ["vqec", "polyfit"])
def test_assemble_equals_per_pair_distances(mj, mode, peptide):
    layout = ham.EncodingLayout(len(peptide))
    objective, constraints = _per_pair_reference(mode, layout, peptide, mj)
    inst = ham.assemble(mode, peptide, mj)
    assert inst.objective == objective
    assert list(inst.constraints) == constraints


@pytest.mark.parametrize("mode", ["vqec", "polyfit"])
def test_assemble_builds_each_pair_distance_once(mj, monkeypatch, mode):
    built = []

    def counted(pos_m, pos_n):
        built.append((pos_m, pos_n))
        return squared_distance(pos_m, pos_n)

    squared_distance = ham._squared_distance
    monkeypatch.setattr(ham, "_squared_distance", counted)
    layout = ham.EncodingLayout(5)
    ham.assemble(mode, "KLVFF", mj)
    assert len(built) == len(layout.pairs) == 6
    # one per pair: no two calls share both bead positions
    assert len({(id(a), id(b)) for a, b in built}) == len(built)


def test_constraints_equal_two_minus_distance(mj):
    lay = ham.EncodingLayout(4)
    inst = ham.assemble("vqec", "KLVF", mj)
    for mask, seq in decodable_masks(4):
        coords = lat.coords_from_turns(seq)
        for (m, n), poly in zip(lay.pairs, inst.constraints):
            expect = 2.0 - lat.pair_squared_distance(coords, m, n, lat.FCC)
            assert poly.evaluate(mask) == pytest.approx(expect, abs=1e-9)


def test_valid_saw_invariant(mj):
    # on every valid self-avoiding configuration the structural terms vanish
    # and each composed overlap penalty stays within 5% of P0 of zero
    lay = ham.EncodingLayout(4)
    hb = ham.build_h_back(lay)
    hr = ham.build_h_redun(lay)
    fits = polyfit.fit_family(4)
    olap = {
        (m, n): polyfit.build_olap_penalty(fits[n - m], ham.distance_poly(lay, m, n))
        for m, n in lay.pairs
        if n - m >= 3
    }
    eps = scoring.epsilon_table(mj, "KLVF")
    for mask, seq in decodable_masks(4):
        _, valid = geometric_fcc_energy(seq, eps)
        backtrack = any(b == lat.inverse_label(a) for a, b in zip(seq.turns, seq.turns[1:]))
        if not valid or backtrack:
            continue
        assert hb.evaluate(mask) == pytest.approx(0.0, abs=1e-9)
        assert hr.evaluate(mask) == pytest.approx(0.0, abs=1e-9)
        for poly in olap.values():
            assert abs(poly.evaluate(mask)) <= 2.5


def pauli_z_term_count(poly):
    """Terms of ``poly`` once every q_i is written as (1 - Z_i) / 2."""
    table = np.zeros(1 << poly.n_vars)
    table[np.fromiter(poly.terms, dtype=np.int64)] = list(poly.terms.values())
    for i in range(poly.n_vars):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 0, :] += view[:, 1, :] / 2
        view[:, 1, :] /= -2
    return int(np.count_nonzero(np.abs(table) >= pb.COEFF_EPS))


def test_pauli_term_counts_match_the_reference(mj):
    # criterion 6 counts 0/1 monomials (18877 polyfit, 2890 vqec); the
    # reference counts Pauli Z strings of the same Hamiltonians
    counts = [
        pauli_z_term_count(ham.assemble(mode, "KLVFFA", mj).objective)
        for mode in ("polyfit", "vqec")
    ]
    assert counts == [18133, 2199]


def test_eight_beads_fill_the_value_table_and_nine_overflow():
    # polyfit builds compose each pair's penalty on a dense value table
    for n_beads, widest in ((8, pb.MAX_TABLE_VARS), (9, pb.MAX_TABLE_VARS + 4)):
        distances = ham.pair_distance_polys(ham.EncodingLayout(n_beads))
        assert max(len(d.support()) for d in distances.values()) == widest


@pytest.mark.parametrize("n_beads", [4, 5])
def test_composed_penalties_equal_the_fit_at_the_geometric_distance(n_beads):
    lay = ham.EncodingLayout(n_beads)
    fits = polyfit.fit_family(n_beads)
    decodable = decodable_masks(n_beads)
    masks = np.array([mask for mask, _ in decodable])
    coords = lat.fcc_coords([seq.turns for _, seq in decodable])
    for m, n in lay.pairs:
        if n - m < 3:
            continue
        penalty = polyfit.build_olap_penalty(fits[n - m], ham.distance_poly(lay, m, n))
        values = pb.value_table(penalty, range(lay.n_config_bits))[masks]
        squared = ((coords[:, n] - coords[:, m]) ** 2).sum(axis=1)
        np.testing.assert_allclose(values, fits[n - m].evaluate(squared), rtol=0, atol=1e-9)


def test_ground_truth_equivalence_n4(mj):
    # minimum of the dense objective (ancillas optimal) over valid
    # configurations equals the oracle minimum within the fit residual,
    # and the unrestricted argmin decodes to an oracle ground state
    pep = "KLVF"
    inst = ham.assemble("polyfit", pep, mj)
    tables = ham.InstanceTables(inst)
    energies = tables.ancilla_optimal_energies()
    eps = scoring.epsilon_table(mj, pep)

    oracle = {}
    for mask, seq in decodable_masks(4):
        e, valid = geometric_fcc_energy(seq, eps)
        if valid:
            oracle[mask] = e
    e_star = min(oracle.values())
    # the KLVF ground realizes all three pair contacts at once
    assert e_star == pytest.approx(eps[0, 2] + eps[0, 3] + eps[1, 3])

    valid_masks = np.array(sorted(oracle))
    assert abs(energies[valid_masks].min() - e_star) <= 2.5
    argmin = int(np.argmin(energies))
    assert argmin in oracle
    assert oracle[argmin] == pytest.approx(e_star)


def test_instance_tables_match_brute_force(mj):
    inst = ham.assemble("polyfit", "KLVF", mj)
    tables = ham.InstanceTables(inst)
    nb = inst.layout.n_config_bits
    full = objective_diagonal(inst).reshape(-1, 1 << nb)
    np.testing.assert_allclose(
        full.min(axis=0), tables.ancilla_optimal_energies(), atol=1e-9
    )
    # spot-check individual assignments
    rng = np.random.default_rng(7)
    for mask in rng.integers(0, 1 << inst.n_qubits, size=20):
        assert full.flat[mask] == pytest.approx(
            inst.objective.evaluate(int(mask)), abs=1e-9
        )


def test_instance_tables_reject_coupled_ancillas(mj):
    inst = ham.assemble("polyfit", "KLVF", mj)
    a, b = inst.layout.ancilla_qubit(0), inst.layout.ancilla_qubit(1)
    coupled = inst.objective + pb.PBPolynomial.from_terms(
        [([a, b], 1.0)], inst.objective.n_vars
    )
    broken = ham.ProblemInstance(
        layout=inst.layout,
        mode=inst.mode,
        peptide=inst.peptide,
        matrix_name=inst.matrix_name,
        p0=inst.p0,
        objective=coupled,
    )
    with pytest.raises(EncodingError):
        ham.InstanceTables(broken)


def test_instance_json_roundtrip(mj):
    for mode in ("polyfit", "vqec"):
        inst = ham.assemble(mode, "KLVF", mj)
        back = ham.ProblemInstance.from_json(inst.to_json())
        assert back.mode == inst.mode
        assert back.peptide == inst.peptide
        assert back.layout == inst.layout
        assert back.p0 == inst.p0
        assert back.objective == inst.objective
        assert back.constraints == inst.constraints
    with pytest.raises(EncodingError):
        ham.ProblemInstance.from_json('{"version": 99}')
    # a layout of another length than the peptide, and a weight no writer sets
    for path, value, message in [(("layout", "n_beads"), 5, "n_beads"),
                                 (("penalties", "lam_back"), 40.0, "fixed"),
                                 (("penalties", "lam_redun"), 50.5, "fixed")]:
        doc = json.loads(inst.to_json())
        doc[path[0]][path[1]] = value
        with pytest.raises(ParseError, match=message):
            ham.ProblemInstance.from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["", "[]", '{"version": 1}', "{", "NaN"])
def test_instance_from_json_malformed_raises_parse_error(text):
    with pytest.raises(ParseError):
        ham.ProblemInstance.from_json(text)


def test_instance_from_json_coefficient_beyond_float_raises_parse_error():
    doc = json.loads(klvf_instance_texts()[0])
    doc["objective"][0][1] = 10**400
    with pytest.raises(ParseError):
        ham.ProblemInstance.from_json(json.dumps(doc))


@functools.lru_cache(maxsize=1)
def klvf_instance_texts():
    mj = scoring.load_matrix("mj1996")
    return tuple(
        ham.assemble(mode, "KLVF", mj).to_json()
        for mode in ham.MODES
    )


INSTANCE_PATHS = [
    ("version",), ("mode",), ("peptide",), ("matrix",), ("layout",),
    ("layout", "n_beads"), ("penalties",), ("penalties", "p0"), ("n_vars",),
    ("objective",), ("objective", 0), ("objective", 0, 0), ("objective", 0, 1),
    ("constraints",),
]


@st.composite
def instance_texts(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(max_size=40))
    if kind == 1:
        return json.dumps(draw(json_values))
    return mutated_json(draw, draw(st.sampled_from(klvf_instance_texts())), INSTANCE_PATHS)


@settings(max_examples=150, deadline=None)
@given(instance_texts())
def test_instance_json_round_trips_or_raises(text):
    try:
        inst = ham.ProblemInstance.from_json(text)
    except (ParseError, EncodingError):
        return
    canonical = inst.to_json()
    assert ham.ProblemInstance.from_json(canonical).to_json() == canonical
