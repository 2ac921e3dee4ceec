"""Decoding, structure metrics, and the on-disk formats."""

import collections
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfold.analysis import (
    BOND_ANGSTROMS,
    DecodedEnsemble,
    ShotTable,
    TopobjDocument,
    TopobjRecord,
    decode_samples,
    energy_probability_report,
    lattice_scale,
    parse_topobj,
    radius_of_gyration,
    scaled_coords,
    topobj_text,
    write_topobj,
    write_xyz,
    xyz_text,
)
from qfold.exceptions import EmptyStructureError, EncodingError, ParseError
from qfold.lattice import (
    EncodingLayout,
    coords_from_turns,
    pair_squared_distance,
    turns_from_string,
    unpack_configuration,
)
from qfold.scoring import load_masses, load_matrix
from qfold.search import SearchConfig, conformation_energy, search, squared_distance_scorer
from util import kabsch_rmsd, parse_xyz

MJ = load_matrix("mj1996")
LAYOUT4 = EncodingLayout(4)
LAYOUT5 = EncodingLayout(5)


klvf_energy = squared_distance_scorer(SearchConfig("fcc", "KLVF", MJ))
klvff_energy = squared_distance_scorer(SearchConfig("fcc", "KLVFF", MJ))


def shots_of(counts):
    return ShotTable(counts=dict(counts), shots=sum(counts.values()))


# --- decoding ---


def test_decode_straight_chain():
    ensemble = decode_samples(shots_of({"0" * 9: 8}), LAYOUT4, klvf_energy)
    assert len(ensemble.entries) == 1
    entry = ensemble.modal
    assert entry.turn_string == "000"
    assert entry.probability == 1.0
    assert entry.energy == 0.0
    assert entry.valid
    assert ensemble.valid_probability == 1.0


def test_decode_aggregates_over_ancillas():
    # same configuration under two ancilla patterns collapses to one entry
    shots = shots_of({"011111" + "000": 3, "011111" + "101": 5})
    ensemble = decode_samples(shots, LAYOUT4, klvf_energy)
    assert len(ensemble.entries) == 1
    assert ensemble.modal.turn_string == "093"
    assert ensemble.modal.probability == 1.0
    assert ensemble.modal.energy == pytest.approx(-13.13)


def test_decode_sorting_and_conservation():
    shots = shots_of(
        {
            "011111" + "000": 6,
            "000000" + "000": 3,
            "000000" + "111": 3,
            "110101" + "010": 4,
        }
    )
    ensemble = decode_samples(shots, LAYOUT4, klvf_energy, e_star=-13.13)
    assert ensemble.e_star == -13.13
    assert [e.turn_string for e in ensemble.entries] == ["000", "093", "025"]
    probs = [e.probability for e in ensemble.entries]
    assert probs == [6 / 16, 6 / 16, 4 / 16]
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    # descending probability with the tie broken by turn string
    assert ensemble.modal.turn_string == "000"


def test_decode_flags_redundant():
    ensemble = decode_samples(shots_of({"000010" + "000": 1}), LAYOUT4, klvf_energy)
    entry = ensemble.modal
    assert entry.redundant
    assert entry.energy is None
    assert not entry.valid
    assert ensemble.valid_probability == 0.0


def test_decode_flags_backtrack():
    # turns 001: the third step reverses the second, beads 1 and 3 coincide
    ensemble = decode_samples(shots_of({"000011" + "000": 1}), LAYOUT4, klvf_energy)
    entry = ensemble.modal
    assert entry.turn_string == "001"
    assert entry.backtrack
    assert not entry.overlap
    assert not entry.redundant
    assert entry.energy == pytest.approx(9996.64)
    assert not entry.valid


def test_decode_flags_overlap():
    # turns 0970 closes a rhombus: beads 0 and 3 coincide without a backtrack
    bits = "0101100000" + "0" * 6
    ensemble = decode_samples(shots_of({bits: 2}), LAYOUT5, klvff_energy)
    entry = ensemble.modal
    assert entry.turn_string == "0970"
    assert entry.overlap
    assert not entry.backtrack
    assert entry.energy == pytest.approx(19980.58)


def loop_flags(seq):
    """The former pairwise loops: (backtrack, overlap) of a decodable sequence."""
    coords = coords_from_turns(seq)
    n = coords.shape[0]
    backtrack = any(np.array_equal(coords[i], coords[i + 2]) for i in range(n - 2))
    overlap = any(
        np.array_equal(coords[i], coords[j])
        for i in range(n - 3)
        for j in range(i + 3, n)
    )
    return backtrack, overlap


def test_decode_flags_equal_pairwise_loops():
    shots = shots_of({format(m, "09b"): 1 for m in range(1 << 9)})
    ensemble = decode_samples(shots, LAYOUT4, klvf_energy)
    assert len(ensemble.entries) == 1 << LAYOUT4.n_config_bits
    seen = set()
    for entry in ensemble.entries:
        if entry.redundant:
            assert not entry.backtrack and not entry.overlap
            continue
        seen.add(loop_flags(entry.turns))
        assert (entry.backtrack, entry.overlap) == loop_flags(entry.turns)
    assert seen == {(False, False), (True, False), (False, True)}


def test_decode_rejects_wrong_width():
    with pytest.raises(EncodingError):
        decode_samples(shots_of({"000000": 1}), LAYOUT4, klvf_energy)


# --- structure metrics ---


def test_lattice_scales():
    assert lattice_scale("fcc") == pytest.approx(BOND_ANGSTROMS / math.sqrt(2.0))
    assert lattice_scale("tet") == pytest.approx(BOND_ANGSTROMS / math.sqrt(3.0))
    with pytest.raises(EncodingError):
        lattice_scale("bcc")


def test_rg_simple_cases():
    assert radius_of_gyration([[1.0, 2.0, 3.0]]) == 0.0
    dumbbell = [[0.0, 0.0, 0.0], [6.0, 0.0, 0.0]]
    assert radius_of_gyration(dumbbell) == pytest.approx(3.0)
    weighted = radius_of_gyration(
        [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]], masses=[1.0, 3.0]
    )
    assert weighted == pytest.approx(math.sqrt(3.0))


def test_rg_invariances():
    rng = np.random.default_rng(8)
    coords = rng.normal(size=(7, 3))
    base = radius_of_gyration(coords)
    assert radius_of_gyration(coords + [5.0, -2.0, 9.0]) == pytest.approx(base)
    theta = 0.7
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert radius_of_gyration(coords @ rot.T) == pytest.approx(base)
    assert radius_of_gyration(2.0 * coords) == pytest.approx(2.0 * base)


def test_rg_extended_chain_closed_form():
    coords = scaled_coords(turns_from_string("00000", "fcc"))
    want = BOND_ANGSTROMS * math.sqrt(17.5 / 6.0)
    assert radius_of_gyration(coords) == pytest.approx(want, abs=1e-12)


def test_rg_compact_fold_below_extended():
    topk = search(SearchConfig("fcc", "KLVFFA", MJ, k=1))
    compact = radius_of_gyration(scaled_coords(topk.records[0].turns))
    extended = BOND_ANGSTROMS * math.sqrt(17.5 / 6.0)
    assert compact < extended


def test_rg_of_a_stack_equals_each_structure():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(4, 6, 3))
    masses = rng.uniform(50.0, 200.0, size=6)
    radii = radius_of_gyration(stack, masses)
    assert radii.tolist() == [radius_of_gyration(c, masses) for c in stack]
    with pytest.raises(EncodingError):
        radius_of_gyration(stack, masses[:5])


def test_rg_errors():
    with pytest.raises(EmptyStructureError):
        radius_of_gyration(np.empty((0, 3)))
    with pytest.raises(EncodingError):
        radius_of_gyration([[0.0, 0.0, 0.0]], masses=[1.0, 2.0])
    with pytest.raises(EncodingError):
        radius_of_gyration([[0.0, 0.0, 0.0]], masses=[0.0])


def test_kabsch_identity_and_rigid_motions():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(6, 3))
    assert kabsch_rmsd(coords, coords) == pytest.approx(0.0, abs=1e-12)
    for seed in range(5):
        q = np.random.default_rng(seed).normal(size=4)
        w, x, y, z = q / np.linalg.norm(q)
        rot = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        moved = coords @ rot.T + [1.0, -4.0, 2.5]
        assert kabsch_rmsd(coords, moved) == pytest.approx(0.0, abs=1e-9)


def test_kabsch_symmetry():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    assert kabsch_rmsd(a, b) == pytest.approx(kabsch_rmsd(b, a), abs=1e-12)


def test_kabsch_planar_mirror_superposes():
    # a planar shape and its mirror differ only by a proper rotation
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    b = a.copy()
    b[:, 2] *= -1.0
    b[:, 1] *= -1.0
    assert kabsch_rmsd(a, b) == pytest.approx(0.0, abs=1e-12)


def test_kabsch_chiral_mirror_positive():
    a = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    b = a.copy()
    b[:, 0] *= -1.0
    value = kabsch_rmsd(a, b)
    assert value == pytest.approx(0.5, abs=1e-9)
    # no sampled proper rotation does better than the closed-form optimum
    rng = np.random.default_rng(0)
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    for _ in range(500):
        w, x, y, z = rng.normal(size=4) / np.linalg.norm(rng.normal(size=4))
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        rot = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        diff = ac @ rot.T - bc
        sampled = math.sqrt(float(np.einsum("ij,ij->", diff, diff)) / 4.0)
        assert value <= sampled + 1e-9


def test_kabsch_errors():
    with pytest.raises(EncodingError):
        kabsch_rmsd(np.zeros((3, 3)), np.zeros((4, 3)))
    with pytest.raises(EmptyStructureError):
        kabsch_rmsd(np.empty((0, 3)), np.empty((0, 3)))


# --- XYZ ---


def test_scaled_coords_requires_lattice_for_arrays():
    raw = np.array([[0, 0, 0], [1, 1, 0]])
    scaled = scaled_coords(raw, lattice="fcc")
    assert scaled[1][0] == pytest.approx(BOND_ANGSTROMS / math.sqrt(2.0))
    with pytest.raises(EncodingError):
        scaled_coords(raw)


def test_xyz_two_beads_exact_text():
    text = write_xyz(turns_from_string("0", "fcc"), "KL")
    assert text == (
        "2\n"
        "fcc lattice chain, bonds 3.8 A\n"
        "K 0.000000 0.000000 0.000000\n"
        "L 2.687006 2.687006 0.000000\n"
    )


def test_xyz_bond_lengths():
    for lattice, turn_string, peptide in [
        ("fcc", "093", "KLVF"),
        ("tet", "01201", "KLVFFA"),
    ]:
        seq = turns_from_string(turn_string, lattice)
        peptide_back, coords, _ = parse_xyz(write_xyz(seq, peptide))
        assert peptide_back == peptide
        steps = np.diff(coords, axis=0)
        for step in steps:
            assert np.linalg.norm(step) == pytest.approx(BOND_ANGSTROMS, abs=1e-6)


def test_xyz_round_trip_bytes():
    seq = turns_from_string("093", "fcc")
    written = xyz_text("KLVF", scaled_coords(seq), "ground fold")
    for text in (write_xyz(seq, "KLVF"), written):
        peptide, coords, comment = parse_xyz(text)
        assert comment == text.splitlines()[1]
        assert xyz_text(peptide, coords, comment) == text


def test_xyz_errors():
    with pytest.raises(EncodingError):
        xyz_text("KL", np.zeros((3, 3)), "c")
    with pytest.raises(EncodingError):
        xyz_text("KL", np.zeros((2, 3)), "two\nlines")
    with pytest.raises(ParseError):
        parse_xyz("1\n")
    with pytest.raises(ParseError):
        parse_xyz("x\ncomment\nK 0 0 0\n")
    with pytest.raises(ParseError):
        parse_xyz("2\ncomment\nK 0 0 0\n")
    with pytest.raises(ParseError):
        parse_xyz("1\ncomment\nK 0 zero 0\n")
    with pytest.raises(ParseError):
        parse_xyz("1\ncomment\nLYS 0 0 0\n")


# --- topobj ---


def test_topobj_round_trip_bytes():
    topk = search(SearchConfig("fcc", "KLVF", MJ, k=5))
    text = write_topobj(topk, lattice="fcc", peptide="KLVF")
    document = parse_topobj(text)
    assert document.lattice == "fcc"
    assert document.peptide == "KLVF"
    assert len(document.records) == 5
    assert topobj_text(document) == text


def test_topobj_records_match_search():
    topk = search(SearchConfig("fcc", "KLVF", MJ, k=3))
    document = parse_topobj(write_topobj(topk, lattice="fcc", peptide="KLVF"))
    scale = lattice_scale("fcc")
    for rec, parsed in zip(topk.records, document.records):
        assert parsed.energy == rec.energy
        assert parsed.turn_string == rec.turn_string
        assert parsed.bits == rec.bits
        assert parsed.coords_angstrom == pytest.approx(rec.coords * scale, abs=1e-6)
    assert document.records[0].turn_string == "093"
    assert document.records[0].energy == pytest.approx(-13.13)


def test_topobj_tet_omits_bits():
    topk = search(SearchConfig("tet", "KLVFFA", MJ, k=2))
    text = write_topobj(topk, lattice="tet", peptide="KLVFFA")
    assert "bits" not in text
    document = parse_topobj(text)
    assert all(rec.bits is None for rec in document.records)
    assert document.records[0].turn_string == "01201"
    assert topobj_text(document) == text


def test_topobj_empty_document():
    document = TopobjDocument(lattice="fcc", peptide="KLVF", records=())
    text = topobj_text(document)
    assert text == "topobj lattice=fcc peptide=KLVF\n"
    parsed = parse_topobj(text)
    assert parsed.records == ()


@pytest.mark.parametrize("text", ["", "\n\n", "  \n"])
def test_topobj_blank_text_rejected(text):
    with pytest.raises(ParseError):
        parse_topobj(text)


def test_topobj_parse_errors():
    with pytest.raises(ParseError):
        parse_topobj("nonsense header\n")
    with pytest.raises(ParseError):
        parse_topobj("topobj lattice=hex peptide=KLVF\n")
    good = "topobj lattice=fcc peptide=KLVF\n"
    with pytest.raises(ParseError):
        parse_topobj(good + "\nturns 093\nenergy -1\n")
    with pytest.raises(ParseError):
        parse_topobj(good + "\nenergy x\nturns 093\n")
    with pytest.raises(ParseError):
        parse_topobj(good + "\nenergy -1.0\nturns 093\n0 0 0\n")
    descending = (
        good
        + "\nenergy -1.0\nturns 0\n0 0 0\n1 1 1\n"
        + "\nenergy -2.0\nturns 0\n0 0 0\n1 1 1\n"
    )
    with pytest.raises(ParseError):
        parse_topobj(descending)


# --- energy-probability report ---


def test_report_single_entry():
    ensemble = decode_samples(shots_of({"0" * 9: 4}), LAYOUT4, klvf_energy)
    text, _ = energy_probability_report(ensemble)
    lines = text.splitlines()
    assert lines[0].split("\t") == [
        "energy",
        "probability",
        "cumulative",
        "turns",
        "rg_angstrom",
        "ground",
        "flags",
    ]
    fields = lines[1].split("\t")
    assert fields[0] == "0.000000"
    assert fields[1] == "1.000000"
    assert fields[2] == "1.000000"
    assert fields[3] == "000"
    assert fields[5] == ""
    assert fields[6] == "ok"


def test_report_orders_by_energy_and_marks_ground():
    shots = shots_of(
        {
            "000000" + "000": 5,
            "011111" + "000": 3,
            "000010" + "000": 2,
        }
    )
    ensemble = decode_samples(shots, LAYOUT4, klvf_energy, e_star=-13.13)
    text, doc = energy_probability_report(ensemble, peptide="KLVF")
    lines = text.splitlines()[1:]
    assert len(lines) == 3
    first = lines[0].split("\t")
    assert first[3] == "093"
    assert first[5] == "*"
    second = lines[1].split("\t")
    assert second[3] == "000"
    assert second[5] == ""
    last = lines[2].split("\t")
    assert last[0] == ""
    assert last[6] == "redundant"
    cumulative = [float(line.split("\t")[2]) for line in lines]
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == pytest.approx(1.0)

    payload = json.loads(doc)
    assert payload["e_star"] == -13.13
    assert [row["turns"] for row in payload["rows"]] == ["093", "000", "00x"]
    assert payload["rows"][0]["ground"] is True
    assert payload["rows"][2]["energy"] is None


def test_report_flags_composites():
    shots = shots_of({"000011" + "000": 1})
    ensemble = decode_samples(shots, LAYOUT4, klvf_energy)
    text, _ = energy_probability_report(ensemble)
    assert text.splitlines()[1].split("\t")[6] == "backtrack"


def test_report_uses_ensemble_e_star():
    shots = shots_of({"011111" + "000": 1})
    ensemble = decode_samples(shots, LAYOUT4, klvf_energy, e_star=-13.13)
    text, doc = energy_probability_report(ensemble)
    assert json.loads(doc)["e_star"] == -13.13
    assert text.splitlines()[1].split("\t")[5] == "*"


# --- decoding once per configuration ---


def _per_entry_reference(shots, peptide, masses):
    """Decode every distinct configuration on its own, from its turns."""
    n_beads = len(peptide)
    config = SearchConfig("fcc", peptide, MJ)
    n_config = EncodingLayout(n_beads).n_config_bits
    counts = collections.Counter()
    for bits, count in shots.counts.items():
        counts[bits[:n_config]] += count
    reference = {}
    for bits, count in counts.items():
        seq = unpack_configuration(bits, n_beads)
        row = {"probability": count / shots.shots, "energy": None, "rg": None,
               "redundant": not seq.is_decodable, "backtrack": False, "overlap": False}
        if seq.is_decodable:
            coords = coords_from_turns(seq)
            for i in range(n_beads):
                for j in range(i + 2, n_beads):
                    if pair_squared_distance(coords, i, j, "fcc") == 0:
                        row["backtrack" if j == i + 2 else "overlap"] = True
            row["energy"] = conformation_energy(seq, peptide, config)
            row["rg"] = radius_of_gyration(scaled_coords(seq), masses)
        reference.setdefault(seq.to_string(), []).append(row)
    return reference


@pytest.mark.parametrize("peptide", ["KLVFF", "KLVFFA"])
def test_decode_and_report_match_the_per_entry_path(peptide):
    layout = EncodingLayout(len(peptide))
    rng = np.random.default_rng(len(peptide))
    counts = collections.Counter(
        "".join(rng.choice(list("01"), layout.total_qubits)) for _ in range(600)
    )
    shots = ShotTable(counts=dict(counts), shots=600)
    masses = np.array([load_masses()[r] for r in peptide])
    reference = _per_entry_reference(shots, peptide, masses)

    ensemble = decode_samples(
        shots, layout, squared_distance_scorer(SearchConfig("fcc", peptide, MJ))
    )
    for flag in ("redundant", "backtrack", "overlap"):
        assert any(getattr(e, flag) for e in ensemble.entries), flag
    _, doc = energy_probability_report(ensemble, peptide=peptide)
    rows = json.loads(doc)["rows"]
    got = {}
    for entry, row in zip(sorted(ensemble.entries, key=_report_order), rows):
        assert row["turns"] == entry.turn_string
        got.setdefault(entry.turn_string, []).append(
            {"probability": entry.probability, "energy": entry.energy,
             "rg": row["rg_angstrom"], "redundant": entry.redundant,
             "backtrack": entry.backtrack, "overlap": entry.overlap}
        )
    # equal floats, bit for bit: energies, probabilities and radii
    by_value = lambda rows: sorted(rows, key=lambda r: (r["probability"], str(r["energy"])))
    assert {k: by_value(v) for k, v in got.items()} == {
        k: by_value(v) for k, v in reference.items()
    }


def _report_order(entry):
    # the report's row order: scored entries by energy, then the rest
    if entry.energy is None:
        return (1, 0.0, entry.turn_string)
    return (0, entry.energy, entry.turn_string)


# --- parser fuzzing ---

TOPOBJ_TEXTS = [
    write_topobj(search(SearchConfig(lattice, peptide, MJ, k=3)), lattice=lattice,
                 peptide=peptide)
    for lattice, peptide in (("fcc", "KLVF"), ("tet", "KLVFFA"))
]
XYZ_TEXTS = [
    write_xyz(turns_from_string("0931", "fcc"), "KLVFF"),
    xyz_text("KL", scaled_coords(np.array([[0, 0, 0], [1, 1, 1]]), "tet"), "two"),
]
tokens = (
    st.text(max_size=6)
    | st.integers(-5, 5).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.sampled_from(["x", "bits", "energy", "turns", "topobj", "nan", "1_0", "\r"])
)


@st.composite
def mutated_lines(draw, texts):
    """One of ``texts`` with a few lines or tokens deleted, added or replaced."""
    lines = draw(st.sampled_from(texts)).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.integers(0, 3))
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, draw(tokens))
        elif op == 2:
            lines[i] = draw(tokens)
        else:
            parts = lines[i].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(tokens)
            lines[i] = " ".join(parts)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60) | mutated_lines(TOPOBJ_TEXTS))
def test_topobj_round_trips_or_raises(text):
    try:
        document = parse_topobj(text)
    except (ParseError, EncodingError):
        return
    canonical = topobj_text(document)
    assert topobj_text(parse_topobj(canonical)) == canonical


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60) | mutated_lines(XYZ_TEXTS))
def test_xyz_round_trips_or_raises(text):
    try:
        peptide, coords, comment = parse_xyz(text)
    except (ParseError, EncodingError):
        return
    canonical = xyz_text(peptide, coords, comment)
    assert xyz_text(*parse_xyz(canonical)) == canonical


@pytest.mark.parametrize("text", TOPOBJ_TEXTS)
def test_topobj_written_text_round_trips_byte_exact(text):
    assert topobj_text(parse_topobj(text)) == text


@pytest.mark.parametrize("text", XYZ_TEXTS)
def test_xyz_written_text_round_trips_byte_exact(text):
    assert xyz_text(*parse_xyz(text)) == text
