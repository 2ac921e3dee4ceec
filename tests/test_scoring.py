import math

import numpy as np
import pytest

from qfold import scoring
from qfold.exceptions import MatrixFormatError, UnknownResidueError


def test_bundled_matrices_load_and_are_symmetric():
    for name in ("mj1996", "hp"):
        m = scoring.load_matrix(name)
        assert m.values.shape == (20, 20)
        np.testing.assert_array_equal(m.values, m.values.T)


def test_mj_hallmark_entries():
    # spot values frozen from the bundled table
    m = scoring.load_matrix("mj1996")
    assert m["C", "C"] == -5.44
    assert m["F", "F"] == -7.26
    assert m["L", "L"] == -7.37
    assert m["K", "K"] == -0.12
    assert m["K", "F"] == m["F", "K"] == -3.36


def test_hp_matrix_classes():
    m = scoring.load_matrix("hp")
    assert m["L", "F"] == -1.0
    assert m["L", "S"] == 0.0
    assert m["K", "E"] == 0.0


def test_unknown_matrix_source():
    with pytest.raises(MatrixFormatError):
        scoring.load_matrix("nonexistent")


def test_asymmetric_matrix_rejected(tmp_path):
    m = scoring.load_matrix("hp")
    vals = m.values.copy()
    vals[0, 1] += 0.5
    path = tmp_path / "bad.csv"
    with path.open("w") as fh:
        fh.write("," + ",".join(scoring.RESIDUES) + "\n")
        for i, r in enumerate(scoring.RESIDUES):
            fh.write(r + "," + ",".join(str(v) for v in vals[i]) + "\n")
    with pytest.raises(MatrixFormatError, match="asymmetric"):
        scoring.load_matrix(path)


def test_missing_residue_rejected(tmp_path):
    path = tmp_path / "short.csv"
    residues = scoring.RESIDUES[:-1]
    with path.open("w") as fh:
        fh.write("," + ",".join(residues) + "\n")
        for r in residues:
            fh.write(r + "," + ",".join("0" for _ in residues) + "\n")
    with pytest.raises(MatrixFormatError, match="missing"):
        scoring.load_matrix(path)


def test_validate_peptide():
    assert scoring.validate_peptide("klvffa") == "KLVFFA"
    with pytest.raises(UnknownResidueError):
        scoring.validate_peptide("KLXB")
    with pytest.raises(UnknownResidueError):
        scoring.validate_peptide("")


def test_scale_factors():
    assert scoring.scale_factor("fcc", 1) == 1.0
    assert scoring.scale_factor("fcc", 2) == pytest.approx(1 / math.sqrt(2))
    assert scoring.scale_factor("tet", 2) == pytest.approx(math.sqrt(3 / 8))
    # two shells are scored: FCC's third has no caller
    with pytest.raises(MatrixFormatError):
        scoring.scale_factor("fcc", 3)
    with pytest.raises(MatrixFormatError):
        scoring.scale_factor("tet", 3)


def test_epsilon_table_matches_entries():
    m = scoring.load_matrix("mj1996")
    pep = "KLVF"
    table = scoring.epsilon_table(m, pep)
    for i, a in enumerate(pep):
        for j, b in enumerate(pep):
            assert table[i, j] == m[a, b]


def test_masses():
    masses = scoring.load_masses()
    assert masses["G"] == pytest.approx(57.0519)
    assert masses["W"] == pytest.approx(186.2132)
    assert set(masses) == set(scoring.RESIDUES)


def test_qfold_data_override(tmp_path, monkeypatch):
    (tmp_path / "residue_masses.csv").write_text(
        "residue,mass\n" + "\n".join(f"{r},2.0" for r in scoring.RESIDUES) + "\n"
    )
    monkeypatch.setenv("QFOLD_DATA", str(tmp_path))
    assert scoring.load_masses()["A"] == 2.0
