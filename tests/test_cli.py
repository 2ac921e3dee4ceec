"""End-to-end checks of the command-line surface."""

import json
import subprocess
import sys

import pytest

from qfold.cli import RunManifest, main, resource_counts
from qfold.hamiltonian import ProblemInstance
from qfold.analysis import parse_topobj, parse_xyz
from qfold.sim import ShotTable


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- resources ---


def test_resource_counts_formula():
    for n in range(3, 31):
        counts = resource_counts(n)
        assert counts["config"] == 4 * n - 10
        assert counts["ancilla"] == (n - 1) * (n - 2) // 2
        assert counts["total"] == 4 * n - 10 + (n - 1) * (n - 2) // 2


def test_resources_n6(capsys):
    code, out, _ = run_cli(["resources", "--n", "6"], capsys)
    assert code == 0
    assert out == "N=6 config=14 ancilla=10 total=24 slack_bits=43 slack_total=57\n"


def test_resources_n3_and_peptide(capsys):
    code, out, _ = run_cli(["resources", "--n", "3"], capsys)
    assert code == 0
    assert "config=2 ancilla=1 total=3" in out
    code, out, _ = run_cli(["resources", "--peptide", "KLVFFA"], capsys)
    assert code == 0
    assert out.startswith("N=6 ")


def test_resources_slack_exceeds_slack_free():
    for n in range(4, 31):
        counts = resource_counts(n)
        assert counts["slack_total"] > counts["total"]


def test_resources_range(capsys):
    code, out, _ = run_cli(["resources", "--n", "3", "--n-max", "8"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 6


def test_resources_requires_length(capsys):
    with pytest.raises(SystemExit):
        main(["resources"])


# --- fit-penalty / build ---


def test_fit_penalty_single_separation(tmp_path, capsys):
    code, out, _ = run_cli(
        ["fit-penalty", "--separation", "3", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert out.splitlines()[0].startswith("separation\t")
    doc = json.loads((tmp_path / "fits.json").read_text())
    assert set(doc) == {"3"}
    assert doc["3"]["r2"] >= 0.999
    assert abs(doc["3"]["p0"] - 50.0) < 1e-12


def test_fit_penalty_rejects_short_separation(capsys):
    code, _, err = run_cli(["fit-penalty", "--separation", "2"], capsys)
    assert code == 2
    assert "separation" in err


def test_build_writes_loadable_instance(tmp_path, capsys):
    code, out, _ = run_cli(
        ["build", "--peptide", "KLVF", "--mode", "vqec", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "qubits=9" in out
    instance = ProblemInstance.from_json((tmp_path / "instance.json").read_text())
    assert instance.mode == "vqec"
    assert instance.peptide == "KLVF"
    assert len(instance.constraints) == 3


def test_build_rejects_tet(capsys):
    code, _, err = run_cli(["build", "--peptide", "KLVF", "--lattice", "tet"], capsys)
    assert code == 2
    assert "fcc" in err


def test_unknown_residue_diagnostics(capsys):
    code, _, err = run_cli(["search", "--peptide", "KLXQ"], capsys)
    assert code == 2
    assert "UnknownResidueError" in err
    assert "X" in err


# --- search ---


def test_search_writes_artifacts(tmp_path, capsys):
    code, out, _ = run_cli(
        ["search", "--peptide", "KLVF", "--k", "3", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "visited=44" in out
    document = parse_topobj((tmp_path / "folds.topobj").read_text())
    assert document.records[0].turn_string == "093"
    assert document.records[0].energy == pytest.approx(-13.13)
    peptide, coords, _ = parse_xyz((tmp_path / "best.xyz").read_text())
    assert peptide == "KLVF"
    assert coords.shape == (4, 3)


# --- sampling and analysis round trip ---


def test_vqe_sample_analyze_chain(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, _, err = run_cli(
        [
            "vqe", "--peptide", "KLVF", "--restarts", "4", "--iterations", "40",
            "--seed", "0", "--out", out_dir,
        ],
        capsys,
    )
    assert code == 0
    assert "cobyla budget: 40 evaluations per restart" in err
    payload = json.loads((tmp_path / "params.json").read_text())
    assert payload["mode"] == "polyfit"
    assert len(payload["params"]) == 27
    assert (tmp_path / "trace.jsonl").read_text().strip()

    code, out, _ = run_cli(
        ["sample", "--peptide", "KLVF", "--shots", "500", "--seed", "3",
         "--out", out_dir],
        capsys,
    )
    assert code == 0
    table = ShotTable.from_text((tmp_path / "shots.tsv").read_text())
    assert table.shots == 500
    assert all(len(bits) == 9 for bits in table.counts)

    code, out, _ = run_cli(
        ["analyze", "--peptide", "KLVF", "--oracle", "--out", out_dir], capsys
    )
    assert code == 0
    assert "modal=" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["e_star"] == pytest.approx(-13.13)
    cumulative = [row["cumulative"] for row in report["rows"]]
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == pytest.approx(1.0, abs=1e-9)


def test_vqec_single_point(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "vqec", "--peptide", "KLVF", "--nu", "0.01", "--mu", "0.5",
            "--restarts", "2", "--iterations", "40", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    # logical evaluations: 2 restarts x (40 x (2P + 2) + 1), P = 27
    assert "circuit_evaluations=4482" in out
    payload = json.loads((tmp_path / "params.json").read_text())
    assert payload["method"] == "vqec"
    assert len(payload["duals"]) == 3
    assert all(v >= 0.0 for v in payload["duals"])


@pytest.mark.parametrize(
    "peptide, covered", [("KLVFFAEDV", True), ("KLVFFAEDVG", False)]
)
def test_analyze_oracle_covers_nine_residues(tmp_path, capsys, peptide, covered):
    # N = 9 is 7,086,244 sequences, inside the cap; N = 10 is 11 times that
    from qfold.hamiltonian import EncodingLayout
    from qfold.scoring import load_matrix
    from qfold.search import SearchConfig, search

    shots = tmp_path / "shots.tsv"
    shots.write_text("0" * EncodingLayout(len(peptide)).total_qubits + "\t10\n")
    code, _, _ = run_cli(
        ["analyze", "--peptide", peptide, "--shots-file", str(shots), "--oracle",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    e_star = json.loads((tmp_path / "report.json").read_text())["e_star"]
    if covered:
        config = SearchConfig("fcc", peptide, load_matrix("mj1996"), k=1)
        assert e_star == search(config).records[0].energy
    else:
        assert e_star is None


# --- manifests and pipelines ---


def test_manifest_round_trip():
    manifest = RunManifest(peptide="GNLVS", method="search", k=5, out="/tmp/x")
    again = RunManifest.from_json(manifest.to_json())
    assert again == manifest


def test_manifest_validation():
    from qfold.exceptions import QfoldError

    with pytest.raises(QfoldError):
        RunManifest(peptide="KLVF", method="anneal")
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLVF", lattice="hex")
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLVF", method="vqe", mode="vqec")
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLXF")


@pytest.mark.parametrize(
    "text",
    ['{"peptide": "KLVF"', "[1, 2]", '"KLVF"', '{"bogus": 1}',
     '{"peptide": "KLVF", "bogus": 1}', '{"method": "search"}', '{"peptide": 5}',
     '{"peptide": "KLVF", "k": "x"}', '{"peptide": "KLVF", "k": true}',
     '{"peptide": "KLVF", "shots": 10.0}', '{"peptide": "KLVF", "grid": 1}'],
)
def test_manifest_from_json_rejects_malformed(text):
    from qfold.exceptions import ParseError

    with pytest.raises(ParseError):
        RunManifest.from_json(text)


@pytest.mark.parametrize("text", ["[1, 2]", '{"bogus": 1}', "{not json"])
def test_pipeline_bad_manifest_exits_2(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    code, out, err = run_cli(
        ["pipeline", "--manifest", str(path), "--out", str(tmp_path / "run")], capsys
    )
    assert code == 2
    assert err.startswith("error: ParseError:")
    assert not (tmp_path / "run").exists()


def test_pipeline_search_matches_oracle(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "pipeline", "--peptide", "GNLVS", "--method", "search", "--k", "5",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    document = parse_topobj((tmp_path / "folds.topobj").read_text())
    first = document.records[0]
    assert first.energy == pytest.approx(-14.29)
    assert first.turn_string == "0936"
    assert first.bits == "0111111010"


def test_pipeline_rerun_byte_identical(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    code, _, _ = run_cli(
        [
            "pipeline", "--peptide", "KLVF", "--method", "vqe",
            "--restarts", "2", "--iterations", "15", "--shots", "300",
            "--out", str(first),
        ],
        capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        ["pipeline", "--manifest", str(first / "manifest.json"),
         "--out", str(second)],
        capsys,
    )
    assert code == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert set(names) >= {
        "fits.json", "instance.json", "manifest.json", "params.json",
        "report.json", "report.tsv", "shots.tsv", "trace.jsonl",
    }
    for name in names:
        if name == "manifest.json":
            continue  # differs only in the output-directory field
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "qfold.cli", "resources", "--n", "6"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "total=24" in result.stdout


# --- import cost ---


def test_cli_import_and_vqec_build_leave_scipy_unloaded(tmp_path):
    # only COBYLA needs SciPy, and importing it is most of the start-up time;
    # only a search with several workers needs the process pool
    pool = "concurrent.futures.process"
    script = (
        "import sys\n"
        "import qfold.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        f"assert {pool!r} not in sys.modules, 'import'\n"
        "code = qfold.cli.main(['build', '--peptide', 'KLVF', '--mode', 'vqec',"
        f" '--out', {str(tmp_path)!r}])\n"
        "assert code == 0\n"
        "assert 'scipy' not in sys.modules, 'build'\n"
        "assert qfold.cli.main(['search', '--peptide', 'KLVF']) == 0\n"
        f"assert {pool!r} not in sys.modules, 'search'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "instance.json").exists()


def test_vqe_pipeline_leaves_scipy_unloaded(tmp_path):
    # CVaR-VQE runs on the in-repo COBYLA; SciPy is a test dependency only
    script = (
        "import sys\n"
        "import qfold.cli\n"
        "code = qfold.cli.main(['pipeline', '--method', 'vqe', '--peptide', 'KLVF',"
        " '--restarts', '2', '--iterations', '30', '--shots', '64',"
        f" '--out', {str(tmp_path)!r}])\n"
        "assert code == 0\n"
        "assert 'scipy' not in sys.modules, 'pipeline'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "params.json").exists()
