"""End-to-end checks of the command-line surface."""

import collections
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfold.cli import RunManifest, build_parser, main, resource_counts
from qfold.exceptions import ParseError, QfoldError
from qfold.hamiltonian import ProblemInstance
from qfold.lattice import EncodingLayout
from qfold.optimize import CvarVqeConfig, VqecConfig
from qfold.pipeline import read_params
from qfold.polyfit import PenaltyTarget, fit_penalty, fit_report
from qfold.scoring import RESIDUES, load_matrix
from qfold.search import SearchConfig
from qfold.analysis import parse_topobj, parse_xyz
from qfold.sim import Ansatz, ShotTable
from util import json_values, mutated_json


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


def test_resource_counts_match_the_per_separation_sums():
    # the closed forms against the pair list and the loop over separations
    for n in [*range(3, 61), 1000, 100_000]:
        counts = resource_counts(n)
        if n <= 60:
            assert counts["ancilla"] == len(EncodingLayout(n).pairs)
        slack = sum((n - s) * math.ceil(math.log2(2 * s * s - 1)) for s in range(2, n))
        assert counts["slack_bits"] == slack


def test_resources_of_a_huge_chain_need_no_memory_in_n():
    # a pair list or a loop over separations would grow with N; under the
    # address-space cap such a regression ends in MemoryError or the timeout.
    # One BLAS thread: OpenBLAS reserves address space per thread at import
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from qfold.cli import main\n"
        "raise SystemExit(main(['resources', '--n', '10000000000']))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(
        "N=10000000000 config=39999999990 ancilla=49999999985000000001 "
    )


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


def test_resources_rejects_a_range_below_the_chain(capsys):
    code, out, err = run_cli(["resources", "--n", "5", "--n-max", "3"], capsys)
    assert code == 2
    assert err.startswith("error: QfoldError:") and "--n-max 3" in err
    assert out == ""


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


@pytest.mark.parametrize("separation", [3, 12])
def test_fit_penalty_separation_is_that_one_fit(tmp_path, capsys, separation):
    code, out, _ = run_cli(
        ["fit-penalty", "--separation", str(separation), "--r2-tol", "0.99",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    fit = fit_penalty(PenaltyTarget(separation, 50.0), 0.99)
    path = tmp_path / "fits.json"
    assert out == fit_report({separation: fit}) + f"wrote {path}\n"
    doc = {
        str(separation): {
            "degree": fit.degree,
            "r2": fit.r2,
            "p0": fit.p0,
            "coeffs_cheb": list(fit.coeffs_cheb),
        }
    }
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_fit_penalty_rejects_short_separation(capsys):
    code, _, err = run_cli(["fit-penalty", "--separation", "2"], capsys)
    assert code == 2
    assert "separation" in err


def test_fits_json_reproduces_the_fit_report(tmp_path, capsys):
    code, out, _ = run_cli(["fit-penalty", "--peptide", "KLVFFAG", "--out", str(tmp_path)],
                           capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:-1]]
    doc = json.loads((tmp_path / "fits.json").read_text())
    assert sorted(doc, key=int) == [row[0] for row in rows] == ["3", "4", "5", "6"]
    for sep, degree, r2, at_zero, rest in rows:
        fit = doc[sep]
        s = int(sep)
        t = np.arange(0, 2 * s * s + 1, 2) / (s * s) - 1.0
        values = np.polynomial.chebyshev.chebval(t, fit["coeffs_cheb"])
        assert len(fit["coeffs_cheb"]) == int(degree) + 1 == fit["degree"] + 1
        assert f"{fit['r2']:.6f}" == r2
        assert f"{values[0]:.4f}" == at_zero
        assert f"{np.abs(values[1:]).max():.4f}" == rest


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


def test_polyfit_build_past_the_value_table_exits_2_at_once(capsys):
    # from N = 9 a pair's squared distance spans more than pb.MAX_TABLE_VARS
    start = time.perf_counter()
    code, _, err = run_cli(["build", "--peptide", "KLVFFAGNL", "--mode", "polyfit"], capsys)
    assert code == 2
    assert err.startswith("error: DegreeOverflowError:")
    assert time.perf_counter() - start < 2.0


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
    assert out.splitlines()[:2] == ["visited=44 kept=3", "pruned=0"]
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


def test_analyze_zero_total_shot_table_exits_2(tmp_path, capsys):
    # counts summing to zero give no distribution to decode
    shots = tmp_path / "shots.tsv"
    shots.write_text("000000000\t0\n")
    code, _, err = run_cli(
        ["analyze", "--peptide", "KLVF", "--shots-file", str(shots),
         "--out", str(tmp_path / "report")],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ParseError:")


# --- manifests and pipelines ---


def test_manifest_round_trip():
    manifest = RunManifest(peptide="GNLVS", method="search", k=5, out="/tmp/x")
    again = RunManifest.from_json(manifest.to_json())
    assert again == manifest


def test_manifest_validation():
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLVF", method="anneal")
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLVF", lattice="hex")
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLVF", method="vqe", lattice="tet")
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLXF")
    # the method fixes the encoding: a manifest has no mode to set
    with pytest.raises(TypeError):
        RunManifest(peptide="KLVF", mode="vqec")
    # the peptide is stored canonical, once, where it enters
    assert RunManifest(peptide=" klvf\n").peptide == "KLVF"
    assert RunManifest(peptide="klvf") == RunManifest(peptide="KLVF")


def test_manifest_mode_follows_its_method():
    # archived manifests carry "mode": it is read only where it names the
    # method's encoding (any encoding for a search) and is not written back
    for method, mode in [("vqec", "vqec"), ("vqe", "polyfit"), ("search", "polyfit"),
                         ("search", "vqec"), (None, "polyfit")]:
        doc = {"peptide": "KLVF", "mode": mode}
        if method is not None:
            doc["method"] = method
        manifest = RunManifest.from_json(json.dumps(doc))
        assert manifest == RunManifest(peptide="KLVF", method=method or "search")
        assert "mode" not in json.loads(manifest.to_json())
    for mode in ["polyfit", "anneal", None, 1, ["vqec"]]:
        with pytest.raises(ParseError):
            RunManifest.from_json(json.dumps({"peptide": "KLVF", "method": "vqec",
                                              "mode": mode}))
    for text in ['{"peptide": "KLVF", "method": "vqe", "mode": "vqec"}',
                 '{"peptide": "KLVF", "mode": null}',
                 '{"peptide": "KLVF", "mode": "anneal"}',
                 '{"peptide": "KLVF", "method": ["vqe"], "mode": "vqec"}']:
        with pytest.raises(ParseError):
            RunManifest.from_json(text)


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


@pytest.mark.parametrize("p0", [math.nan, math.inf, -math.inf, 0.0, -1.0, 10**400])
def test_manifest_rejects_bad_p0(p0):
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLVF", p0=p0)
    text = json.dumps({"peptide": "KLVF", "method": "vqe", "p0": p0})
    with pytest.raises(ParseError):
        RunManifest.from_json(text)


MANIFEST_KEYS = [(f,) for f in json.loads(RunManifest(peptide="KLVF").to_json())]


@st.composite
def manifest_texts(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(max_size=40))
    if kind == 1:
        return json.dumps(draw(json_values))
    base = RunManifest(peptide="KLVF", method=draw(st.sampled_from(["search", "vqe"])))
    return mutated_json(draw, base.to_json(), MANIFEST_KEYS)


@settings(max_examples=200, deadline=None)
@given(manifest_texts())
def test_manifest_json_round_trips_or_raises_parse_error(text):
    try:
        manifest = RunManifest.from_json(text)
    except ParseError:
        return
    canonical = manifest.to_json()
    assert RunManifest.from_json(canonical).to_json() == canonical


BAD_NUMBERS = [
    ("shots", 0), ("restarts", 0), ("iterations", 0), ("layers", -1), ("k", 0),
    ("seed", -1), ("nn_level", 3), ("alpha", 0.0), ("alpha", 1.5),
    ("alpha", math.nan), ("nu", 0.0), ("nu", math.inf), ("mu", -0.5), ("mu", 10**400),
]


@pytest.mark.parametrize("key, value", BAD_NUMBERS)
def test_manifest_rejects_bad_numbers(key, value):
    with pytest.raises(QfoldError):
        RunManifest(peptide="KLVF", **{key: value})
    text = json.dumps({"peptide": "KLVF", key: value})
    with pytest.raises(ParseError):
        RunManifest.from_json(text)


PIPELINE = ["pipeline", "--peptide", "KLVF"]


@pytest.mark.parametrize(
    "flags",
    [[*PIPELINE, "--method", "vqe", "--shots", "0"],
     [*PIPELINE, "--method", "vqec", "--restarts", "0"],
     [*PIPELINE, "--method", "vqe", "--alpha", "0"],
     [*PIPELINE, "--method", "vqec", "--mu", "nan"],
     [*PIPELINE, "--method", "search", "--k", "0"],
     [*PIPELINE, "--method", "vqec", "--seed", "-1"],
     # every other subcommand's numbers pass the same checks
     ["fit-penalty", "--separation", "3", "--p0", "nan"],
     ["fit-penalty", "--separation", "3", "--p0", "-5"],
     ["fit-penalty", "--peptide", "KLVF", "--p0", "inf"],
     ["vqec", "--peptide", "KLVF", "--mu", "inf", "--restarts", "1", "--iterations", "2"],
     ["vqec", "--peptide", "KLVF", "--nu", "nan", "--restarts", "1", "--iterations", "2"],
     ["vqe", "--peptide", "KLVF", "--seed", "-1"],
     # the search runs in one process: --workers takes only 1
     ["search", "--peptide", "KLVF", "--workers", "0"],
     [*PIPELINE, "--method", "search", "--workers", "2"],
     # counts past int64, which NumPy cannot take
     [*PIPELINE, "--method", "vqec", "--restarts", "1", "--iterations", "1",
      "--shots", str(10**20)],
     ["sample", "--peptide", "KLVF", "--shots", str(10**20)],
     ["vqec", "--peptide", "KLVF", "--restarts", "1", "--iterations", "1",
      "--layers", str(10**20)],
     # counts within int64 whose start angles NumPy cannot address
     ["vqec", "--peptide", "KLVF", "--restarts", "1", "--iterations", "1",
      "--layers", str(2**63 - 1)],
     ["vqec", "--peptide", "KLVF", "--restarts", "1", "--iterations", "1",
      "--layers", "341606371735362065"],
     ["vqec", "--peptide", "KLVF", "--restarts", str(2**62), "--iterations", "1"],
     # a fit tolerance outside (0, 1] would fall through to interpolation
     ["fit-penalty", "--separation", "3", "--r2-tol", "nan"],
     ["fit-penalty", "--peptide", "KLVF", "--r2-tol", "2"],
     # a 3-bead chain fits no separation: the flag is checked where it enters
     ["fit-penalty", "--peptide", "KLV", "--r2-tol", "nan"],
     # a chain needs three beads, checked before the manifest is written
     ["pipeline", "--peptide", "KL", "--method", "search"],
     ["vqec", "--peptide", "KL", "--restarts", "1", "--iterations", "1"],
     ["fit-penalty", "--peptide", "KL"]],
)
def test_pipeline_bad_numbers_exit_2_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "run"
    code, stdout, err = run_cli([*flags, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: QfoldError:")
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["pipeline"], ["fit-penalty"], ["build"],
     ["sample", "--peptide", "KLVF", "--params", "missing.json"]],
    ids=["pipeline-no-input", "fit-penalty-no-input", "build-no-peptide",
         "sample-missing-params"],
)
def test_missing_inputs_exit_2_before_writing(tmp_path, capsys, flags):
    # the first three end in parser.error's SystemExit(2), the last in the
    # OSError of opening a params file that is not there
    out = tmp_path / "run"
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    try:
        code = main([*flags, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


ZERO_ROWS = [res + ",0" * len(RESIDUES) for res in RESIDUES]
MATRIX_HEADER = "," + ",".join(RESIDUES)
BAD_MATRICES = {
    "unknown-row": [MATRIX_HEADER, *ZERO_ROWS, "X" + ",0" * len(RESIDUES)],
    "non-numeric": [MATRIX_HEADER, ZERO_ROWS[0][:-1] + "x", *ZERO_ROWS[1:]],
    "no-header": ["# a comment and nothing else"],
    "unknown-column": [MATRIX_HEADER + ",Z", *(row + ",0" for row in ZERO_ROWS)],
    "short-row": [MATRIX_HEADER, ZERO_ROWS[0][:-2], *ZERO_ROWS[1:]],
}


@pytest.mark.parametrize("case", list(BAD_MATRICES))
def test_malformed_matrix_exits_2_before_writing(tmp_path, capsys, case):
    path = tmp_path / "matrix.csv"
    path.write_text("\n".join(BAD_MATRICES[case]) + "\n")
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        ["search", "--peptide", "KLVF", "--matrix", str(path), "--out", str(out)], capsys
    )
    assert code == 2
    assert err.startswith("error: MatrixFormatError:")
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["search", "--peptide", "KLVF", "--matrix"], ["pipeline", "--manifest"],
     ["analyze", "--peptide", "KLVF", "--shots-file"],
     ["sample", "--peptide", "KLVF", "--params"]],
    ids=["search-matrix", "pipeline-manifest", "analyze-shots-file", "sample-params"],
)
def test_non_utf8_input_exits_2_before_writing(tmp_path, capsys, flags):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe is not UTF-8")
    out = tmp_path / "run"
    code, stdout, err = run_cli([*flags, str(path), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "can't decode byte 0xff" in err
    assert str(path) in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"layers": 2}', "[1, 2]", '{"params": ["a", "b"]}',
     '{"params": [0.1], "layers": "x"}', '{"params": [NaN]}', '{"params": [true]}',
     '{"params": [0.1], "layers": -1}', '{"params": [0.1], "layers": null}'],
)
def test_sample_bad_params_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "params.json"
    path.write_text(text)
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        ["sample", "--peptide", "KLVF", "--params", str(path), "--out", str(out)], capsys
    )
    assert code == 2
    assert err.startswith("error: ParseError:")
    assert stdout == ""
    assert not out.exists()


PARAMS_KEYS = [("params",), ("layers",), ("params", 0)]


@st.composite
def params_texts(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(max_size=40))
    if kind == 1:
        return json.dumps(draw(json_values))
    base = {"method": "vqe", "layers": 1, "params": [0.5, 1.5, 2.5]}
    return mutated_json(draw, json.dumps(base), PARAMS_KEYS)


@settings(max_examples=300, deadline=None)
@given(params_texts())
def test_read_params_round_trips_or_raises_parse_error(text):
    try:
        params, layers = read_params(text)
    except ParseError:
        return
    assert params.dtype == float and np.isfinite(params).all()
    assert layers is None or (type(layers) is int and layers >= 0)
    doc = {"params": params.tolist()}
    if layers is not None:
        doc["layers"] = layers
    again, again_layers = read_params(json.dumps(doc))
    assert again.tolist() == params.tolist()
    assert again_layers == layers


INT_FIELDS = [k for k, v in asdict(RunManifest(peptide="KLVF")).items()
              if type(v) is int]
FLOAT_FIELDS = ["p0", "alpha", "nu", "mu"]
numbers = (
    st.integers(-3, 3) | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def numeric_manifest_texts(draw):
    doc = json.loads(RunManifest(peptide="KLVF", method="vqe").to_json())
    for key in draw(st.lists(st.sampled_from(INT_FIELDS + FLOAT_FIELDS), max_size=3)):
        value = draw(numbers)
        if key in INT_FIELDS and isinstance(value, float) and draw(st.booleans()):
            value = int(value) if math.isfinite(value) else 0
        doc[key] = value
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(numeric_manifest_texts())
def test_manifest_numbers_accepted_only_where_every_stage_takes_them(text):
    try:
        manifest = RunManifest.from_json(text)
    except ParseError:
        return
    canonical = manifest.to_json()
    assert RunManifest.from_json(canonical).to_json() == canonical
    # each stage's own checks accept what the manifest accepted
    CvarVqeConfig(alpha=manifest.alpha, max_iterations=manifest.iterations,
                  restarts=manifest.restarts, seed=manifest.seed)
    VqecConfig(nu=manifest.nu, mu=manifest.mu, restarts=manifest.restarts,
               max_iterations=manifest.iterations, seed=manifest.seed)
    SearchConfig(lattice=manifest.lattice, peptide=manifest.peptide,
                 matrix=load_matrix(manifest.matrix), k=manifest.k,
                 nn_level=manifest.nn_level)
    Ansatz(9, layers=manifest.layers)
    assert manifest.shots >= 1 and manifest.seed >= 0
    assert math.isfinite(manifest.nu) and math.isfinite(manifest.mu)


@pytest.mark.parametrize("text", ["[1, 2]", '{"bogus": 1}', "{not json",
                                  '{"peptide": "KLVF", "p0": NaN}'])
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


def test_pipeline_manifest_keeps_the_canonical_peptide(tmp_path, capsys):
    # the manifest records the peptide as every stage reads it, and no mode:
    # the method fixes the encoding
    runs = {}
    for peptide in ("klvf", "KLVF"):
        out = tmp_path / peptide
        code, _, _ = run_cli(
            ["pipeline", "--method", "search", "--peptide", peptide, "--out", str(out)],
            capsys,
        )
        assert code == 0
        runs[peptide] = out
    doc = json.loads((runs["klvf"] / "manifest.json").read_text())
    assert doc["peptide"] == "KLVF"
    assert "mode" not in doc
    for name in ("folds.topobj", "best.xyz"):
        assert (runs["klvf"] / name).read_bytes() == (runs["KLVF"] / name).read_bytes()


def test_every_pipeline_flag_is_a_manifest_field():
    # a pipeline run is its manifest: a flag that names no field would be
    # accepted and then ignored; --manifest and --workers are read apart
    flags = set(vars(build_parser().parse_args(["pipeline"]))) - {"command", "func"}
    assert flags <= {f.name for f in fields(RunManifest)} | {"manifest", "workers"}


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


def test_pipeline_workers_1_is_ignored(tmp_path, capsys):
    runs = {}
    for name, extra in (("plain", []), ("workers", ["--workers", "1"])):
        out = tmp_path / name
        code, stdout, _ = run_cli(
            ["pipeline", "--peptide", "GNLVS", "--method", "search", "--k", "5",
             *extra, "--out", str(out)],
            capsys,
        )
        assert code == 0
        runs[name] = stdout.replace(str(out), "<out>"), out
    (plain, a), (workers, b) = runs["plain"], runs["workers"]
    assert plain == workers
    for name in ("folds.topobj", "best.xyz"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize(
    "workers, accepted",
    [(1, True), (True, False), (2, False), ("1", False), (0, False), (1.0, False)],
)
def test_archived_manifest_workers_key(tmp_path, capsys, workers, accepted):
    # manifests written while the search could fork carry "workers": 1, which
    # reruns to the same outputs; any other value is a ParseError, exit 2
    first, second = tmp_path / "a", tmp_path / "b"
    code, _, _ = run_cli(
        ["pipeline", "--peptide", "GNLVS", "--method", "search", "--k", "5",
         "--out", str(first)],
        capsys,
    )
    assert code == 0
    doc = json.loads((first / "manifest.json").read_text())
    archived = tmp_path / "archived.json"
    archived.write_text(json.dumps({**doc, "workers": workers}, indent=2, sort_keys=True))
    code, _, err = run_cli(
        ["pipeline", "--manifest", str(archived), "--out", str(second)], capsys
    )
    if not accepted:
        assert code == 2
        assert err.startswith("error: ParseError:")
        assert not second.exists()
        return
    assert code == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name == "manifest.json":
            continue  # differs only in the output-directory field
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert json.loads((second / "manifest.json").read_text()) == {**doc, "out": str(second)}


def test_pipeline_instance_carries_manifest_p0(tmp_path, capsys):
    from qfold.hamiltonian import assemble
    from qfold.scoring import load_matrix

    manifest = RunManifest(
        peptide="KLVF", method="vqe", p0=20.0, restarts=1, iterations=30,
        shots=50, out=str(tmp_path),
    )
    path = tmp_path / "manifest.json"
    path.write_text(manifest.to_json())
    code, _, _ = run_cli(["pipeline", "--manifest", str(path)], capsys)
    assert code == 0
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert {fit["p0"] for fit in fits.values()} == {20.0}
    instance = ProblemInstance.from_json((tmp_path / "instance.json").read_text())
    assert instance.p0 == 20.0
    want = assemble("polyfit", "KLVF", load_matrix("mj1996"), 20.0)
    assert instance.objective == want.objective


@pytest.mark.parametrize("method, fits", [("vqe", 1), ("vqec", 0)])
def test_pipeline_fits_assembles_and_builds_an_engine_once(
    tmp_path, capsys, monkeypatch, method, fits
):
    from qfold import hamiltonian, optimize, polyfit

    calls = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(polyfit, "fit_family", counted("fit", polyfit.fit_family))
    monkeypatch.setattr(hamiltonian, "assemble", counted("assemble", hamiltonian.assemble))
    engine_init = optimize.ExpectationEngine.__init__
    monkeypatch.setattr(
        optimize.ExpectationEngine, "__init__", counted("engine", engine_init)
    )
    code, _, _ = run_cli(
        ["pipeline", "--peptide", "KLVF", "--method", method, "--restarts", "1",
         "--iterations", "30", "--shots", "50", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert calls == collections.Counter(fit=fits, assemble=1, engine=1)


@pytest.mark.parametrize(
    "flags",
    [["--method", "vqe", "--restarts", "2", "--iterations", "30"],
     ["--method", "vqec", "--restarts", "2", "--iterations", "3"],
     ["--method", "vqec", "--grid", "--restarts", "1", "--iterations", "2"]],
)
def test_pipeline_evolves_the_final_state_once(tmp_path, capsys, monkeypatch, flags):
    # the summary, the final violation and the shots share one evolution;
    # the pipeline imports these names from their modules when a stage runs
    from qfold import optimize, sim

    events = []

    def recorded(name, func):
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            events.append(name)
            return result

        return wrapper

    for module, names in ((optimize, ("run_cvar_vqe", "run_vqec_pdp", "grid_search")),
                          (sim, ("evolve", "sample"))):
        for name in names:
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    code, _, _ = run_cli(
        ["pipeline", "--peptide", "KLVF", *flags, "--shots", "64", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert events[1:] == ["evolve", "sample"]


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "qfold.cli", "resources", "--n", "6"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "total=24" in result.stdout


@pytest.mark.parametrize(
    "call, frozen",
    [("sys.argv = ['qfold', 'resources', '--n', '6']; code = qfold.cli.main()", True),
     ("code = qfold.cli.main(['resources', '--n', '6'])", False)],
    ids=["program", "argv"],
)
def test_only_the_program_freezes_its_heap(call, frozen):
    # the program's heap lives until exit, so it is frozen before the
    # command; a caller passing argv lives on and keeps its collector
    script = (
        "import gc, sys\n"
        "import qfold.cli\n"
        f"{call}\n"
        "assert code == 0, code\n"
        f"assert (gc.get_freeze_count() > 0) is {frozen}, gc.get_freeze_count()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "total=24" in result.stdout


# --- import cost ---


def test_cli_import_and_vqec_build_leave_scipy_unloaded(tmp_path):
    # only COBYLA needs SciPy, and importing it is most of the start-up time;
    # no search imports a process pool; only penalty fitting needs the fit
    # module and NumPy's polynomial package
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
        "assert 'qfold.polyfit' not in sys.modules, 'build'\n"
        "assert 'numpy.polynomial' not in sys.modules, 'build'\n"
        "assert qfold.cli.main(['search', '--peptide', 'KLVF']) == 0\n"
        f"assert {pool!r} not in sys.modules, 'search'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "instance.json").exists()


# the layers that only the variational methods run
VARIATIONAL = ("qfold.sim", "qfold.optimize", "qfold.hamiltonian", "qfold.pb", "qfold.polyfit")


@pytest.mark.parametrize(
    "args, unloaded",
    [(["pipeline", "--method", "search", "--peptide", "KLVFFAGW", "--workers", "1",
       "--out", "{out}"], VARIATIONAL),
     (["resources", "--peptide", "KLVFFAGW"], VARIATIONAL),
     (["build", "--peptide", "KLVF", "--mode", "vqec", "--out", "{out}"],
      ("qfold.sim", "qfold.optimize")),
     (["analyze", "--peptide", "KLVF", "--shots-file", "{shots}", "--oracle",
       "--out", "{out}"], VARIATIONAL)],
    ids=["search-pipeline", "resources", "vqec-build", "analyze"],
)
def test_command_loads_only_the_layers_it_runs(tmp_path, args, unloaded):
    # a fresh process, so that no other test's imports count
    shots = tmp_path / "shots.tsv"
    shots.write_text("000000000\t3\n100000000\t1\n")
    args = [a.format(out=tmp_path / "run", shots=shots) for a in args]
    script = (
        "import sys\n"
        "from qfold.cli import main\n"
        f"assert main({args!r}) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qfold'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.splitlines()[-1].split()
    assert "qfold.cli" in loaded
    assert [name for name in unloaded if name in loaded] == []


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
