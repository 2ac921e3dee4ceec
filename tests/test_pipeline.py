"""The in-memory pipeline: its results, and the files the CLI writes from them."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfold
from qfold import optimize, pipeline
from qfold.analysis import energy_probability_report, write_topobj
from qfold.cli import main, run_pipeline
from qfold.exceptions import DivergenceError
from qfold.optimize import ExpectationEngine, constraint_violation
from qfold.pipeline import RunManifest, read_params
from qfold.sim import probabilities

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "search": dict(method="search", k=3),
    "vqe": dict(method="vqe", restarts=2, iterations=30, shots=300),
    "vqec": dict(method="vqec", restarts=2, iterations=5, shots=200, seed=3),
    "vqec-grid": dict(method="vqec", grid=True, restarts=1, iterations=2, shots=64),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_writes_nothing_and_serialises_to_the_pipeline_files(
    tmp_path, capsys, monkeypatch, name
):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    manifest = RunManifest(peptide="KLVF", out=str(tmp_path / "never"), **RUNS[name])
    result = pipeline.run(manifest)
    assert not (tmp_path / "never").exists()
    assert list(cwd.iterdir()) == []

    out = tmp_path / "cli"
    assert run_pipeline(RunManifest(**{**vars(manifest), "out": str(out)})) == 0
    capsys.readouterr()

    def written(file):
        return (out / file).read_text()

    if name == "search":
        assert result.instance is None and result.solution is None
        text = write_topobj(result.topk, lattice="fcc", peptide="KLVF")
        assert text == written("folds.topobj")
        return
    assert result.topk is None
    assert (result.fits is not None) == (name == "vqe")
    assert result.instance.to_json() + "\n" == written("instance.json")
    solution = result.solution
    assert solution.to_json() == written("params.json")
    params, layers = read_params(solution.to_json(), manifest.peptide)
    assert params.tolist() == solution.params.tolist()
    assert layers == manifest.layers
    if manifest.grid:
        assert solution.trace is None
        assert solution.report.to_json_lines() == written("grid.jsonl")
    else:
        assert solution.trace.to_json_lines() == written("trace.jsonl")
        assert not (out / "grid.jsonl").exists()
    assert result.shots.to_text() == written("shots.tsv")
    report = energy_probability_report(result.ensemble, peptide="KLVF")
    assert report == (written("report.tsv"), written("report.json"))


@pytest.mark.parametrize("method, every", [("vqe", 50), ("vqec", 10)])
def test_trace_jsonl_has_one_row_per_step(tmp_path, capsys, monkeypatch, method, every):
    # the writer alone holds the cadence of the angles: every 50th CVaR
    # evaluation, every 10th primal-dual iteration, counted across restarts
    columns = []
    evolve_block = optimize.evolve_block

    def counted(ansatz, theta):
        columns.append(theta.shape[0])
        return evolve_block(ansatz, theta)

    monkeypatch.setattr(optimize, "evolve_block", counted)
    restarts, iterations = (2, 60) if method == "vqe" else (2, 23)
    code = main(["pipeline", "--peptide", "KLVF", "--method", method,
                 "--restarts", str(restarts), "--iterations", str(iterations),
                 "--shots", "64", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    text = (tmp_path / "trace.jsonl").read_text()
    rows = [json.loads(line) for line in text.splitlines()]
    if method == "vqe":
        # one evolved column per CVaR evaluation
        assert len(rows) == sum(columns)
    else:
        # two evolved columns per iteration, and one final state per restart
        assert len(rows) == restarts * iterations
        assert sum(columns) == 2 * len(rows) + restarts
        assert all({"lagrangian", "duals"} <= row.keys() for row in rows)
    assert [row["i"] for row in rows] == list(range(len(rows)))
    printed = [row["i"] for row in rows if "params" in row]
    assert printed == list(range(0, len(rows), every)) and len(printed) >= 3
    assert all(len(row["params"]) == 27 for row in rows if "params" in row)
    best = math.inf
    for row in rows:
        best = min(best, row["objective"])
        assert row["best"] == best


def test_pipeline_fits_and_assembles_at_the_manifest_p0():
    manifest = RunManifest(peptide="KLVFF", method="vqe", p0=20.0)
    fits = pipeline.fit_penalties(manifest)
    instance = pipeline.build_instance(manifest, fits)
    assert {fit.p0 for fit in fits.values()} == {instance.p0} == {20.0}


def test_single_vqec_run_reports_the_summed_violation():
    # one definition of infeasibility for single runs and grid entries
    assert constraint_violation(np.array([-3.0, 0.25, -1.0, 0.5])) == 0.75
    assert constraint_violation(np.array([7.0])) == 0.0
    # the ranked best entry's values are those of the final state, bit for
    # bit: KLVFF ends with two constraints violated, where sum and max
    # differ; KLVF's best is the last column of a three-column block
    for peptide, restarts in (("KLVFF", 1), ("KLVF", 3)):
        manifest = RunManifest(peptide=peptide, method="vqec", restarts=restarts,
                               iterations=1, nu=0.5, mu=5.0, seed=2)
        instance = pipeline.build_instance(manifest, None)
        solution = pipeline.solve(manifest, instance)
        f = ExpectationEngine(instance).f_vector(probabilities(solution.state))
        if peptide == "KLVFF":
            assert (f[1:] > 0).sum() >= 2
        else:
            assert solution.report.best.restart == 2
        final = solution.final
        assert final["violation"] == constraint_violation(f)
        assert final["lagrangian"] == float(f[0] + solution.duals @ f[1:])
        assert json.loads(solution.to_json())["violation"] == constraint_violation(f)


@pytest.mark.parametrize("grid", [False, True])
def test_vqec_runs_that_all_diverge_raise(monkeypatch, grid):
    monkeypatch.setattr(optimize, "DIVERGENCE_CEILING", 1e-6)
    manifest = RunManifest(peptide="KLVF", method="vqec", grid=grid, restarts=1,
                           iterations=3)
    instance = pipeline.build_instance(manifest, None)
    with pytest.raises(DivergenceError):
        pipeline.solve(manifest, instance)


@pytest.mark.parametrize(
    "method, extra_spans",
    [("vqec", set()), ("vqe", {"polyfit.fit_family"})],
)
def test_traced_pipeline_records_every_layer(tmp_path, method, extra_spans):
    # the benchmark's traced runs wrap names on the pipeline's call path
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    src = str(Path(qfold.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "0",
         "--", "pipeline", "--peptide", "KLVF", "--method", method, "--restarts", "1",
         "--iterations", "2", "--shots", "64", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    assert names >= {
        "cli.pipeline", "optimize.run", "optimize.engine", "hamiltonian.assemble",
        "sim.sample", "analysis.decode", "analysis.report", *extra_spans,
    }


@pytest.mark.parametrize(
    "method, peptide, flags",
    [("search", "KLVFF", []), ("vqec", "KLVF", ["--restarts", "1", "--iterations", "2"]),
     ("vqe", "KLVF", ["--restarts", "2", "--iterations", "30"])],
)
def test_benchmark_output_checks_pass(tmp_path, capsys, method, peptide, flags):
    # the benchmark re-checks each run's files with perfbench/checks.py, which
    # imports qfold names: a renamed one must fail here, not only there
    path = ROOT / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    out = tmp_path / "out"
    argv = ["pipeline", "--method", method, "--peptide", peptide, *flags,
            "--shots", "64", "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    failures, _ = checks.check_invocation(method, peptide, 64, out, stdout)
    assert failures == []
