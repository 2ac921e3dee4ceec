"""Exact-count cross-check of the traced benchmark runs.

    python -m pytest -q perfbench/test_counts.py

Each workload is traced twice with the same seed.  The counts must match the
closed forms of the current pipeline and repeat exactly between the runs:

* vqec: ``sim.evolve`` is called R*(I*(2P+2)+1)+3 times per invocation, the
  R*I*(2P+2) logical evaluations plus one final state per restart, the final
  violation, the summary and the sampled state;
* vqe: ``sim.evolve`` is called once per ``trace.jsonl`` row plus twice
  (summary and sampling);
* every pipeline runs one exhaustive search over 4*11^(N-3) sequences
  (644,204 at N = 8), the oracle in ``analyze`` for the variational ones.

The fit, assembly and engine counts check that the tracer sees calls made
through names that ``qfold.cli`` imported from other modules.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import (  # noqa: E402
    ANSATZ_LAYERS, END_TO_END, PER_LAYER, ROOT, TRACED_INVOCATIONS, WORKLOADS, n_qubits,
)

SEED = 7
COUNT_UNITS = ("count", "bytes")


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"], proc.stdout
    result_line = next(line for line in lines if line.startswith("result "))
    return json.loads((ROOT / result_line.split(" ", 1)[1]).read_text())


def invocation_counts(document: dict) -> list:
    units = {name: unit for name, unit, _ in PER_LAYER}
    return [
        {name: value for name, value in r["layers"].items() if units[name] in COUNT_UNITS}
        for r in document["records"] if r["traced"]
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_match_closed_forms_and_repeat(name):
    workload = WORKLOADS[name]
    first, second = traced_run(name), traced_run(name)
    assert invocation_counts(first) == invocation_counts(second)
    units = {metric: unit for metric, unit, _ in PER_LAYER}
    for key, value in first["metrics"].items():
        if units[key] in COUNT_UNITS:
            assert value == second["metrics"][key], key

    traced = [r for r in first["records"] if r["traced"]]
    assert len(traced) == TRACED_INVOCATIONS
    n = workload.residues
    params = n_qubits(n) * (ANSATZ_LAYERS + 1)
    for record in traced:
        layers = record["layers"]
        assert layers["search.calls"] == 1
        assert layers["search.visited"] == 4 * 11 ** (n - 3)
        if workload.method == "vqec":
            r, i = workload.restarts, workload.iterations
            assert layers["sim.evolve.calls"] == r * (i * (2 * params + 2) + 1) + 3
            assert layers["hamiltonian.assemble.calls"] == 2
            assert layers["optimize.engine.calls"] == 3
        elif workload.method == "vqe":
            assert layers["sim.evolve.calls"] == record["evals"] + 2
            assert layers["polyfit.fit_family.calls"] == 3
            assert layers["hamiltonian.assemble.calls"] == 2
            assert layers["optimize.engine.calls"] == 2
        else:
            assert layers["sim.evolve.calls"] == 0
            assert record["evals"] == 4 * 11 ** (n - 3)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
