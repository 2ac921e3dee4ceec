"""Output checks for one ``qfold pipeline`` invocation.

Each check re-derives a property of the artifacts from something the
program did not compute along the same path: the closed-form enumeration
size, the scalar conformation scorer, the exhaustive oracle, or plain
arithmetic on the written files.  ``check_invocation`` returns the list of
failed checks (empty when all pass) and the facts the metrics need.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from pathlib import Path

from qfold.analysis import parse_topobj
from qfold.exceptions import QfoldError
from qfold.lattice import FCC, turns_from_string
from qfold.scoring import load_matrix
from qfold.search import SearchConfig, conformation_energy, enumeration_size, search

MATRIX = "mj1996"
TOL = 1e-9


@lru_cache(maxsize=None)
def _score_config(peptide: str) -> SearchConfig:
    return SearchConfig(lattice=FCC, peptide=peptide, matrix=load_matrix(MATRIX), k=1)


@lru_cache(maxsize=None)
def oracle_minimum(peptide: str) -> float:
    """Lowest self-avoiding energy by exhaustive search (k = 1)."""
    return search(_score_config(peptide)).records[0].energy


def _all_finite(value) -> bool:
    if isinstance(value, bool) or isinstance(value, str) or value is None:
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return False


def _check_search(peptide: str, out: Path, stdout: str, failures: list) -> dict:
    match = re.search(r"^visited=(\d+) kept=(\d+)$", stdout, re.MULTILINE)
    if match is None:
        failures.append("stdout has no 'visited=... kept=...' line")
        return {"visited": 0}
    visited = int(match.group(1))
    expected = enumeration_size(FCC, len(peptide))
    if visited != expected:
        failures.append(f"visited={visited}, closed form 4*11^(N-3) = {expected}")
    document = parse_topobj((out / "folds.topobj").read_text())
    if len(document.records) != int(match.group(2)):
        failures.append("folds.topobj record count differs from kept=")
    config = _score_config(peptide)
    for record in document.records:
        seq = turns_from_string(record.turn_string, FCC)
        rescored = conformation_energy(seq, peptide, config)
        if abs(rescored - record.energy) > TOL:
            failures.append(
                f"turns {record.turn_string}: energy {record.energy!r}, "
                f"scalar re-score {rescored!r}"
            )
    keys = [(r.energy, r.turn_string) for r in document.records]
    if keys != sorted(keys):
        failures.append("records are not sorted by (energy, turns)")
    return {"visited": visited}


def _check_variational(
    method: str, peptide: str, shots: int, out: Path, failures: list
) -> dict:
    counts = 0
    for line in (out / "shots.tsv").read_text().splitlines():
        if line.strip():
            counts += int(line.split()[1])
    if counts != shots:
        failures.append(f"shots.tsv sums to {counts}, expected {shots}")

    report = json.loads((out / "report.json").read_text())
    total = math.fsum(row["probability"] for row in report["rows"])
    if abs(total - 1.0) > TOL:
        failures.append(f"report.json probabilities sum to {total!r}")

    params = json.loads((out / "params.json").read_text())
    if not _all_finite(params):
        failures.append("params.json holds a non-finite value")

    if method == "vqec":
        oracle = oracle_minimum(peptide)
        if abs(params["ground_energy"] - oracle) > TOL:
            failures.append(
                f"ground_energy {params['ground_energy']!r} != oracle minimum {oracle!r}"
            )
    facts = {"ground_prob": float(params["ground_probability"])}
    if method == "vqe":
        trace_rows = (out / "trace.jsonl").read_text().splitlines()
        facts["evals"] = sum(1 for row in trace_rows if row.strip())
    return facts


def check_invocation(
    method: str, peptide: str, shots: int, out: Path, stdout: str
) -> tuple:
    """Run every output check; returns (failures, facts)."""
    failures: list = []
    try:
        if method == "search":
            facts = _check_search(peptide, out, stdout, failures)
        else:
            facts = _check_variational(method, peptide, shots, out, failures)
    except (OSError, ValueError, KeyError, IndexError, TypeError, QfoldError) as exc:
        failures.append(f"artifacts unreadable: {type(exc).__name__}: {exc}")
        facts = {}
    return failures, facts
