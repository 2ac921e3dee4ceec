"""The folding pipeline: fit, assemble, solve, sample and decode, in memory.

``stages(manifest)`` yields each stage's result as that stage ends, and
``run(manifest)`` collects them; nothing here prints or writes.  No stage
re-derives a run input: the method fixes the encoding (``METHOD_MODES``),
and a ``RunManifest`` stores the canonical peptide.  The solve stage drops
its ``ExpectationEngine`` when it returns, so sampling and analysis do not
hold its tables.  Each stage imports the layers it runs: a search loads no
Hamiltonian, optimizer or simulator, a build no optimizer or simulator, and
only the stages that fit penalties load the penalty fits.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .analysis import DecodedEnsemble, ShotTable, decode_samples
from .exceptions import ParseError, QfoldError
from .lattice import (
    FCC,
    LATTICES,
    MODE_POLYFIT,
    MODE_VQEC,
    MODES,
    EncodingLayout,
    unpack_configuration,
)
from .scoring import load_matrix, validate_peptide
from .search import SearchConfig, TopK, enumeration_size, search, squared_distance_scorer

if TYPE_CHECKING:
    from .hamiltonian import ProblemInstance
    from .optimize import GridReport, OptTrace
    from .sim import Ansatz

# the oracle runs exhaustive search up to N = 9 (4 * 11^6 = 7,086,244
# sequences); the pruned k = 1 search took 8-36 ms at N = 8 and 0.04-0.23 s
# at N = 9 on a 2-core x86 box; N = 10 has 11 times as many sequences
ORACLE_SIZE_CAP = 10_000_000

# each optimizing method and the encoding it optimizes
METHOD_MODES = {"vqe": MODE_POLYFIT, "vqec": MODE_VQEC}
METHODS = ("search", *METHOD_MODES)

# the least value of each integer field of a manifest; the greatest is
# MANIFEST_COUNT_MAX, the largest count NumPy takes (int64)
MANIFEST_COUNT_MAX = 2**63 - 1
MANIFEST_COUNT_MINIMA = {
    "k": 1,
    "restarts": 1,
    "iterations": 1,
    "layers": 0,
    "shots": 1,
    "seed": 0,
}


def chain_peptide(text: str) -> str:
    """``validate_peptide``'s canonical text of a chain of at least 3 residues."""
    peptide = validate_peptide(text)
    if len(peptide) < 3:
        raise QfoldError(f"need at least 3 residues, got {len(peptide)}")
    return peptide


def check_finite_positive(name: str, value, what: str) -> None:
    # comparisons, not float(): a JSON integer may exceed every float
    if not 0.0 < value <= sys.float_info.max:
        raise QfoldError(f"{name} must be a finite positive {what}")


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one pipeline run.

    The method fixes the encoding (``METHOD_MODES``), and ``peptide`` is
    kept canonical: ``validate_peptide``'s uppercase, stripped text.
    """

    peptide: str
    lattice: str = FCC
    method: str = "search"
    matrix: str = "mj1996"
    k: int = 10
    nn_level: int = 1
    p0: float = 50.0
    alpha: float = 0.1
    nu: float = 0.01
    mu: float = 0.5
    grid: bool = False
    restarts: int = 20
    iterations: int = 80
    layers: int = 2
    shots: int = 1024
    seed: int = 0
    out: str = "."

    def __post_init__(self):
        if self.lattice not in LATTICES:
            raise QfoldError(f"unknown lattice {self.lattice!r}")
        if self.method not in METHODS:
            raise QfoldError(f"unknown method {self.method!r}")
        if self.method in METHOD_MODES and self.lattice != FCC:
            raise QfoldError("hamiltonian modes are defined on the fcc lattice only")
        check_finite_positive("p0", self.p0, "penalty height")
        if not 0.0 < self.alpha <= 1.0:
            raise QfoldError("alpha must lie in (0, 1]")
        for name in ("nu", "mu"):
            check_finite_positive(name, getattr(self, name), "step size")
        for name, least in MANIFEST_COUNT_MINIMA.items():
            if not least <= getattr(self, name) <= MANIFEST_COUNT_MAX:
                raise QfoldError(f"{name} must lie in [{least}, {MANIFEST_COUNT_MAX}]")
        if self.nn_level not in (1, 2):
            raise QfoldError("nn_level must be 1 or 2")
        # frozen: the canonical peptide is set once, before anything reads it
        object.__setattr__(self, "peptide", chain_peptide(self.peptide))
        # NumPy addresses the float64 start angles only within MANIFEST_COUNT_MAX bytes
        if self.method in METHOD_MODES:
            n_params = EncodingLayout(len(self.peptide)).total_qubits * (self.layers + 1)
            if 8 * self.restarts * n_params > MANIFEST_COUNT_MAX:
                raise QfoldError(f"{self.restarts} restarts x {n_params} start angles "
                                 f"exceed {MANIFEST_COUNT_MAX} bytes")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("manifest must be a JSON object")
        # retired keys: "workers": 1 from when the search could fork, and
        # "mode", which the method now fixes
        if "workers" in doc:
            workers = doc.pop("workers")
            if type(workers) is not int or workers != 1:
                raise ParseError("manifest key 'workers' is retired; only the value 1 is read")
        if "mode" in doc:
            # str(): a method that is no string fails its type check below
            mode, method = doc.pop("mode"), str(doc.get("method"))
            if mode not in MODES or mode != METHOD_MODES.get(method, mode):
                raise ParseError("manifest key 'mode' may only name the method's encoding")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ParseError(f"manifest has unknown keys: {', '.join(unknown)}")
        if "peptide" not in doc:
            raise ParseError("manifest lacks the peptide key")
        for f in fields(cls):
            if f.name not in doc:
                continue
            value = doc[f.name]
            expected = str if f.default is MISSING else type(f.default)
            if expected is float:
                expected = (int, float)
            # bool is a subclass of int: true must not pass as a count
            wrong_bool = isinstance(value, bool) != (expected is bool)
            if wrong_bool or not isinstance(value, expected):
                raise ParseError(f"manifest key {f.name!r} has the wrong type")
        try:
            return cls(**doc)
        except QfoldError as exc:
            raise ParseError(f"manifest value rejected: {exc}") from exc


# ---------------------------------------------------------------------------
# stage results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    """The chosen angles and their final state, the optimizer's ``trace`` (None
    for a grid) and a vqec run's ranked ``report``, which counts its circuit
    evaluations.  ``final`` is the objective (vqe), or the best entry's
    Lagrangian and ``constraint_violation`` (vqec), and ``summary`` the modal
    fold and ground probability of ``state``."""

    method: str
    mode: str
    peptide: str
    ansatz: Ansatz
    params: np.ndarray
    duals: np.ndarray | None
    trace: OptTrace | None
    report: GridReport | None
    state: np.ndarray
    final: dict
    summary: dict

    def to_json(self) -> str:
        """The ``params.json`` text, which ``read_params`` reads back."""
        payload = {
            "method": self.method,
            "mode": self.mode,
            "peptide": self.peptide,
            "layers": self.ansatz.layers,
            "n_qubits": self.ansatz.n_qubits,
            "params": [float(v) for v in self.params],
        }
        if self.duals is not None:
            payload["duals"] = [float(v) for v in self.duals]
        return json.dumps({**payload, **self.final, **self.summary}, indent=2) + "\n"


def read_params(text: str, peptide: str) -> tuple:
    """The angles and layer count of ``peptide``'s ``params.json`` text.

    The layer count is None where the text gives none.  Anything but an
    object with a list of finite numbers under ``params``, a non-negative
    integer under ``layers`` and ``peptide`` under ``peptide``, each of the
    last two if present, raises ``ParseError``.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"params file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("params"), list):
        raise ParseError("params file must be a JSON object with a params list")
    params = doc["params"]
    # type(), not isinstance(): true is an int; the bound rejects NaN, inf and
    # integers beyond every float
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in params):
        raise ParseError("params must be finite numbers")
    layers = doc.get("layers")
    if "layers" in doc and not (type(layers) is int and layers >= 0):
        raise ParseError("layers must be a non-negative integer")
    if doc.get("peptide", peptide) != peptide:
        raise ParseError(f"params file is for peptide {doc['peptide']!r}, not {peptide!r}")
    return np.array(params, dtype=float), layers


@dataclass(frozen=True)
class PipelineRun:
    """Every stage result of one run; a stage the method skips stays None."""

    topk: TopK | None = None
    fits: dict | None = None
    instance: ProblemInstance | None = None
    solution: Solution | None = None
    shots: ShotTable | None = None
    ensemble: DecodedEnsemble | None = None


# the stage names, in the order the stages run
STAGES = tuple(f.name for f in fields(PipelineRun))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def run(manifest: RunManifest) -> PipelineRun:
    """Run every stage of ``manifest`` in memory; writes no file."""
    return PipelineRun(**dict(stages(manifest)))


def stages(manifest: RunManifest):
    """Yield ``(stage name, result)`` for each stage of ``manifest`` as it ends.

    A search yields ``topk``; an optimizing method yields ``fits`` (polyfit
    only), ``instance``, ``solution``, ``shots`` and ``ensemble``.  The
    decoding's reference energy is the exhaustive oracle's.
    """
    if manifest.method == "search":
        yield "topk", search_folds(manifest)
        return
    fits = fit_penalties(manifest)
    if fits is not None:
        yield "fits", fits
    instance = build_instance(manifest, fits)
    yield "instance", instance
    solution = solve(manifest, instance)
    yield "solution", solution
    from .sim import sample

    shots = sample(solution.state, manifest.shots, manifest.seed)
    yield "shots", shots
    yield "ensemble", decode_shots(manifest, shots, oracle=True)


def search_folds(manifest: RunManifest) -> TopK:
    peptide, matrix = manifest.peptide, load_matrix(manifest.matrix)
    return search(SearchConfig(manifest.lattice, peptide, matrix, k=manifest.k,
                               nn_level=manifest.nn_level))


def fit_penalties(manifest: RunManifest) -> dict | None:
    """The overlap-penalty fits at P0 where the method optimizes polyfit, else None."""
    if METHOD_MODES[manifest.method] != MODE_POLYFIT:
        return None
    from .polyfit import fit_family

    return fit_family(len(manifest.peptide), p0=manifest.p0)


def build_instance(manifest: RunManifest, fits: dict | None) -> ProblemInstance:
    from .hamiltonian import assemble

    peptide, matrix = manifest.peptide, load_matrix(manifest.matrix)
    return assemble(METHOD_MODES[manifest.method], peptide, matrix, manifest.p0, fits)


def solver(manifest: RunManifest, n_qubits: int) -> tuple:
    """The ansatz and optimizer config that ``solve`` runs."""
    from .optimize import CvarVqeConfig, VqecConfig
    from .sim import Ansatz

    runs = dict(restarts=manifest.restarts, max_iterations=manifest.iterations,
                seed=manifest.seed)
    if manifest.method == "vqe":
        cfg = CvarVqeConfig(alpha=manifest.alpha, **runs)
    else:
        cfg = VqecConfig(nu=manifest.nu, mu=manifest.mu, **runs)
    return Ansatz(n_qubits, layers=manifest.layers), cfg


def solve(manifest: RunManifest, instance: ProblemInstance) -> Solution:
    """Optimize on one engine, then evolve the chosen angles once."""
    from .optimize import ExpectationEngine, grid_search, run_cvar_vqe, run_vqec_pdp
    from .sim import bitstring_of, evolve, probabilities

    ansatz, cfg = solver(manifest, instance.n_qubits)
    engine = ExpectationEngine(instance)
    if manifest.method == "vqe":
        params, trace = run_cvar_vqe(engine, ansatz, cfg)
        duals = report = None
        final = {"objective": trace.best}
    else:
        optimizer = grid_search if manifest.grid else run_vqec_pdp
        report = optimizer(engine, ansatz, cfg)
        best, trace = report.best, report.trace
        params, duals = np.array(best.params), np.array(best.duals)
        final = {"lagrangian": best.lagrangian, "violation": best.violation}
    state = evolve(ansatz, params)
    probs = probabilities(state)
    modal = engine.modal_config(probs)
    bits = bitstring_of(modal, instance.layout.n_config_bits)
    summary = {
        "modal_config": int(modal),
        "modal_turns": unpack_configuration(bits, instance.layout.n_beads).to_string(),
        "ground_probability": engine.ground_probability(probs),
        "ground_energy": engine.ground_energy,
    }
    return Solution(
        manifest.method, instance.mode, instance.peptide, ansatz, params, duals,
        trace, report, state, final, summary,
    )


def resample(manifest: RunManifest, params_text: str) -> ShotTable:
    """Shots of the state that a ``params.json`` text's angles prepare.

    The text's layer count, where it has one, overrides the manifest's.
    """
    from .sim import Ansatz, evolve, sample

    params, layers = read_params(params_text, manifest.peptide)
    n_qubits = EncodingLayout(len(manifest.peptide)).total_qubits
    ansatz = Ansatz(n_qubits, layers=manifest.layers if layers is None else layers)
    return sample(evolve(ansatz, params), manifest.shots, manifest.seed)


def decode_shots(
    manifest: RunManifest, shots: ShotTable, e_star=None, oracle=False
) -> DecodedEnsemble:
    """Decode ``shots`` against ``e_star``, or with ``oracle`` and no
    ``e_star`` against the exhaustive oracle's minimum where N allows."""
    peptide, matrix = manifest.peptide, load_matrix(manifest.matrix)
    config = SearchConfig(FCC, peptide, matrix, k=1, nn_level=manifest.nn_level)
    if e_star is None and oracle and enumeration_size(FCC, len(peptide)) <= ORACLE_SIZE_CAP:
        topk = search(config)
        e_star = topk.records[0].energy if topk.records else None
    scorer = squared_distance_scorer(config)
    return decode_samples(shots, EncodingLayout(len(peptide)), scorer, e_star=e_star)
