"""Command-line surface: resource accounting through the full folding pipeline.

Every subcommand is deterministic given its seed, so archived runs reproduce
byte for byte.  ``pipeline`` chains penalty fitting, Hamiltonian assembly,
one solver (exhaustive search, CVaR-VQE, or the primal-dual method), shot
sampling, and report generation, dropping each artifact in the output
directory next to a copy of the manifest that produced it.  The penalty-fit
module is imported only by the stages that fit, so constrained and search
runs do not load it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .analysis import (
    decode_samples,
    energy_probability_report,
    write_topobj,
    write_xyz,
)
from .exceptions import ParseError, QfoldError
from .hamiltonian import (
    MODE_POLYFIT,
    MODE_VQEC,
    MODES,
    EncodingLayout,
    Penalties,
    ProblemInstance,
    assemble,
)
from .lattice import FCC, LATTICES, unpack_configuration
from .optimize import (
    CvarVqeConfig,
    ExpectationEngine,
    VqecConfig,
    cobyla_budget,
    grid_search,
    run_cvar_vqe,
    run_vqec_pdp,
)
from .scoring import load_matrix, validate_peptide
from .search import SearchConfig, enumeration_size, search, squared_distance_scorer
from .sim import Ansatz, ShotTable, bitstring_of, evolve, probabilities, sample

# `analyze --oracle` runs exhaustive search up to N = 9 (4 * 11^6 = 7,086,244
# sequences, about 1.5 s); N = 10 has 11 times as many
ORACLE_SIZE_CAP = 10_000_000


# ---------------------------------------------------------------------------
# resource accounting
# ---------------------------------------------------------------------------


def resource_counts(n_beads: int) -> dict:
    """Qubit budget for an N-bead chain, slack-free versus slack encodings.

    The slack-free budget is 4N-10 configuration qubits plus one ancilla per
    non-bonded pair.  The slack alternative replaces the ancillas with one
    integer register per pair, ceil(log2(2(j-i)^2 - 1)) bits wide.
    """
    if n_beads < 3:
        raise QfoldError("resource accounting needs at least 3 beads")
    config = 4 * n_beads - 10
    ancilla = (n_beads - 1) * (n_beads - 2) // 2
    slack_bits = 0
    for sep in range(2, n_beads):
        width = math.ceil(math.log2(2 * sep * sep - 1))
        slack_bits += (n_beads - sep) * width
    return {
        "n": n_beads,
        "config": config,
        "ancilla": ancilla,
        "total": config + ancilla,
        "slack_bits": slack_bits,
        "slack_total": config + slack_bits,
    }


def _resource_line(counts: dict) -> str:
    return (
        f"N={counts['n']} config={counts['config']} ancilla={counts['ancilla']} "
        f"total={counts['total']} slack_bits={counts['slack_bits']} "
        f"slack_total={counts['slack_total']}"
    )


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------


# the least value of each integer field of a manifest
MANIFEST_COUNT_MINIMA = {
    "k": 1,
    "restarts": 1,
    "iterations": 1,
    "layers": 0,
    "shots": 1,
    "seed": 0,
    "workers": 1,
}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one pipeline run."""

    peptide: str
    lattice: str = FCC
    method: str = "search"
    mode: str = MODE_POLYFIT
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
    workers: int = 1
    out: str = "."

    def __post_init__(self):
        if self.lattice not in LATTICES:
            raise QfoldError(f"unknown lattice {self.lattice!r}")
        if self.method not in ("search", "vqe", "vqec"):
            raise QfoldError(f"unknown method {self.method!r}")
        if self.mode not in MODES:
            raise QfoldError(f"unknown mode {self.mode!r}")
        if self.method == "vqe" and self.mode != MODE_POLYFIT:
            raise QfoldError("the vqe method optimizes the polyfit encoding")
        if self.method == "vqec" and self.mode != MODE_VQEC:
            raise QfoldError("the vqec method optimizes the vqec encoding")
        # comparisons, not float(): a JSON integer may exceed every float
        if not 0.0 < self.p0 <= sys.float_info.max:
            raise QfoldError("p0 must be a finite positive penalty height")
        if not 0.0 < self.alpha <= 1.0:
            raise QfoldError("alpha must lie in (0, 1]")
        for name in ("nu", "mu"):
            if not 0.0 < getattr(self, name) <= sys.float_info.max:
                raise QfoldError(f"{name} must be a finite positive step size")
        for name, least in MANIFEST_COUNT_MINIMA.items():
            if getattr(self, name) < least:
                raise QfoldError(f"{name} must be >= {least}")
        if self.nn_level not in (1, 2):
            raise QfoldError("nn_level must be 1 or 2")
        validate_peptide(self.peptide)

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
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ParseError(f"manifest has unknown keys: {', '.join(unknown)}")
        if "peptide" not in doc:
            raise ParseError("manifest lacks the peptide key")
        for f in fields(cls):
            value = doc.get(f.name, f.default)
            expected = str if f.name == "peptide" else type(f.default)
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
# subcommand bodies
# ---------------------------------------------------------------------------


def _out_path(out: str, name: str) -> str:
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def cmd_resources(args) -> int:
    if args.peptide is not None:
        n_beads = len(validate_peptide(args.peptide))
    else:
        n_beads = args.n
    last = args.n_max if args.n_max is not None else n_beads
    for n in range(n_beads, last + 1):
        print(_resource_line(resource_counts(n)))
    return 0


def cmd_fit_penalty(args) -> int:
    if args.separation is not None:
        if args.separation < 3:
            raise QfoldError("penalty fits start at bead separation 3")
        separations = [args.separation]
        n_beads = args.separation + 1
    else:
        n_beads = len(validate_peptide(args.peptide))
        separations = None
    from .polyfit import fit_family

    fits = fit_family(n_beads, p0=args.p0, r2_tol=args.r2_tol)
    if separations is not None:
        fits = {s: fits[s] for s in separations}
    _write_fits(fits, args.out)
    return 0


def _write_fits(fits: dict, out) -> None:
    from .polyfit import fit_report

    print(fit_report(fits), end="")
    if out is not None:
        doc = {
            str(sep): {
                "degree": fit.degree,
                "r2": fit.r2,
                "p0": fit.p0,
                "coeffs_mono": [float(c) for c in fit.coeffs_mono],
            }
            for sep, fit in sorted(fits.items())
        }
        path = _out_path(out, "fits.json")
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}")


def _assemble(args, mode: str, penalties=None, fits=None) -> ProblemInstance:
    if args.lattice != FCC:
        raise QfoldError("hamiltonian modes are defined on the fcc lattice only")
    peptide = validate_peptide(args.peptide)
    matrix = load_matrix(args.matrix)
    return assemble(mode, EncodingLayout(len(peptide)), peptide, matrix, penalties, fits)


def cmd_build(args) -> int:
    _write_instance(_assemble(args, args.mode), args.out)
    return 0


def _write_instance(instance: ProblemInstance, out) -> None:
    constraint_terms = sum(c.term_count() for c in instance.constraints)
    print(
        f"mode={instance.mode} peptide={instance.peptide} "
        f"qubits={instance.n_qubits} objective_terms={instance.objective.term_count()} "
        f"constraints={len(instance.constraints)} constraint_terms={constraint_terms}"
    )
    if out is not None:
        path = _out_path(out, "instance.json")
        with open(path, "w") as handle:
            handle.write(instance.to_json())
            handle.write("\n")
        print(f"wrote {path}")


def cmd_search(args) -> int:
    peptide = validate_peptide(args.peptide)
    config = SearchConfig(
        lattice=args.lattice,
        peptide=peptide,
        matrix=load_matrix(args.matrix),
        k=args.k,
        nn_level=args.nn_level,
        workers=args.workers,
    )
    topk = search(config)
    print(f"visited={topk.visited} kept={len(topk.records)}")
    for record in topk.records:
        print(f"energy={record.energy:.6f} turns={record.turn_string}")
    if args.out is not None:
        topobj_path = _out_path(args.out, "folds.topobj")
        write_topobj(topk, path=topobj_path, lattice=args.lattice, peptide=peptide)
        print(f"wrote {topobj_path}")
        if topk.records:
            xyz_path = _out_path(args.out, "best.xyz")
            write_xyz(topk.records[0].turns, peptide, path=xyz_path)
            print(f"wrote {xyz_path}")
    return 0


def _write_params(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _summarize_state(instance: ProblemInstance, engine, probs) -> dict:
    modal = engine.modal_config(probs)
    bits = bitstring_of(modal, instance.layout.n_config_bits)
    seq = unpack_configuration(bits, instance.layout.n_beads)
    return {
        "modal_config": int(modal),
        "modal_turns": seq.to_string(),
        "ground_probability": engine.ground_probability(probs),
        "ground_energy": engine.ground_energy,
    }


def cmd_vqe(args) -> int:
    instance = _assemble(args, MODE_POLYFIT)
    _solve_vqe(instance, ExpectationEngine(instance), args)
    return 0


def _solve_vqe(instance: ProblemInstance, engine: ExpectationEngine, args) -> np.ndarray:
    """Optimize, report and write the result; returns the final state.

    ``args`` is a ``vqe`` namespace or a ``RunManifest``.
    """
    ansatz = Ansatz(instance.n_qubits, layers=args.layers)
    cfg = CvarVqeConfig(
        alpha=args.alpha,
        max_iterations=args.iterations,
        restarts=args.restarts,
        seed=args.seed,
    )
    print(
        f"cobyla budget: {cobyla_budget(cfg, ansatz)} evaluations per restart "
        f"(--iterations {args.iterations}, at least P+2 = {ansatz.n_params + 2})",
        file=sys.stderr,
    )
    params, trace = run_cvar_vqe(instance, ansatz, cfg, engine)
    state = evolve(ansatz, params)
    summary = _summarize_state(instance, engine, probabilities(state))
    print(
        f"objective={trace.best_so_far[-1]:.6f} "
        f"modal={summary['modal_turns']} "
        f"ground_probability={summary['ground_probability']:.6f}"
    )
    if args.out is not None:
        payload = {
            "method": "vqe",
            "mode": instance.mode,
            "peptide": instance.peptide,
            "layers": args.layers,
            "n_qubits": instance.n_qubits,
            "params": [float(v) for v in params],
            "objective": trace.best_so_far[-1],
            **summary,
        }
        params_path = _out_path(args.out, "params.json")
        _write_params(params_path, payload)
        trace_path = _out_path(args.out, "trace.jsonl")
        with open(trace_path, "w") as handle:
            handle.write(trace.to_json_lines())
        print(f"wrote {params_path}")
        print(f"wrote {trace_path}")
    return state


def cmd_vqec(args) -> int:
    instance = _assemble(args, MODE_VQEC)
    _solve_vqec(instance, ExpectationEngine(instance), args)
    return 0


def _solve_vqec(instance: ProblemInstance, engine: ExpectationEngine, args) -> np.ndarray:
    """Optimize, report and write the result; returns the final state.

    ``args`` is a ``vqec`` namespace or a ``RunManifest``.
    """
    ansatz = Ansatz(instance.n_qubits, layers=args.layers)
    cfg = VqecConfig(
        nu=args.nu,
        mu=args.mu,
        restarts=args.restarts,
        max_iterations=args.iterations,
        seed=args.seed,
    )
    grid_lines = None
    if args.grid:
        report = grid_search(instance, ansatz, cfg, engine)
        best = report.best
        params = np.array(best.params)
        duals = np.array(best.duals)
        trace = None
        grid_lines = report.to_json_lines()
        print(
            f"grid_points={len(cfg.nu_grid) * len(cfg.mu_grid)} "
            f"best_nu={best.nu} best_mu={best.mu} restart={best.restart}"
        )
        evaluations = report.circuit_evaluations
    else:
        params, duals, trace = run_vqec_pdp(instance, ansatz, cfg, engine)
        evaluations = trace.circuit_evaluations
    state = evolve(ansatz, params)
    probs = probabilities(state)
    if args.grid:
        final = {"lagrangian": best.lagrangian, "violation": best.violation}
    else:
        f = engine.f_vector(probs)
        violation = float(max(0.0, *f[1:])) if f.shape[0] > 1 else 0.0
        final = {
            "lagrangian": float(f[0] + np.asarray(duals) @ f[1:]),
            "violation": violation,
        }
    summary = _summarize_state(instance, engine, probs)
    print(
        f"lagrangian={final['lagrangian']:.6f} violation={final['violation']:.6f} "
        f"modal={summary['modal_turns']} "
        f"ground_probability={summary['ground_probability']:.6f} "
        f"circuit_evaluations={evaluations}"
    )
    if args.out is not None:
        payload = {
            "method": "vqec",
            "mode": instance.mode,
            "peptide": instance.peptide,
            "layers": args.layers,
            "n_qubits": instance.n_qubits,
            "params": [float(v) for v in params],
            "duals": [float(v) for v in duals],
            **final,
            **summary,
        }
        params_path = _out_path(args.out, "params.json")
        _write_params(params_path, payload)
        print(f"wrote {params_path}")
        if trace is not None:
            trace_path = _out_path(args.out, "trace.jsonl")
            with open(trace_path, "w") as handle:
                handle.write(trace.to_json_lines())
            print(f"wrote {trace_path}")
        if grid_lines is not None:
            grid_path = _out_path(args.out, "grid.jsonl")
            with open(grid_path, "w") as handle:
                handle.write(grid_lines)
            print(f"wrote {grid_path}")
    return state


def cmd_sample(args) -> int:
    peptide = validate_peptide(args.peptide)
    params_path = args.params
    if params_path is None:
        params_path = os.path.join(args.out if args.out is not None else ".", "params.json")
    with open(params_path) as handle:
        payload = json.load(handle)
    layout = EncodingLayout(len(peptide))
    ansatz = Ansatz(layout.total_qubits, layers=payload.get("layers", args.layers))
    params = np.array(payload["params"], dtype=float)
    _write_shots(sample(evolve(ansatz, params), args.shots, args.seed), args.out)
    return 0


def _write_shots(table: ShotTable, out) -> None:
    print(f"shots={table.shots} distinct={len(table.counts)}")
    if out is not None:
        path = _out_path(out, "shots.tsv")
        with open(path, "w") as handle:
            handle.write(table.to_text())
        print(f"wrote {path}")


def _oracle_minimum(peptide: str, matrix, nn_level: int):
    if enumeration_size(FCC, len(peptide)) > ORACLE_SIZE_CAP:
        return None
    topk = search(
        SearchConfig(lattice=FCC, peptide=peptide, matrix=matrix, k=1, nn_level=nn_level)
    )
    return topk.records[0].energy if topk.records else None


def cmd_analyze(args) -> int:
    peptide = validate_peptide(args.peptide)
    matrix = load_matrix(args.matrix)
    shots_path = args.shots_file
    if shots_path is None:
        shots_path = os.path.join(args.out if args.out is not None else ".", "shots.tsv")
    with open(shots_path) as handle:
        table = ShotTable.from_text(handle.read())
    e_star = args.e_star
    if e_star is None and args.oracle:
        e_star = _oracle_minimum(peptide, matrix, args.nn_level)
    _analyze(table, peptide, matrix, args.nn_level, e_star, args.out)
    return 0


def _analyze(table: ShotTable, peptide: str, matrix, nn_level: int, e_star, out) -> None:
    score_config = SearchConfig(
        lattice=FCC, peptide=peptide, matrix=matrix, nn_level=nn_level
    )
    ensemble = decode_samples(
        table,
        EncodingLayout(len(peptide)),
        squared_distance_scorer(peptide, score_config),
        e_star=e_star,
    )
    modal = ensemble.modal
    energy_text = "n/a" if modal.energy is None else f"{modal.energy:.6f}"
    print(
        f"modal={modal.turn_string} probability={modal.probability:.6f} "
        f"energy={energy_text} valid_probability={ensemble.valid_probability:.6f}"
    )
    if out is not None:
        report_path = _out_path(out, "report.tsv")
        json_path = _out_path(out, "report.json")
        energy_probability_report(
            ensemble, e_star=e_star, path=report_path, peptide=peptide,
            json_path=json_path,
        )
        print(f"wrote {report_path}")
        print(f"wrote {json_path}")
        if modal.energy is not None:
            xyz_path = _out_path(out, "modal.xyz")
            write_xyz(modal.turns, peptide, path=xyz_path)
            print(f"wrote {xyz_path}")


def cmd_pipeline(args) -> int:
    if args.manifest is not None:
        with open(args.manifest) as handle:
            manifest = RunManifest.from_json(handle.read())
        if args.out is not None:
            manifest = replace(manifest, out=args.out)
    else:
        if args.peptide is None:
            raise QfoldError("pipeline needs --manifest or --peptide")
        mode = {"vqe": MODE_POLYFIT, "vqec": MODE_VQEC}.get(args.method, args.mode)
        manifest = RunManifest(
            peptide=args.peptide,
            lattice=args.lattice,
            method=args.method,
            mode=mode,
            matrix=args.matrix,
            k=args.k,
            nn_level=args.nn_level,
            alpha=args.alpha,
            nu=args.nu,
            mu=args.mu,
            grid=args.grid,
            restarts=args.restarts,
            iterations=args.iterations,
            layers=args.layers,
            shots=args.shots,
            seed=args.seed,
            workers=args.workers,
            out=args.out if args.out is not None else ".",
        )
    return run_pipeline(manifest)


def run_pipeline(manifest: RunManifest) -> int:
    """Run every stage of ``manifest``, handing its results on in memory."""
    out = manifest.out
    manifest_path = _out_path(out, "manifest.json")
    with open(manifest_path, "w") as handle:
        handle.write(manifest.to_json())
    print(f"wrote {manifest_path}")
    if manifest.method == "search":
        cmd_search(manifest)
        return 0
    table = sample(_fit_assemble_solve(manifest), manifest.shots, manifest.seed)
    _write_shots(table, out)
    peptide = validate_peptide(manifest.peptide)
    matrix = load_matrix(manifest.matrix)
    e_star = _oracle_minimum(peptide, matrix, manifest.nn_level)
    _analyze(table, peptide, matrix, manifest.nn_level, e_star, out)
    return 0


def _fit_assemble_solve(manifest: RunManifest) -> np.ndarray:
    """Fit once, assemble once and solve on one engine; returns the final state.

    The instance and engine are dropped when this returns, so sampling and
    analysis do not hold them.
    """
    fits = None
    if manifest.mode == MODE_POLYFIT:
        from .polyfit import fit_family

        n_beads = len(validate_peptide(manifest.peptide))
        fits = fit_family(n_beads, p0=manifest.p0, r2_tol=0.999)
        _write_fits(fits, manifest.out)
    instance = _assemble(manifest, manifest.mode, Penalties(p0=manifest.p0), fits)
    _write_instance(instance, manifest.out)
    solve = _solve_vqe if manifest.method == "vqe" else _solve_vqec
    return solve(instance, ExpectationEngine(instance), manifest)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfold",
        description="Lattice protein folding via diagonal pseudo-Boolean "
        "Hamiltonians and simulated variational optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, matrix=True):
        p.add_argument("--peptide", help="one-letter residue sequence")
        if matrix:
            p.add_argument(
                "--matrix",
                default="mj1996",
                help="energy matrix: bundled name or file path "
                "(QFOLD_DATA overrides the bundled-table directory)",
            )

    p = sub.add_parser("resources", help="qubit accounting per chain length")
    add_common(p, matrix=False)
    p.add_argument("--n", type=int, help="chain length instead of --peptide")
    p.add_argument("--n-max", type=int, help="print every length up to this")
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("fit-penalty", help="minimal-degree penalty polynomials")
    add_common(p, matrix=False)
    p.add_argument("--separation", type=int, help="fit one bead separation only")
    p.add_argument("--p0", type=float, default=50.0, help="penalty height at d=0")
    p.add_argument("--r2-tol", type=float, default=0.999)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_fit_penalty)

    p = sub.add_parser("build", help="assemble a problem instance")
    add_common(p)
    p.add_argument("--lattice", choices=LATTICES, default=FCC)
    p.add_argument("--mode", choices=MODES, default=MODE_POLYFIT)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="exhaustive conformational search")
    add_common(p)
    p.add_argument("--lattice", choices=LATTICES, default=FCC)
    p.add_argument("--k", type=int, default=10, help="conformers to keep")
    p.add_argument("--nn-level", type=int, choices=(1, 2), default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("vqe", help="CVaR variational optimization")
    add_common(p)
    p.add_argument("--lattice", choices=(FCC,), default=FCC)
    p.add_argument("--alpha", type=float, default=0.1, help="CVaR tail fraction")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iterations", type=int, default=80)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_vqe)

    p = sub.add_parser("vqec", help="constrained primal-dual optimization")
    add_common(p)
    p.add_argument("--lattice", choices=(FCC,), default=FCC)
    p.add_argument("--nu", type=float, default=0.01, help="dual step size")
    p.add_argument("--mu", type=float, default=0.5, help="primal step size")
    p.add_argument("--grid", action="store_true", help="sweep the step-size grid")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_vqec)

    p = sub.add_parser("sample", help="draw shots from optimized parameters")
    add_common(p, matrix=False)
    p.add_argument("--params", help="params.json path (default: <out>/params.json)")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze", help="decode shots into an energy report")
    add_common(p)
    p.add_argument("--shots-file", help="shot table path (default: <out>/shots.tsv)")
    p.add_argument("--nn-level", type=int, choices=(1, 2), default=1)
    p.add_argument("--e-star", type=float, help="reference ground energy")
    p.add_argument(
        "--oracle", action="store_true",
        help="compute the reference energy by exhaustive search",
    )
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pipeline", help="run fit, build, solve, sample, analyze")
    add_common(p)
    p.add_argument("--manifest", help="JSON manifest path (overrides flags)")
    p.add_argument("--lattice", choices=LATTICES, default=FCC)
    p.add_argument(
        "--method", choices=("search", "vqe", "vqec"), default="search"
    )
    p.add_argument("--mode", choices=MODES, default=MODE_POLYFIT)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--nn-level", type=int, choices=(1, 2), default=1)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--nu", type=float, default=0.01)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--grid", action="store_true")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iterations", type=int, default=80)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "resources" and args.peptide is None and args.n is None:
        parser.error("resources needs --peptide or --n")
    if args.command == "fit-penalty" and args.peptide is None and args.separation is None:
        parser.error("fit-penalty needs --peptide or --separation")
    if args.command in ("build", "search", "vqe", "vqec", "sample", "analyze"):
        if args.peptide is None:
            parser.error(f"{args.command} needs --peptide")
    try:
        return args.func(args)
    except QfoldError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
