"""Command-line surface: flags in, artifacts out.

Every subcommand is deterministic given its seed, so archived runs reproduce
byte for byte.  Each one parses its flags into a ``RunManifest``, so every
run passes the same checks and reads the canonical peptide, and runs the
stages of ``qfold.pipeline`` it needs: ``build`` stops after the instance,
``vqe`` and ``vqec`` after the solution, and ``pipeline`` runs them all,
writing each stage's artifacts as the stage ends, next to a copy of the
manifest that produced them.  ``sample`` and ``analyze`` start from the
files that an earlier run wrote.  Run as the program, ``main`` freezes the
collector's heap before the command: what is alive then (mostly NumPy's and
qfold's import-time objects) lives until exit, so no later collection,
finalization's included, walks it again.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import MISSING, fields, replace

from . import pipeline
from .analysis import ShotTable, energy_probability_report, write_topobj, write_xyz
from .exceptions import ParseError, QfoldError
from .lattice import FCC, LATTICES, MODE_POLYFIT, MODES, EncodingLayout
from .pipeline import METHOD_MODES, METHODS, RunManifest, chain_peptide, check_finite_positive
from .scoring import read_utf8, validate_peptide

# ---------------------------------------------------------------------------
# resource accounting
# ---------------------------------------------------------------------------


def resource_counts(n_beads: int) -> dict:
    """Qubit budget for an N-bead chain, slack-free versus slack encodings.

    The slack-free budget is the ``EncodingLayout`` the Hamiltonian is built
    on: 4N-10 configuration qubits plus one ancilla per non-bonded pair.  The
    slack alternative replaces the ancillas with one integer register per
    pair, ceil(log2(2(j-i)^2 - 1)) bits wide.  Both are closed forms, so
    any N answers at once: the slack bits are summed over the runs of
    separations that share one width, O(log N) runs.
    """
    layout = EncodingLayout(n_beads)
    config, ancilla = layout.n_config_bits, layout.n_ancillas
    slack_bits = 0
    sep = 2
    while sep < n_beads:
        # ceil(log2(m)) is (m - 1).bit_length(); the width holds while
        # 2 s^2 - 2 < 2^width, that is for s^2 <= 2^(width - 1)
        width = (2 * sep * sep - 2).bit_length()
        last = min(math.isqrt(1 << (width - 1)), n_beads - 1)
        # sum of N - s over s = sep .. last
        slack_bits += width * (last - sep + 1) * (2 * n_beads - sep - last) // 2
        sep = last + 1
    return {
        "n": n_beads,
        "config": config,
        "ancilla": ancilla,
        "total": config + ancilla,
        "slack_bits": slack_bits,
        "slack_total": config + slack_bits,
    }


def cmd_resources(args) -> int:
    if args.peptide is not None:
        n_beads = len(validate_peptide(args.peptide))
    else:
        n_beads = args.n
    last = args.n_max if args.n_max is not None else n_beads
    if last < n_beads:
        raise QfoldError(f"--n-max {last} is below the chain length {n_beads}")
    for n in range(n_beads, last + 1):
        c = resource_counts(n)
        print(
            f"N={c['n']} config={c['config']} ancilla={c['ancilla']} "
            f"total={c['total']} slack_bits={c['slack_bits']} "
            f"slack_total={c['slack_total']}"
        )
    return 0


# ---------------------------------------------------------------------------
# writing stage results
# ---------------------------------------------------------------------------


def _write(out, name: str, text: str) -> None:
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _emit_fits(fits: dict, manifest, out) -> None:
    from .polyfit import fit_report

    print(fit_report(fits), end="")
    if out is not None:
        doc = {
            str(sep): {
                "degree": fit.degree,
                "r2": fit.r2,
                "p0": fit.p0,
                "coeffs_cheb": list(fit.coeffs_cheb),
            }
            for sep, fit in sorted(fits.items())
        }
        _write(out, "fits.json", json.dumps(doc, indent=2) + "\n")


def _emit_instance(instance, manifest, out) -> None:
    constraint_terms = sum(c.term_count() for c in instance.constraints)
    print(
        f"mode={instance.mode} peptide={instance.peptide} "
        f"qubits={instance.n_qubits} objective_terms={instance.objective.term_count()} "
        f"constraints={len(instance.constraints)} constraint_terms={constraint_terms}"
    )
    if out is not None:
        _write(out, "instance.json", instance.to_json() + "\n")


def _emit_topk(topk, manifest, out) -> None:
    print(f"visited={topk.visited} kept={len(topk.records)}")
    print(f"pruned={topk.pruned}")
    for record in topk.records:
        print(f"energy={record.energy:.6f} turns={record.turn_string}")
    if out is not None:
        text = write_topobj(topk, lattice=manifest.lattice, peptide=manifest.peptide)
        _write(out, "folds.topobj", text)
        if topk.records:
            _write(out, "best.xyz", write_xyz(topk.records[0].turns, manifest.peptide))


def _emit_solution(solution, manifest, out) -> None:
    report = solution.report
    grid = report if manifest.grid else None  # vqe ignores the grid flag
    if grid is not None:
        best = grid.best
        print(
            f"grid_points={len(grid.entries) // manifest.restarts} "
            f"best_nu={best.nu} best_mu={best.mu} restart={best.restart}"
        )
    summary = solution.summary
    line = " ".join(f"{key}={value:.6f}" for key, value in solution.final.items())
    line += (
        f" modal={summary['modal_turns']} "
        f"ground_probability={summary['ground_probability']:.6f}"
    )
    if report is not None:
        line += f" circuit_evaluations={report.circuit_evaluations}"
    print(line)
    if out is not None:
        _write(out, "params.json", solution.to_json())
        if solution.trace is not None:
            _write(out, "trace.jsonl", solution.trace.to_json_lines())
        if grid is not None:
            _write(out, "grid.jsonl", grid.to_json_lines())


def _emit_shots(table, manifest, out) -> None:
    print(f"shots={table.shots} distinct={len(table.counts)}")
    if out is not None:
        _write(out, "shots.tsv", table.to_text())


def _emit_ensemble(ensemble, manifest, out) -> None:
    modal = ensemble.modal
    energy_text = "n/a" if modal.energy is None else f"{modal.energy:.6f}"
    print(
        f"modal={modal.turn_string} probability={modal.probability:.6f} "
        f"energy={energy_text} valid_probability={ensemble.valid_probability:.6f}"
    )
    if out is not None:
        tsv, doc = energy_probability_report(ensemble, peptide=manifest.peptide)
        _write(out, "report.tsv", tsv)
        _write(out, "report.json", doc)
        if modal.energy is not None:
            _write(out, "modal.xyz", write_xyz(modal.turns, manifest.peptide))


EMITTERS = {
    "topk": _emit_topk,
    "fits": _emit_fits,
    "instance": _emit_instance,
    "solution": _emit_solution,
    "shots": _emit_shots,
    "ensemble": _emit_ensemble,
}


def _run_stages(manifest: RunManifest, out, *emitted: str) -> int:
    """Run ``manifest``'s stages up to the last of ``emitted``, writing
    those stages' artifacts into ``out`` (None: print only) as each ends."""
    for stage, result in pipeline.stages(manifest):
        if stage in emitted:
            EMITTERS[stage](result, manifest, out)
        if stage == emitted[-1]:
            break
        if stage == "instance" and manifest.method == "vqe":
            from .optimize import cobyla_budget

            ansatz, cfg = pipeline.solver(manifest, result.n_qubits)
            print(
                f"cobyla budget: {cobyla_budget(cfg, ansatz)} evaluations per "
                f"restart (--iterations {manifest.iterations}, at least "
                f"P+2 = {ansatz.n_params + 2})",
                file=sys.stderr,
            )
    return 0


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _manifest(args, **given) -> RunManifest:
    """The manifest of a subcommand's flags; a field without a flag keeps
    its default.  ``--workers`` is no manifest field: only 1 passes."""
    if getattr(args, "workers", 1) != 1:
        raise QfoldError("--workers must be 1: the search runs in one process")
    values = {
        f.name: getattr(args, f.name)
        for f in fields(RunManifest)
        if getattr(args, f.name, None) is not None
    }
    values.update(given)
    return RunManifest(**values)


def cmd_fit_penalty(args) -> int:
    check_finite_positive("p0", args.p0, "penalty height")
    if not 0.0 < args.r2_tol <= 1.0:
        raise QfoldError(f"r2_tol must lie in (0, 1], got {args.r2_tol}")
    from .polyfit import PenaltyTarget, fit_family, fit_penalty

    if args.separation is not None:
        if args.separation < 3:
            raise QfoldError("penalty fits start at bead separation 3")
        target = PenaltyTarget(args.separation, args.p0)
        fits = {args.separation: fit_penalty(target, r2_tol=args.r2_tol)}
    else:
        n_beads = len(chain_peptide(args.peptide))
        fits = fit_family(n_beads, p0=args.p0, r2_tol=args.r2_tol)
    _emit_fits(fits, None, args.out)
    return 0


def cmd_build(args) -> int:
    # building runs the first stages of the method that optimizes the mode
    method = next(m for m, mode in METHOD_MODES.items() if mode == args.mode)
    return _run_stages(_manifest(args, method=method), args.out, "instance")


def cmd_search(args) -> int:
    return _run_stages(_manifest(args), args.out, "topk")


def cmd_solve(args) -> int:
    return _run_stages(_manifest(args), args.out, "solution")


def cmd_sample(args) -> int:
    manifest = _manifest(args)
    params_path = args.params
    if params_path is None:
        params_path = os.path.join(args.out if args.out is not None else ".", "params.json")
    table = pipeline.resample(manifest, read_utf8(params_path, ParseError))
    _emit_shots(table, manifest, args.out)
    return 0


def cmd_analyze(args) -> int:
    manifest = _manifest(args)
    shots_path = args.shots_file
    if shots_path is None:
        shots_path = os.path.join(args.out if args.out is not None else ".", "shots.tsv")
    table = ShotTable.from_text(read_utf8(shots_path, ParseError))
    ensemble = pipeline.decode_shots(manifest, table, args.e_star, args.oracle)
    _emit_ensemble(ensemble, manifest, args.out)
    return 0


def cmd_pipeline(args) -> int:
    if args.manifest is not None:
        manifest = RunManifest.from_json(read_utf8(args.manifest, ParseError))
        if args.out is not None:
            manifest = replace(manifest, out=args.out)
    elif args.peptide is None:
        raise QfoldError("pipeline needs --manifest or --peptide")
    else:
        manifest = _manifest(args)
    return run_pipeline(manifest)


def run_pipeline(manifest: RunManifest) -> int:
    """Run every stage of ``manifest``, writing each stage's artifacts as it ends."""
    _write(manifest.out, "manifest.json", manifest.to_json())
    return _run_stages(manifest, manifest.out, *pipeline.STAGES)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# every flag's argparse options; a manifest field's flag defaults to the
# manifest's value, and one without its own "type" to the field's type
FLAGS = {
    "peptide": {"help": "one-letter residue sequence"},
    "matrix": {
        "help": "energy matrix: bundled name or file path "
        "(QFOLD_DATA overrides the bundled-table directory)"
    },
    "n": {"type": int, "help": "chain length instead of --peptide"},
    "n_max": {"type": int, "help": "print every length up to this"},
    "separation": {"type": int, "help": "fit one bead separation only"},
    "p0": {"help": "penalty height at d=0"},
    "r2_tol": {"type": float, "default": 0.999},
    "manifest": {"help": "JSON manifest path (overrides flags)"},
    "lattice": {"choices": LATTICES},
    "method": {"choices": METHODS},
    "mode": {"choices": MODES},
    "k": {"help": "conformers to keep"},
    "nn_level": {"choices": (1, 2)},
    "alpha": {"help": "CVaR tail fraction"},
    "nu": {"help": "dual step size"},
    "mu": {"help": "primal step size"},
    "grid": {"help": "sweep the step-size grid"},
    "params": {"help": "params.json path (default: <out>/params.json)"},
    "shots_file": {"help": "shot table path (default: <out>/shots.tsv)"},
    "e_star": {"type": float, "help": "reference ground energy"},
    "oracle": {
        "action": "store_true",
        "help": "compute the reference energy by exhaustive search",
    },
    "out": {"help": "output directory"},
    "workers": {
        "type": int,
        "default": 1,
        "help": "accepts only 1 and is ignored: the search runs in one process; "
        "the flag stays because scripts pass it, perfbench's search-8 among them",
    },
}

FCC_ONLY = {"lattice": {"choices": (FCC,)}}

# (name, help, body, flags, per-flag overrides, namespace defaults)
COMMANDS = (
    ("resources", "qubit accounting per chain length", cmd_resources,
     "peptide n n_max", {}, {}),
    ("fit-penalty", "minimal-degree penalty polynomials", cmd_fit_penalty,
     "peptide separation p0 r2_tol out", {}, {}),
    ("build", "assemble a problem instance", cmd_build,
     "peptide matrix lattice mode out", {"mode": {"default": MODE_POLYFIT}}, {}),
    ("search", "exhaustive conformational search", cmd_search,
     "peptide matrix lattice k nn_level workers out", {}, {}),
    ("vqe", "CVaR variational optimization", cmd_solve,
     "peptide matrix lattice alpha restarts iterations layers seed out",
     FCC_ONLY, {"method": "vqe"}),
    ("vqec", "constrained primal-dual optimization", cmd_solve,
     "peptide matrix lattice nu mu grid restarts iterations layers seed out",
     {**FCC_ONLY, "iterations": {"default": 50}},
     {"method": "vqec"}),
    ("sample", "draw shots from optimized parameters", cmd_sample,
     "peptide params shots layers seed out", {}, {}),
    ("analyze", "decode shots into an energy report", cmd_analyze,
     "peptide matrix shots_file nn_level e_star oracle out", {}, {}),
    ("pipeline", "run fit, build, solve, sample, analyze", cmd_pipeline,
     "peptide matrix manifest lattice method k nn_level alpha nu mu grid "
     "restarts iterations layers shots seed workers out", {}, {}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfold",
        description="Lattice protein folding via diagonal pseudo-Boolean "
        "Hamiltonians and simulated variational optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for f in fields(RunManifest) if f.name != "out"}
    for name, help_text, body, flags, overrides, namespace in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            options = {}
            default = defaults.get(flag, MISSING)
            if isinstance(default, bool):
                options = {"action": "store_true"}
            elif default is not MISSING:
                options = {"default": default}
                if not isinstance(default, (str, type(None))):
                    options["type"] = type(default)
            options.update(FLAGS.get(flag, {}), **overrides.get(flag, {}))
            p.add_argument("--" + flag.replace("_", "-"), **options)
        p.set_defaults(func=body, **namespace)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; 0 on success, 2 on a ``QfoldError`` (an input
    file that is not UTF-8 among them) or an ``OSError``.

    With ``argv`` None (``python -m qfold.cli``, the ``qfold`` script) the
    process ends with the command, so the heap is frozen once the flags
    pass their checks.  Callers that pass ``argv`` live on, and a freeze
    would keep their cyclic garbage until exit, so they keep the collector
    as it is.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "resources" and args.peptide is None and args.n is None:
        parser.error("resources needs --peptide or --n")
    if args.command == "fit-penalty" and args.peptide is None and args.separation is None:
        parser.error("fit-penalty needs --peptide or --separation")
    if args.command in ("build", "search", "vqe", "vqec", "sample", "analyze"):
        if args.peptide is None:
            parser.error(f"{args.command} needs --peptide")
    if argv is None:
        gc.freeze()
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
