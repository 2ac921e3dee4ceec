"""In-process span tracing of one ``qfold`` invocation, and the per-layer
metrics derived from the spans.

Run as a program, this file is the traced twin of ``python -m qfold.cli``:

    python perfbench/tracer.py SPANS_JSON INVOCATION_ID -- pipeline --peptide ...

It imports qfold, wraps the public functions of each layer (see ``LAYERS``),
runs ``qfold.cli.main`` on the remaining arguments and, when the invocation
ends, writes every recorded span to SPANS_JSON.  Spans are kept in memory
until then, so the trace adds no I/O to the timed work.

``qfold.cli`` and ``qfold.optimize`` import ``evolve``, ``assemble``,
``search``, ``fit_family`` and friends by name, so wrapping the defining
module alone would silently miss their calls.  ``_rebind`` therefore replaces
the original object under every name it is bound to in every loaded qfold
module.  Methods are wrapped on their class, which every caller shares.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name); "Class.method" wraps a method on its class
LAYERS = (
    ("qfold.cli", "run_pipeline", "cli.pipeline"),
    ("qfold.sim", "evolve", "sim.evolve"),
    ("qfold.sim", "sample", "sim.sample"),
    ("qfold.optimize", "run_cvar_vqe", "optimize.run"),
    ("qfold.optimize", "run_vqec_pdp", "optimize.run"),
    ("qfold.optimize", "ExpectationEngine.__init__", "optimize.engine"),
    ("qfold.optimize", "ExpectationEngine.f_vector", "optimize.f_vector"),
    ("qfold.optimize", "ExpectationEngine.cvar_objective", "optimize.cvar"),
    ("qfold.hamiltonian", "assemble", "hamiltonian.assemble"),
    ("qfold.hamiltonian", "InstanceTables.__init__", "hamiltonian.tables"),
    ("qfold.polyfit", "fit_family", "polyfit.fit_family"),
    ("qfold.search", "search", "search"),
    ("qfold.analysis", "decode_samples", "analysis.decode"),
    ("qfold.analysis", "energy_probability_report", "analysis.report"),
)


class Tracer:
    """Spans of one invocation: [name, start, end, parent index, attrs]."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span[4] = annotate(args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        doc = {"invocation": self.invocation, "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _evolve_bytes(args, result):
    # computed, not measured: every gate reads and writes the whole float64
    # state once, 2 * 8 * 2^n bytes per gate
    ansatz = args[0]
    n = ansatz.n_qubits
    gates = n * (ansatz.layers + 1) + (n - 1) * ansatz.layers
    return {"bytes": gates * 2 * 8 * (1 << n)}


def _assemble_terms(args, instance):
    terms = instance.objective.term_count()
    terms += sum(c.term_count() for c in instance.constraints)
    return {"terms": terms}


ANNOTATE = {
    "sim.evolve": _evolve_bytes,
    "hamiltonian.assemble": _assemble_terms,
    "search": lambda args, topk: {"visited": topk.visited},
    "analysis.decode": lambda args, ensemble: {"configs": len(ensemble.entries)},
}


def _rebind(original, replacement) -> int:
    """Replace ``original`` under every name any qfold module binds it to."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qfold" or mod_name.startswith("qfold.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def instrument(tracer: Tracer) -> None:
    import importlib

    for mod_name, attr, span in LAYERS:
        module = importlib.import_module(mod_name)
        annotate = ANNOTATE.get(span)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(span, getattr(cls, method), annotate))
        else:
            original = getattr(module, attr)
            if _rebind(original, tracer.wrap(span, original, annotate)) == 0:
                raise RuntimeError(f"{mod_name}.{attr} is bound nowhere")


# ---------------------------------------------------------------------------
# span analysis (run by the benchmark on the written spans)
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Span duration minus the part of it that its child spans cover."""
    children: dict = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer counts and seconds of one invocation, keyed by metric name."""
    calls: dict = {}
    seconds: dict = {}
    self_s: dict = {}
    attrs: dict = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, extra = span
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own
        for key, value in extra.items():
            attrs[(name, key)] = attrs.get((name, key), 0) + value

    evolve_s = seconds.get("sim.evolve", 0.0)
    evolve_calls = calls.get("sim.evolve", 0)
    return {
        "sim.evolve.calls": evolve_calls,
        "sim.evolve.s": evolve_s,
        "sim.evolve.ms_per_call": 1e3 * evolve_s / evolve_calls if evolve_calls else 0.0,
        "sim.evolve.gb_per_s": (
            attrs.get(("sim.evolve", "bytes"), 0) / evolve_s / 1e9 if evolve_s else 0.0
        ),
        "sim.sample.s": seconds.get("sim.sample", 0.0),
        "optimize.f_vector.calls": calls.get("optimize.f_vector", 0),
        "optimize.f_vector.s": seconds.get("optimize.f_vector", 0.0),
        "optimize.cvar.calls": calls.get("optimize.cvar", 0),
        "optimize.cvar.s": seconds.get("optimize.cvar", 0.0),
        "optimize.self_s": self_s.get("optimize.run", 0.0),
        "optimize.engine.calls": calls.get("optimize.engine", 0),
        "optimize.engine.s": seconds.get("optimize.engine", 0.0),
        "hamiltonian.assemble.calls": calls.get("hamiltonian.assemble", 0),
        "hamiltonian.assemble.s": seconds.get("hamiltonian.assemble", 0.0),
        "hamiltonian.tables.calls": calls.get("hamiltonian.tables", 0),
        "hamiltonian.tables.s": seconds.get("hamiltonian.tables", 0.0),
        "hamiltonian.terms": attrs.get(("hamiltonian.assemble", "terms"), 0),
        "polyfit.fit_family.calls": calls.get("polyfit.fit_family", 0),
        "polyfit.fit_family.s": seconds.get("polyfit.fit_family", 0.0),
        "search.calls": calls.get("search", 0),
        "search.s": seconds.get("search", 0.0),
        "search.visited": attrs.get(("search", "visited"), 0),
        "analysis.decode.s": seconds.get("analysis.decode", 0.0),
        "analysis.configs": attrs.get(("analysis.decode", "configs"), 0),
        "analysis.report.s": seconds.get("analysis.report", 0.0),
        "cli.self_s": self_s.get("cli.pipeline", 0.0),
    }


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON INVOCATION_ID -- QFOLD_ARGS...", file=sys.stderr)
        return 2
    spans_path, invocation = Path(argv[0]), int(argv[1])
    tracer = Tracer(invocation)
    instrument(tracer)
    from qfold import cli

    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
