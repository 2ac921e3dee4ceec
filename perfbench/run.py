#!/usr/bin/env python3
"""Closed-loop benchmark of ``qfold pipeline``.

    python3 perfbench/run.py --workload vqec-9q --seed 1 --seconds 28 --trace 0

One client sends one invocation at a time, each a fresh
``python -m qfold.cli pipeline`` process, and sends the next only after the
previous one has ended.  The workload seed draws every invocation's peptide
(uniform over the 20 residues of mj1996) and its ``--seed``; the program
sees only the generated flags.  Every invocation's artifacts are checked
(see ``checks.py``); a failed check or a non-zero exit counts as failed.

``--trace 0`` times untraced invocations for ``--seconds`` and reports the
end-to-end metrics, with times scaled to a reference machine speed measured
while each child runs (see ``Speedometer``).  ``--trace 1`` runs a fixed
number of invocations per workload twice, untraced and then under
``tracer.py``, and reports per-layer metrics from the spans plus the tracing
overhead; the count is fixed so that every count repeats exactly across
traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with per-invocation records and provenance, goes to
``.perfbench/results/``; traced spans go to ``.perfbench/spans/``.
Standard library only, apart from the NumPy speed probe (NumPy is qfold's
own dependency).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"  # the 20 residues of mj1996
ANSATZ_LAYERS = 2  # the CLI's default; P = n_qubits * (ANSATZ_LAYERS + 1)
SHOTS = 1024
SETUP_REPS = 3
RUN_BUDGET_S = 160.0  # a child still running when a run has taken this long is killed
MAX_INVOCATIONS = 64
TRACED_INVOCATIONS = 2  # a traced run's fixed count, so its counts repeat
PROBE_PERIOD_S = 0.05  # the two probe kinds alternate, each every 0.1 s
PROBE_LOOPS = 10_000  # the Python probe: about 1 ms of interpreter work
PROBE_QUBITS = (3, 7, 11, 15)  # the NumPy probe: four rotations of a 512 KB state
# each probe's time that counts as the reference machine speed
PROBE_REF_S = {"python": 0.001, "numpy": 0.0016}

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("sim.evolve.calls", "count", "lower"),
    ("sim.evolve.s", "s", "lower"),
    ("sim.evolve.ms_per_call", "ms", "lower"),
    ("sim.evolve.gb_per_s", "GB/s", "higher"),
    ("sim.sample.s", "s", "lower"),
    ("optimize.evals", "count", "higher"),
    ("optimize.passes_per_eval", "ratio", "lower"),
    ("optimize.f_vector.calls", "count", "lower"),
    ("optimize.f_vector.s", "s", "lower"),
    ("optimize.cvar.calls", "count", "lower"),
    ("optimize.cvar.s", "s", "lower"),
    ("optimize.self_s", "s", "lower"),
    ("optimize.engine.calls", "count", "lower"),
    ("optimize.engine.s", "s", "lower"),
    ("optimize.ground_prob", "prob", "higher"),
    ("hamiltonian.assemble.calls", "count", "lower"),
    ("hamiltonian.assemble.s", "s", "lower"),
    ("hamiltonian.tables.calls", "count", "lower"),
    ("hamiltonian.tables.s", "s", "lower"),
    ("hamiltonian.terms", "count", "lower"),
    ("polyfit.fit_family.calls", "count", "lower"),
    ("polyfit.fit_family.s", "s", "lower"),
    ("search.calls", "count", "lower"),
    ("search.s", "s", "lower"),
    ("search.visited", "count", "higher"),
    ("analysis.decode.s", "s", "lower"),
    ("analysis.configs", "count", "lower"),
    ("analysis.report.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # search | vqe | vqec
    residues: int
    flags: tuple
    restarts: int = 0  # vqec only: R and I of the R*I*(2P+2) cost model
    iterations: int = 0


def _vqec(name, residues, restarts, iterations):
    flags = ("--nu", "0.1", "--mu", "1.0",
             "--restarts", str(restarts), "--iterations", str(iterations))
    return Workload(name, "vqec", residues, flags, restarts, iterations)


# Why each workload exists: README.md, "Workloads".
WORKLOADS = {
    w.name: w
    for w in (
        _vqec("vqec-9q", 4, restarts=3, iterations=40),
        _vqec("vqec-16q", 5, restarts=1, iterations=2),
        Workload("vqe-9q", "vqe", 4, ()),
        Workload("search-8", "search", 8, ("--workers", "1")),
    )
}


def n_qubits(residues: int) -> int:
    return 4 * residues - 10 + (residues - 1) * (residues - 2) // 2


def vqec_evals(workload: Workload) -> int:
    """Logical circuit evaluations, the paper's cost model: R*I*(2P+2)."""
    params = n_qubits(workload.residues) * (ANSATZ_LAYERS + 1)
    return workload.restarts * workload.iterations * (2 * params + 2)


@dataclass(frozen=True)
class Invocation:
    index: int
    peptide: str
    seed: int


def draw_invocations(workload: Workload, seed: int) -> list:
    rng = random.Random(f"{workload.name}/{seed}")
    return [
        Invocation(i, "".join(rng.choice(RESIDUES) for _ in range(workload.residues)),
                   rng.randrange(2**31))
        for i in range(MAX_INVOCATIONS)
    ]


def pipeline_args(workload: Workload, inv: Invocation, out: Path) -> list:
    return ["pipeline", "--method", workload.method, "--peptide", inv.peptide,
            *workload.flags, "--shots", str(SHOTS), "--seed", str(inv.seed),
            "--out", str(out)]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv: list, log: Path, timeout: float) -> tuple:
    """Run ``python <argv>`` from the checkout root; wait for it to end,
    killing it after ``timeout`` seconds.

    Returns (wall seconds, exit code, peak RSS in MB, CPU seconds); peak RSS
    and CPU time of the child alone come from ``os.wait4``.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                                stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


class Speedometer:
    """Samples the machine's speed while the children run.

    On a shared host the speed of a CPU moves by a third and more for tens
    of seconds at a time.  A thread of this process alternates two fixed
    probes every ``PROBE_PERIOD_S``: a pure-Python loop, like the
    interpreter-bound layers, and rotations of a 16-qubit float64 state,
    like the memory-bound ones (about 3% of one CPU in all; the client's own
    thread sits in ``os.wait4`` meanwhile).  A child's slowdown is the mean
    over the two kinds of the median probe time inside its interval over
    that kind's ``PROBE_REF_S``; its wall time over its slowdown is seconds
    at the reference speed.
    """

    def __init__(self):
        self.samples = {kind: [] for kind in PROBE_REF_S}  # (probe start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        import numpy as np  # qfold's own dependency

        state = np.full(1 << 16, 1.0 / 256.0)

        def python_probe():
            acc = 0
            for i in range(PROBE_LOOPS):
                acc += i * i % 7

        def numpy_probe():
            for qubit in PROBE_QUBITS:
                view = state.reshape(-1, 2, 1 << qubit)
                lo, hi = view[:, 0, :], view[:, 1, :]
                new_hi = 0.6 * lo + 0.8 * hi
                lo *= 0.8
                lo -= 0.6 * hi
                hi[:] = new_hi

        probes = (("python", python_probe), ("numpy", numpy_probe))
        tick = 0
        while not self._stop.wait(PROBE_PERIOD_S):
            kind, probe = probes[tick % 2]
            tick += 1
            start = time.perf_counter()
            probe()
            self.samples[kind].append((start, time.perf_counter() - start))

    def slowdown(self, start: float, end: float) -> float:
        """Mean over probe kinds of the median probe time in [start, end]
        over its reference.  The probes nearest the interval stand in if
        none of a kind fell inside it; a child that ended before any probe
        ran (one that failed at once) gets 1."""
        ratios = []
        for kind, samples in self.samples.items():
            inside = [d for t, d in samples if start <= t <= end] or [
                d for _, d in sorted(samples, key=lambda s: abs(s[0] - start))[:3]
            ]
            if inside:
                ratios.append(statistics.median(inside) / PROBE_REF_S[kind])
        return statistics.fmean(ratios) if ratios else 1.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        from checks import check_invocation  # imports qfold from src/

        self.check_invocation = check_invocation
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.invocations = draw_invocations(workload, seed)
        tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
        # a fixed path, so the bytes a run writes (its manifest names its
        # output directory) repeat across runs
        self.tmp = WORK / "tmp" / tag
        self.result_path = WORK / "results" / f"{tag}.json"
        self.spans_dir = WORK / "spans"
        self.attempted = 0
        self.failed = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.speedometer = Speedometer()

    def _run_child(self, argv: list, log: Path) -> tuple:
        """``run_child`` plus the machine's slowdown while the child ran."""
        start = time.perf_counter()
        result = run_child(argv, log, max(1.0, self.deadline - time.monotonic()))
        return (*result, self.speedometer.slowdown(start, time.perf_counter()))

    def _record_outcome(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def setup(self) -> list:
        """Fresh-process set-up times: import plus, for the variational
        workloads, penalty fits and assembly (``qfold build``)."""
        w = self.workload
        log = self.tmp / "setup.log"
        times, raw_times = [], []
        for inv in self.invocations[:SETUP_REPS]:
            if w.method == "search":
                argv = ["-m", "qfold.cli", "resources", "--peptide", inv.peptide]
            else:
                mode = "polyfit" if w.method == "vqe" else "vqec"
                argv = ["-m", "qfold.cli", "build", "--peptide", inv.peptide,
                        "--mode", mode]
            wall, code, _, _, slowdown = self._run_child(argv, log)
            self._record_outcome(code == 0)
            times.append(wall / slowdown)
            raw_times.append(wall)
        return times, raw_times

    def invoke(self, inv: Invocation, traced: bool) -> dict:
        w = self.workload
        base = self.tmp / f"inv{inv.index}{'-traced' if traced else ''}"
        out = base / "out"
        base.mkdir(parents=True)
        log = base / "stdout.txt"
        args = pipeline_args(w, inv, out)
        if traced:
            spans_path = self.spans_dir / f"{w.name}-seed{self.seed}-inv{inv.index}.json"
            argv = [str(HERE / "tracer.py"), str(spans_path), str(inv.index), "--", *args]
        else:
            argv = ["-m", "qfold.cli", *args]
        wall, code, rss, cpu, slowdown = self._run_child(argv, log)
        failures = [] if code == 0 else [f"exit code {code}"]
        facts = {}
        if code == 0:
            failures, facts = self.check_invocation(
                w.method, inv.peptide, SHOTS, out, log.read_text()
            )
        if w.method == "vqec":
            evals = vqec_evals(w)
        else:
            evals = facts.get("evals", facts.get("visited", 0))
        record = {
            "index": inv.index, "peptide": inv.peptide, "seed": inv.seed,
            "traced": traced, "exit": code, "wall_s": wall, "slowdown": slowdown,
            "ref_wall_s": wall / slowdown, "cpu_s": cpu, "peak_rss_mb": rss,
            "evals": evals, "failures": failures,
            "bytes_written": _dir_bytes(out) if out.exists() else 0, **facts,
        }
        if traced and code == 0:
            from tracer import layer_metrics

            spans = json.loads(spans_path.read_text())["spans"]
            record["layers"] = layer_metrics(spans)
        self._record_outcome(not failures)
        shutil.rmtree(base)
        return record

    def measure(self) -> list:
        """Untraced closed loop: the next invocation starts when the last one
        ends, while the last one's duration still fits in --seconds."""
        records = []
        start = time.perf_counter()
        for inv in self.invocations:
            record = self.invoke(inv, traced=False)
            records.append(record)
            if time.perf_counter() - start + record["wall_s"] > self.seconds:
                break
        return records

    def run(self) -> dict:
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        try:
            with self.speedometer:
                return self._run()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def _run(self) -> dict:
        # untimed: fills the bytecode caches of a fresh checkout
        self._run_child(["-m", "qfold.cli", "resources", "--n", "4"], self.tmp / "warmup.log")
        if self.trace:
            setup_times = raw_setup_times = []
            records = []
            unscaled = {}
            for inv in self.invocations[:TRACED_INVOCATIONS]:
                records.append(self.invoke(inv, traced=False))
                records.append(self.invoke(inv, traced=True))
            metrics = self.per_layer(records)
        else:
            setup_times, raw_setup_times = self.setup()
            records = self.measure()
            metrics = self.end_to_end(records, setup_times)
            unscaled = self.end_to_end(records, raw_setup_times, wall_key="wall_s")
        return {"setup_s": setup_times, "raw_setup_s": raw_setup_times,
                "records": records, "metrics": metrics, "unscaled": unscaled}

    def end_to_end(self, records: list, setup_times: list, wall_key: str = "ref_wall_s") -> dict:
        """Times are at the reference speed (see ``Speedometer``); with
        ``wall_key="wall_s"`` and raw set-up times, as measured."""
        return {
            "wall_s": statistics.median(r[wall_key] for r in records),
            "evals_per_s": statistics.median(r["evals"] / r[wall_key] for r in records),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        }

    def per_layer(self, records: list) -> dict:
        plain = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        rows = []
        for r in traced:
            row = dict(r.get("layers") or {name: 0 for name, _, _ in PER_LAYER})
            row["optimize.evals"] = r["evals"] if self.workload.method != "search" else 0
            row["optimize.passes_per_eval"] = (
                row["sim.evolve.calls"] / row["optimize.evals"] if row["optimize.evals"] else 0.0
            )
            row["optimize.ground_prob"] = r.get("ground_prob", 0.0)
            row["cli.bytes_written"] = r["bytes_written"]
            rows.append(row)
        metrics = {name: statistics.fmean(row[name] for row in rows)
                   for name, _, _ in PER_LAYER if not name.startswith("trace.")}
        metrics["trace.wall_s"] = statistics.fmean(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = statistics.fmean(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)
        )
        return metrics


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfold").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: Workload, seed: int, records: list) -> dict:
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads_env": {k: os.environ.get(k) for k in blas},
        "workload": workload.name,
        "seed": seed,
        "peptides": [r["peptide"] for r in records if not r["traced"]],
        "invocation_seeds": [r["seed"] for r in records if not r["traced"]],
    }


def tail_percentile(values: list):
    """Highest of a few percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            ordered = sorted(values)
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def summary_lines(workload: Workload, result: dict, attempted: int, failed: int) -> list:
    records = [r for r in result["records"] if not r["traced"]]
    m = result["metrics"]
    lines = [f"workload={workload.name} method={workload.method} "
             f"residues={workload.residues} invocations={len(records)} "
             f"attempted={attempted} failed={failed} "
             f"failed_frac={failed / attempted if attempted else 0.0:.4f}"]
    if "wall_s" in m:
        walls = [r["ref_wall_s"] for r in records]
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]:g}={tail[1]:.4f} s" if tail else
                     f"no percentile has >= 10 of {len(walls)} samples beyond it")
        lines.append(f"wall_s median={m['wall_s']:.4f} s (n={len(walls)}; {tail_text})")
        lines.append(f"evals_per_s={m['evals_per_s']:.2f} 1/s")
        if workload.method == "search":
            lines.append(f"confs_per_s={m['evals_per_s']:.2f} 1/s")
        lines.append(f"setup_s median={m['setup_s']:.4f} s (n={len(result['setup_s'])})")
        lines.append(f"peak_rss_mb median={m['peak_rss_mb']:.1f} MB")
        raw = result["unscaled"]
        slowdowns = [r["slowdown"] for r in records]
        lines.append(f"unscaled: wall_s median={raw['wall_s']:.4f} s "
                     f"evals_per_s={raw['evals_per_s']:.2f} 1/s setup_s={raw['setup_s']:.4f} s "
                     f"(slowdown median={statistics.median(slowdowns):.3f}, "
                     f"range {min(slowdowns):.3f}-{max(slowdowns):.3f})")
        if workload.method != "search":
            mean_gp = statistics.fmean(r.get("ground_prob", 0.0) for r in records)
            lines.append(f"ground_prob mean={mean_gp:.6f} (n={len(records)})")
    else:
        units = {name: unit for name, unit, _ in PER_LAYER}
        lines.extend(f"{name}={value:.6g} {units[name]}" for name, value in m.items())
    for r in result["records"]:
        for failure in r["failures"]:
            lines.append(f"FAILED invocation {r['index']} ({r['peptide']}): {failure}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "qfold" / "cli.py").is_file():
        print(f"error: qfold sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still kills and reaps its child (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, args.seconds, bool(args.trace))
    result = bench.run()
    table = END_TO_END if not args.trace else PER_LAYER
    document = {
        "provenance": provenance(workload, args.seed, result["records"]),
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": bench.attempted,
        "failed": bench.failed,
        **result,
    }
    bench.result_path.parent.mkdir(parents=True, exist_ok=True)
    bench.result_path.write_text(json.dumps(document, indent=1) + "\n")

    for line in summary_lines(workload, result, bench.attempted, bench.failed):
        print(line)
    print("provenance " + json.dumps(document["provenance"]))
    print(f"result {bench.result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
