"""Variational optimization drivers.

Two protocols over the same simulator:

* CVaR-VQE: derivative-free minimization of the conditional value at risk
  of the exact energy distribution, with multistart initialization from a
  configurable angle window.  The minimizer is COBYLA, Powell's
  linear-approximation trust region, kept here as ``_cobyla``: an ask/tell
  generator that follows PRIMA's decision rules for a problem without
  constraints.  Restarts advance in lockstep, ``sim.block_columns(n)`` at a
  time: each tick is one ``evolve_block`` of the points the live restarts
  ask for, one CVaR per column and one answer per restart.
* Primal-dual perturbation for the constrained encoding: each iteration
  evaluates the constraint expectations and the Lagrangian gradients at the
  current angles, perturbs primal and dual variables, then applies the
  update step with the perturbed weights.  Cost per iteration is 2P + 2
  logical circuit evaluations, the paper's parameter-shift count, which
  ``OptTrace.circuit_evaluations`` reports.  The simulator needs only the
  two products ``jac @ w``, and both come from one ``sim.adjoint_gradients``
  sweep.  One driver, ``_pdp_runs``, advances up to
  ``sim.block_columns(n)`` trajectories (restarts, or every grid point's
  restarts) in lockstep: per iteration one ``evolve_block`` of the current
  angles, one sweep and one ``evolve_block`` of the perturbed angles, with
  each column's arithmetic the same bits as running it alone.

Expectations never materialize the full 2^n objective diagonal unless the
CVaR path demands it: the objective splits into a configuration-bit base
table plus one linear table per ancilla, so constraint and objective
expectations need only configuration-space marginals.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BudgetExceededError,
    DivergenceError,
    EncodingError,
)
from .hamiltonian import MODE_POLYFIT, MODE_VQEC, InstanceTables, ProblemInstance
from .sim import (
    Ansatz,
    adjoint_gradients,
    block_columns,
    evolve_block,
    probabilities,
    sorted_cvar,
)

TWO_PI = 2.0 * math.pi
DEFAULT_NU_GRID = (0.01, 0.05, 0.1, 0.2, 0.5)
DEFAULT_MU_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
# summed positive constraint expectation up to which a grid run counts as feasible
FEASIBLE_TOL = 1e-6
QUADRANTS = (
    (0.0, math.pi / 2.0),
    (math.pi / 2.0, math.pi),
    (math.pi, 3.0 * math.pi / 2.0),
    (3.0 * math.pi / 2.0, TWO_PI),
)


# ---------------------------------------------------------------------------
# expectation engine
# ---------------------------------------------------------------------------


class ExpectationEngine:
    """Exact diagonal expectations over configuration-space marginals."""

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.tables = InstanceTables(instance)
        self.n_vars = instance.n_qubits
        self.n_config = instance.layout.n_config_bits
        self.n_ancillas = self.n_vars - self.n_config
        rows = np.arange(1 << self.n_ancillas)
        self._row_masks = {
            idx: ((rows >> (idx - self.n_config)) & 1).astype(bool)
            for idx in self.tables.pair_tables
        }
        optimal = self.tables.ancilla_optimal_energies()
        feasible = np.ones(optimal.shape[0], dtype=bool)
        for table in self.tables.constraint_tables:
            feasible &= table <= 1e-9
        if not feasible.any():
            raise EncodingError("no configuration satisfies every constraint")
        self.ground_energy = float(optimal[feasible].min())
        self.ground_configs = np.flatnonzero(
            feasible & (optimal <= self.ground_energy + 1e-9)
        )
        self._sorted_diag = None
        self._sort_order = None

    @property
    def n_constraints(self) -> int:
        return len(self.tables.constraint_tables)

    def config_marginal(self, probs: np.ndarray) -> np.ndarray:
        return probs.reshape(1 << self.n_ancillas, 1 << self.n_config).sum(axis=0)

    def objective_expectation(self, probs: np.ndarray) -> float:
        return float(self.f_vector(probs)[0])

    def f_vector(self, probs: np.ndarray) -> np.ndarray:
        """[objective expectation, constraint expectations...].

        Takes one probability vector, or a ``(2^n, B)`` block of them and
        returns one row per column.  The marginals of a block are summed in
        one pass; the dot products run column by column, so every row is
        bit-identical to the one-vector result.
        """
        grid = probs.reshape(1 << self.n_ancillas, 1 << self.n_config, -1)
        marginals = np.ascontiguousarray(grid.sum(axis=0).T)
        pairs = [
            (np.ascontiguousarray(grid[self._row_masks[idx]].sum(axis=0).T), table)
            for idx, table in self.tables.pair_tables.items()
        ]
        out = np.empty((marginals.shape[0], 1 + self.n_constraints))
        for col, marginal in enumerate(marginals):
            total = float(marginal.dot(self.tables.base_table))
            for partial, table in pairs:
                total += float(partial[col].dot(table))
            out[col, 0] = total
            for m, table in enumerate(self.tables.constraint_tables, start=1):
                out[col, m] = float(marginal.dot(table))
        return out if probs.ndim == 2 else out[0]

    def costate(self, state: np.ndarray, weights) -> np.ndarray:
        """``D_w * state`` for the weighted diagonal D_w = sum_m w_m F_m.

        F_0 is the objective and F_1.. the constraints, as in ``f_vector``.
        Takes one state and one weight vector, or a ``(2^n, B)`` block of
        states and one weight row per column.  D_w is built in the result
        buffer from the configuration tables: row 0 of the (ancilla,
        configuration) grid is the weighted base and constraint tables, and
        each ancilla doubles the rows filled so far by adding its pair
        table.  Every step is elementwise, so a column's result does not
        depend on the others.
        """
        weights = np.asarray(weights, dtype=float)
        weights = weights.reshape(-1, 1 + self.n_constraints).T
        out = np.empty(state.shape)
        grid = out.reshape(1 << self.n_ancillas, 1 << self.n_config, -1)
        np.multiply(self.tables.base_table[:, None], weights[0], out=grid[0])
        for weight, table in zip(weights[1:], self.tables.constraint_tables):
            grid[0] += weight * table[:, None]
        for j in range(self.n_ancillas):
            pair = weights[0] * self.tables.pair_tables[self.n_config + j][:, None]
            np.add(grid[: 1 << j], pair, out=grid[1 << j : 2 << j])
        out *= state
        return out

    def cvar_objective(self, probs: np.ndarray, alpha: float) -> float:
        """Tail mean over the exact full-basis energy distribution."""
        if self._sorted_diag is None:
            diag = self.tables.full_diagonal()
            self._sort_order = np.argsort(diag, kind="stable")
            self._sorted_diag = diag[self._sort_order]
        return sorted_cvar(self._sorted_diag, probs[self._sort_order], alpha)

    def ground_probability(self, probs: np.ndarray) -> float:
        return float(self.config_marginal(probs)[self.ground_configs].sum())

    def modal_config(self, probs: np.ndarray) -> int:
        return int(np.argmax(self.config_marginal(probs)))


# ---------------------------------------------------------------------------
# configs and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CvarVqeConfig:
    alpha: float = 0.1
    max_iterations: int = 200
    restarts: int = 20
    init_window: tuple = (3.0 * math.pi / 2.0, TWO_PI)
    full_window_sweep: bool = False
    seed: int = 0
    snapshot_every: int = 50
    max_seconds: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise EncodingError("alpha must lie in (0, 1]")
        lo, hi = self.init_window
        if not (0.0 <= lo < hi <= TWO_PI + 1e-12):
            raise EncodingError("init_window must be an interval inside [0, 2*pi]")
        if self.restarts < 1 or self.max_iterations < 1:
            raise EncodingError("restarts and max_iterations must be >= 1")


@dataclass(frozen=True)
class VqecConfig:
    nu: float = 0.1
    mu: float = 1.0
    nu_grid: tuple = DEFAULT_NU_GRID
    mu_grid: tuple = DEFAULT_MU_GRID
    restarts: int = 20
    max_iterations: int = 50
    seed: int = 0
    snapshot_every: int = 10
    divergence_ceiling: float = 1.0e5
    max_seconds: float | None = None

    def __post_init__(self):
        if self.nu <= 0.0 or self.mu <= 0.0:
            raise EncodingError("step sizes must be positive")
        if not self.nu_grid or not self.mu_grid:
            raise EncodingError("step-size grids must be non-empty")
        if any(v <= 0.0 for v in self.nu_grid) or any(v <= 0.0 for v in self.mu_grid):
            raise EncodingError("grid step sizes must be positive")
        if self.restarts < 1 or self.max_iterations < 1:
            raise EncodingError("restarts and max_iterations must be >= 1")
        if self.divergence_ceiling <= 0.0:
            raise EncodingError("divergence ceiling must be positive")


@dataclass
class OptTrace:
    """Evaluation-by-evaluation record of one optimization run."""

    objectives: list = field(default_factory=list)
    best_so_far: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    lagrangians: list = field(default_factory=list)
    duals: list = field(default_factory=list)
    # logical circuit evaluations, the paper's cost: one per CVaR objective,
    # 2P + 2 per primal-dual iteration and one per final state, whatever
    # the simulator ran to get them
    circuit_evaluations: int = 0

    def record(self, objective, params=None, every=0, lagrangian=None, dual=None):
        index = len(self.objectives)
        self.objectives.append(float(objective))
        best = self.best_so_far[-1] if self.best_so_far else math.inf
        self.best_so_far.append(min(best, float(objective)))
        if lagrangian is not None:
            self.lagrangians.append(float(lagrangian))
        if dual is not None:
            self.duals.append(tuple(float(v) for v in dual))
        if params is not None and every and index % every == 0:
            self.snapshots.append((index, tuple(float(v) for v in params)))

    def to_json_lines(self) -> str:
        snapshot_at = dict(self.snapshots)
        lines = []
        for i, objective in enumerate(self.objectives):
            row = {"i": i, "objective": objective, "best": self.best_so_far[i]}
            if i < len(self.lagrangians):
                row["lagrangian"] = self.lagrangians[i]
            if i < len(self.duals):
                row["duals"] = list(self.duals[i])
            if i in snapshot_at:
                row["params"] = list(snapshot_at[i])
            lines.append(json.dumps(row))
        return "\n".join(lines) + "\n"


class _Budget:
    def __init__(self, max_seconds):
        self.deadline = None
        if max_seconds is not None:
            self.deadline = time.monotonic() + max_seconds

    def check(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("optimization exceeded its wall budget")


# ---------------------------------------------------------------------------
# CVaR-VQE
# ---------------------------------------------------------------------------


def cobyla_budget(cfg: CvarVqeConfig, ansatz: Ansatz) -> int:
    """Objective evaluations per COBYLA restart.

    ``cfg.max_iterations``, raised to P + 2: the initial simplex takes
    P + 1 evaluations, and one trust-region step should follow it.
    """
    return max(cfg.max_iterations, ansatz.n_params + 2)


# PRIMA's constants for COBYLA (Zhang 2023, doi:10.5281/zenodo.8052654)
_REALMAX = float(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)
_FUNCMAX = 1.0e30  # a NaN objective counts as this, and larger values clip to it
_ETA1, _ETA2 = 0.1, 0.7  # reduction ratios that shrink / enlarge the radius
_GAMMA1, _GAMMA2 = 0.5, 2.0  # shrink / enlarge factors
_GAMMA3 = 1.5  # a radius this close to rho snaps to rho
# initial and final trust-region radius: SciPy's COBYLA defaults (rhobeg, tol)
_RHOBEG, _RHOEND = 1.0, 1e-4


def _cobyla(x0, maxfev):
    """Ask/tell COBYLA without constraints, as a generator.

    ``x = next(gen)`` asks for the first point, and ``x = gen.send(f)``
    tells the objective at the last one and asks for the next.  The
    generator returns ``(x_best, f_best)``: the lowest value told (after
    moderation: NaN becomes ``_FUNCMAX``, and values clip to
    [-REALMAX, FUNCMAX]).  A tie goes to the first point in PRIMA's filter
    order, which takes the initial simplex vertex by vertex (x0 + e_0
    before x0) and then the points in the order evaluated.  A trial point
    within ``1e-4 * _RHOEND`` of a vertex reuses its value unasked.  The
    run stops after ``maxfev`` values, or once the trust region has
    shrunk to ``_RHOEND``.

    This follows PRIMA's ``cobylb`` step for step, with no constraints, so
    its merit function is f.  The simplex is ``sim`` (columns 0..n-1 are
    vertex offsets from the pole, column n the pole, the best vertex) with
    ``simi`` the inverse of the offsets.  The linear model's trust-region
    step is the closed form ``-delta * g / |g|``, which PRIMA's ``trstlp``
    computes through Givens rotations with the same value up to rounding.
    """
    n = x0.size
    x_best, f_best = None, math.inf

    def trial(x):
        """The value at x: a vertex's within 1e-4 * _RHOEND of it, else asked."""
        nonlocal nf, x_best, f_best
        distsq = np.empty(n + 1)
        distsq[n] = np.sum((x - sim[:, n]) * (x - sim[:, n]))
        diff = x[:, None] - (sim[:, n][:, None] + sim[:, :n])
        distsq[:n] = np.sum(diff * diff, axis=0)
        j = int(np.argmin(distsq))
        if distsq[j] <= (1e-4 * _RHOEND) * (1e-4 * _RHOEND):
            return fval[j]
        f = _moderated((yield x))
        nf += 1
        if f < f_best:
            x_best, f_best = x, f
        return f

    # initial simplex: x0 and x0 + _RHOBEG * e_j, the pole moving to each new best
    sim = np.eye(n, n + 1) * _RHOBEG
    sim[:, n] = x0
    fval = np.empty(n + 1)
    fval[n] = _moderated((yield x0))
    for j in range(n):
        x = sim[:, n].copy()
        x[j] += _RHOBEG
        fval[j] = _moderated((yield x))
        if fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            sim[:, n] = x
            sim[j, : j + 1] = -_RHOBEG
    simi = np.linalg.inv(sim[:, :n])
    nf = n + 1
    # PRIMA's filter takes the initial points vertex by vertex
    for i in range(n + 1):
        if fval[i] < f_best:
            x_best = sim[:, n] + sim[:, i] if i < n else sim[:, n].copy()
            f_best = fval[i]

    rho = delta = _RHOBEG
    ratio, jdrop_tr = -1.0, 0
    small_radius = False
    for _ in range(10 * maxfev):
        simi, ok = _updatepole(fval, sim, simi)
        if not ok:
            break
        adequate_geo = _offsets_within(sim, 2.0 * delta)
        g = (fval[:n] - fval[n]) @ simi
        d = _tr_step(g, delta)
        dnorm = min(delta, np.linalg.norm(d))
        shortd = dnorm <= 0.1 * rho
        preref = -np.dot(d, g)
        trfail = not preref > 1.0e-6 * _EPS * rho
        if shortd or trfail:
            delta *= 0.1
            if delta <= _GAMMA3 * rho:
                delta = rho
        else:
            x = sim[:, n] + d
            f = yield from trial(x)
            actrem = fval[n] - f
            ratio = -_REALMAX if math.isnan(actrem) else actrem / preref
            delta = _trrad(delta, dnorm, ratio)
            if delta <= _GAMMA3 * rho:
                delta = rho
            jdrop_tr = _setdrop_tr(actrem > 0, d, delta, rho, sim, simi)
            simi, ok = _updatexfc(jdrop_tr, d, f, fval, sim, simi)
            if not ok or nf >= maxfev or not np.isfinite(x).all():
                break

        bad_trstep = shortd or trfail or ratio <= 0 or jdrop_tr is None
        if bad_trstep and not adequate_geo and not _offsets_within(sim, 2.0 * delta):
            # geometry step: replace the farthest vertex along its simi row
            jdrop_geo = int(np.argmax(np.sum(sim[:, :n] * sim[:, :n], axis=0)))
            d = simi[jdrop_geo, :]
            d = delta / 2 * (d / np.linalg.norm(d))
            if np.dot(d, (fval[:n] - fval[n]) @ simi) > 0:
                d *= -1
            x = sim[:, n] + d
            f = yield from trial(x)
            simi, ok = _updatexfc(jdrop_geo, d, f, fval, sim, simi)
            if not ok or nf >= maxfev or not np.isfinite(x).all():
                break
        if bad_trstep and adequate_geo and max(delta, dnorm) <= rho:
            if rho <= _RHOEND:
                small_radius = True
                break
            delta = max(0.5 * rho, _redrho(rho))
            rho = _redrho(rho)
            simi, ok = _updatepole(fval, sim, simi)
            if not ok:
                break

    if small_radius and shortd:
        # PRIMA's last step: the short step that ended the run, if it moves
        x = sim[:, n] + d
        if np.linalg.norm(x - sim[:, n]) > 1.0e-3 * _RHOEND and nf < maxfev:
            f = _moderated((yield x))
            if f < f_best:
                x_best, f_best = x, f
    return x_best, f_best


def _moderated(f) -> float:
    return _FUNCMAX if math.isnan(f) else min(max(f, -_REALMAX), _FUNCMAX)


def _offsets_within(sim, radius) -> bool:
    n = sim.shape[0]
    return bool(np.all(np.sum(sim[:, :n] * sim[:, :n], axis=0) <= radius * radius))


def _tr_step(g, delta):
    """The linear model's minimizer on the trust region: ``-delta * g / |g|``."""
    norm = np.linalg.norm(g)
    if not (0.0 < norm < math.inf):
        # g = 0, or a moderated objective overflowed the model
        return np.zeros_like(g)
    return g * (-delta / norm)


def _trrad(delta, dnorm, ratio):
    if ratio <= _ETA1:
        return _GAMMA1 * dnorm
    if ratio <= _ETA2:
        return max(_GAMMA1 * delta, dnorm)
    return max(_GAMMA1 * delta, _GAMMA2 * dnorm)


def _redrho(rho):
    rho_ratio = rho / _RHOEND
    if rho_ratio > 250:
        return 0.1 * rho
    if rho_ratio <= 16:
        return _RHOEND
    return math.sqrt(rho_ratio) * _RHOEND


def _setdrop_tr(ximproved, d, delta, rho, sim, simi):
    """The vertex a trust-region point replaces, or None."""
    n = d.size
    distsq = np.zeros(n + 1)
    if ximproved:
        diff = sim[:, :n] - np.tile(d, (n, 1)).T
        distsq[:n] = np.sum(diff * diff, axis=0)
        distsq[n] = np.sum(d * d)
    else:
        distsq[:n] = np.sum(sim[:, :n] * sim[:, :n], axis=0)
    scale = max(rho, delta / 10)
    weight = np.maximum(1, distsq / (scale * scale))
    simid = simi @ d
    score = weight * abs(np.array([*simid, 1 - np.sum(simid)]))
    if not ximproved:
        score[n] = -1
    score[np.isnan(score)] = -1
    if (score > 0).any():
        return int(np.argmax(score))
    return int(np.argmax(distsq)) if ximproved else None


def _reinverted(sim, simi):
    """``(simi, ok)``: ``simi``, or a fresh inverse where it has drifted."""
    n = sim.shape[0]
    erri = np.max(abs(simi @ sim[:, :n] - np.eye(n)))
    if erri > 0.1 or np.isnan(erri):
        simi_test = np.linalg.inv(sim[:, :n])
        erri_test = np.max(abs(simi_test @ sim[:, :n] - np.eye(n)))
        if erri_test < erri or (np.isnan(erri) and not np.isnan(erri_test)):
            simi, erri = simi_test, erri_test
    return simi, bool(erri <= 1)


def _updatexfc(jdrop, d, f, fval, sim, simi):
    """Put the point pole + d with value f in vertex ``jdrop``; ``(simi, ok)``.

    ``ok`` is False when rounding has damaged the simplex, which ends the
    run.
    """
    if jdrop is None:
        return simi, True
    n = sim.shape[0]
    if jdrop < n:
        sim[:, jdrop] = d
        simi_jdrop = simi[jdrop, :] / np.dot(simi[jdrop, :], d)
        simi -= np.outer(simi @ d, simi_jdrop)
        simi[jdrop, :] = simi_jdrop
    else:
        sim[:, n] += d
        sim[:, :n] -= np.tile(d, (n, 1)).T
        simid = simi @ d
        sum_simi = np.sum(simi, axis=0)
        simi += np.outer(simid, sum_simi / (1 - sum(simid)))
    simi, ok = _reinverted(sim, simi)
    if not ok:
        return simi, False
    fval[jdrop] = f
    return _updatepole(fval, sim, simi)


def _updatepole(fval, sim, simi):
    """Make the best vertex (the first on a tie) the pole; ``(simi, ok)``."""
    n = sim.shape[0]
    jopt = int(np.argmin(fval))
    if fval[jopt] < fval[n]:
        sim[:, n] += sim[:, jopt]
        sim_jopt = sim[:, jopt].copy()
        sim[:, jopt] = 0
        sim[:, :n] -= np.tile(sim_jopt, (n, 1)).T
        simi[jopt, :] = -np.sum(simi, axis=0)
    else:
        jopt = n
    simi, ok = _reinverted(sim, simi)
    if ok and jopt < n:
        fval[[jopt, n]] = fval[[n, jopt]]
    return simi, ok


def run_cvar_vqe(instance: ProblemInstance, ansatz: Ansatz, cfg: CvarVqeConfig):
    """Multistart CVaR minimization; returns (best params, trace).

    Each restart is one ``_cobyla`` run from its seeded start.  Restarts
    advance in lockstep, ``block_columns(n)`` at a time: a tick evolves the
    point every live run asks for as one ``evolve_block`` and tells each
    run its CVaR.  A column is the same bits as its circuit run alone, so
    each restart's run does not depend on the others.  Trace rows are
    recorded restart after restart; the best restart has the lowest
    value, the first on a tie.
    """
    if instance.mode != MODE_POLYFIT:
        raise EncodingError("CVaR-VQE drives the fused-penalty objective only")
    if ansatz.n_qubits != instance.n_qubits:
        raise EncodingError("ansatz width does not match the instance")
    engine = ExpectationEngine(instance)
    rng = np.random.default_rng(cfg.seed)
    budget = _Budget(cfg.max_seconds)
    starts = []
    for restart in range(cfg.restarts):
        if cfg.full_window_sweep:
            lo, hi = QUADRANTS[restart % 4]
        else:
            lo, hi = cfg.init_window
        starts.append(rng.uniform(lo, hi, ansatz.n_params))
    maxfev = cobyla_budget(cfg, ansatz)
    width = block_columns(ansatz.n_qubits)
    trace = OptTrace()
    best_params = None
    best_value = math.inf
    for first in range(0, cfg.restarts, width):
        runs = [_cobyla(x0, maxfev) for x0 in starts[first : first + width]]
        rows = [[] for _ in runs]
        results = [None] * len(runs)
        asked = {j: next(run) for j, run in enumerate(runs)}
        while asked:
            budget.check()
            live = list(asked)
            block = np.array([asked[j] for j in live]).T
            probs = np.ascontiguousarray(probabilities(evolve_block(ansatz, block)).T)
            for j, column in zip(live, probs):
                value = engine.cvar_objective(column, cfg.alpha)
                rows[j].append((value, asked[j]))
                try:
                    asked[j] = runs[j].send(value)
                except StopIteration as stop:
                    results[j] = stop.value
                    del asked[j]
        for run_rows, (params, value) in zip(rows, results):
            for objective, point in run_rows:
                trace.record(objective, params=point, every=cfg.snapshot_every)
            if value < best_value:
                best_params, best_value = params, value
    trace.circuit_evaluations = len(trace.objectives)
    trace.snapshots.append((len(trace.objectives), tuple(map(float, best_params))))
    return best_params, trace


# ---------------------------------------------------------------------------
# VQEC primal-dual perturbation
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    """One primal-dual trajectory: its final iterate, or that it diverged."""

    theta: np.ndarray | None = None
    duals: np.ndarray | None = None
    f_final: np.ndarray | None = None
    ground_probability: float = 0.0
    diverged: bool = False
    evaluations: int = 0
    rows: list = field(default_factory=list)

    @property
    def lagrangian(self) -> float:
        return float(self.f_final[0] + self.duals @ self.f_final[1:])


def _pdp_block(engine, ansatz, starts, steps, cfg, budget, drop_diverged):
    """Advance the trajectories ``starts[j]`` at ``steps[j] = (nu, mu)`` in lockstep.

    The angles are one ``(P, B)`` block.  An iteration is one
    ``evolve_block`` of the current angles, ``f_vector`` and two co-states
    per column, one adjoint sweep for both ``jac @ w`` products of every
    column, and one ``evolve_block`` of the perturbed angles.  Every step is
    elementwise or a per-column reduction, so a trajectory's iterates are
    the same bits at any block width.  A column whose Lagrangian leaves the
    divergence ceiling raises ``DivergenceError``, or with ``drop_diverged``
    leaves the block.
    """
    runs = [_Run() for _ in starts]
    live = list(range(len(starts)))
    theta = np.array(starts, dtype=float).T
    steps = np.array(steps, dtype=float)
    duals = np.zeros((len(starts), engine.n_constraints))
    per_iteration = 2 * ansatz.n_params + 2
    for _ in range(cfg.max_iterations):
        if budget is not None:
            budget.check()
        states = evolve_block(ansatz, theta)
        f_here = engine.f_vector(probabilities(states))
        # one dot per contiguous row, as in f_vector, so that no column's
        # value depends on its neighbours
        lagrangian = [float(f[0] + d @ f[1:]) for f, d in zip(f_here, duals)]
        ceiling = cfg.divergence_ceiling
        bad = [not math.isfinite(v) or abs(v) > ceiling for v in lagrangian]
        if any(bad):
            if not drop_diverged:
                value = lagrangian[bad.index(True)]
                raise DivergenceError(
                    f"lagrangian {value!r} exceeded ceiling {ceiling}"
                )
            keep = np.logical_not(bad)
            for j in np.flatnonzero(bad):
                runs[live[j]].diverged = True
            live = [c for c, k in zip(live, keep) if k]
            if not live:
                return runs
            theta, states = theta[:, keep], states[:, keep]
            f_here, duals, steps = f_here[keep], duals[keep], steps[keep]
            lagrangian = [v for v, k in zip(lagrangian, keep) if k]
        nu, mu = steps[:, 0], steps[:, 1]

        ones = np.ones((len(live), 1))
        duals_pert = np.maximum(duals + nu[:, None] * f_here[:, 1:], 0.0)
        # the co-states live only for the sweep: at 24 qubits each is 128 MiB
        step, step_pert = adjoint_gradients(
            ansatz,
            theta,
            states,
            [engine.costate(states, np.hstack((ones, d))) for d in (duals, duals_pert)],
        )
        theta_pert = np.clip(theta - nu * step, 0.0, TWO_PI)
        theta_next = np.clip(theta - mu * step_pert, 0.0, TWO_PI)
        f_pert = engine.f_vector(probabilities(evolve_block(ansatz, theta_pert)))
        duals = np.maximum(duals + mu[:, None] * f_pert[:, 1:], 0.0)
        theta = theta_next
        for j, c in enumerate(live):
            runs[c].evaluations += per_iteration
            runs[c].rows.append(
                (f_here[j, 0], theta[:, j].copy(), lagrangian[j], duals[j].copy())
            )

    probs = probabilities(evolve_block(ansatz, theta))
    f_final = engine.f_vector(probs)
    for j, c in enumerate(live):
        run = runs[c]
        run.theta = theta[:, j].copy()
        run.duals = duals[j].copy()
        run.f_final = f_final[j].copy()
        run.ground_probability = engine.ground_probability(
            np.ascontiguousarray(probs[:, j])
        )
        run.evaluations += 1
    return runs


def _pdp_runs(
    engine, ansatz, starts, steps, cfg, budget=None, trace=None, drop_diverged=False
):
    """The primal-dual driver: one run per row of ``starts`` and ``steps``.

    Runs go through ``_pdp_block`` in blocks of ``block_columns(n)``
    trajectories (64 up to 10 qubits, 32 up to 12, one from 13), in row
    order.  With ``trace``, each run's iterations are recorded in it one run
    after the other, and its logical circuit evaluations are added to the
    trace's count.
    """
    if ansatz.n_qubits != engine.n_vars:
        raise EncodingError("ansatz width does not match the instance")
    width = block_columns(ansatz.n_qubits)
    runs = []
    for first in range(0, len(starts), width):
        runs += _pdp_block(
            engine, ansatz, starts[first : first + width], steps[first : first + width],
            cfg, budget, drop_diverged,
        )
    if trace is not None:
        for run in runs:
            for objective, theta, lagrangian, duals in run.rows:
                trace.record(
                    objective,
                    params=theta,
                    every=cfg.snapshot_every,
                    lagrangian=lagrangian,
                    dual=duals,
                )
            trace.circuit_evaluations += run.evaluations
    return runs


def _pdp_run(engine, ansatz, theta0, nu, mu, cfg, trace, budget=None):
    """One seeded run; returns (theta, duals, final F vector)."""
    (run,) = _pdp_runs(engine, ansatz, [theta0], [(nu, mu)], cfg, budget, trace)
    return run.theta, run.duals, run.f_final


def run_vqec_pdp(instance: ProblemInstance, ansatz: Ansatz, cfg: VqecConfig):
    """Multistart primal-dual runs at (cfg.nu, cfg.mu).

    Returns (best params, final duals, trace); best means lowest final
    Lagrangian objective across restarts.
    """
    if instance.mode != MODE_VQEC:
        raise EncodingError("the primal-dual loop drives the constrained mode only")
    engine = ExpectationEngine(instance)
    rng = np.random.default_rng(cfg.seed)
    starts = rng.uniform(0.0, TWO_PI, (cfg.restarts, ansatz.n_params))
    trace = OptTrace()
    runs = _pdp_runs(
        engine, ansatz, starts, [(cfg.nu, cfg.mu)] * cfg.restarts, cfg,
        _Budget(cfg.max_seconds), trace,
    )
    best = min(runs, key=lambda run: run.lagrangian)
    trace.snapshots.append((len(trace.objectives), tuple(map(float, best.theta))))
    return best.theta, best.duals, trace


# ---------------------------------------------------------------------------
# hyperparameter grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridEntry:
    nu: float
    mu: float
    restart: int
    objective: float
    lagrangian: float
    violation: float
    ground_probability: float
    diverged: bool
    params: tuple = ()
    duals: tuple = ()

    def sort_key(self):
        # feasible runs first: a violated constraint lowers the Lagrangian
        # through its dual, which bounds nothing about the constrained optimum
        return (
            self.diverged,
            self.violation > FEASIBLE_TOL,
            self.lagrangian,
            self.violation,
            -self.ground_probability,
            self.nu,
            self.mu,
            self.restart,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "nu": self.nu,
                "mu": self.mu,
                "restart": self.restart,
                "objective": self.objective,
                "lagrangian": self.lagrangian,
                "violation": self.violation,
                "ground_probability": self.ground_probability,
                "diverged": self.diverged,
                "params": list(self.params),
                "duals": list(self.duals),
            }
        )


@dataclass(frozen=True)
class GridReport:
    entries: tuple
    circuit_evaluations: int = 0

    @property
    def best(self) -> GridEntry:
        return self.entries[0]

    def to_json_lines(self) -> str:
        return "\n".join(e.to_json() for e in self.entries) + "\n"


def grid_search(instance: ProblemInstance, ansatz: Ansatz, cfg: VqecConfig) -> GridReport:
    """Sweep (nu, mu) over the configured grids with shared restarts.

    Every grid point sees the same seeded initial angles, so rows are
    comparable and the ranking is independent of execution order.  Runs
    that trip the divergence ceiling are kept, flagged, and ranked last.
    """
    if instance.mode != MODE_VQEC:
        raise EncodingError("grid search drives the constrained mode only")
    engine = ExpectationEngine(instance)
    rng = np.random.default_rng(cfg.seed)
    starts = rng.uniform(0.0, TWO_PI, (cfg.restarts, ansatz.n_params))
    points = list(itertools.product(cfg.nu_grid, cfg.mu_grid))
    runs = _pdp_runs(
        engine, ansatz, np.tile(starts, (len(points), 1)),
        np.repeat(np.array(points, dtype=float), cfg.restarts, axis=0),
        cfg, drop_diverged=True,
    )
    entries = []
    for i, run in enumerate(runs):
        (nu, mu), restart = points[i // cfg.restarts], i % cfg.restarts
        if run.diverged:
            inf = math.inf
            entries.append(GridEntry(float(nu), float(mu), restart, inf, inf, inf, 0.0, True))
            continue
        f_final = run.f_final
        entries.append(
            GridEntry(
                nu=float(nu),
                mu=float(mu),
                restart=restart,
                objective=float(f_final[0]),
                lagrangian=run.lagrangian,
                violation=float(np.maximum(f_final[1:], 0.0).sum()),
                ground_probability=run.ground_probability,
                diverged=False,
                params=tuple(map(float, run.theta)),
                duals=tuple(map(float, run.duals)),
            )
        )
    entries.sort(key=GridEntry.sort_key)
    return GridReport(
        entries=tuple(entries),
        circuit_evaluations=sum(run.evaluations for run in runs),
    )
