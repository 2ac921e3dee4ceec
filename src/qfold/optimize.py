"""Variational optimization drivers.

Each driver takes an engine, an ``Ansatz`` and a config, and reads the
engine through a protocol that ``ExpectationEngine`` answers: the VQEC
driver reads ``n_vars``, ``n_constraints``, ``f_vector``, ``costate`` and
``ground_probability``, the CVaR driver ``n_vars``, ``n_constraints`` and
``cvar_objective``.  CVaR-VQE refuses an engine with constraints and the
primal-dual loop one without, as each does an ansatz whose width is not
``n_vars`` (``EncodingError``).  The two methods:

* CVaR-VQE: derivative-free minimization of the conditional value at risk
  of the exact energy distribution, from multiple starts, each drawn
  uniformly from the fixed window ``CVAR_INIT_WINDOW`` = [3*pi/2, 2*pi].
  ``ExpectationEngine.cvar_objective`` reads the tail through
  ``sim.sorted_cvar``.  The minimizer is COBYLA, Powell's
  linear-approximation trust region, kept here as ``_cobyla``: an ask/tell
  generator that follows PRIMA's decision rules for a problem without
  constraints, and re-checks its simplex inverse only where the simplex
  has changed.  Restarts advance in lockstep, ``sim.block_columns(n)`` at a
  time: each tick is one ``evolve_block`` of the points the live restarts
  ask for, one ``cvar_objective`` of that block and one answer per
  restart.
* Primal-dual perturbation for the constrained encoding: each iteration
  evaluates the constraint expectations and the Lagrangian gradients at the
  current angles, perturbs primal and dual variables, then applies the
  update step with the perturbed weights.  Cost per iteration is 2P + 2
  logical circuit evaluations, the paper's parameter-shift count, which
  ``GridReport.circuit_evaluations`` reports.  The simulator needs only the
  two products ``jac @ w``, and both come from one ``sim.adjoint_gradients``
  sweep.  One driver, ``_pdp_runs``, advances up to
  ``sim.block_columns(n)`` trajectories (restarts, or every grid point's
  restarts) in lockstep: per iteration one ``evolve_block`` of the current
  angles, one sweep and one ``evolve_block`` of the perturbed angles.  A
  trajectory is one row of every block, as in ``sim`` (``f_vector`` rows
  and co-state weights are ``(B, 1 + M)``), and the same bits as running
  it alone.  A single run is the one-point grid: ``run_vqec_pdp`` and
  ``grid_search`` both seed, run and rank restarts through
  ``_ranked_runs``, feasible runs first (``GridEntry.sort_key``), and both
  return that ``GridReport``; a single run's report also carries its
  ``OptTrace``.

Expectations never materialize the full 2^n objective diagonal unless the
CVaR path demands it: the objective splits into a configuration-bit base
table plus one linear table per ancilla, so constraint and objective
expectations need only configuration-space marginals.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .exceptions import DivergenceError, EncodingError
from .hamiltonian import InstanceTables, ProblemInstance
from .sim import (
    Ansatz,
    adjoint_gradients,
    block_columns,
    evolve_block,
    probabilities,
    sorted_cvar,
)

TWO_PI = 2.0 * math.pi
# every CVaR-VQE restart draws its start angles uniformly from this window
CVAR_INIT_WINDOW = (3.0 * math.pi / 2.0, TWO_PI)
DEFAULT_NU_GRID = (0.01, 0.05, 0.1, 0.2, 0.5)
DEFAULT_MU_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
# the constraint_violation up to which a run counts as feasible
FEASIBLE_TOL = 1e-6
# a primal-dual run whose Lagrangian leaves [-ceiling, ceiling] has diverged
DIVERGENCE_CEILING = 1.0e5
# trace.jsonl prints the angles of one row in this many
CVAR_PARAMS_EVERY = 50
VQEC_PARAMS_EVERY = 10


def constraint_violation(f) -> float:
    """Summed positive constraint expectations of ``[objective, constraints...]``.

    The one measure of infeasibility: ``FEASIBLE_TOL`` bounds it, grid
    entries rank on it and a single run reports it.
    """
    return float(np.maximum(f[1:], 0.0).sum())


# ---------------------------------------------------------------------------
# expectation engine
# ---------------------------------------------------------------------------


class ExpectationEngine:
    """Exact diagonal expectations over configuration-space marginals.

    A state is a grid of ``2^A`` ancilla rows by ``2^C`` configuration
    columns, ancilla ``a`` on bit ``a`` of the row, weighed against the
    ``InstanceTables``; ``_diagonal`` spreads the tables over the grid.
    """

    def __init__(self, instance: ProblemInstance):
        self.tables = InstanceTables(instance)
        self.n_vars = instance.n_qubits
        self.n_config = instance.layout.n_config_bits
        self.n_ancillas = instance.layout.n_ancillas
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

    def _grid(self, block: np.ndarray) -> np.ndarray:
        # a (B, 2^A, 2^C) view of a vector or (B, 2^n) block; a block with
        # another last axis would be reshaped silently into other rows
        if block.shape[-1] != 1 << self.n_vars:
            raise EncodingError(f"expected 2^{self.n_vars} entries per row: {block.shape}")
        return block.reshape(-1, 1 << self.n_ancillas, 1 << self.n_config)

    def config_marginal(self, probs: np.ndarray) -> np.ndarray:
        return probs.reshape(1 << self.n_ancillas, 1 << self.n_config).sum(axis=0)

    def f_vector(self, probs: np.ndarray) -> np.ndarray:
        """[objective expectation, constraint expectations...].

        Takes one probability vector, or a ``(B, 2^n)`` block of them and
        returns one row per block row.  Ancilla a's partial marginal is read
        through a view that splits the grid row index at bit a.  Marginals
        are summed in one pass per block; the dot products run row by row,
        so every row is bit-identical to the one-vector result.
        """
        grid = self._grid(probs)
        width, config = grid.shape[0], 1 << self.n_config
        marginals = grid.sum(axis=1)
        partials = [
            grid.reshape(width, -1, 2, 1 << a, config)[:, :, 1].sum(axis=(1, 2))
            for a in range(self.n_ancillas)
        ]
        out = np.empty((width, 1 + self.n_constraints))
        for row, marginal in enumerate(marginals):
            total = float(marginal.dot(self.tables.base_table))
            for partial, table in zip(partials, self.tables.pair_tables):
                total += float(partial[row].dot(table))
            out[row, 0] = total
            for m, table in enumerate(self.tables.constraint_tables, start=1):
                out[row, m] = float(marginal.dot(table))
        return out if probs.ndim == 2 else out[0]

    def costate(self, state: np.ndarray, weights) -> np.ndarray:
        """``D_w * state`` for the weighted diagonal D_w = sum_m w_m F_m.

        F_0 is the objective and F_1.. the constraints, as in ``f_vector``.
        Takes one state and one weight vector, or a ``(B, 2^n)`` block of
        states and their ``(B, 1 + M)`` weight rows.  D_w is built in the
        result buffer by ``_diagonal``, which checks the state's shape.
        """
        weights = np.asarray(weights, dtype=float)
        out = self._diagonal(weights.reshape(-1, 1 + self.n_constraints), state.shape)
        out *= state
        return out

    def _diagonal(self, weights: np.ndarray, shape) -> np.ndarray:
        """``sum_m weights[b, m] F_m`` in row ``b`` of a new ``shape`` array.

        ``shape`` is ``2^n`` or ``(B, 2^n)``, and ``weights`` has one row
        per block row: a column for the objective, then one per constraint;
        the objective's column alone gives the objective's diagonal.  Row 0
        of each (ancilla, configuration) grid is the weighted base and
        constraint tables, and ancilla ``a`` doubles the rows filled so far
        by adding its weighted pair table.  Every step is elementwise, so a
        block row does not depend on the others.
        """
        out = np.empty(shape)
        grid = self._grid(out)
        objective = weights[:, :1]
        np.multiply(self.tables.base_table, objective, out=grid[:, 0])
        for weight, table in zip(weights[:, 1:].T, self.tables.constraint_tables):
            grid[:, 0] += weight[:, None] * table
        for a, table in enumerate(self.tables.pair_tables):
            pair = (objective * table)[:, None]
            np.add(grid[:, : 1 << a], pair, out=grid[:, 1 << a : 2 << a])
        return out

    def cvar_objective(self, probs: np.ndarray, alpha: float):
        """Tail mean over the exact full-basis energy distribution.

        Takes one probability vector, or a ``(B, 2^n)`` block of them and
        returns one value per row.  The block is gathered into the sorted
        diagonal's order once for one ``sorted_cvar`` call; every value is
        the bits of its row alone.
        """
        self._grid(probs)  # the shape check
        if self._sorted_diag is None:
            diag = self._diagonal(np.ones((1, 1)), 1 << self.n_vars)
            self._sort_order = np.argsort(diag, kind="stable")
            self._sorted_diag = diag[self._sort_order]
        rows = np.take(probs, self._sort_order, axis=-1)
        return sorted_cvar(self._sorted_diag, rows, alpha)

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
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise EncodingError("alpha must lie in (0, 1]")
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

    def __post_init__(self):
        if not self.nu_grid or not self.mu_grid:
            raise EncodingError("step-size grids must be non-empty")
        # comparisons reject NaN, inf and integers beyond every float alike
        steps = (self.nu, self.mu, *self.nu_grid, *self.mu_grid)
        if not all(0.0 < v <= sys.float_info.max for v in steps):
            raise EncodingError("step sizes must be finite and positive")
        if self.restarts < 1 or self.max_iterations < 1:
            raise EncodingError("restarts and max_iterations must be >= 1")


@dataclass
class OptTrace:
    """One row per step, restart after restart: ``(objective, params)`` for a
    CVaR evaluation, ``(objective, params, lagrangian, duals)`` for a
    primal-dual iteration, with the angles and duals after its update.
    ``to_json_lines`` prints ``params`` on every ``every``-th row."""

    every: int
    rows: list = field(default_factory=list)

    @property
    def objectives(self) -> list:
        return [row[0] for row in self.rows]

    @property
    def best(self) -> float:
        """The last row's ``best`` in ``to_json_lines``; inf with no rows."""
        return functools.reduce(min, self.objectives, math.inf)

    def to_json_lines(self) -> str:
        """One JSON row per row; ``best`` is the running minimum of
        ``objective`` over every row so far, whichever restart it is in."""
        lines, best = [], math.inf
        for i, (objective, params, *pdp) in enumerate(self.rows):
            best = min(best, objective)
            row = {"i": i, "objective": objective, "best": best}
            if pdp:
                row["lagrangian"], row["duals"] = pdp[0], [float(v) for v in pdp[1]]
            if i % self.every == 0:
                row["params"] = [float(v) for v in params]
            lines.append(json.dumps(row))
        return "\n".join(lines) + "\n"


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
        distsq[n] = ((x - sim[:, n]) * (x - sim[:, n])).sum()
        diff = x[:, None] - (sim[:, n][:, None] + sim[:, :n])
        distsq[:n] = (diff * diff).sum(axis=0)
        j = int(distsq.argmin())
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
    # only the first pass checks here: later the simplex is checked where it
    # changes, and the pole is always the best vertex
    checked = False
    for _ in range(10 * maxfev):
        simi, ok = _updatepole(fval, sim, simi, checked)
        if not ok:
            break
        checked = True
        adequate_geo = _offsets_within(sim, 2.0 * delta)
        g = (fval[:n] - fval[n]) @ simi
        d = _tr_step(g, delta)
        dnorm = min(delta, _norm(d))
        shortd = dnorm <= 0.1 * rho
        preref = -d.dot(g)
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
            jdrop_geo = int((sim[:, :n] * sim[:, :n]).sum(axis=0).argmax())
            d = simi[jdrop_geo, :]
            d = delta / 2 * (d / _norm(d))
            if d.dot((fval[:n] - fval[n]) @ simi) > 0:
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
            # PRIMA updates the pole here, as its merit function may change
            # with rho; without constraints it is f, so the pole stays
            delta = max(0.5 * rho, _redrho(rho))
            rho = _redrho(rho)

    if small_radius and shortd:
        # PRIMA's last step: the short step that ended the run, if it moves
        x = sim[:, n] + d
        if _norm(x - sim[:, n]) > 1.0e-3 * _RHOEND and nf < maxfev:
            f = _moderated((yield x))
            if f < f_best:
                x_best, f_best = x, f
    return x_best, f_best


def _moderated(f) -> float:
    return _FUNCMAX if math.isnan(f) else min(max(f, -_REALMAX), _FUNCMAX)


def _norm(v) -> float:
    # np.linalg.norm's arithmetic for a 1-d vector, without its dispatch
    return math.sqrt(v.dot(v))


def _offsets_within(sim, radius) -> bool:
    n = sim.shape[0]
    return bool(((sim[:, :n] * sim[:, :n]).sum(axis=0) <= radius * radius).all())


def _tr_step(g, delta):
    """The linear model's minimizer on the trust region: ``-delta * g / |g|``."""
    norm = _norm(g)
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
    distsq = np.empty(n + 1)
    if ximproved:
        diff = sim[:, :n] - d[:, None]
        distsq[:n] = (diff * diff).sum(axis=0)
        distsq[n] = (d * d).sum()
    else:
        distsq[:n] = (sim[:, :n] * sim[:, :n]).sum(axis=0)
        distsq[n] = 0.0
    scale = max(rho, delta / 10)
    weight = np.maximum(1, distsq / (scale * scale))
    score = np.empty(n + 1)
    score[:n] = simi @ d
    score[n] = 1 - score[:n].sum()
    score = weight * abs(score)
    if not ximproved:
        score[n] = -1
    score[np.isnan(score)] = -1
    if (score > 0).any():
        return int(score.argmax())
    return int(distsq.argmax()) if ximproved else None


@functools.lru_cache(maxsize=4)
def _eye(n):
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _reinverted(sim, simi):
    """``(simi, ok)``: ``simi``, or a fresh inverse where it has drifted."""
    n = sim.shape[0]
    erri = abs(simi @ sim[:, :n] - _eye(n)).max()
    if erri > 0.1 or np.isnan(erri):
        simi_test = np.linalg.inv(sim[:, :n])
        erri_test = abs(simi_test @ sim[:, :n] - _eye(n)).max()
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
        simi_jdrop = simi[jdrop, :] / simi[jdrop, :].dot(d)
        simi -= (simi @ d)[:, None] * simi_jdrop
        simi[jdrop, :] = simi_jdrop
    else:
        sim[:, n] += d
        sim[:, :n] -= d[:, None]
        simid = simi @ d
        sum_simi = simi.sum(axis=0)
        # PRIMA adds left to right, as cumsum does; a pairwise sum differs
        simi += simid[:, None] * (sum_simi / (1 - simid.cumsum()[-1]))
    simi, ok = _reinverted(sim, simi)
    if not ok:
        return simi, False
    fval[jdrop] = f
    return _updatepole(fval, sim, simi)


def _updatepole(fval, sim, simi, checked=True):
    """Make the best vertex (the first on a tie) the pole; ``(simi, ok)``.

    ``checked`` says the simplex has passed ``_reinverted`` since it last
    changed; the check is then repeated only if the pole moves.
    """
    n = sim.shape[0]
    jopt = int(fval.argmin())
    if fval[jopt] < fval[n]:
        sim[:, n] += sim[:, jopt]
        sim_jopt = sim[:, jopt].copy()
        sim[:, jopt] = 0
        sim[:, :n] -= sim_jopt[:, None]
        simi[jopt, :] = -simi.sum(axis=0)
    elif checked:
        return simi, True
    else:
        jopt = n
    simi, ok = _reinverted(sim, simi)
    if ok and jopt < n:
        fval[[jopt, n]] = fval[[n, jopt]]
    return simi, ok


def run_cvar_vqe(engine, ansatz: Ansatz, cfg: CvarVqeConfig):
    """Multistart CVaR minimization on ``engine``; returns (best params, trace).

    Each restart is one ``_cobyla`` run from its seeded start.  Restarts
    advance in lockstep, ``block_columns(n)`` at a time: a tick evolves the
    point every live run asks for as one row of an ``evolve_block`` and
    tells each run its CVaR.  A row is the same bits as its circuit run
    alone, so each restart's run does not depend on the others.  Trace
    rows are recorded restart after restart; the best restart has the
    lowest value, the first on a tie.
    """
    if engine.n_constraints:
        raise EncodingError("CVaR-VQE drives the fused-penalty objective only")
    if ansatz.n_qubits != engine.n_vars:
        raise EncodingError("ansatz width does not match the engine")
    rng = np.random.default_rng(cfg.seed)
    starts = [rng.uniform(*CVAR_INIT_WINDOW, ansatz.n_params)
              for _ in range(cfg.restarts)]
    maxfev = cobyla_budget(cfg, ansatz)
    width = block_columns(ansatz.n_qubits)
    trace = OptTrace(CVAR_PARAMS_EVERY)
    best_params = None
    best_value = math.inf
    for first in range(0, cfg.restarts, width):
        runs = [_cobyla(x0, maxfev) for x0 in starts[first : first + width]]
        rows = [[] for _ in runs]
        results = [None] * len(runs)
        asked = {j: next(run) for j, run in enumerate(runs)}
        while asked:
            live = list(asked)
            block = np.array([asked[j] for j in live])
            probs = probabilities(evolve_block(ansatz, block))
            for j, value in zip(live, engine.cvar_objective(probs, cfg.alpha)):
                value = float(value)
                rows[j].append((value, asked[j]))
                try:
                    asked[j] = runs[j].send(value)
                except StopIteration as stop:
                    results[j] = stop.value
                    del asked[j]
        for run_rows, (params, value) in zip(rows, results):
            trace.rows += run_rows
            if value < best_value:
                best_params, best_value = params, value
    return best_params, trace


# ---------------------------------------------------------------------------
# VQEC primal-dual perturbation
# ---------------------------------------------------------------------------


def _pdp_block(engine, ansatz, starts, keys, cfg, traced):
    """Advance the runs ``starts[j]`` at ``keys[j] = (nu, mu, restart)`` in lockstep.

    Every per-run array has one row per live run.  An iteration is one
    ``evolve_block`` of the current angles, ``f_vector`` and two co-states
    per row, one adjoint sweep for both ``jac @ w`` products of every row,
    and one ``evolve_block`` of the perturbed angles.  Every step is
    elementwise or a per-row reduction, so a trajectory's iterates are the
    same bits at any block width.  A run whose Lagrangian leaves the
    divergence ceiling leaves the block, its row dropped from every array.
    Returns each run's ``GridEntry`` (diverged, or from its final iterate),
    each run's ``OptTrace`` rows (empty unless ``traced``) and the block's
    logical circuit evaluations.
    """
    inf = math.inf
    entries = [GridEntry(*key, inf, inf, inf, 0.0, True) for key in keys]
    rows = [[] for _ in keys]
    evaluations = 0
    live = np.arange(len(starts))
    theta = np.array(starts, dtype=float)
    steps = np.array([key[:2] for key in keys], dtype=float)
    duals = np.zeros((len(starts), engine.n_constraints))
    per_iteration = 2 * ansatz.n_params + 2
    for _ in range(cfg.max_iterations):
        states = evolve_block(ansatz, theta)
        f_here = engine.f_vector(probabilities(states))
        # one dot per contiguous row, as in f_vector, so that no row's
        # value depends on its neighbours
        lagrangian = np.array([float(f[0] + d @ f[1:]) for f, d in zip(f_here, duals)])
        keep = np.abs(lagrangian) <= DIVERGENCE_CEILING
        if not keep.all():
            if not keep.any():
                return entries, rows, evaluations
            live, theta, states, f_here, duals, steps, lagrangian = (
                a[keep] for a in (live, theta, states, f_here, duals, steps, lagrangian)
            )
        nu, mu = steps[:, :1], steps[:, 1:]

        ones = np.ones((len(live), 1))
        duals_pert = np.maximum(duals + nu * f_here[:, 1:], 0.0)
        # the sweep consumes the co-states: at 24 qubits each is 128 MiB
        step, step_pert = adjoint_gradients(
            ansatz,
            theta,
            states,
            [engine.costate(states, np.hstack((ones, d))) for d in (duals, duals_pert)],
        )
        theta_pert = np.clip(theta - nu * step, 0.0, TWO_PI)
        theta_next = np.clip(theta - mu * step_pert, 0.0, TWO_PI)
        f_pert = engine.f_vector(probabilities(evolve_block(ansatz, theta_pert)))
        duals = np.maximum(duals + mu * f_pert[:, 1:], 0.0)
        theta = theta_next
        evaluations += per_iteration * len(live)
        for j, c in enumerate(live if traced else ()):
            rows[c].append((float(f_here[j, 0]), theta[j].copy(), float(lagrangian[j]),
                            duals[j].copy()))

    probs = probabilities(evolve_block(ansatz, theta))
    f_final = engine.f_vector(probs)
    for j, c in enumerate(live):
        f = f_final[j]
        entries[c] = GridEntry(
            *keys[c],
            objective=float(f[0]),
            lagrangian=float(f[0] + duals[j] @ f[1:]),
            violation=constraint_violation(f),
            ground_probability=engine.ground_probability(probs[j]),
            diverged=False,
            params=tuple(map(float, theta[j])),
            duals=tuple(map(float, duals[j])),
        )
    return entries, rows, evaluations + len(live)


def _pdp_runs(engine, ansatz, starts, keys, cfg, traced=False):
    """The primal-dual driver: one run per row of ``starts`` and ``keys``.

    Runs go through ``_pdp_block`` in blocks of ``block_columns(n)``
    trajectories (64 up to 10 qubits, 32 up to 12, one from 13), in row
    order, and the blocks' ``(entries, rows, evaluations)`` are joined;
    each run's rows stay empty unless ``traced``.
    """
    if not engine.n_constraints:
        raise EncodingError("the primal-dual loop drives the constrained mode only")
    if ansatz.n_qubits != engine.n_vars:
        raise EncodingError("ansatz width does not match the engine")
    width = block_columns(ansatz.n_qubits)
    blocks = [
        _pdp_block(
            engine, ansatz, starts[i : i + width], keys[i : i + width], cfg, traced
        )
        for i in range(0, len(starts), width)
    ]
    entries, rows, evaluations = zip(*blocks)
    chain = itertools.chain.from_iterable
    return list(chain(entries)), list(chain(rows)), sum(evaluations)


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
        # the field order is the key order of grid.jsonl
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class GridReport:
    """Ranked VQEC runs, best first, with a single run's ``trace`` (None for a
    grid).  ``circuit_evaluations`` is the paper's cost, whatever the simulator
    ran: 2P + 2 logical circuit evaluations per iteration, one per final state.
    ``best`` is the chosen run; the trace holds every restart's iterations."""

    entries: tuple
    circuit_evaluations: int = 0
    trace: OptTrace | None = None

    @property
    def best(self) -> GridEntry:
        return self.entries[0]

    def to_json_lines(self) -> str:
        return "\n".join(e.to_json() for e in self.entries) + "\n"


def _ranked_runs(engine, ansatz, cfg, points, traced=False) -> GridReport:
    """The VQEC driver: ``cfg.restarts`` seeded restarts at each (nu, mu) of
    ``points``, one ``GridEntry`` per run, ranked by ``GridEntry.sort_key``.

    Every point sees the same seeded initial angles, so rows are comparable
    and the ranking is independent of execution order.  Runs that trip the
    divergence ceiling are kept, flagged, and ranked last; if all did,
    ``DivergenceError`` is raised.  ``traced`` keeps every run's iterations,
    run after run, as the report's ``OptTrace``.
    """
    rng = np.random.default_rng(cfg.seed)
    starts = rng.uniform(0.0, TWO_PI, (cfg.restarts, ansatz.n_params))
    keys = [(float(nu), float(mu), r) for nu, mu in points for r in range(cfg.restarts)]
    entries, rows, evaluations = _pdp_runs(
        engine, ansatz, np.tile(starts, (len(points), 1)), keys, cfg, traced
    )
    entries.sort(key=GridEntry.sort_key)
    if entries[0].diverged:
        raise DivergenceError(f"every run exceeded the ceiling {DIVERGENCE_CEILING}")
    trace = OptTrace(VQEC_PARAMS_EVERY, list(itertools.chain(*rows))) if traced else None
    return GridReport(tuple(entries), evaluations, trace)


def run_vqec_pdp(engine, ansatz: Ansatz, cfg: VqecConfig) -> GridReport:
    """Multistart primal-dual runs at (cfg.nu, cfg.mu): the one-point grid.

    Returns the ranked ``GridReport``, with the run's ``OptTrace`` as its
    ``trace``.  Restarts rank as grid entries do, feasible runs first, then
    the lowest final Lagrangian; a diverged restart ranks last, and
    ``DivergenceError`` is raised only when all diverged.
    """
    return _ranked_runs(engine, ansatz, cfg, [(cfg.nu, cfg.mu)], traced=True)


def grid_search(engine, ansatz: Ansatz, cfg: VqecConfig) -> GridReport:
    """Sweep (nu, mu) over the configured grids with shared restarts.

    Every grid point's restarts run and rank as one ``run_vqec_pdp`` does,
    so a one-point grid's best is that run's pick; the report has no trace.
    """
    points = list(itertools.product(cfg.nu_grid, cfg.mu_grid))
    return _ranked_runs(engine, ansatz, cfg, points)
