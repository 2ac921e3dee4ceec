"""Optimizer drivers on the 4-bead instances, with analytic cross-checks."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qfold import optimize
from qfold.exceptions import DivergenceError, EmptyDistributionError, EncodingError
from qfold.hamiltonian import assemble
from qfold.optimize import (
    CvarVqeConfig,
    ExpectationEngine,
    GridEntry,
    OptTrace,
    VqecConfig,
    _cobyla,
    _pdp_runs,
    cobyla_budget,
    grid_search,
    run_cvar_vqe,
    run_vqec_pdp,
)
from qfold.pb import PBPolynomial
from qfold.scoring import RESIDUES, load_matrix
from qfold.search import SearchConfig, search
from qfold.sim import (
    Ansatz,
    adjoint_gradients,
    block_columns,
    evolve,
    evolve_block,
    probabilities,
)
from util import (
    expectation_diagonal,
    objective_diagonal,
    parameter_shift_gradient,
    parameter_shift_jacobian,
    plain_rows,
    reference_cvar,
    reference_cvar_objective,
    reference_f_vector,
    reference_run_cvar_vqe,
)

MJ = load_matrix("mj1996")
POLYFIT = assemble("polyfit", "KLVF", MJ)
VQEC = assemble("vqec", "KLVF", MJ)
POLYFIT_ENGINE = ExpectationEngine(POLYFIT)
VQEC_ENGINE = ExpectationEngine(VQEC)
ANSATZ = Ansatz(POLYFIT.n_qubits, layers=2)
TWO_PI = 2.0 * math.pi


def random_state(seed, n_qubits):
    rng = np.random.default_rng(seed)
    ansatz = Ansatz(n_qubits, layers=2)
    return evolve(ansatz, rng.uniform(0.0, TWO_PI, ansatz.n_params))


# --- expectation engine ---


def test_objective_expectation_matches_full_diagonal():
    engine = ExpectationEngine(POLYFIT)
    diag = objective_diagonal(POLYFIT)
    for seed in range(4):
        state = random_state(seed, POLYFIT.n_qubits)
        split = engine.f_vector(probabilities(state))[0]
        full = expectation_diagonal(state, diag)
        assert split == pytest.approx(full, abs=1e-9)


def test_objective_expectation_is_the_f_vector_kernel():
    klvff = assemble("vqec", "KLVFF", MJ)
    for instance in (POLYFIT, VQEC, klvff):
        engine = ExpectationEngine(instance)
        for seed in range(2):
            probs = probabilities(random_state(seed, instance.n_qubits))
            value = engine.f_vector(probs)[0]
            assert value == reference_f_vector(engine, probs)[0]


def test_constraint_expectations_match_full_tables():
    from qfold.pb import value_table

    engine = ExpectationEngine(VQEC)
    n = VQEC.n_qubits
    full_tables = [
        value_table(c, list(range(n))) for c in VQEC.constraints
    ]
    for seed in range(3):
        state = random_state(seed + 10, n)
        probs = probabilities(state)
        f = engine.f_vector(probs)
        assert f.shape == (1 + len(VQEC.constraints),)
        for m, table in enumerate(full_tables, start=1):
            assert f[m] == pytest.approx(float(probs @ table), abs=1e-9)


def test_f_vector_block_rows_equal_single_vectors():
    engine = ExpectationEngine(VQEC)
    ansatz = Ansatz(VQEC.n_qubits, layers=2)
    rng = np.random.default_rng(5)
    block = rng.uniform(0.0, TWO_PI, (ansatz.n_params, 6)).T
    probs = probabilities(evolve_block(ansatz, block))
    rows = engine.f_vector(probs)
    assert rows.shape == (6, 1 + engine.n_constraints)
    for j in range(6):
        single = engine.f_vector(probs[j])
        assert np.array_equal(rows[j], single)


@pytest.mark.parametrize("n_beads", [4, 5])
def test_f_vector_view_rows_equal_the_mask_reference(n_beads):
    # ancilla partial marginals read through the engine's reshaped view,
    # against tests/util's boolean row masks, at 9 and 16 qubits
    instance, ansatz, rng = random_vqec(n_beads, 20 + n_beads)
    engine = ExpectationEngine(instance)
    block = rng.uniform(0.0, TWO_PI, (ansatz.n_params, 3)).T
    probs = probabilities(evolve_block(ansatz, block))
    rows = engine.f_vector(probs)
    for j in range(3):
        assert np.array_equal(rows[j], reference_f_vector(engine, probs[j]))


def test_engine_rejects_an_instance_no_configuration_satisfies():
    infeasible = replace(VQEC, constraints=(PBPolynomial.constant(1.0, VQEC.n_qubits),))
    with pytest.raises(EncodingError, match="no configuration"):
        ExpectationEngine(infeasible)


def test_engine_block_methods_reject_a_transposed_block():
    # a stale (2^n, B) block would otherwise be reshaped into wrong rows
    engine = ExpectationEngine(VQEC)
    rng = np.random.default_rng(12)
    block = rng.uniform(0.0, TWO_PI, (ANSATZ.n_params, 3)).T
    states = evolve_block(ANSATZ, block)
    weights = np.ones((3, 1 + engine.n_constraints))
    with pytest.raises(EncodingError):
        engine.f_vector(probabilities(states).T)
    with pytest.raises(EncodingError):
        engine.costate(states.T, weights)
    with pytest.raises(EncodingError):
        engine.cvar_objective(probabilities(states).T, 0.1)


def test_cvar_objective_matches_reference():
    engine = ExpectationEngine(POLYFIT)
    diag = objective_diagonal(POLYFIT)
    for seed in range(3):
        probs = probabilities(random_state(seed + 20, POLYFIT.n_qubits))
        for alpha in (0.1, 0.37, 1.0):
            assert engine.cvar_objective(probs, alpha) == pytest.approx(
                reference_cvar(diag, probs, alpha), abs=1e-10
            )


def test_cvar_objective_is_the_former_kernel_bit_for_bit():
    # ExpectationEngine.cvar_objective reads sim.sorted_cvar and must keep
    # the bits of its former standalone code
    engine = ExpectationEngine(POLYFIT)
    rng = np.random.default_rng(9)
    size = 1 << POLYFIT.n_qubits
    for trial in range(20):
        probs = rng.random(size) * (rng.random(size) < 0.3)
        probs /= probs.sum()
        for alpha in (1.0, 0.1, float(rng.uniform(0.01, 1.0))):
            want = reference_cvar_objective(POLYFIT, probs, alpha)
            assert engine.cvar_objective(probs, alpha) == want


def test_cvar_objective_block_columns_equal_single_vectors():
    engine = ExpectationEngine(POLYFIT)
    ansatz = Ansatz(POLYFIT.n_qubits, layers=2)
    rng = np.random.default_rng(6)
    block = rng.uniform(0.0, TWO_PI, (ansatz.n_params, 7)).T
    probs = probabilities(evolve_block(ansatz, block))
    for alpha in (1.0, 0.1, 0.37):
        values = engine.cvar_objective(probs, alpha)
        assert values.shape == (7,)
        for j in range(7):
            column = probs[j]
            assert values[j] == engine.cvar_objective(column, alpha)
            assert values[j] == reference_cvar_objective(POLYFIT, column, alpha)


def test_cvar_alpha_one_equals_expectation():
    engine = ExpectationEngine(POLYFIT)
    probs = probabilities(random_state(33, POLYFIT.n_qubits))
    assert engine.cvar_objective(probs, 1.0) == pytest.approx(
        engine.f_vector(probs)[0], abs=1e-9
    )


def test_cvar_objective_of_an_empty_row_raises():
    engine = ExpectationEngine(POLYFIT)
    size = 1 << POLYFIT.n_qubits
    with pytest.raises(EmptyDistributionError):
        engine.cvar_objective(np.zeros((1, size)), 0.1)
    with pytest.raises(EmptyDistributionError):
        engine.cvar_objective(np.zeros(size), 0.1)


def assert_vqec_ground_equals_oracle(peptide, matrix):
    instance = assemble("vqec", peptide, matrix)
    oracle = search(SearchConfig("fcc", peptide, matrix, k=1)).records[0].energy
    ground = ExpectationEngine(instance).ground_energy
    assert ground == pytest.approx(oracle, abs=1e-9), peptide


@pytest.mark.parametrize("matrix_name", ["mj1996", "hp"])
def test_vqec_ground_equals_oracle_on_random_peptides(matrix_name):
    matrix = load_matrix(matrix_name)
    rng = np.random.default_rng(4)
    for _ in range(10):
        n_beads = int(rng.integers(4, 6))
        peptide = "".join(rng.choice(list(RESIDUES), n_beads))
        assert_vqec_ground_equals_oracle(peptide, matrix)


@pytest.mark.parametrize("matrix_name", ["mj1996", "hp"])
def test_vqec_ground_equals_oracle_at_six_residues(matrix_name):
    # the paper's 24-qubit size
    matrix = load_matrix(matrix_name)
    rng = np.random.default_rng(6)
    for _ in range(3):
        assert_vqec_ground_equals_oracle("".join(rng.choice(list(RESIDUES), 6)), matrix)


def test_vqec_ground_is_feasible_geometric_minimum():
    # the raw objective minimum sits on an overlapping configuration; the
    # constrained ground must be the true self-avoiding fold instead
    engine = ExpectationEngine(VQEC)
    assert engine.ground_energy == pytest.approx(-13.13, abs=1e-9)
    optimal = engine.tables.ancilla_optimal_energies()
    assert float(optimal.min()) < engine.ground_energy - 1.0


def test_modes_agree_on_ground_configuration():
    poly = ExpectationEngine(POLYFIT)
    vqec = ExpectationEngine(VQEC)
    assert set(poly.ground_configs) == set(vqec.ground_configs)


def test_ground_probability_and_modal():
    engine = ExpectationEngine(VQEC)
    ground = int(engine.ground_configs[0])
    probs = np.zeros(1 << VQEC.n_qubits)
    ancilla_part = 0b101 << engine.n_config
    probs[ancilla_part | ground] = 1.0
    assert engine.ground_probability(probs) == pytest.approx(1.0)
    assert engine.modal_config(probs) == ground


# --- configs and traces ---


def test_config_validation():
    with pytest.raises(EncodingError):
        CvarVqeConfig(alpha=0.0)
    with pytest.raises(EncodingError):
        CvarVqeConfig(restarts=0)
    with pytest.raises(EncodingError):
        VqecConfig(nu=0.0)
    with pytest.raises(EncodingError):
        VqecConfig(restarts=0)
    with pytest.raises(EncodingError):
        VqecConfig(nu_grid=())
    with pytest.raises(EncodingError):
        VqecConfig(mu_grid=(0.1, -0.5))
    # non-finite steps: inf used to run to angles at 2*pi, NaN to a
    # DivergenceError that named the ceiling
    for bad in (math.inf, math.nan, -math.inf):
        for name in ("nu", "mu"):
            with pytest.raises(EncodingError):
                VqecConfig(**{name: bad})
        for name in ("nu_grid", "mu_grid"):
            with pytest.raises(EncodingError):
                VqecConfig(**{name: (0.1, bad)})


def test_trace_best_so_far_monotone():
    values = (5.0, 3.0, 4.0, 2.5, 2.6)
    trace = OptTrace(every=50, rows=[(v, np.zeros(2)) for v in values])
    best = [json.loads(line)["best"] for line in trace.to_json_lines().splitlines()]
    assert best == [5.0, 3.0, 3.0, 2.5, 2.5]
    assert all(x >= y for x, y in zip(best, best[1:]))
    assert trace.best == 2.5 and trace.objectives == list(values)
    assert OptTrace(every=50).best == math.inf


def test_trace_json_lines():
    trace = OptTrace(every=2, rows=[
        (1.0, np.array([0.1, 0.2]), 2.0, np.array([0.0, 0.3])),
        (0.5, np.array([0.3, 0.4]), 1.5, np.array([0.1, 0.3])),
        (0.7, np.array([0.5, 0.6]), 0.9, np.array([0.2, 0.3])),
    ])
    rows = [json.loads(line) for line in trace.to_json_lines().splitlines()]
    assert rows[0] == {"i": 0, "objective": 1.0, "best": 1.0, "lagrangian": 2.0,
                       "duals": [0.0, 0.3], "params": [0.1, 0.2]}
    assert rows[1] == {"i": 1, "objective": 0.5, "best": 0.5, "lagrangian": 1.5,
                       "duals": [0.1, 0.3]}
    assert rows[2]["params"] == [0.5, 0.6] and rows[2]["best"] == 0.5
    cvar = OptTrace(every=1, rows=[(0.5, np.array([0.1]))])
    assert json.loads(cvar.to_json_lines()) == {
        "i": 0, "objective": 0.5, "best": 0.5, "params": [0.1]
    }


# --- CVaR-VQE ---


def test_cvar_vqe_rejects_wrong_mode_and_width():
    cfg = CvarVqeConfig(restarts=1, max_iterations=5)
    with pytest.raises(EncodingError):
        run_cvar_vqe(VQEC_ENGINE, ANSATZ, cfg)
    with pytest.raises(EncodingError):
        run_cvar_vqe(POLYFIT_ENGINE, Ansatz(5), cfg)


def test_cvar_vqe_deterministic():
    cfg = CvarVqeConfig(restarts=2, max_iterations=30, seed=11)
    params_a, trace_a = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
    params_b, trace_b = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
    assert np.array_equal(params_a, params_b)
    assert trace_a.objectives == trace_b.objectives


def test_cvar_vqe_recovers_ground():
    cfg = CvarVqeConfig(alpha=0.1, restarts=20, max_iterations=80, seed=0)
    params, trace = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
    engine = ExpectationEngine(POLYFIT)
    probs = probabilities(evolve(ANSATZ, params))
    assert engine.modal_config(probs) in set(engine.ground_configs.tolist())
    assert trace.best == pytest.approx(engine.ground_energy, abs=0.05)
    assert len(trace.objectives) <= 20 * 81


def test_cvar_vqe_budget_raised_to_cobyla_minimum():
    # below P + 2, COBYLA would raise the budget itself and warn
    assert cobyla_budget(CvarVqeConfig(max_iterations=5), ANSATZ) == 29
    assert cobyla_budget(CvarVqeConfig(max_iterations=80), ANSATZ) == 80
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params_5, trace_5 = run_cvar_vqe(
            POLYFIT_ENGINE, ANSATZ, CvarVqeConfig(restarts=2, max_iterations=5, seed=3)
        )
    params_29, trace_29 = run_cvar_vqe(
        POLYFIT_ENGINE, ANSATZ, CvarVqeConfig(restarts=2, max_iterations=29, seed=3)
    )
    assert np.array_equal(params_5, params_29)
    assert plain_rows(trace_5.rows) == plain_rows(trace_29.rows)


def cobyla_values(x0, objective, maxfev):
    """Drive ``_cobyla`` on ``objective``; returns (points asked, its result)."""
    run = _cobyla(np.asarray(x0, dtype=float), maxfev)
    asked = [next(run)]
    try:
        while True:
            asked.append(run.send(objective(asked[-1])))
    except StopIteration as stop:
        return asked, stop.value


def test_cobyla_initial_simplex_equals_scipy():
    # the first P + 1 points are x0 and x0 + e_j with PRIMA's pole swaps,
    # and their values, bit for bit
    cfg = CvarVqeConfig(restarts=3, max_iterations=40, seed=11)
    _, ours = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
    _, theirs = reference_run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
    assert len(ours.rows) == len(theirs.rows) == 3 * 40
    for restart in range(3):
        rows = slice(restart * 40, restart * 40 + ANSATZ.n_params + 1)
        assert plain_rows(ours.rows[rows]) == plain_rows(theirs.rows[rows])


@pytest.mark.parametrize("seed", [0, 11])
def test_cvar_vqe_best_equals_scipy_on_klvf(seed):
    # criterion 8's settings (seed 0) and the pipeline's defaults (seed 11)
    cfg = CvarVqeConfig(alpha=0.1, restarts=20, max_iterations=80, seed=seed)
    _, ours = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
    _, theirs = reference_run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
    assert ours.best == pytest.approx(theirs.best, abs=1e-9)


def test_cvar_vqe_best_equals_scipy_on_drawn_peptides():
    rng = np.random.default_rng(5)
    for k in range(10):
        peptide = "".join(rng.choice(list(RESIDUES), 4))
        instance = assemble("polyfit", peptide, MJ)
        cfg = CvarVqeConfig(restarts=3, max_iterations=60, seed=k)
        engine = ExpectationEngine(instance)
        _, ours = run_cvar_vqe(engine, ANSATZ, cfg)
        _, theirs = reference_run_cvar_vqe(engine, ANSATZ, cfg)
        assert ours.best == pytest.approx(theirs.best, abs=1e-9), peptide


@pytest.mark.parametrize("n", [5, 12])
def test_cobyla_converges_like_scipy_on_a_convex_quadratic(n):
    from scipy.optimize import minimize

    rng = np.random.default_rng(n)
    centre = rng.uniform(-1.0, 1.0, n)
    weights = rng.uniform(0.5, 3.0, n)
    x0 = rng.uniform(-2.0, 2.0, n)

    def quadratic(x):
        return float(np.sum(weights * (x - centre) ** 2))

    reference = minimize(quadratic, x0, method="COBYLA", options={"maxiter": 3000})
    asked, (x_best, f_best) = cobyla_values(x0, quadratic, 3000)
    # both stop on the final trust-region radius (1e-4), far inside the budget
    assert reference.status == 0 and len(asked) < 3000
    assert abs(len(asked) - reference.nfev) <= 0.25 * reference.nfev
    assert f_best == quadratic(x_best) < 1e-7 and reference.fun < 1e-7
    assert np.max(np.abs(x_best - centre)) < 1e-3


def test_cvar_vqe_stops_on_final_radius_before_the_budget():
    cfg = CvarVqeConfig(restarts=2, max_iterations=1500, seed=0)
    params, trace = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
    assert len(trace.objectives) < cfg.restarts * cobyla_budget(cfg, ANSATZ)
    engine = ExpectationEngine(POLYFIT)
    assert trace.best == pytest.approx(engine.ground_energy, abs=0.05)


# the -inf case overflows the linear model's gradient, as it does in PRIMA
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_cobyla_moderates_nan_and_inf():
    realmax = np.finfo(float).max
    # every value NaN: the run ends on its radius at 1e30, and the tie goes
    # to the first vertex in PRIMA's filter order, x0 + e_0, as in SciPy
    x0 = np.full(4, 0.2)
    asked, (x_best, f_best) = cobyla_values(x0, lambda x: math.nan, 200)
    assert len(asked) < 200
    assert np.array_equal(x_best, [1.2, 0.2, 0.2, 0.2]) and f_best == 1e30

    # NaN and +inf read as 1e30, -inf as -REALMAX, which then stays best
    def spiky(x):
        if x[0] > 0.9:
            return math.nan
        if x[1] > 0.9:
            return math.inf
        return float(np.sum((x - 0.5) ** 2))

    asked, (x_best, f_best) = cobyla_values(np.zeros(3), spiky, 150)
    assert f_best == min(spiky(x) for x in asked) and math.isfinite(f_best)
    calls = iter(range(1000))
    asked, (x_best, f_best) = cobyla_values(
        np.zeros(3), lambda x: -math.inf if next(calls) == 5 else spiky(x), 150
    )
    assert f_best == -realmax and np.array_equal(x_best, asked[5])


def test_cvar_vqe_lockstep_equals_single_restarts(monkeypatch):
    # restarts run as one evolve_block per tick; each must be the same bits
    # as run alone, including a partial second block (65 columns at n=9)
    assert block_columns(ANSATZ.n_qubits) == 64
    configs = (
        CvarVqeConfig(restarts=5, max_iterations=40, seed=2),
        CvarVqeConfig(restarts=65, max_iterations=29, seed=6),
    )
    for cfg in configs:
        params, trace = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "block_columns", lambda n_qubits: 1)
            alone_params, alone = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cfg)
        assert plain_rows(trace.rows) == plain_rows(alone.rows)
        assert np.array_equal(params, alone_params)
        assert trace.best == alone.best


# --- PDP mechanics ---


def pdp_alone(engine, ansatz, theta0, key, cfg):
    """One trajectory from ``theta0`` at ``key = (nu, mu, restart)`` through
    the primal-dual driver: its ``GridEntry`` and its trace rows.  Run
    untraced, it gives the same entry and keeps no rows."""
    (entry,), (rows,), _ = _pdp_runs(engine, ansatz, [theta0], [key], cfg, traced=True)
    (untraced,), (no_rows,), _ = _pdp_runs(engine, ansatz, [theta0], [key], cfg)
    assert untraced == entry and no_rows == []
    return entry, rows


def test_pdp_rejects_wrong_mode():
    cfg = VqecConfig(restarts=1, max_iterations=2)
    with pytest.raises(EncodingError):
        run_vqec_pdp(POLYFIT_ENGINE, ANSATZ, cfg)


def test_pdp_drivers_reject_wrong_width():
    cfg = VqecConfig(nu_grid=(0.1,), mu_grid=(0.5,), restarts=1, max_iterations=1)
    with pytest.raises(EncodingError):
        run_vqec_pdp(VQEC_ENGINE, Ansatz(5), cfg)
    with pytest.raises(EncodingError):
        grid_search(VQEC_ENGINE, Ansatz(5), cfg)


class ProtocolOnly:
    """An engine that has only ``names``, each read from a real ``engine``."""

    def __init__(self, engine, names):
        for name in names:
            setattr(self, name, getattr(engine, name))


def test_drivers_read_only_the_engine_protocol():
    # each driver runs on an object with nothing beyond the protocol that
    # the module docstring names, and gives the real engine's results
    vqec = ProtocolOnly(
        VQEC_ENGINE,
        ("n_vars", "n_constraints", "f_vector", "costate", "ground_probability"),
    )
    cfg = VqecConfig(nu=0.1, mu=1.0, restarts=3, max_iterations=20, seed=0)
    want = run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)
    got = run_vqec_pdp(vqec, ANSATZ, cfg)
    assert got.entries == want.entries
    assert got.circuit_evaluations == want.circuit_evaluations

    cvar = ProtocolOnly(POLYFIT_ENGINE, ("n_vars", "n_constraints", "cvar_objective"))
    cvar_cfg = CvarVqeConfig(restarts=3, max_iterations=40, seed=1)
    want_params, want_trace = run_cvar_vqe(POLYFIT_ENGINE, ANSATZ, cvar_cfg)
    params, trace = run_cvar_vqe(cvar, ANSATZ, cvar_cfg)
    assert np.array_equal(params, want_params)
    assert plain_rows(trace.rows) == plain_rows(want_trace.rows)


def test_pdp_inactive_constraints_reduce_to_projected_descent():
    engine = ExpectationEngine(VQEC)
    rng = np.random.default_rng(2)
    theta0 = rng.uniform(0.5, 1.5, ANSATZ.n_params)
    f0 = engine.f_vector(probabilities(evolve(ANSATZ, theta0)))
    assert all(v < 0.0 for v in f0[1:])  # precondition: every constraint slack

    nu, mu = 0.05, 0.4
    cfg = VqecConfig(nu=nu, mu=mu, restarts=1, max_iterations=1, seed=0)
    entry, _ = pdp_alone(engine, ANSATZ, theta0, (nu, mu, 0), cfg)

    grad = parameter_shift_gradient(
        ANSATZ,
        theta0,
        lambda state: engine.f_vector(probabilities(state))[0],
    )
    want = np.clip(theta0 - mu * grad, 0.0, TWO_PI)
    assert np.array(entry.params) == pytest.approx(want, abs=1e-12)
    assert np.array_equal(entry.duals, np.zeros(len(VQEC.constraints)))


def test_pdp_duals_nonnegative_and_angles_projected():
    cfg = VqecConfig(nu=0.1, mu=2.0, restarts=2, max_iterations=8, seed=3)
    report = run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)
    trace = report.trace
    assert len(trace.rows) == 2 * 8
    for _, theta, _, duals in trace.rows:
        assert all(v >= 0.0 for v in duals)
        assert all(0.0 <= v <= TWO_PI for v in theta)
    assert all(v >= 0.0 for v in report.best.duals)
    assert all(0.0 <= v <= TWO_PI for v in report.best.params)


def test_pdp_deterministic():
    cfg = VqecConfig(nu=0.05, mu=0.5, restarts=2, max_iterations=6, seed=7)
    a = run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)
    b = run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)
    assert a.entries == b.entries
    assert a.trace.objectives == b.trace.objectives


def test_pdp_divergence_ceiling(monkeypatch):
    monkeypatch.setattr(optimize, "DIVERGENCE_CEILING", 1e-6)
    cfg = VqecConfig(
        nu=0.1, mu=1.0, nu_grid=(0.1, 0.2), mu_grid=(1.0,), restarts=1, max_iterations=3,
        seed=0,
    )
    with pytest.raises(DivergenceError):
        run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)
    with pytest.raises(DivergenceError):
        grid_search(VQEC_ENGINE, ANSATZ, cfg)


def test_pdp_single_run_keeps_the_best_surviving_restart(monkeypatch):
    # at this seed a ceiling of 40 drops restarts 0 and 3 mid-run and lets
    # 1, 2 and 4 finish feasible; a ceiling of 30 drops every restart
    monkeypatch.setattr(optimize, "DIVERGENCE_CEILING", 40.0)
    cfg = VqecConfig(nu=0.1, mu=1.0, restarts=5, max_iterations=8, seed=4)
    best = run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg).best
    engine = ExpectationEngine(VQEC)
    starts = np.random.default_rng(cfg.seed).uniform(0.0, TWO_PI, (5, ANSATZ.n_params))
    survivors = []
    for restart, start in enumerate(starts):
        entry, _ = pdp_alone(engine, ANSATZ, start, (cfg.nu, cfg.mu, restart), cfg)
        if not entry.diverged:
            survivors.append(entry)
    assert 0 < len(survivors) < 5
    tol = optimize.FEASIBLE_TOL
    assert best == min(survivors, key=lambda e: (e.violation > tol, e.lagrangian))
    monkeypatch.setattr(optimize, "DIVERGENCE_CEILING", 30.0)
    with pytest.raises(DivergenceError):
        run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)


def test_pdp_single_run_ranks_feasible_restarts_first():
    # FMFG's lowest final Lagrangian (24.59, restart 4) violates a constraint
    # by 0.039; the run takes feasible restart 3 (30.48), as a grid point does
    instance = assemble("vqec", "FMFG", MJ)
    cfg = VqecConfig(
        nu=0.1, mu=1.0, nu_grid=(0.1,), mu_grid=(1.0,), restarts=5, max_iterations=5,
        seed=4,
    )
    engine = ExpectationEngine(instance)
    single = run_vqec_pdp(engine, ANSATZ, cfg).best
    report = grid_search(engine, ANSATZ, cfg)
    lowest = min(report.entries, key=lambda entry: entry.lagrangian)
    assert lowest.violation > optimize.FEASIBLE_TOL
    best = report.best
    assert (best.restart, best.violation) == (3, 0.0)
    assert best.lagrangian == pytest.approx(30.480566, abs=1e-6)
    assert np.array_equal(single.params, best.params)
    assert np.array_equal(single.duals, best.duals)


def test_pdp_evaluation_count():
    # logical circuit evaluations, the paper's cost model, whatever the
    # simulator ran: 2P + 2 per iteration plus one final state per restart
    iterations = 3
    cfg = VqecConfig(nu=0.05, mu=0.5, restarts=1, max_iterations=iterations, seed=1)
    single = run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)
    per_iteration = 2 * ANSATZ.n_params + 2
    final_metrics = 1
    assert single.circuit_evaluations == iterations * per_iteration + final_metrics
    grid_cfg = VqecConfig(
        nu_grid=(0.05,), mu_grid=(0.5, 1.0), restarts=2, max_iterations=iterations,
        seed=1,
    )
    report = grid_search(VQEC_ENGINE, ANSATZ, grid_cfg)
    per_run = iterations * per_iteration + final_metrics
    assert report.circuit_evaluations == 4 * per_run


def random_vqec(n_beads, seed):
    rng = np.random.default_rng(seed)
    peptide = "".join(rng.choice(list(RESIDUES), n_beads))
    instance = assemble("vqec", peptide, MJ)
    return instance, Ansatz(instance.n_qubits, layers=2), rng


def test_costate_is_weighted_full_diagonal_times_state():
    engine = ExpectationEngine(VQEC)
    rows = 1 << engine.n_ancillas
    constraints = [np.tile(t, rows) for t in engine.tables.constraint_tables]
    state = random_state(8, engine.n_vars)
    rng = np.random.default_rng(8)
    objective_only = [1.0] + [0.0] * len(constraints)
    for weights in (objective_only, rng.uniform(0.0, 3.0, 1 + len(constraints))):
        diag = weights[0] * objective_diagonal(VQEC)
        for w, table in zip(weights[1:], constraints):
            diag = diag + w * table
        assert np.abs(engine.costate(state, weights) - diag * state).max() <= 1e-12


@pytest.mark.parametrize(
    "mode, peptide",
    [("polyfit", "KLVF"), ("vqec", "GNLV"), ("polyfit", "GNLVS"), ("vqec", "KLVFF")],
)
def test_objective_diagonal_is_the_tabulated_objective_bit_for_bit(mode, peptide):
    # the CVaR path's diagonal comes from the co-state's table doubling
    instance = assemble(mode, peptide, MJ)
    engine = ExpectationEngine(instance)
    diag = engine._diagonal(np.ones((1, 1)), 1 << engine.n_vars)
    assert np.array_equal(diag, objective_diagonal(instance))


@pytest.mark.parametrize("seed", range(2))
def test_adjoint_vjp_equals_jacobian_products_at_16_qubits(seed):
    instance, ansatz, rng = random_vqec(5, seed)
    engine = ExpectationEngine(instance)
    theta = rng.uniform(0.0, TWO_PI, ansatz.n_params)
    jac = parameter_shift_jacobian(
        ansatz, theta, lambda states: engine.f_vector(probabilities(states))
    )
    zero_duals = np.zeros(1 + engine.n_constraints)
    zero_duals[0] = 1.0
    active = np.concatenate(([1.0], rng.uniform(0.1, 3.0, engine.n_constraints)))
    state = evolve(ansatz, theta)
    costates = [engine.costate(state, w) for w in (zero_duals, active)]
    grads = adjoint_gradients(ansatz, theta, state, costates)
    for grad, w in zip(grads, (zero_duals, active)):
        assert np.abs(grad - jac @ w).max() <= 1e-10


def reference_pdp(engine, ansatz, theta, nu, mu, iterations):
    # the primal-dual loop on the parameter-shift Jacobian, one trajectory
    def f_block(states):
        return engine.f_vector(probabilities(states))

    duals = np.zeros(engine.n_constraints)
    for _ in range(iterations):
        f_here, jac = parameter_shift_jacobian(ansatz, theta, f_block, with_value=True)
        duals_pert = np.maximum(duals + nu * f_here[1:], 0.0)
        step = jac @ np.concatenate(([1.0], duals))
        step_pert = jac @ np.concatenate(([1.0], duals_pert))
        theta_pert = np.clip(theta - nu * step, 0.0, TWO_PI)
        theta_next = np.clip(theta - mu * step_pert, 0.0, TWO_PI)
        duals = np.maximum(duals + mu * f_block(evolve(ansatz, theta_pert))[1:], 0.0)
        theta = theta_next
    return theta, duals, f_block(evolve(ansatz, theta))


@pytest.mark.parametrize("n_beads", [4, 5])
def test_pdp_iteration_agrees_with_shift_jacobian_step(n_beads):
    # n = 9 runs the stacked adjoint sweep, n = 16 the one-array sweep
    if n_beads == 4:
        instance, ansatz, rng = VQEC, ANSATZ, np.random.default_rng(3)
    else:
        instance, ansatz, rng = random_vqec(5, 3)
    engine = ExpectationEngine(instance)
    cfg = VqecConfig(nu=0.1, mu=1.0, restarts=1, max_iterations=1, seed=0)
    theta0 = rng.uniform(0.0, TWO_PI, ansatz.n_params)
    entry, _ = pdp_alone(engine, ansatz, theta0, (cfg.nu, cfg.mu, 0), cfg)
    theta = np.array(entry.params)
    f_final = engine.f_vector(probabilities(evolve(ansatz, theta)))
    got = (theta, np.array(entry.duals), f_final)
    want = reference_pdp(engine, ansatz, theta0, cfg.nu, cfg.mu, cfg.max_iterations)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-10
    assert entry.objective == f_final[0]
    assert not np.array_equal(got[0], theta0)


def test_pdp_block_columns_equal_single_runs(monkeypatch):
    # restarts and grid entries run as one block; each column must be the
    # same bits as its trajectory run alone, including around a column
    # that diverges and leaves the block
    iterations = 8
    cfg = VqecConfig(nu=0.1, mu=1.0, restarts=5, max_iterations=iterations, seed=4)
    report = run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)
    trace = report.trace
    engine = ExpectationEngine(VQEC)
    starts = np.random.default_rng(cfg.seed).uniform(0.0, TWO_PI, (5, ANSATZ.n_params))
    singles = []
    for restart, start in enumerate(starts):
        entry, rows = pdp_alone(engine, ANSATZ, start, (cfg.nu, cfg.mu, restart), cfg)
        singles.append(entry)
        block_rows = trace.rows[restart * iterations : (restart + 1) * iterations]
        assert len(rows) == iterations
        assert plain_rows(block_rows) == plain_rows(rows)
    assert sorted(singles, key=GridEntry.sort_key) == list(report.entries)

    # |Lagrangian| starts at 20-26 on these restarts and peaks at 32-55:
    # a ceiling of 40 drops some columns mid-run and lets the others finish
    monkeypatch.setattr(optimize, "DIVERGENCE_CEILING", 40.0)
    grid_cfg = VqecConfig(
        nu_grid=(0.05, 0.1), mu_grid=(0.5, 1.0), restarts=3, max_iterations=iterations,
        seed=cfg.seed,
    )
    report = grid_search(VQEC_ENGINE, ANSATZ, grid_cfg)
    assert any(e.diverged for e in report.entries)
    assert any(not e.diverged for e in report.entries)
    for entry in report.entries:
        key = (entry.nu, entry.mu, entry.restart)
        single, _ = pdp_alone(engine, ANSATZ, starts[entry.restart], key, grid_cfg)
        assert single == entry
        if entry.diverged:
            continue
        f = engine.f_vector(probabilities(evolve(ANSATZ, np.array(entry.params))))
        assert entry.lagrangian == float(f[0] + np.array(entry.duals) @ f[1:])


def test_pdp_recovers_ground():
    cfg = VqecConfig(nu=0.01, mu=0.5, restarts=3, max_iterations=150, seed=0)
    params = np.array(run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg).best.params)
    engine = ExpectationEngine(VQEC)
    probs = probabilities(evolve(ANSATZ, params))
    assert engine.modal_config(probs) in set(engine.ground_configs.tolist())
    assert engine.ground_probability(probs) > 0.3


# --- grid search ---


def test_grid_search_shapes_and_best():
    cfg = VqecConfig(
        nu_grid=(0.01, 0.1),
        mu_grid=(0.5,),
        restarts=2,
        max_iterations=60,
        seed=0,
    )
    report = grid_search(VQEC_ENGINE, ANSATZ, cfg)
    assert len(report.entries) == 2 * 1 * 2
    best = report.best
    assert not best.diverged
    assert best.violation <= 1e-6
    assert best.ground_probability > 0.3
    engine = ExpectationEngine(VQEC)
    probs = probabilities(evolve(ANSATZ, np.array(best.params)))
    assert engine.modal_config(probs) in set(engine.ground_configs.tolist())


def test_grid_single_point_matches_multistart_driver():
    cfg = VqecConfig(
        nu=0.05, mu=0.5, nu_grid=(0.05,), mu_grid=(0.5,),
        restarts=2, max_iterations=10, seed=9,
    )
    report = grid_search(VQEC_ENGINE, ANSATZ, cfg)
    single = run_vqec_pdp(VQEC_ENGINE, ANSATZ, cfg)
    # the same ranked runs; only the single run keeps a trace
    assert single.entries == report.entries
    assert report.trace is None and single.trace.objectives


def test_grid_ranking_deterministic_and_order_free():
    import random

    entries = [
        GridEntry(0.1, 0.5, r, -r, -r, 0.0, 0.1 * r, False) for r in range(5)
    ]
    ranked = sorted(entries, key=GridEntry.sort_key)
    shuffled = entries[:]
    random.Random(4).shuffle(shuffled)
    assert sorted(shuffled, key=GridEntry.sort_key) == ranked


def test_grid_ranks_feasible_entries_before_lower_lagrangians():
    # a violated constraint lowers the Lagrangian through its dual; that is
    # no bound on the constrained optimum, so it must not outrank feasibility
    violating = GridEntry(0.05, 0.1, 4, -10.0, -11.54, 0.506, 0.0, False)
    feasible = GridEntry(0.01, 0.5, 4, -8.47, -8.47, 0.0, 0.645, False)
    within_tol = GridEntry(0.2, 0.5, 0, -8.0, -8.0, 1e-7, 0.5, False)
    diverged = GridEntry(0.5, 5.0, 0, math.inf, math.inf, math.inf, 0.0, True)
    entries = [diverged, violating, within_tol, feasible]
    ranked = sorted(entries, key=GridEntry.sort_key)
    assert ranked == [feasible, within_tol, violating, diverged]


def test_grid_report_json():
    entry = GridEntry(0.1, 0.5, 0, -1.0, -1.0, 0.0, 0.5, False, (1.0,), (0.0,))
    row = json.loads(entry.to_json())
    assert row["nu"] == 0.1
    assert row["params"] == [1.0]
    assert row["diverged"] is False
