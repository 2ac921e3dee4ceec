"""Optimizer drivers on the 4-bead instances, with analytic cross-checks."""

import json
import math
import warnings

import numpy as np
import pytest

from qfold import optimize
from qfold.exceptions import (
    BudgetExceededError,
    DivergenceError,
    EncodingError,
)
from qfold.hamiltonian import EncodingLayout, assemble
from qfold.optimize import (
    CvarVqeConfig,
    ExpectationEngine,
    GridEntry,
    OptTrace,
    VqecConfig,
    _cobyla,
    _pdp_run,
    cobyla_budget,
    grid_search,
    run_cvar_vqe,
    run_vqec_pdp,
)
from qfold.scoring import RESIDUES, load_matrix
from qfold.search import SearchConfig, search
from qfold.sim import (
    Ansatz,
    adjoint_gradients,
    block_columns,
    cvar,
    evolve,
    evolve_block,
    expectation_diagonal,
    parameter_shift_jacobian,
    probabilities,
)
from util import (
    reference_cvar_objective,
    reference_f_vector,
    reference_run_cvar_vqe,
)

MJ = load_matrix("mj1996")
LAYOUT = EncodingLayout(4)
POLYFIT = assemble("polyfit", LAYOUT, "KLVF", MJ)
VQEC = assemble("vqec", LAYOUT, "KLVF", MJ)
ANSATZ = Ansatz(POLYFIT.n_qubits, layers=2)
TWO_PI = 2.0 * math.pi


def random_state(seed, n_qubits):
    rng = np.random.default_rng(seed)
    ansatz = Ansatz(n_qubits, layers=2)
    return evolve(ansatz, rng.uniform(0.0, TWO_PI, ansatz.n_params))


# --- expectation engine ---


def test_objective_expectation_matches_full_diagonal():
    engine = ExpectationEngine(POLYFIT)
    diag = engine.tables.full_diagonal()
    for seed in range(4):
        state = random_state(seed, POLYFIT.n_qubits)
        split = engine.objective_expectation(probabilities(state))
        full = expectation_diagonal(state, diag)
        assert split == pytest.approx(full, abs=1e-9)


def test_objective_expectation_is_the_f_vector_kernel():
    klvff = assemble("vqec", EncodingLayout(5), "KLVFF", MJ)
    for instance in (POLYFIT, VQEC, klvff):
        engine = ExpectationEngine(instance)
        for seed in range(2):
            probs = probabilities(random_state(seed, instance.n_qubits))
            value = engine.objective_expectation(probs)
            assert value == reference_f_vector(engine, probs)[0]
            assert value == engine.f_vector(probs)[0]


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
    block = rng.uniform(0.0, TWO_PI, (ansatz.n_params, 6))
    probs = probabilities(evolve_block(ansatz, block))
    rows = engine.f_vector(probs)
    assert rows.shape == (6, 1 + engine.n_constraints)
    for j in range(6):
        single = engine.f_vector(np.ascontiguousarray(probs[:, j]))
        assert np.array_equal(rows[j], single)


def test_cvar_objective_matches_reference():
    engine = ExpectationEngine(POLYFIT)
    diag = engine.tables.full_diagonal()
    for seed in range(3):
        probs = probabilities(random_state(seed + 20, POLYFIT.n_qubits))
        for alpha in (0.1, 0.37, 1.0):
            assert engine.cvar_objective(probs, alpha) == pytest.approx(
                cvar(diag, probs, alpha), abs=1e-10
            )


def test_cvar_objective_is_the_former_kernel_bit_for_bit():
    # sim.cvar and ExpectationEngine.cvar_objective share sim.sorted_cvar;
    # each must keep the bits of its former standalone code
    engine = ExpectationEngine(POLYFIT)
    rng = np.random.default_rng(9)
    size = 1 << POLYFIT.n_qubits
    for trial in range(20):
        probs = rng.random(size) * (rng.random(size) < 0.3)
        probs /= probs.sum()
        for alpha in (1.0, 0.1, float(rng.uniform(0.01, 1.0))):
            want = reference_cvar_objective(engine, probs, alpha)
            assert engine.cvar_objective(probs, alpha) == want


def test_cvar_alpha_one_equals_expectation():
    engine = ExpectationEngine(POLYFIT)
    probs = probabilities(random_state(33, POLYFIT.n_qubits))
    assert engine.cvar_objective(probs, 1.0) == pytest.approx(
        engine.objective_expectation(probs), abs=1e-9
    )


def assert_vqec_ground_equals_oracle(peptide, matrix):
    instance = assemble("vqec", EncodingLayout(len(peptide)), peptide, matrix)
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
        CvarVqeConfig(init_window=(1.0, 7.5))
    with pytest.raises(EncodingError):
        CvarVqeConfig(restarts=0)
    with pytest.raises(EncodingError):
        VqecConfig(nu=0.0)
    with pytest.raises(EncodingError):
        VqecConfig(nu_grid=())
    with pytest.raises(EncodingError):
        VqecConfig(mu_grid=(0.1, -0.5))
    with pytest.raises(EncodingError):
        VqecConfig(divergence_ceiling=0.0)


def test_trace_best_so_far_monotone():
    trace = OptTrace()
    for value in (5.0, 3.0, 4.0, 2.5, 2.6):
        trace.record(value)
    assert trace.best_so_far == [5.0, 3.0, 3.0, 2.5, 2.5]
    assert all(x >= y for x, y in zip(trace.best_so_far, trace.best_so_far[1:]))


def test_trace_json_lines():
    trace = OptTrace()
    trace.record(1.0, params=[0.1, 0.2], every=1, lagrangian=2.0, dual=[0.0, 0.3])
    trace.record(0.5)
    rows = [json.loads(line) for line in trace.to_json_lines().splitlines()]
    assert rows[0]["objective"] == 1.0
    assert rows[0]["lagrangian"] == 2.0
    assert rows[0]["duals"] == [0.0, 0.3]
    assert rows[0]["params"] == [0.1, 0.2]
    assert rows[1] == {"i": 1, "objective": 0.5, "best": 0.5}


# --- CVaR-VQE ---


def test_cvar_vqe_rejects_wrong_mode_and_width():
    cfg = CvarVqeConfig(restarts=1, max_iterations=5)
    with pytest.raises(EncodingError):
        run_cvar_vqe(VQEC, ANSATZ, cfg)
    with pytest.raises(EncodingError):
        run_cvar_vqe(POLYFIT, Ansatz(5), cfg)


def test_cvar_vqe_deterministic():
    cfg = CvarVqeConfig(restarts=2, max_iterations=30, seed=11)
    params_a, trace_a = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    params_b, trace_b = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    assert np.array_equal(params_a, params_b)
    assert trace_a.objectives == trace_b.objectives


def test_cvar_vqe_recovers_ground():
    cfg = CvarVqeConfig(alpha=0.1, restarts=20, max_iterations=80, seed=0)
    params, trace = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    engine = ExpectationEngine(POLYFIT)
    probs = probabilities(evolve(ANSATZ, params))
    assert engine.modal_config(probs) in set(engine.ground_configs.tolist())
    assert trace.best_so_far[-1] == pytest.approx(engine.ground_energy, abs=0.05)
    assert len(trace.objectives) <= 20 * 81


def test_cvar_vqe_full_window_sweep_runs():
    cfg = CvarVqeConfig(
        restarts=4, max_iterations=10, seed=5, full_window_sweep=True
    )
    params, _ = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    assert params.shape == (ANSATZ.n_params,)


def test_cvar_vqe_budget_raised_to_cobyla_minimum():
    # below P + 2, COBYLA would raise the budget itself and warn
    assert cobyla_budget(CvarVqeConfig(max_iterations=5), ANSATZ) == 29
    assert cobyla_budget(CvarVqeConfig(max_iterations=80), ANSATZ) == 80
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params_5, trace_5 = run_cvar_vqe(
            POLYFIT, ANSATZ, CvarVqeConfig(restarts=2, max_iterations=5, seed=3)
        )
    params_29, trace_29 = run_cvar_vqe(
        POLYFIT, ANSATZ, CvarVqeConfig(restarts=2, max_iterations=29, seed=3)
    )
    assert np.array_equal(params_5, params_29)
    assert trace_5.objectives == trace_29.objectives
    assert trace_5.snapshots == trace_29.snapshots


def test_cvar_vqe_budget():
    cfg = CvarVqeConfig(restarts=1, max_iterations=5, max_seconds=0.0)
    with pytest.raises(BudgetExceededError):
        run_cvar_vqe(POLYFIT, ANSATZ, cfg)


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
    cfg = CvarVqeConfig(restarts=3, max_iterations=40, seed=11, snapshot_every=1)
    _, ours = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    _, theirs = reference_run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    assert len(ours.objectives) == len(theirs.objectives) == 3 * 40
    for restart in range(3):
        rows = range(restart * 40, restart * 40 + ANSATZ.n_params + 1)
        for i in rows:
            assert ours.snapshots[i] == theirs.snapshots[i]
            assert ours.objectives[i] == theirs.objectives[i]


@pytest.mark.parametrize("seed", [0, 11])
def test_cvar_vqe_best_equals_scipy_on_klvf(seed):
    # criterion 8's settings (seed 0) and the pipeline's defaults (seed 11)
    cfg = CvarVqeConfig(alpha=0.1, restarts=20, max_iterations=80, seed=seed)
    _, ours = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    _, theirs = reference_run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    assert ours.best_so_far[-1] == pytest.approx(theirs.best_so_far[-1], abs=1e-9)


def test_cvar_vqe_best_equals_scipy_on_drawn_peptides():
    rng = np.random.default_rng(5)
    for k in range(10):
        peptide = "".join(rng.choice(list(RESIDUES), 4))
        instance = assemble("polyfit", LAYOUT, peptide, MJ)
        cfg = CvarVqeConfig(restarts=3, max_iterations=60, seed=k)
        _, ours = run_cvar_vqe(instance, ANSATZ, cfg)
        _, theirs = reference_run_cvar_vqe(instance, ANSATZ, cfg)
        assert ours.best_so_far[-1] == pytest.approx(
            theirs.best_so_far[-1], abs=1e-9
        ), peptide


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
    params, trace = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
    assert len(trace.objectives) < cfg.restarts * cobyla_budget(cfg, ANSATZ)
    assert trace.circuit_evaluations == len(trace.objectives)
    engine = ExpectationEngine(POLYFIT)
    assert trace.best_so_far[-1] == pytest.approx(engine.ground_energy, abs=0.05)


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
        CvarVqeConfig(
            restarts=5, max_iterations=40, seed=2, snapshot_every=1,
            full_window_sweep=True,
        ),
        CvarVqeConfig(restarts=65, max_iterations=29, seed=6, snapshot_every=7),
    )
    for cfg in configs:
        params, trace = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "block_columns", lambda n_qubits: 1)
            alone_params, alone = run_cvar_vqe(POLYFIT, ANSATZ, cfg)
        assert np.array_equal(trace.objectives, alone.objectives)
        assert trace.snapshots == alone.snapshots
        assert np.array_equal(params, alone_params)
        assert trace.best_so_far[-1] == alone.best_so_far[-1]
        assert trace.circuit_evaluations == len(trace.objectives)


# --- PDP mechanics ---


def test_pdp_rejects_wrong_mode():
    cfg = VqecConfig(restarts=1, max_iterations=2)
    with pytest.raises(EncodingError):
        run_vqec_pdp(POLYFIT, ANSATZ, cfg)


def test_pdp_drivers_reject_wrong_width():
    cfg = VqecConfig(nu_grid=(0.1,), mu_grid=(0.5,), restarts=1, max_iterations=1)
    with pytest.raises(EncodingError):
        run_vqec_pdp(VQEC, Ansatz(5), cfg)
    with pytest.raises(EncodingError):
        grid_search(VQEC, Ansatz(5), cfg)


def test_pdp_inactive_constraints_reduce_to_projected_descent():
    engine = ExpectationEngine(VQEC)
    rng = np.random.default_rng(2)
    theta0 = rng.uniform(0.5, 1.5, ANSATZ.n_params)
    f0 = engine.f_vector(probabilities(evolve(ANSATZ, theta0)))
    assert all(v < 0.0 for v in f0[1:])  # precondition: every constraint slack

    nu, mu = 0.05, 0.4
    cfg = VqecConfig(nu=nu, mu=mu, restarts=1, max_iterations=1, seed=0)
    theta1, duals1, _ = _pdp_run(engine, ANSATZ, theta0, nu, mu, cfg, OptTrace())

    from qfold.sim import parameter_shift_gradient

    grad = parameter_shift_gradient(
        ANSATZ,
        theta0,
        lambda state: engine.objective_expectation(probabilities(state)),
    )
    want = np.clip(theta0 - mu * grad, 0.0, TWO_PI)
    assert theta1 == pytest.approx(want, abs=1e-12)
    assert np.array_equal(duals1, np.zeros(len(VQEC.constraints)))


def test_pdp_duals_nonnegative_and_angles_projected():
    cfg = VqecConfig(
        nu=0.1, mu=2.0, restarts=2, max_iterations=8, seed=3, snapshot_every=1
    )
    params, duals, trace = run_vqec_pdp(VQEC, ANSATZ, cfg)
    assert len(trace.duals) == 2 * 8
    for row in trace.duals:
        assert all(v >= 0.0 for v in row)
    assert all(v >= 0.0 for v in duals)
    for _, snapshot in trace.snapshots:
        assert all(0.0 <= v <= TWO_PI for v in snapshot)


def test_pdp_deterministic():
    cfg = VqecConfig(nu=0.05, mu=0.5, restarts=2, max_iterations=6, seed=7)
    a = run_vqec_pdp(VQEC, ANSATZ, cfg)
    b = run_vqec_pdp(VQEC, ANSATZ, cfg)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2].objectives == b[2].objectives


def test_pdp_divergence_ceiling():
    cfg = VqecConfig(
        nu=0.1, mu=1.0, restarts=1, max_iterations=3, seed=0, divergence_ceiling=1e-6
    )
    with pytest.raises(DivergenceError):
        run_vqec_pdp(VQEC, ANSATZ, cfg)


def test_pdp_evaluation_count():
    # logical circuit evaluations, the paper's cost model, whatever the
    # simulator ran: 2P + 2 per iteration plus one final state per restart
    iterations = 3
    cfg = VqecConfig(nu=0.05, mu=0.5, restarts=1, max_iterations=iterations, seed=1)
    _, _, trace = run_vqec_pdp(VQEC, ANSATZ, cfg)
    per_iteration = 2 * ANSATZ.n_params + 2
    final_metrics = 1
    assert trace.circuit_evaluations == iterations * per_iteration + final_metrics
    grid_cfg = VqecConfig(
        nu_grid=(0.05,), mu_grid=(0.5, 1.0), restarts=2, max_iterations=iterations,
        seed=1,
    )
    report = grid_search(VQEC, ANSATZ, grid_cfg)
    per_run = iterations * per_iteration + final_metrics
    assert report.circuit_evaluations == 4 * per_run


def random_vqec(n_beads, seed):
    rng = np.random.default_rng(seed)
    peptide = "".join(rng.choice(list(RESIDUES), n_beads))
    instance = assemble("vqec", EncodingLayout(n_beads), peptide, MJ)
    return instance, Ansatz(instance.n_qubits, layers=2), rng


def test_costate_is_weighted_full_diagonal_times_state():
    engine = ExpectationEngine(VQEC)
    rows = 1 << engine.n_ancillas
    constraints = [np.tile(t, rows) for t in engine.tables.constraint_tables]
    state = random_state(8, engine.n_vars)
    rng = np.random.default_rng(8)
    objective_only = [1.0] + [0.0] * len(constraints)
    for weights in (objective_only, rng.uniform(0.0, 3.0, 1 + len(constraints))):
        diag = weights[0] * engine.tables.full_diagonal()
        for w, table in zip(weights[1:], constraints):
            diag = diag + w * table
        assert np.abs(engine.costate(state, weights) - diag * state).max() <= 1e-12


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
    got = _pdp_run(engine, ansatz, theta0, cfg.nu, cfg.mu, cfg, OptTrace())
    want = reference_pdp(engine, ansatz, theta0, cfg.nu, cfg.mu, cfg.max_iterations)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-10
    assert not np.array_equal(got[0], theta0)


def trace_rows(trace, first, count):
    snapshot_at = dict(trace.snapshots)
    return [
        (trace.objectives[i], trace.lagrangians[i], trace.duals[i], snapshot_at[i])
        for i in range(first, first + count)
    ]


def test_pdp_block_columns_equal_single_runs():
    # restarts and grid entries run as one block; each column must be the
    # same bits as its trajectory run alone, including around a column
    # that diverges and leaves the block
    iterations = 8
    cfg = VqecConfig(
        nu=0.1, mu=1.0, restarts=5, max_iterations=iterations, seed=4, snapshot_every=1
    )
    params, duals, trace = run_vqec_pdp(VQEC, ANSATZ, cfg)
    engine = ExpectationEngine(VQEC)
    starts = np.random.default_rng(cfg.seed).uniform(0.0, TWO_PI, (5, ANSATZ.n_params))
    singles = []
    for restart, start in enumerate(starts):
        single = OptTrace()
        run = _pdp_run(engine, ANSATZ, start, cfg.nu, cfg.mu, cfg, single)
        singles.append(run)
        block_rows = trace_rows(trace, restart * iterations, iterations)
        assert block_rows == trace_rows(single, 0, iterations)
    assert any(
        np.array_equal(params, t) and np.array_equal(duals, d) for t, d, _ in singles
    )

    # |Lagrangian| starts at 20-26 on these restarts and peaks at 32-55:
    # a ceiling of 40 drops some columns mid-run and lets the others finish
    grid_cfg = VqecConfig(
        nu_grid=(0.05, 0.1), mu_grid=(0.5, 1.0), restarts=3, max_iterations=iterations,
        seed=cfg.seed, divergence_ceiling=40.0,
    )
    report = grid_search(VQEC, ANSATZ, grid_cfg)
    assert any(e.diverged for e in report.entries)
    assert any(not e.diverged for e in report.entries)
    for entry in report.entries:
        args = (engine, ANSATZ, starts[entry.restart], entry.nu, entry.mu, grid_cfg)
        if entry.diverged:
            with pytest.raises(DivergenceError):
                _pdp_run(*args, OptTrace())
            continue
        theta, d, f = _pdp_run(*args, OptTrace())
        assert np.array_equal(entry.params, theta)
        assert np.array_equal(entry.duals, d)
        assert entry.lagrangian == float(f[0] + d @ f[1:])


def test_pdp_recovers_ground():
    cfg = VqecConfig(nu=0.01, mu=0.5, restarts=3, max_iterations=150, seed=0)
    params, duals, trace = run_vqec_pdp(VQEC, ANSATZ, cfg)
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
    report = grid_search(VQEC, ANSATZ, cfg)
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
    report = grid_search(VQEC, ANSATZ, cfg)
    params, duals, _ = run_vqec_pdp(VQEC, ANSATZ, cfg)
    best = report.best
    assert np.array(best.params) == pytest.approx(np.asarray(params), abs=1e-12)
    assert np.array(best.duals) == pytest.approx(np.asarray(duals), abs=1e-12)


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
