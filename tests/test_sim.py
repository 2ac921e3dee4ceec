"""Statevector simulator against dense-matrix and finite-difference oracles."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfold.exceptions import (
    EmptyDistributionError,
    EncodingError,
    ParamLengthError,
    ParseError,
)
from qfold import sim
from qfold.sim import (
    Ansatz,
    ShotTable,
    adjoint_gradients,
    bitstring_of,
    block_columns,
    evolve,
    evolve_block,
    probabilities,
    sample,
    sorted_cvar,
)
from util import (
    expectation_diagonal,
    parameter_shift_gradient,
    parameter_shift_jacobian,
    reference_f_vector,
    reference_sorted_cvar,
)


# --- dense-matrix oracle: explicit kron products, no shared kernels ---


def dense_ry(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def dense_single(n, qubit, gate):
    # basis index bit i is qubit i, so qubit 0 is the rightmost kron factor
    return np.kron(np.kron(np.eye(1 << (n - 1 - qubit)), gate), np.eye(1 << qubit))


def dense_cnot(n, control, target):
    op = np.zeros((1 << n, 1 << n))
    for b in range(1 << n):
        out = b ^ (1 << target) if (b >> control) & 1 else b
        op[out, b] = 1.0
    return op


def dense_evolve(ansatz, params):
    n = ansatz.n_qubits
    state = np.zeros(1 << n)
    state[0] = 1.0
    for q in range(n):
        state = dense_single(n, q, dense_ry(params[q])) @ state
    for layer in range(1, ansatz.layers + 1):
        for c in range(n - 1):
            state = dense_cnot(n, c, c + 1) @ state
        for q in range(n):
            state = dense_single(n, q, dense_ry(params[layer * n + q])) @ state
    return state


# --- ansatz layout ---


def test_param_count():
    assert Ansatz(6, layers=2).n_params == 18
    assert Ansatz(1, layers=0).n_params == 1
    assert Ansatz(24, layers=2).n_params == 72


def test_ansatz_validation():
    with pytest.raises(EncodingError):
        Ansatz(0)
    with pytest.raises(EncodingError):
        Ansatz(3, layers=-1)


# --- evolve ---


def test_zero_params_is_ground_state():
    state = evolve(Ansatz(5), np.zeros(15))
    want = np.zeros(32)
    want[0] = 1.0
    assert np.array_equal(state, want)


def test_single_qubit_half_turn():
    state = evolve(Ansatz(1, layers=0), [math.pi])
    assert state == pytest.approx([0.0, 1.0], abs=1e-15)


def test_cnot_chain_propagates_excitation():
    # flip qubit 0, then one entangling layer with identity rotations:
    # the chain carries the excitation to every qubit
    params = np.zeros(6)
    params[0] = math.pi
    state = evolve(Ansatz(3, layers=1), params)
    assert abs(state[7]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,layers", [(2, 1), (2, 2), (3, 2), (4, 3)])
def test_matches_dense_oracle(n, layers):
    rng = np.random.default_rng(n * 100 + layers)
    ansatz = Ansatz(n, layers=layers)
    for _ in range(5):
        params = rng.uniform(0.0, 2.0 * math.pi, ansatz.n_params)
        got = evolve(ansatz, params)
        want = dense_evolve(ansatz, params)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", [1, 4, 9, 16])
def test_norm_preserved(n):
    rng = np.random.default_rng(n)
    ansatz = Ansatz(n)
    state = evolve(ansatz, rng.uniform(0.0, 2.0 * math.pi, ansatz.n_params))
    assert abs(float(state @ state) - 1.0) < 1e-10


def test_param_length_mismatch():
    with pytest.raises(ParamLengthError):
        evolve(Ansatz(3), np.zeros(8))


# --- sorted_cvar: energies already ascending ---


def sorted_pair(energies, probs):
    order = np.argsort(energies, kind="stable")
    return np.asarray(energies)[order], np.asarray(probs)[order]


def test_cvar_fractional_boundary():
    energies, probs = np.array([0.0, 10.0]), np.array([0.05, 0.95])
    assert sorted_cvar(energies, probs, 0.1) == pytest.approx(5.0, abs=1e-12)


def test_cvar_alpha_one_is_expectation():
    rng = np.random.default_rng(3)
    energies = rng.normal(size=32)
    probs = rng.dirichlet(np.ones(32))
    want = float(energies @ probs)
    assert sorted_cvar(*sorted_pair(energies, probs), 1.0) == pytest.approx(
        want, abs=1e-12
    )


def test_cvar_small_alpha_is_minimum():
    energies, probs = sorted_pair([4.0, -2.0, 7.0, -2.0, 9.0], [0.2, 0.3, 0.1, 0.2, 0.2])
    assert sorted_cvar(energies, probs, 1e-9) == pytest.approx(-2.0, abs=1e-12)


def test_cvar_ignores_zero_probability_states():
    energies, probs = np.array([-100.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.5])
    assert sorted_cvar(energies, probs, 0.2) == pytest.approx(1.0)


def test_cvar_monotone_in_alpha():
    rng = np.random.default_rng(5)
    energies, probs = sorted_pair(rng.normal(size=64), rng.dirichlet(np.ones(64)))
    alphas = np.linspace(0.05, 1.0, 20)
    values = [sorted_cvar(energies, probs, float(a)) for a in alphas]
    assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))
    assert values[-1] <= float(energies @ probs) + 1e-12


def assert_block_cvar_equals_rows(energies, rows, alpha):
    values = sorted_cvar(energies, rows, alpha)
    assert values.shape == (rows.shape[0],)
    for row, value in zip(rows, values):
        row = np.ascontiguousarray(row)
        assert value == sorted_cvar(energies, row, alpha)
        assert value == reference_sorted_cvar(energies, row, alpha)


def test_sorted_cvar_block_equals_row_calls():
    rng = np.random.default_rng(12)
    for trial in range(40):
        size = int(rng.integers(1, 300))
        energies = np.sort(rng.normal(size=size).round(int(rng.integers(0, 3))))
        # zero-mass entries in every row; most rows normalized, the rest
        # may hold less mass than alpha
        rows = rng.random((int(rng.integers(1, 9)), size))
        rows *= rng.random(rows.shape) < 0.6
        rows[:, int(rng.integers(size))] = 0.2
        scale = rows.sum(axis=1, keepdims=True)
        rows /= np.where(rng.random(scale.shape) < 0.7, scale, 1.0)
        for alpha in (1.0, 0.1, float(rng.uniform(0.01, 1.0))):
            assert_block_cvar_equals_rows(energies, rows, alpha)


def test_sorted_cvar_block_boundary_on_a_cumulative_sum():
    # dyadic masses sum exactly, so alpha = 0.5 lands on a cumulative sum:
    # after a zero-mass entry in row 0, and on the last entry in row 1
    energies = np.array([-3.0, -1.0, 0.5, 2.0])
    rows = np.array([[0.25, 0.0, 0.25, 0.5], [0.125, 0.125, 0.25, 0.5]])
    assert_block_cvar_equals_rows(energies, rows, 0.5)
    assert_block_cvar_equals_rows(energies, rows, 1.0)
    assert sorted_cvar(energies, rows, 0.5).tolist() == [-1.25, -0.75]


def test_cvar_errors():
    # a tail with no mass: an all-zero row, alpha <= 0, one empty block row
    energies = np.array([1.0, 2.0])
    with pytest.raises(EmptyDistributionError):
        sorted_cvar(energies, np.array([0.0, 0.0]), 0.5)
    with pytest.raises(EmptyDistributionError):
        sorted_cvar(energies, np.array([0.5, 0.5]), 0.0)
    with pytest.raises(EmptyDistributionError):
        sorted_cvar(energies, np.array([0.5, 0.5]), -0.1)
    with pytest.raises(EmptyDistributionError):
        sorted_cvar(energies, np.array([[0.5, 0.5], [0.0, 0.0]]), 0.5)


# --- sampling ---


def test_sample_deterministic_state():
    state = np.zeros(8)
    state[3] = 1.0
    table = sample(state, 1000, seed=0)
    assert table.counts == {"110": 1000}
    assert table.shots == 1000


def test_sample_seeded_reproducibility():
    state = evolve(Ansatz(4), np.linspace(0.1, 2.0, 12))
    a = sample(state, 5000, seed=42)
    b = sample(state, 5000, seed=42)
    c = sample(state, 5000, seed=43)
    assert a.counts == b.counts
    assert a.counts != c.counts
    assert sum(a.counts.values()) == 5000


def test_sample_uniform_two_qubits_within_five_sigma():
    state = np.full(4, 0.5)
    table = sample(state, 100_000, seed=1)
    sigma = math.sqrt(100_000 * 0.25 * 0.75)
    for bits in ("00", "10", "01", "11"):
        assert abs(table.counts[bits] - 25_000) < 5 * sigma


def test_sample_matches_exact_expectation_within_five_stderr():
    rng = np.random.default_rng(9)
    ansatz = Ansatz(5)
    state = evolve(ansatz, rng.uniform(0.0, 2.0 * math.pi, ansatz.n_params))
    diag = rng.normal(size=32)
    exact = expectation_diagonal(state, diag)
    table = sample(state, 100_000, seed=2)
    values = np.array(
        [diag[int(bits[::-1], 2)] for bits in table.counts], dtype=float
    )
    counts = np.array(list(table.counts.values()), dtype=float)
    mean = float(values @ counts) / table.shots
    var = float(((values - mean) ** 2) @ counts) / table.shots
    stderr = math.sqrt(var / table.shots)
    assert abs(mean - exact) < 5 * stderr


def test_shot_table_text_roundtrip():
    table = ShotTable(counts={"0101": 7, "1100": 3}, shots=10)
    text = table.to_text()
    back = ShotTable.from_text(text)
    assert back == table
    assert back.to_text() == text


def test_shot_table_parse_errors():
    with pytest.raises(ParseError):
        ShotTable.from_text("01x1 5\n")
    with pytest.raises(ParseError):
        ShotTable.from_text("0101 five\n")
    with pytest.raises(ParseError):
        ShotTable.from_text("0101 -1\n")
    with pytest.raises(ParseError):
        ShotTable.from_text("\n")
    with pytest.raises(EncodingError):
        ShotTable(counts={"01": 3}, shots=5)


def test_shot_table_rejects_mixed_widths():
    with pytest.raises(ParseError):
        ShotTable.from_text("01\t3\n011\t2\n")
    with pytest.raises(ParseError):
        ShotTable.from_text("# header\n011 2\n\n01 3\n")


def shot_lines(width):
    row = st.builds(
        "{}{}{}".format,
        st.text("01", min_size=width, max_size=width),
        st.sampled_from(["\t", " ", "  \t"]),
        st.integers(-2, 40).map(str),
    )
    return st.lists(
        st.one_of(
            row, row, st.sampled_from(["", "  ", "# shots"]), st.text(max_size=10)
        ),
        max_size=6,
    )


# near-tables of one width, with blanks, comments and junk lines, and raw text
shot_texts = st.one_of(
    st.integers(1, 6).flatmap(shot_lines).map("\n".join), st.text(max_size=30)
)


@settings(max_examples=200)
@given(shot_texts)
def test_shot_table_text_round_trips_or_raises_parse_error(text):
    try:
        table = ShotTable.from_text(text)
    except ParseError:
        return
    canonical = table.to_text()
    again = ShotTable.from_text(canonical)
    assert again == table
    assert again.to_text() == canonical


def test_shot_table_rejects_zero_shots():
    with pytest.raises(ParseError):
        ShotTable.from_text("000000000\t0\n")
    with pytest.raises(ParseError):
        ShotTable.from_text("01 0\n10 0\n")
    with pytest.raises(EncodingError):
        ShotTable(counts={"01": 0}, shots=0)
    with pytest.raises(EncodingError):
        ShotTable(counts={}, shots=0)
    with pytest.raises(EncodingError, match="shots"):
        sample(np.array([1.0, 0.0]), 0, seed=0)


def test_bitstring_convention():
    assert bitstring_of(1, 4) == "1000"
    assert bitstring_of(8, 4) == "0001"
    assert bitstring_of(6, 4) == "0110"


# --- parameter-shift gradients ---


def test_gradient_constant_objective_is_zero():
    grad = parameter_shift_gradient(Ansatz(3), np.ones(9), lambda state: 4.2)
    assert grad == pytest.approx(np.zeros(9), abs=1e-15)


def test_gradient_stationary_at_pole():
    ansatz = Ansatz(1, layers=0)
    grad = parameter_shift_gradient(
        ansatz, np.zeros(1), lambda state: float(state[1] ** 2)
    )
    assert grad == pytest.approx([0.0], abs=1e-15)


def test_gradient_single_qubit_analytic():
    # probability of |1> is sin^2(theta/2); derivative is sin(theta)/2
    ansatz = Ansatz(1, layers=0)
    for theta in (0.3, 1.1, 2.9, 4.0):
        grad = parameter_shift_gradient(
            ansatz, [theta], lambda state: float(state[1] ** 2)
        )
        assert grad[0] == pytest.approx(math.sin(theta) / 2.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    ansatz = Ansatz(n)
    params = rng.uniform(0.0, 2.0 * math.pi, ansatz.n_params)
    diag = rng.normal(size=1 << n)

    def objective(state):
        return expectation_diagonal(state, diag)

    grad = parameter_shift_gradient(ansatz, params, objective)
    h = 1e-5
    for p in range(ansatz.n_params):
        up = params.copy()
        up[p] += h
        down = params.copy()
        down[p] -= h
        fd = (objective(evolve(ansatz, up)) - objective(evolve(ansatz, down))) / (
            2.0 * h
        )
        scale = max(1.0, abs(fd))
        assert abs(grad[p] - fd) / scale < 1e-5


def test_gradient_evaluation_count():
    calls = []

    def objective(state):
        calls.append(1)
        return float(state[0] ** 2)

    ansatz = Ansatz(4, layers=1)
    parameter_shift_gradient(ansatz, np.ones(8), objective)
    assert len(calls) == 2 * ansatz.n_params


def test_probabilities_sum_to_one():
    state = evolve(Ansatz(6), np.linspace(0.0, 2.0, 18))
    assert float(probabilities(state).sum()) == pytest.approx(1.0, abs=1e-10)


# --- batched evolution: bit-identical to single-state evolve ---


@pytest.mark.parametrize("n", [1, 3, 9, 12])
@pytest.mark.parametrize("layers", [0, 2])
def test_evolve_block_columns_equal_evolve(n, layers):
    ansatz = Ansatz(n, layers=layers)
    rng = np.random.default_rng(100 * n + layers)
    block = rng.uniform(0.0, 2.0 * math.pi, (ansatz.n_params, 5)).T
    states = evolve_block(ansatz, block)
    assert states.shape == (5, 1 << n)
    for j in range(5):
        assert np.array_equal(states[j], evolve(ansatz, block[j]))


def test_evolve_block_rejects_bad_shapes():
    ansatz = Ansatz(3, layers=1)
    with pytest.raises(ParamLengthError):
        evolve_block(ansatz, np.zeros(6))
    with pytest.raises(ParamLengthError):
        evolve_block(ansatz, np.zeros((2, 5)))
    with pytest.raises(ParamLengthError):
        evolve_block(ansatz, np.zeros((0, 6)))


def test_block_columns_fall_back_to_single_circuits():
    assert block_columns(9) >= 2 * Ansatz(9).n_params + 1
    assert block_columns(13) == 1
    assert block_columns(16) == 1
    assert block_columns(24) == 1


def inline_shift_loop(ansatz, theta, f_of_state):
    """The primal-dual loop's former per-parameter shift evaluation."""
    f_here = f_of_state(evolve(ansatz, theta))
    jac = np.empty((ansatz.n_params, f_here.shape[0]))
    shifted = theta.copy()
    for p in range(ansatz.n_params):
        shifted[p] = theta[p] + math.pi / 2.0
        f_plus = f_of_state(evolve(ansatz, shifted))
        shifted[p] = theta[p] - math.pi / 2.0
        f_minus = f_of_state(evolve(ansatz, shifted))
        shifted[p] = theta[p]
        jac[p, :] = 0.5 * (f_plus - f_minus)
    return f_here, jac


def assert_jacobian_equals_inline_loop(ansatz, theta, block_objective, f_of_state):
    f_ref, jac_ref = inline_shift_loop(ansatz, theta, f_of_state)
    f_here, jac = parameter_shift_jacobian(
        ansatz, theta, block_objective, with_value=True
    )
    assert np.array_equal(f_here, f_ref)
    assert np.array_equal(jac, jac_ref)
    jac_only = parameter_shift_jacobian(ansatz, theta, block_objective)
    assert np.array_equal(jac_only, jac_ref)
    grad = parameter_shift_gradient(ansatz, theta, lambda state: f_of_state(state)[0])
    assert np.array_equal(grad, jac_ref[:, 0])


# (9, 3) and (12, 2) end on a partial chunk; from n = 13 every chunk holds
# one circuit
@pytest.mark.parametrize("n, layers", [(9, 3), (12, 2), (13, 0), (13, 1), (13, 2)])
def test_jacobian_equals_inline_loop_on_random_diagonal(n, layers):
    ansatz = Ansatz(n, layers=layers)
    rng = np.random.default_rng(10 * n + layers)
    theta = rng.uniform(0.0, 2.0 * math.pi, ansatz.n_params)
    diag = rng.normal(size=(1 << n, 2))

    def f_of_state(state):
        return probabilities(state) @ diag

    def block_objective(states):
        return [f_of_state(state) for state in states]

    assert_jacobian_equals_inline_loop(ansatz, theta, block_objective, f_of_state)


def assert_vqec_jacobian_equals_inline_loop(n_beads, seed):
    from qfold.hamiltonian import assemble
    from qfold.optimize import ExpectationEngine
    from qfold.scoring import RESIDUES, load_matrix

    rng = np.random.default_rng(seed)
    peptide = "".join(rng.choice(list(RESIDUES), n_beads))
    instance = assemble("vqec", peptide, load_matrix("mj1996"))
    engine = ExpectationEngine(instance)
    ansatz = Ansatz(engine.n_vars, layers=2)
    theta = rng.uniform(0.0, 2.0 * math.pi, ansatz.n_params)
    assert_jacobian_equals_inline_loop(
        ansatz,
        theta,
        lambda states: engine.f_vector(probabilities(states)),
        lambda state: reference_f_vector(engine, probabilities(state)),
    )


@pytest.mark.parametrize("seed", range(3))
def test_jacobian_equals_inline_shift_loop(seed):
    # 9 qubits: the unshifted circuit and its shifts run as one block
    assert_vqec_jacobian_equals_inline_loop(4, seed)


def test_jacobian_equals_inline_shift_loop_at_16_qubits():
    # one circuit per chunk
    assert_vqec_jacobian_equals_inline_loop(5, 7)


# --- adjoint gradients: jac @ w from one backward sweep ---


def assert_adjoint_equals_jacobian_products(ansatz, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, ansatz.n_params)
    diags = rng.normal(size=(1 << ansatz.n_qubits, 3))
    jac = parameter_shift_jacobian(
        ansatz, theta, lambda states: probabilities(states) @ diags
    )
    # the objective alone (inactive duals), then positive duals on the rest
    weights = [np.array([1.0, 0.0, 0.0]), np.array([1.0, *rng.uniform(0.1, 3.0, 2)])]
    state = evolve(ansatz, theta)
    costates = [(diags @ w) * state for w in weights]
    grads = adjoint_gradients(ansatz, theta, state, costates)
    assert grads.shape == (2, ansatz.n_params)
    for grad, w in zip(grads, weights):
        assert np.abs(grad - jac @ w).max() <= 1e-10


# one qubit is a single 2 x 2 block; 5 qubits fill one block
@pytest.mark.parametrize(
    "n, layers", [(1, 0), (1, 2), (2, 1), (3, 2), (5, 0), (9, 3), (13, 2)]
)
def test_adjoint_gradients_equal_jacobian_products(n, layers):
    assert_adjoint_equals_jacobian_products(Ansatz(n, layers=layers), 100 * n + layers)


# group splits 3+3, 4+3, 4+4+3 and 5+5+4: two to three groups, of equal
# and of unequal sizes
@pytest.mark.parametrize("n", [6, 7, 11, 14])
def test_adjoint_gradients_equal_jacobian_products_across_group_splits(n):
    splits = {6: (3, 3), 7: (4, 3), 11: (4, 4, 3), 14: (5, 5, 4)}
    assert sim._group_sizes(n) == splits[n]
    assert_adjoint_equals_jacobian_products(Ansatz(n, layers=2), 7 * n)


@pytest.mark.parametrize("n", [3, 9, 13])
def test_adjoint_gradients_block_columns_equal_single_sweeps(n):
    # every product in the sweep has one shape per column, so a column's
    # gradients are the bits of its own sweep
    ansatz = Ansatz(n, layers=2)
    rng = np.random.default_rng(n)
    block = rng.uniform(0.0, 2.0 * math.pi, (ansatz.n_params, 4)).T
    diags = rng.normal(size=(1 << n, 2))
    states = evolve_block(ansatz, block)
    grads = adjoint_gradients(
        ansatz, block, states.copy(), [diags[:, m] * states for m in range(2)]
    )
    assert grads.shape == (2, 4, ansatz.n_params)
    for b in range(4):
        state = states[b]
        costates = [diags[:, m] * state for m in range(2)]
        assert np.array_equal(
            grads[:, b], adjoint_gradients(ansatz, block[b], state, costates)
        )


@pytest.mark.parametrize("n", [3, 9])
def test_adjoint_gradients_sweep_costates_in_place(n):
    # a contiguous input is consumed, a strided one copied, and one
    # passed twice is copied the second time: all give the same bits
    ansatz = Ansatz(n, layers=2)
    rng = np.random.default_rng(40 + n)
    theta = rng.uniform(0.0, 2.0 * math.pi, ansatz.n_params)
    state = evolve(ansatz, theta)
    costates = [rng.normal(size=1 << n) * state for _ in range(2)]
    strided = np.empty((1 << n, 2))
    strided[:, 0] = costates[1]
    strided[:, 1] = state
    want = adjoint_gradients(
        ansatz, theta, strided[:, 1], [costates[0].copy(), strided[:, 0]]
    )
    assert np.array_equal(strided[:, 0], costates[1])
    assert np.array_equal(strided[:, 1], state)
    psi, consumed = state.copy(), costates[0].copy()
    got = adjoint_gradients(ansatz, theta, psi, [consumed, costates[1].copy()])
    assert np.array_equal(got, want)
    assert not np.array_equal(psi, state)
    assert not np.array_equal(consumed, costates[0])
    twice = costates[0].copy()
    got = adjoint_gradients(ansatz, theta, state.copy(), [twice, twice])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[0])
    # psi passed again as a co-state (D = 1) is copied there, and a
    # read-only psi is copied
    aliased = state.copy()
    got = adjoint_gradients(ansatz, theta, aliased, [aliased])
    state.flags.writeable = False
    assert np.array_equal(got, adjoint_gradients(ansatz, theta, state, [state.copy()]))


def test_adjoint_gradients_single_qubit_analytic():
    # <Z> after Ry(theta) is cos(theta): the gradient is -sin(theta)
    ansatz = Ansatz(1, layers=0)
    theta = np.array([0.7])
    state = evolve(ansatz, theta)
    z = np.array([1.0, -1.0])
    grads = adjoint_gradients(ansatz, theta, state, [z * state])
    assert grads[0, 0] == pytest.approx(-math.sin(0.7), abs=1e-15)


def test_adjoint_gradients_reject_wrong_widths():
    ansatz = Ansatz(3, layers=1)
    theta = np.zeros(ansatz.n_params)
    with pytest.raises(ParamLengthError):
        adjoint_gradients(ansatz, theta[:-1], evolve(ansatz, theta), [])
    with pytest.raises(EncodingError):
        adjoint_gradients(ansatz, theta, evolve(ansatz, theta), [np.zeros(4)])
    block = np.zeros((2, ansatz.n_params))
    states = evolve_block(ansatz, block)
    with pytest.raises(ParamLengthError):
        adjoint_gradients(ansatz, block[:, :-1], states, [states])
    with pytest.raises(EncodingError):
        adjoint_gradients(ansatz, block, states, [states[:1]])


# --- layer kernel: the per-gate loop and the dense oracle, to rounding ---


def ref_apply_ry(state, qubit, c, s):
    view = state.reshape(-1, 2, 1 << qubit, state.shape[1])
    lo = view[:, 0]
    hi = view[:, 1]
    new_hi = s * lo + c * hi
    lo *= c
    lo -= s * hi
    hi[:] = new_hi


def ref_cnot_chain(state, n):
    # control q_i, target q_{i+1}, applied as half-block swaps in order
    width = state.shape[1]
    for control in range(n - 1):
        view = state.reshape(-1, 2, 2, (1 << control) * width)
        tmp = view[:, 0, 1, :].copy()
        view[:, 0, 1, :] = view[:, 1, 1, :]
        view[:, 1, 1, :] = tmp


def ref_evolve_block(ansatz, block):
    # the gate loop in the natural layout, one swap per CNOT, on the angle
    # rows of block as columns
    n = ansatz.n_qubits
    block = block.T
    half = block / 2.0
    cos = np.cos(half)
    sin = np.sin(half)
    if block.shape[1] == 1:
        cos = cos.ravel().tolist()
        sin = sin.ravel().tolist()
    state = np.zeros((1 << n, block.shape[1]))
    state[0] = 1.0
    for layer in range(ansatz.layers + 1):
        if layer:
            ref_cnot_chain(state, n)
        for q in range(n):
            ref_apply_ry(state, q, cos[layer * n + q], sin[layer * n + q])
    return state.T


# fused Kronecker blocks sum each amplitude in another order than the gate
# loop, so the two agree to rounding, not bit for bit
@pytest.mark.parametrize("n", [1, 2, 3, 9, 12, 16])
@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("width", [1, 5, 64])
def test_evolve_block_equals_natural_layout_loop(n, layers, width):
    ansatz = Ansatz(n, layers=layers)
    rng = np.random.default_rng(1000 * n + 10 * layers + width)
    block = rng.uniform(0.0, 2.0 * math.pi, (ansatz.n_params, width)).T
    got = evolve_block(ansatz, block)
    assert np.abs(got - ref_evolve_block(ansatz, block)).max() <= 1e-12


# 1..5 qubits are one block, 6..8 two
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("layers", [0, 1, 2, 3])
@pytest.mark.parametrize("width", [1, 5, 64])
def test_layer_kernel_matches_dense_oracle(n, layers, width):
    ansatz = Ansatz(n, layers=layers)
    rng = np.random.default_rng(100 * n + 10 * layers + width)
    block = rng.uniform(0.0, 2.0 * math.pi, (ansatz.n_params, width)).T
    got = evolve_block(ansatz, block)
    assert got.shape == (width, 1 << n)
    for j in range(width):
        assert np.abs(got[j] - dense_evolve(ansatz, block[j])).max() <= 1e-12


def kron_chain(cos, sin):
    # Ry(theta_{g-1}) x ... x Ry(theta_0) through np.kron, qubit 0 first
    kron = np.ones((1, 1))
    for c, s in zip(cos, sin):
        ry = np.array([[c, -s], [s, c]])
        kron = ry if kron.size == 1 else np.kron(ry, kron)
    return kron


@pytest.mark.parametrize("n", range(1, 13))
def test_layer_blocks_equal_kron_chain_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for layers in range(4):
        for width in (1, 3, 64):
            ansatz = Ansatz(n, layers=layers)
            block = rng.uniform(0.0, 2.0 * math.pi, (ansatz.n_params, width)).T
            # the kernel's half angles, (layer, row, qubit), and their
            # cosines and sines, taken as the kernel takes them
            half = block.reshape(width, -1, n).transpose(1, 0, 2) / 2.0
            cos, sin = np.cos(half), np.sin(half)
            products = sim._layer_products(n, block)
            blocks = sim._layer_blocks(products)
            lo = 0
            for size, prod, kron in zip(sim._group_sizes(n), products, blocks):
                assert kron.shape == (layers + 1, width, 1 << size, 1 << size)
                group = slice(lo, lo + size)
                for layer, b in itertools.product(range(layers + 1), range(width)):
                    want = kron_chain(cos[layer, b, group], sin[layer, b, group])
                    assert np.array_equal(kron[layer, b], want)
                    assert np.array_equal(prod[layer, b], want[:, 0])
                lo += size


@pytest.mark.parametrize("n", range(1, 17))
def test_chain_gather_is_a_permutation(n):
    gather = sim._chain_gather(n)
    assert gather.shape == (1 << n,)
    assert np.array_equal(np.sort(gather), np.arange(1 << n))


@pytest.mark.parametrize("n", range(1, 17))
def test_chain_inverse_undoes_the_gather(n):
    inverse = sim._chain_inverse(n)
    assert np.array_equal(inverse[sim._chain_gather(n)], np.arange(1 << n))


@pytest.mark.parametrize("n", [1, 5, 9])
def test_cached_chain_gathers_keep_their_contents(n):
    # both gathers are cached and left writeable (np.take copies a
    # read-only index on every call), so no sweep may write into them
    index = np.arange(1 << n)
    gather = index ^ ((index << 1) & ((1 << n) - 1))
    inverse = np.argsort(gather)
    ansatz = Ansatz(n, layers=3)
    block = np.random.default_rng(n).uniform(-np.pi, np.pi, (3, ansatz.n_params))
    state = sim.evolve_block(ansatz, block)
    sim.adjoint_gradients(ansatz, block, state, [np.linspace(-1, 1, 1 << n) * state])
    assert np.array_equal(sim._chain_gather(n), gather)
    assert np.array_equal(sim._chain_inverse(n), inverse)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
def test_chain_gather_equals_swap_loop(n):
    rng = np.random.default_rng(n)
    state = rng.normal(size=(1 << n, 3))
    chained = state.copy()
    ref_cnot_chain(chained, n)
    assert np.array_equal(np.take(state, sim._chain_gather(n), axis=0), chained)


def prefix_xor(n):
    # bit j of entry x is the XOR of bits 0..j of x, one bit at a time
    index = np.arange(1 << n)
    out = np.zeros_like(index)
    acc = np.zeros_like(index)
    for j in range(n):
        acc ^= index >> j & 1
        out |= acc << j
    return out


# below, at and above CHAIN_BITS = 14: one gather, or half-row gathers
# through 2^14-entry tables
@pytest.mark.parametrize("n", [3, 13, 14, 15, 18])
@pytest.mark.parametrize("width", [1, 3])
def test_chain_and_unchain_equal_full_gathers(n, width):
    a = np.random.default_rng(n + width).normal(size=(width, 1 << n))
    x = np.arange(1 << n)
    out = np.empty_like(a)
    sim._chain(a, out)
    assert np.array_equal(out, a[:, x ^ ((x << 1) & ((1 << n) - 1))])
    sim._unchain(a, out)
    assert np.array_equal(out, a[:, prefix_xor(n)])


def test_cached_chain_tables_hold_at_most_2_to_the_14_entries():
    # every table sim keeps after a circuit and a sweep above CHAIN_BITS
    # qubits spans at most 2^14 index bits' worth of intp entries
    ansatz = Ansatz(18, layers=2)
    block = np.random.default_rng(18).uniform(0.0, 2.0 * math.pi, (1, ansatz.n_params))
    sim._chain_gather.cache_clear()
    sim._chain_inverse.cache_clear()
    tracemalloc.start()
    try:
        state = sim.evolve_block(ansatz, block)
        sim.adjoint_gradients(ansatz, block, state, [np.linspace(-1, 1, 1 << 18) * state])
        del state
        gc.collect()
        kept = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        )
    finally:
        tracemalloc.stop()
    assert max(trace.size for trace in kept.traces) <= (1 << sim.CHAIN_BITS) * 8
