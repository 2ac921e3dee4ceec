"""Acceptance gate: one test per shipping criterion.

Each criterion is a single test so the verbose run shows one pass/fail line
per criterion.  Expected values come from independent oracles (recursive
enumeration, closed-form geometry, dense linear algebra) or are frozen from
the spec'd protocol; tolerances are pinned inline.

Criterion 9's 6-bead soft target needs about 10 minutes of statevector time
on a 2-core box (50 primal-dual iterations on 24 qubits; measured at 565 s
and 833 MB peak RSS at commit 9cbbe66, 11.3 s per iteration on average,
where a KLVFFA pipeline's first iterations cost about 7.4 s each), so that
measurement only runs when QFOLD_RUN_SLOW=1 is exported; everything else
completes in minutes.
"""

import math
import os

import numpy as np
import pytest

from qfold.analysis import (
    decode_samples,
    parse_topobj,
    radius_of_gyration,
    scaled_coords,
    topobj_text,
    write_topobj,
    write_xyz,
    xyz_text,
)
from qfold.cli import resource_counts
from qfold.hamiltonian import EncodingLayout, assemble
from qfold.lattice import FCC_VECTORS, unpack_configuration
from qfold.optimize import (
    CVAR_INIT_WINDOW,
    CvarVqeConfig,
    ExpectationEngine,
    VqecConfig,
    _pdp_runs,
    grid_search,
    run_cvar_vqe,
    run_vqec_pdp,
)
from qfold.pb import value_table
from qfold.polyfit import PenaltyTarget, fit_family
from qfold.scoring import load_matrix
from qfold.search import (
    SearchConfig,
    conformation_energy,
    enumeration_size,
    search,
    squared_distance_scorer,
)
from qfold.sim import (
    Ansatz,
    ShotTable,
    bitstring_of,
    evolve,
    probabilities,
    sorted_cvar,
)
from util import (
    expectation_diagonal,
    kabsch_rmsd,
    parameter_shift_gradient,
    parse_xyz,
    position_polys,
)

MJ = load_matrix("mj1996")
TWO_PI = 2.0 * math.pi


def decode_config(config, n_beads):
    layout = EncodingLayout(n_beads)
    return unpack_configuration(bitstring_of(config, layout.n_config_bits), n_beads)


def oracle_minimum(peptide, lattice="fcc"):
    topk = search(SearchConfig(lattice, peptide, MJ, k=1))
    return topk.records[0].energy


def test_criterion_01_qubit_accounting():
    # 24 qubits at N=6; formula curve for N = 3..30; exact
    counts = resource_counts(6)
    assert counts["total"] == 24
    assert counts["config"] == 14
    assert counts["ancilla"] == 10
    for n in range(3, 31):
        counts = resource_counts(n)
        assert counts["config"] == 4 * n - 10
        assert counts["ancilla"] == (n - 1) * (n - 2) // 2
        assert counts["total"] == 4 * n - 10 + (n - 1) * (n - 2) // 2
    print("criterion 1 (qubit accounting): PASS")


def test_criterion_02_encoding_oracle():
    # every configuration assignment, polynomial positions vs lattice
    # geometry, exact integer agreement; redundant codewords step by zero
    for n_beads in (3, 4, 5):
        layout = EncodingLayout(n_beads)
        nbits = layout.n_config_bits
        size = 1 << nbits
        geometric = np.zeros((size, n_beads, 3), dtype=np.int64)
        for index in range(size):
            seq = unpack_configuration(bitstring_of(index, nbits), n_beads)
            position = np.zeros(3, dtype=np.int64)
            for bead, label in enumerate(seq.turns, start=1):
                if label is not None:
                    position = position + FCC_VECTORS[label]
                geometric[index, bead] = position
        for m in range(n_beads):
            polys = position_polys(layout, m)
            for axis in range(3):
                table = value_table(polys[axis], list(range(nbits)))
                assert np.array_equal(table, geometric[:, m, axis]), (n_beads, m, axis)
    print("criterion 2 (encoding oracle): PASS")


def test_criterion_03_hamiltonian_ground_truth():
    # dense-objective minimum within 5% of P0 (2.5) of the search minimum,
    # and the argmin decodes to an exactly optimal conformation
    for peptide in ("KLVF", "GNLVS"):
        n_beads = len(peptide)
        instance = assemble("polyfit", peptide, MJ)
        engine = ExpectationEngine(instance)
        e_star = oracle_minimum(peptide)
        assert abs(engine.ground_energy - e_star) <= 0.05 * 50.0
        seq = decode_config(int(engine.ground_configs[0]), n_beads)
        decoded_energy = conformation_energy(
            seq, peptide, SearchConfig("fcc", peptide, MJ)
        )
        assert decoded_energy == pytest.approx(e_star, abs=1e-9)
    print("criterion 3 (hamiltonian ground truth): PASS")


def test_criterion_04_enumeration_counts():
    # visited counts equal the closed-form enumeration sizes, N <= 7
    peptides = {3: "KLV", 4: "KLVF", 5: "KLVFF", 6: "KLVFFA", 7: "KLVFFAE"}
    for n_beads, peptide in peptides.items():
        for lattice, formula in (
            ("fcc", 4 * 11 ** (n_beads - 3)),
            ("tet", 3 ** (n_beads - 3)),
        ):
            topk = search(SearchConfig(lattice, peptide, MJ, k=1))
            assert topk.visited == formula
            assert enumeration_size(lattice, n_beads) == formula
    print("criterion 4 (enumeration counts): PASS")


def test_criterion_05_polyfit_quality():
    # R^2 >= 0.999, |P(0) - 50| <= 2.5, |P(D)| <= 2.5 on achievable D,
    # degrees non-decreasing over s = 3..11
    fits = fit_family(12, p0=50.0, r2_tol=0.999)
    assert sorted(fits) == list(range(3, 12))
    last_degree = 0
    for s in range(3, 12):
        fit = fits[s]
        assert fit.r2 >= 0.999
        d_vals, _ = PenaltyTarget(s, 50.0).points()
        values = fit.evaluate(d_vals)
        assert abs(values[0] - 50.0) <= 2.5
        assert np.abs(values[1:]).max() <= 2.5
        assert fit.degree >= last_degree
        last_degree = fit.degree
    print("criterion 5 (polyfit quality): PASS")


def test_criterion_06_term_count_report():
    # slack-free 6-bead instances; dense form must carry >= 5x the terms
    # of the constrained form (reference implementation: 18133 vs 2199)
    dense = assemble("polyfit", "KLVFFA", MJ)
    constrained = assemble("vqec", "KLVFFA", MJ)
    dense_terms = dense.objective.term_count()
    constrained_terms = constrained.objective.term_count()
    assert dense_terms == 18877
    assert constrained_terms == 2890
    assert dense_terms >= 5 * constrained_terms
    print(
        "criterion 6 (term counts): PASS "
        f"polyfit={dense_terms} vqec={constrained_terms} "
        f"ratio={dense_terms / constrained_terms:.2f} (reference 18133/2199)"
    )


def test_criterion_07_simulator_correctness():
    # norm preservation to 1e-10 up to 16 qubits; parameter-shift vs
    # central differences to 1e-5 relative; CVaR(1) == expectation to 1e-12
    for n_qubits in (8, 12, 16):
        ansatz = Ansatz(n_qubits, layers=2)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            state = evolve(ansatz, rng.uniform(0.0, TWO_PI, ansatz.n_params))
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-10

    ansatz = Ansatz(4, layers=2)
    for seed in range(20):
        rng = np.random.default_rng(seed + 100)
        diag = rng.normal(size=1 << 4)
        theta = rng.uniform(0.0, TWO_PI, ansatz.n_params)

        def objective(params):
            return expectation_diagonal(evolve(ansatz, params), diag)

        grad = parameter_shift_gradient(
            ansatz, theta, lambda state: expectation_diagonal(state, diag)
        )
        step = 1e-5
        for j in (0, ansatz.n_params // 2, ansatz.n_params - 1):
            forward = theta.copy()
            forward[j] += step
            backward = theta.copy()
            backward[j] -= step
            numeric = (objective(forward) - objective(backward)) / (2.0 * step)
            scale = max(1.0, abs(numeric))
            assert abs(grad[j] - numeric) <= 1e-5 * scale

    rng = np.random.default_rng(7)
    ansatz = Ansatz(6, layers=2)
    probs = probabilities(evolve(ansatz, rng.uniform(0.0, TWO_PI, ansatz.n_params)))
    diag = rng.normal(size=1 << 6)
    order = np.argsort(diag, kind="stable")
    assert abs(sorted_cvar(diag[order], probs[order], 1.0) - float(probs @ diag)) <= 1e-12
    print("criterion 7 (simulator correctness): PASS")


def test_criterion_08_cvar_vqe_recovery():
    # 4-bead toy, 20 restarts, alpha 0.1, window [3pi/2, 2pi]: the winning
    # restart's modal decoded sequence attains the search ground energy
    instance = assemble("polyfit", "KLVF", MJ)
    ansatz = Ansatz(instance.n_qubits, layers=2)
    cfg = CvarVqeConfig(
        alpha=0.1,
        restarts=20,
        max_iterations=80,
        seed=0,
    )
    assert CVAR_INIT_WINDOW == (1.5 * math.pi, TWO_PI)
    engine = ExpectationEngine(instance)
    params, _ = run_cvar_vqe(engine, ansatz, cfg)
    probs = probabilities(evolve(ansatz, params))
    modal = engine.modal_config(probs)
    seq = decode_config(int(modal), 4)
    modal_energy = conformation_energy(seq, "KLVF", SearchConfig("fcc", "KLVF", MJ))
    e_star = oracle_minimum("KLVF")
    assert modal_energy == pytest.approx(e_star, abs=1e-9)
    print(
        "criterion 8 (cvar-vqe recovery): PASS "
        f"modal={seq.to_string()} energy={modal_energy:.4f}"
    )


def test_criterion_09_vqec_recovery_and_duals():
    # toy: best grid point's modal sequence is the ground; duals stay
    # nonnegative at every iterate; inactive constraints reduce one
    # iteration to projected gradient descent
    instance = assemble("vqec", "KLVF", MJ)
    ansatz = Ansatz(instance.n_qubits, layers=2)
    engine = ExpectationEngine(instance)

    # projected-gradient reduction with all constraints inactive
    rng = np.random.default_rng(2)
    theta0 = rng.uniform(0.5, 1.5, ansatz.n_params)
    f0 = engine.f_vector(probabilities(evolve(ansatz, theta0)))
    assert all(value < 0.0 for value in f0[1:])
    nu, mu = 0.05, 0.4
    pgd_cfg = VqecConfig(nu=nu, mu=mu, restarts=1, max_iterations=1, seed=0)
    (entry,), _, _ = _pdp_runs(engine, ansatz, [theta0], [(nu, mu, 0)], pgd_cfg)
    theta1, duals1 = np.array(entry.params), np.array(entry.duals)
    grad = parameter_shift_gradient(
        ansatz,
        theta0,
        lambda state: engine.f_vector(probabilities(state))[0],
    )
    expected = np.clip(theta0 - mu * grad, 0.0, TWO_PI)
    assert theta1 == pytest.approx(expected, abs=1e-12)
    assert np.array_equal(duals1, np.zeros(len(instance.constraints)))

    # dual nonnegativity along a full trace
    trace_cfg = VqecConfig(nu=0.1, mu=1.0, restarts=2, max_iterations=10, seed=3)
    single = run_vqec_pdp(engine, ansatz, trace_cfg)
    assert single.trace.rows
    for _, _, _, duals in single.trace.rows:
        assert all(value >= 0.0 for value in duals)
    assert all(value >= 0.0 for value in single.best.duals)

    # step-size grid: the ranked-best point must put its modal mass on the
    # ground conformation
    grid_cfg = VqecConfig(restarts=5, max_iterations=150, seed=0)
    report = grid_search(engine, ansatz, grid_cfg)
    best = report.best
    assert not best.diverged
    assert all(value >= 0.0 for value in best.duals)
    probs = probabilities(evolve(ansatz, np.array(best.params)))
    seq = decode_config(int(engine.modal_config(probs)), 4)
    modal_energy = conformation_energy(seq, "KLVF", SearchConfig("fcc", "KLVF", MJ))
    e_star = oracle_minimum("KLVF")
    assert modal_energy == pytest.approx(e_star, abs=1e-9)
    print(
        "criterion 9 (vqec recovery and duals): PASS "
        f"best nu={best.nu} mu={best.mu} modal={seq.to_string()} "
        f"ground_probability={best.ground_probability:.3f}"
    )


@pytest.mark.skipif(
    os.environ.get("QFOLD_RUN_SLOW") != "1",
    reason="24-qubit soft target costs about 10 min of statevector time; "
    "export QFOLD_RUN_SLOW=1 to measure it",
)
def test_criterion_09_n6_soft_target():
    # logged against the reference ~0.6 modal ground probability; no hard
    # tolerance (the circuit's entanglement layout is underdetermined)
    instance = assemble("vqec", "KLVFFA", MJ)
    ansatz = Ansatz(instance.n_qubits, layers=2)
    cfg = VqecConfig(nu=0.01, mu=0.5, restarts=1, max_iterations=50, seed=0)
    engine = ExpectationEngine(instance)
    params = np.array(run_vqec_pdp(engine, ansatz, cfg).best.params)
    probs = probabilities(evolve(ansatz, params))
    ground_probability = engine.ground_probability(probs)
    print(
        "criterion 9 soft target (6 beads): "
        f"ground_probability={ground_probability:.3f} reference~0.6"
    )


def test_criterion_10_analysis_identities():
    # rigid-motion RMSD 1e-9; Rg identities; probability conservation 1e-12
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(6, 3))
    theta = 1.1
    rotation = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    moved = coords @ rotation.T + [2.0, -1.0, 0.5]
    assert kabsch_rmsd(coords, moved) <= 1e-9

    assert radius_of_gyration([[3.0, -7.0, 2.0]]) == 0.0
    extended = radius_of_gyration(scaled_coords(unpack_configuration("0" * 14, 6)))
    topk = search(SearchConfig("fcc", "KLVFFA", MJ, k=10))
    for record in topk.records:
        assert radius_of_gyration(scaled_coords(record.turns)) < extended

    layout = EncodingLayout(4)
    strings = ["".join(rng.choice(list("01"), 9)) for _ in range(300)]
    counts = {}
    for bits in strings:
        counts[bits] = counts.get(bits, 0) + 1
    table = ShotTable(counts=counts, shots=300)
    ensemble = decode_samples(
        table,
        layout,
        squared_distance_scorer(SearchConfig("fcc", "KLVF", MJ)),
    )
    assert abs(math.fsum(e.probability for e in ensemble.entries) - 1.0) <= 1e-12
    print("criterion 10 (analysis identities): PASS")


def test_criterion_11_format_round_trips():
    # byte-exact writer/parser inverses; 3.8 A bond spacing to 1e-6
    for lattice, peptide in (("fcc", "KLVF"), ("tet", "KLVFFA")):
        topk = search(SearchConfig(lattice, peptide, MJ, k=5))
        text = write_topobj(topk, lattice=lattice, peptide=peptide)
        document = parse_topobj(text)
        assert topobj_text(document) == text

        best = topk.records[0]
        xyz = write_xyz(best.turns, peptide)
        peptide_back, coords, comment = parse_xyz(xyz)
        assert xyz_text(peptide_back, coords, comment) == xyz
        steps = np.diff(coords, axis=0)
        for step in steps:
            assert np.linalg.norm(step) == pytest.approx(3.8, abs=1e-6)
    print("criterion 11 (format round trips): PASS")
