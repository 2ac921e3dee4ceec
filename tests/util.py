"""Shared helpers for the test suite."""

import heapq
import json
import math
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from qfold import lattice as lat
from qfold.exceptions import EncodingError
from qfold.lattice import (
    FCC,
    FCC_VECTORS,
    SECOND_TURN_LABELS,
    TET,
    TET_VECTORS,
    TurnSequence,
)
from qfold.pb import value_table
from qfold.search import (
    CHUNK,
    COLLISION_PENALTY,
    SearchConfig,
    _pair_rules,
    enumeration_size,
)


# any JSON document, NaN and the infinities included, for parser fuzzing
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def mutated_json(draw, text, paths):
    """``text`` with the value at one of ``paths`` replaced or deleted."""
    doc = json.loads(text)
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(doc)


def bits_to_mask(bits: str) -> int:
    """Bitstring text (character i = variable i) to an integer assignment."""
    return int(bits[::-1], 2) if bits else 0


def mask_to_bits(mask: int, n: int) -> str:
    return "".join(str((mask >> i) & 1) for i in range(n))


def geometric_fcc_energy(seq, eps, nn_level=1):
    """Independent conformation scorer used as an oracle.

    Returns (energy, valid); collisions make the conformation invalid
    instead of adding a finite penalty.
    """
    coords = lat.coords_from_turns(seq)
    n = coords.shape[0]
    energy = 0.0
    valid = True
    for i in range(n - 1):
        for j in range(i + 2, n):
            d2 = lat.pair_squared_distance(coords, i, j, lat.FCC)
            if d2 == 0:
                valid = False
            elif d2 == 2:
                energy += eps[i, j]
            elif d2 == 4 and nn_level >= 2:
                energy += eps[i, j] / np.sqrt(2)
    return energy, valid


def reference_conformation_energy(conf, peptide: str, config: SearchConfig) -> float:
    """The former scalar scorer: rules rebuilt per call, one pair at a time."""
    coords = conf if isinstance(conf, np.ndarray) else lat.coords_from_turns(conf)
    if coords.shape[0] != len(peptide):
        raise EncodingError("conformation length differs from peptide length")
    shell1 = 2 if config.lattice == FCC else 1
    energy = 0.0
    for i, j, e1, e2 in _pair_rules(replace(config, peptide=peptide)):
        d2 = lat.pair_squared_distance(coords, i, j, config.lattice)
        if d2 == 0:
            energy += COLLISION_PENALTY
        elif d2 == shell1 and e1 != 0.0:
            energy += e1
        elif d2 == 2 * shell1 and e2 != 0.0:
            energy += e2
    return energy


# the twelve direction codewords, restated from the encoding's table by hand;
# character i of a word is the i-th qubit of its turn, and the other four
# words are redundant
REFERENCE_LABELS = {
    "0000": 0, "0011": 1, "1100": 2, "1111": 3, "1001": 4, "0101": 5,
    "1010": 6, "0110": 7, "1000": 8, "0100": 9, "1011": 10, "0111": 11,
}


def reference_turn_word(mask: int, j: int) -> str:
    """Turn ``j``'s 4-bit codeword in a configuration mask: turn 1 reads
    q0 q1 and fixes the last two bits to 0, turn j >= 2 reads
    q_{4j-6} .. q_{4j-3}."""
    if j == 1:
        return mask_to_bits(mask, 2) + "00"
    return mask_to_bits(mask >> (4 * j - 6), 4)


def decodable_masks(n_beads):
    """All configuration assignments that decode without redundant groups."""
    nb = lat.n_config_bits(n_beads)
    out = []
    for mask in range(1 << nb):
        seq = lat.unpack_configuration(mask_to_bits(mask, nb), n_beads)
        if seq.is_decodable:
            out.append((mask, seq))
    return out


def reference_f_vector(engine, probs):
    """The expectation engine's former one-vector F evaluation: ancilla a's
    partial marginal sums the grid rows a boolean mask of bit a picks."""
    grid = probs.reshape(1 << engine.n_ancillas, 1 << engine.n_config)
    marginal = grid.sum(axis=0)
    total = float(marginal @ engine.tables.base_table)
    rows = np.arange(1 << engine.n_ancillas)
    for a, table in enumerate(engine.tables.pair_tables):
        mask = ((rows >> a) & 1).astype(bool)
        total += float(grid[mask].sum(axis=0) @ table)
    out = np.empty(1 + engine.n_constraints)
    out[0] = total
    for m, table in enumerate(engine.tables.constraint_tables, start=1):
        out[m] = float(marginal @ table)
    return out


def reference_sorted_cvar(energies, probs, alpha):
    """The former one-row ``sim.sorted_cvar``: energies already ascending."""
    cum = np.cumsum(probs)
    mass = min(alpha, float(cum[-1]))
    boundary = int(np.searchsorted(cum, mass, side="left"))
    total = float(energies[:boundary] @ probs[:boundary])
    used = float(cum[boundary - 1]) if boundary else 0.0
    if boundary < energies.size and mass > used:
        total += float(energies[boundary]) * (mass - used)
    return total / mass


def reference_cvar(energies, probs, alpha):
    """The former ``sim.cvar``: zero-mass states dropped, then sorted."""
    energies = np.asarray(energies, dtype=float)
    probs = np.asarray(probs, dtype=float)
    keep = probs > 0.0
    energies = energies[keep]
    probs = probs[keep]
    order = np.argsort(energies, kind="stable")
    return reference_sorted_cvar(energies[order], probs[order], alpha)


def objective_diagonal(instance):
    """The objective's value on every basis state, tabulated over all qubits."""
    return value_table(instance.objective, range(instance.n_qubits))


def reference_cvar_objective(engine, probs, alpha):
    """The former ``ExpectationEngine.cvar_objective``: every state kept."""
    diag = objective_diagonal(engine.instance)
    order = np.argsort(diag, kind="stable")
    return reference_sorted_cvar(diag[order], probs[order], alpha)


# --- the exhaustive search's former mixed-radix odometer sweep, as reference ---

# options[prev]: the 11 labels != inverse(prev), ascending
_FCC_OPTIONS = np.array(
    [[l for l in range(12) if l != (p ^ 1)] for p in range(12)], dtype=np.int64
)
_SECOND = np.array(SECOND_TURN_LABELS, dtype=np.int64)


def _labels_for_indices(indices: np.ndarray, n_beads: int, lattice: str) -> np.ndarray:
    """Decode odometer indices into (M, N-1) turn label arrays."""
    m = indices.shape[0]
    labels = np.zeros((m, n_beads - 1), dtype=np.int64)
    rem = indices.copy()
    if lattice == FCC:
        n_digits = n_beads - 3
        div = 11**n_digits
        labels[:, 1] = _SECOND[rem // div]
        rem %= div
        for t in range(2, n_beads - 1):
            div //= 11
            digit = rem // div
            rem %= div
            labels[:, t] = _FCC_OPTIONS[labels[:, t - 1], digit]
    else:
        labels[:, 1] = 1  # relative turn of the second bond is fixed
        n_digits = n_beads - 3
        div = 3 ** (n_digits - 1) if n_digits else 1
        for t in range(2, n_beads - 1):
            digit = rem // div
            rem %= div
            div //= 3 if div > 1 else 1
            labels[:, t] = (digit + labels[:, t - 1] + 1) % 4
    return labels


def _coords_for_labels(labels: np.ndarray, lattice: str) -> np.ndarray:
    m, n_turns = labels.shape
    if lattice == FCC:
        steps = FCC_VECTORS[labels]
    else:
        signs = np.where(np.arange(n_turns) % 2 == 0, 1, -1)
        steps = TET_VECTORS[labels] * signs[None, :, None]
    coords = np.zeros((m, n_turns + 1, 3), dtype=np.int64)
    np.cumsum(steps, axis=1, out=coords[:, 1:, :])
    return coords


def _energies_for_coords(coords: np.ndarray, rules, config: SearchConfig):
    """Energies plus a per-row flag marking any self-intersection."""
    m = coords.shape[0]
    energy = np.zeros(m)
    collided = np.zeros(m, dtype=bool)
    shell1 = 2 if config.lattice == FCC else 1
    for i, j, e1, e2 in rules:
        diff = coords[:, j, :] - coords[:, i, :]
        d2 = np.einsum("mk,mk->m", diff, diff)
        if config.lattice == TET:
            d2 = (d2 + (j - i) % 2) // 4
        hit = d2 == 0
        collided |= hit
        contrib = np.zeros(m)
        contrib[hit] = COLLISION_PENALTY
        if e1 != 0.0:
            contrib[d2 == shell1] = e1
        if e2 != 0.0:
            contrib[d2 == 2 * shell1] = e2
        energy += contrib
    return energy, collided


def _turn_text(labels_row, lattice: str) -> str:
    return TurnSequence(lattice, tuple(int(t) for t in labels_row)).to_string()


def _sweep_span(config: SearchConfig, n_beads: int, start: int, stop: int):
    """Worker kernel: best k (energy, turn string) pairs in [start, stop)."""
    rules = _pair_rules(config)
    best: list = []  # max-heap via negated sort key
    for lo in range(start, stop, CHUNK):
        hi = min(lo + CHUNK, stop)
        indices = np.arange(lo, hi, dtype=np.int64)
        labels = _labels_for_indices(indices, n_beads, config.lattice)
        coords = _coords_for_labels(labels, config.lattice)
        energies, collided = _energies_for_coords(coords, rules, config)
        cutoff = best[0][0] if len(best) >= config.k else None
        valid = ~collided & (energies < COLLISION_PENALTY)
        if cutoff is not None:
            valid &= energies <= -cutoff[0]
        for row in np.flatnonzero(valid):
            e = float(energies[row])
            if cutoff is not None and e > -cutoff[0]:
                continue
            key = (-e, _rev(_turn_text(labels[row], config.lattice)))
            if len(best) < config.k:
                heapq.heappush(best, (key, e))
            else:
                heapq.heappushpop(best, (key, e))
            cutoff = best[0][0] if len(best) >= config.k else None
    out = sorted(((e, _unrev(key[1])) for key, e in best), key=lambda r: (r[0], r[1]))
    return out, stop - start


def _rev(text: str) -> tuple:
    # lexicographically inverted proxy so a min-heap on negated energy keeps
    # the record that wins the (energy, turn string) ascending tie-break
    return tuple(-ord(c) for c in text)


def _unrev(key: tuple) -> str:
    return "".join(chr(-v) for v in key)


def reference_search(config):
    """The former ``search`` with one worker: sorted (energy, turn string) pairs."""
    n_beads = len(config.peptide)
    total = enumeration_size(config.lattice, n_beads)
    pairs, visited = _sweep_span(config, n_beads, 0, total)
    return pairs[: config.k], visited


# --- CVaR-VQE's former SciPy-driven multistart, as reference ---


def reference_run_cvar_vqe(engine, ansatz, cfg, on_result=None):
    """The former ``run_cvar_vqe``: one SciPy COBYLA call per restart.

    Returns (best params, trace) as ``run_cvar_vqe`` does.  ``on_result``
    sees each restart's ``OptimizeResult``.  SciPy is a test dependency
    only, so it is imported here.
    """
    from scipy.optimize import minimize

    from qfold.optimize import (
        CVAR_INIT_WINDOW,
        CVAR_PARAMS_EVERY,
        OptTrace,
        cobyla_budget,
    )
    from qfold.sim import evolve, probabilities

    rng = np.random.default_rng(cfg.seed)
    trace = OptTrace(CVAR_PARAMS_EVERY)

    def objective(params):
        probs = probabilities(evolve(ansatz, params))
        value = engine.cvar_objective(probs, cfg.alpha)
        trace.rows.append((float(value), np.array(params, dtype=float)))
        return value

    best_params = None
    best_value = math.inf
    for _ in range(cfg.restarts):
        x0 = rng.uniform(*CVAR_INIT_WINDOW, ansatz.n_params)
        result = minimize(
            objective,
            x0,
            method="COBYLA",
            options={"maxiter": cobyla_budget(cfg, ansatz)},
        )
        if on_result is not None:
            on_result(result)
        if result.fun < best_value:
            best_value = float(result.fun)
            best_params = np.asarray(result.x, dtype=float)
    return best_params, trace


def plain_rows(rows):
    """``OptTrace`` rows with their arrays as lists, so that rows compare
    with ``==``."""
    return [
        tuple(v.tolist() if isinstance(v, np.ndarray) else v for v in row)
        for row in rows
    ]
