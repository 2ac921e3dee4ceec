"""Noiseless statevector simulation of the layered real-amplitude ansatz.

The circuit family is a rotation layer of single-qubit Y rotations followed
by ``layers`` repetitions of (linear CNOT chain, rotation layer).  Every gate
is real-orthogonal, so amplitudes are stored as a plain float64 array of
length ``2 ** n_qubits``; bit ``i`` of the basis index is qubit ``q_i``,
matching character ``i`` of the bitstring convention used everywhere else.

``evolve_block`` runs a block of parameter vectors as one ``(2^n, B)``
array, batch axis last; ``evolve`` is its one-column case.  Both run the
one gate loop, ``_apply_gates``, which can also resume a circuit at any
gate from a given state.  The parameter-shift Jacobian evolves the 2P
shifted circuits (and optionally the unshifted one) in chunks of
``block_columns(n)`` circuits, each resumed from the unshifted circuit at
the first gate one of its columns shifts.  At small n a gradient is thus a
few block passes; from n = 13 (one circuit per chunk) no shared prefix is
recomputed, so it takes P * (P + 2) rotations instead of (2P + 1) * P.
Every column is bit-identical to a single ``evolve``.

``adjoint_gradients`` is the other derivative, and the one the optimizer
uses: the gradients of a few weighted diagonal expectations <psi|D_w|psi>,
which is what a vector-Jacobian product ``jac @ w`` of diagonal observables
asks for.  It sweeps the circuit backward once from the final states of an
angle block, un-applying each gate to the state and to one co-state D_w psi
per weight vector, so its cost does not depend on P or on the number of
observables.  Up to 12 qubits the state and co-states are column groups of
one block; from 13 each array is swept on its own.  It agrees with the
shifted circuits to rounding, not bit for bit; the parameter-shift Jacobian
stays as the reference.

Small qubits give NumPy short inner runs (2^q amplitudes per column), so
the kernel keeps two layouts of the index.  Layout A is the natural order;
layout B rotates qubits 0..k-1 (k = n // 2) to the top bits.  Each rotation
layer applies qubits 0..k-1 in layout B, switches to A by a transposed
copy, then applies qubits k..n-1; the CNOT chain before the next layer and
the switch back to B are one precomputed row gather (``_chain_gather``,
cached per width).  Every rotation therefore runs on at least 2^k * B
contiguous amplitudes, and since only data moves, the amplitudes equal the
natural-layout gate loop bit for bit.

Provides diagonal expectations, conditional value at risk over the energy
distribution, seeded multinomial shot sampling, parameter-shift gradients
and Jacobians, and adjoint gradients of diagonal expectations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    EmptyDistributionError,
    EncodingError,
    ParamLengthError,
    ParseError,
)

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class Ansatz:
    """Hardware-efficient real-amplitude circuit layout.

    Parameters are ordered rotation layer by rotation layer, qubit 0 first
    within each layer: P = n_qubits * (layers + 1) angles in [0, 2*pi).
    """

    n_qubits: int
    layers: int = 2

    def __post_init__(self):
        if self.n_qubits < 1:
            raise EncodingError("ansatz needs at least one qubit")
        if self.layers < 0:
            raise EncodingError("layer count must be non-negative")

    @property
    def n_params(self) -> int:
        return self.n_qubits * (self.layers + 1)


def bitstring_of(index: int, n_qubits: int) -> str:
    """Basis bitstring for an amplitude index; character i is qubit q_i."""
    return format(index, f"0{n_qubits}b")[::-1]


def _apply_ry(state: np.ndarray, bit: int, c, s) -> None:
    # rotate the qubit stored at index bit ``bit``; c, s: cos and sin of the
    # half angles, one per column (plain floats when the block has a single
    # column)
    view = state.reshape(-1, 2, 1 << bit, state.shape[1])
    lo = view[:, 0]
    hi = view[:, 1]
    new_hi = s * lo + c * hi
    lo *= c
    lo -= s * hi
    hi[:] = new_hi


@functools.lru_cache(maxsize=4)
def _chain_gather(n_qubits: int) -> np.ndarray:
    """Row gather applying the CNOT chain and switching layout A to B.

    Layout A is the natural order (qubit q at index bit q).  Layout B moves
    qubits 0..k-1 to the top (qubit q < k at bit q + n - k, qubit q >= k at
    bit q - k), with k = n // 2.  ``np.take(state_a, gather, axis=0)`` is
    the state after the linear CNOT chain (new bit j = XOR of old bits
    0..j), in layout B.  Read-only; one ``intp`` per amplitude.
    """
    n = n_qubits
    k = n // 2
    index = np.arange(1 << n)
    in_a = (index >> (n - k)) | ((index & ((1 << (n - k)) - 1)) << k)
    # the chain sends basis state x to prefix_xor(x), whose inverse is x ^ (x << 1)
    gather = in_a ^ ((in_a << 1) & ((1 << n) - 1))
    gather.flags.writeable = False
    return gather


def _check_params(ansatz: Ansatz, params) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.shape != (ansatz.n_params,):
        raise ParamLengthError(
            f"expected {ansatz.n_params} parameters, got shape {params.shape}"
        )
    return params


def _half_angle_factors(block: np.ndarray):
    # cos and sin of the half angles, one row per gate; scalar factors keep
    # the single-state case as cheap as a 1-d state
    half = block / 2.0
    cos = np.cos(half)
    sin = np.sin(half)
    if block.shape[1] == 1:
        return cos.ravel().tolist(), sin.ravel().tolist()
    return cos, sin


def _apply_gates(n_qubits: int, cos, sin, state, spare, start: int, stop: int):
    """Apply gates ``start .. stop - 1`` to ``state``; returns (state, spare).

    Gate g rotates qubit g % n in rotation layer g // n.  ``state`` holds
    the amplitudes after gate ``start - 1`` in the layout that gate left
    (|0> reads the same in both), and the layout moves that precede gate g
    (the chain gather before a layer's first gate, the switch to layout A
    before qubit k) run with it.  The moves write into ``spare`` and swap
    the two buffers, so the caller keeps both names returned.
    """
    n = n_qubits
    k = n // 2
    width = state.shape[1]
    chain = _chain_gather(n)
    for gate in range(start, stop):
        layer, q = divmod(gate, n)
        if layer and q == 0:
            # any mode but the default "raise" writes into ``out`` unbuffered
            np.take(state, chain, axis=0, out=spare, mode="clip")
            state, spare = spare, state
        if q == k:
            # layout B back to A: swap the two halves of the index
            np.copyto(
                spare.reshape(1 << (n - k), 1 << k, width),
                state.reshape(1 << k, 1 << (n - k), width).transpose(1, 0, 2),
            )
            state, spare = spare, state
        _apply_ry(state, q + n - k if q < k else q, cos[gate], sin[gate])
    return state, spare


def evolve_block(ansatz: Ansatz, block) -> np.ndarray:
    """Run the circuit once per column of an ``(n_params, B)`` angle block.

    Returns the ``(2^n, B)`` amplitudes; column j equals
    ``evolve(ansatz, block[:, j])`` bit for bit.  The batch axis is last,
    and the two index layouts (module docstring) put every rotation on
    contiguous runs of at least 2^(n // 2) * B amplitudes.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != ansatz.n_params or block.shape[1] < 1:
        raise ParamLengthError(
            f"expected a ({ansatz.n_params}, B >= 1) angle block, "
            f"got shape {block.shape}"
        )
    cos, sin = _half_angle_factors(block)
    state = np.zeros((1 << ansatz.n_qubits, block.shape[1]))
    state[0] = 1.0
    state, _ = _apply_gates(
        ansatz.n_qubits, cos, sin, state, np.empty_like(state), 0, ansatz.n_params
    )
    return state


def evolve(ansatz: Ansatz, params) -> np.ndarray:
    """Run the circuit from the all-zeros state; returns the amplitudes."""
    params = _check_params(ansatz, params)
    return evolve_block(ansatz, params[:, None]).reshape(-1)


def block_columns(n_qubits: int) -> int:
    """Columns run together as one block at this width.

    This is the chunk width of the parameter-shift Jacobian and the number
    of primal-dual trajectories ``optimize`` advances in lockstep, and above
    one it makes ``adjoint_gradients`` sweep its arrays stacked.  Wide blocks
    amortize NumPy's per-call overhead while states are small.  From 13
    qubits on, one circuit already rotates runs of at least 2^6 amplitudes
    with scalar factors, which beats the per-column factors of a block, so
    circuits run one at a time (crossover table in CHANGES.md).
    """
    if n_qubits <= 10:
        return 64
    if n_qubits <= 12:
        return 32
    return 1


def probabilities(state: np.ndarray) -> np.ndarray:
    return state * state


def expectation_diagonal(state: np.ndarray, energy) -> float:
    """Expectation of a diagonal operator.

    ``energy`` is either a precomputed diagonal (array of length 2^n) or a
    callable mapping a basis bitstring to its energy.
    """
    probs = probabilities(state)
    if callable(energy):
        n = int(round(math.log2(state.shape[0])))
        diag = np.fromiter(
            (energy(bitstring_of(b, n)) for b in range(state.shape[0])),
            dtype=float,
            count=state.shape[0],
        )
    else:
        diag = np.asarray(energy, dtype=float)
        if diag.shape != state.shape:
            raise EncodingError("diagonal length does not match the state")
    return float(probs @ diag)


def cvar(energies, probs, alpha: float) -> float:
    """Mean of the lowest-energy tail holding probability mass ``alpha``.

    The boundary state is included fractionally so the tail mass is exactly
    ``alpha``; ``alpha = 1`` reduces to the plain expectation.
    """
    if not 0.0 < alpha <= 1.0:
        raise EncodingError("alpha must lie in (0, 1]")
    energies = np.asarray(energies, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if energies.shape != probs.shape or energies.ndim != 1:
        raise EncodingError("energies and probabilities must be equal-length 1-d")
    keep = probs > 0.0
    energies = energies[keep]
    probs = probs[keep]
    if energies.size == 0:
        raise EmptyDistributionError("no probability mass in the distribution")
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    probs = probs[order]
    cum = np.cumsum(probs)
    mass = min(alpha, float(cum[-1]))
    boundary = int(np.searchsorted(cum, mass, side="left"))
    total = float(energies[:boundary] @ probs[:boundary])
    used = float(cum[boundary - 1]) if boundary else 0.0
    if boundary < energies.size and mass > used:
        total += float(energies[boundary]) * (mass - used)
    return total / mass


@dataclass(frozen=True)
class ShotTable:
    """Counts per observed bitstring from a sampling run."""

    counts: dict
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise EncodingError("shot counts do not sum to the shot total")

    def frequencies(self) -> dict:
        return {bits: c / self.shots for bits, c in self.counts.items()}

    def to_text(self) -> str:
        lines = [f"{bits}\t{count}" for bits, count in sorted(self.counts.items())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ShotTable":
        counts = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or set(parts[0]) - {"0", "1"}:
                raise ParseError(f"line {lineno}: expected '<bits> <count>'")
            try:
                count = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad count {parts[1]!r}") from exc
            if count < 0:
                raise ParseError(f"line {lineno}: negative count")
            if counts and len(parts[0]) != len(next(iter(counts))):
                raise ParseError(f"line {lineno}: bitstrings differ in width")
            counts[parts[0]] = counts.get(parts[0], 0) + count
        if not counts:
            raise ParseError("shot table is empty")
        return cls(counts=counts, shots=sum(counts.values()))


def sample(state: np.ndarray, shots: int, seed) -> ShotTable:
    """Seeded multinomial draw from the measurement distribution."""
    if shots < 1:
        raise EncodingError("shots must be >= 1")
    probs = probabilities(state)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs)
    n = int(round(math.log2(state.shape[0])))
    counts = {
        bitstring_of(b, n): int(c) for b, c in zip(np.flatnonzero(drawn), drawn[drawn > 0])
    }
    return ShotTable(counts=counts, shots=shots)


def parameter_shift_jacobian(ansatz: Ansatz, params, block_objective, with_value=False):
    """Exact Jacobian of an objective of ``evolve(ansatz, params)``.

    ``block_objective`` maps a ``(2^n, b)`` block of states to b values
    (floats or 1-d arrays); the block is only valid during the call.  Row p
    of the result is ``0.5 * (value at params + pi/2 e_p - value at
    params - pi/2 e_p)``; with ``with_value`` it returns ``(value,
    jacobian)``.

    The 2P shifted circuits, preceded by the unshifted one when asked, run
    in chunks of ``block_columns(n)`` columns.  A circuit shifted at gate g
    shares gates 0..g-1 with the unshifted ("centre") circuit, so the
    centre is walked forward gate by gate and each chunk resumes from it at
    the first gate where one of its columns is shifted; a chunk shifted at
    gate 0 runs from |0> through ``evolve_block``.  From n = 13, where
    chunks hold one circuit, a Jacobian applies P * (P + 2) rotations
    instead of (2P + 1) * P.  Every column still performs the arithmetic of
    a full ``evolve``, so the values are bit-identical to it.
    """
    params = _check_params(ansatz, params)
    n = ansatz.n_qubits
    n_params = ansatz.n_params
    first = 1 if with_value else 0
    block = np.repeat(params[:, None], first + 2 * n_params, axis=1)
    rows = np.arange(n_params)
    block[rows, first + 2 * rows] = params + HALF_PI
    block[rows, first + 2 * rows + 1] = params - HALF_PI
    # the gate at which each column leaves the centre (P: never)
    leaves = np.concatenate(([n_params] * first, np.repeat(rows, 2)))
    step = block_columns(n)
    firsts = range(0, block.shape[1], step)
    chunks = sorted((int(leaves[c : c + step].min()), c) for c in firsts)

    cos, sin = _half_angle_factors(params[:, None])
    centre = np.zeros((1 << n, 1))
    centre[0] = 1.0
    centre_spare = np.empty_like(centre)
    at = 0
    work = work_spare = None
    values = [None] * block.shape[1]
    for start, c in chunks:
        chunk = block[:, c : c + step]
        if start == 0:
            states = evolve_block(ansatz, chunk)
        else:
            centre, centre_spare = _apply_gates(
                n, cos, sin, centre, centre_spare, at, start
            )
            at = start
            if work is None or work.shape[1] != chunk.shape[1]:
                work = np.empty((1 << n, chunk.shape[1]))
                work_spare = np.empty_like(work)
            work[:] = centre
            chunk_cos, chunk_sin = _half_angle_factors(chunk)
            work, work_spare = _apply_gates(
                n, chunk_cos, chunk_sin, work, work_spare, start, n_params
            )
            states = work
        values[c : c + step] = block_objective(states)
    values = np.array(values, dtype=float)
    jac = 0.5 * (values[first::2] - values[first + 1 :: 2])
    return (values[0], jac) if with_value else jac


def parameter_shift_gradient(ansatz: Ansatz, params, objective) -> np.ndarray:
    """Exact gradient of a scalar ``objective(evolve(ansatz, params))``.

    Uses the two-point rule with shifts of half pi, so a full gradient costs
    exactly ``2 * n_params`` circuit evaluations.
    """

    def block_objective(states):
        return [objective(np.ascontiguousarray(col)) for col in states.T]

    return parameter_shift_jacobian(ansatz, params, block_objective)


def _ry_pi_overlap(costate: np.ndarray, state: np.ndarray, bit: int) -> float:
    # <costate| Ry(pi) on index bit ``bit`` |state>: sum(lam_hi psi_lo - lam_lo psi_hi)
    lam = costate.reshape(-1, 2, 1 << bit)
    psi = state.reshape(-1, 2, 1 << bit)
    return float(
        np.einsum("ij,ij->", lam[:, 1], psi[:, 0])
        - np.einsum("ij,ij->", lam[:, 0], psi[:, 1])
    )


def _undo_moves(n_qubits: int, gate: int, state, spare):
    """Carry ``state`` back past the layout moves before ``gate``.

    The switch to layout A is undone by the inverse transpose, the chain
    gather by a scatter through the same cached index.  Returns (state,
    spare) swapped as in ``_apply_gates``.
    """
    n = n_qubits
    k = n // 2
    layer, q = divmod(gate, n)
    width = state.shape[1]
    if q == k:
        np.copyto(
            spare.reshape(1 << k, 1 << (n - k), width),
            state.reshape(1 << (n - k), 1 << k, width).transpose(1, 0, 2),
        )
        state, spare = spare, state
    if layer and q == 0:
        # new[i] = old[chain[i]]; a flat scatter is the faster one for a
        # single column
        if width == 1:
            spare.reshape(-1)[_chain_gather(n)] = state.reshape(-1)
        else:
            spare[_chain_gather(n)] = state
        state, spare = spare, state
    return state, spare


def _stacked_sweep(n_qubits: int, block: np.ndarray, arrays, grads) -> None:
    # psi and its W co-states as the column groups of one (2^n, (1 + W) * B)
    # array: one rotation, one layout move and one overlap reduction per
    # gate.  The overlaps land in a (W, B, 2^(n-1)) buffer, so each column's
    # reduction is a sum over one contiguous row whatever B is.
    n = n_qubits
    k = n // 2
    groups = len(arrays)
    width = block.shape[1]
    cos, sin = np.cos(block / 2.0), np.sin(block / 2.0)
    cos = np.tile(cos, groups)
    sin = -np.tile(sin, groups)
    state = np.concatenate(arrays, axis=1)
    spare = np.empty_like(state)
    overlap = np.empty((groups - 1, width, 1 << (n - 1)))
    for gate in reversed(range(block.shape[0])):
        q = gate % n
        bit = q + n - k if q < k else q
        view = state.reshape(-1, 2, 1 << bit, groups, width)
        psi = view[..., :1, :]
        lam = view[..., 1:, :]
        out = overlap.reshape(groups - 1, width, -1, 1 << bit).transpose(2, 3, 0, 1)
        np.multiply(lam[:, 1], psi[:, 0], out=out)
        out -= lam[:, 0] * psi[:, 1]
        grads[:, gate] = overlap.sum(axis=2)
        _apply_ry(state, bit, cos[gate], sin[gate])
        state, spare = _undo_moves(n, gate, state, spare)


def _separate_sweep(n_qubits: int, params: np.ndarray, arrays, grads) -> None:
    # one state at a time, each array rotated and moved on its own; the
    # arrays are overwritten
    n = n_qubits
    k = n // 2
    cos, sin = _half_angle_factors(params[:, None])
    spare = np.empty_like(arrays[0])
    for gate in reversed(range(params.shape[0])):
        q = gate % n
        bit = q + n - k if q < k else q
        for w, costate in enumerate(arrays[1:]):
            grads[w, gate] = _ry_pi_overlap(costate, arrays[0], bit)
        for a in arrays:
            _apply_ry(a, bit, cos[gate], -sin[gate])
        for i, a in enumerate(arrays):
            arrays[i], spare = _undo_moves(n, gate, a, spare)


def adjoint_gradients(ansatz: Ansatz, params, state, costates) -> np.ndarray:
    """Gradients of diagonal expectations by one backward sweep.

    ``params`` is one angle vector or an ``(n_params, B)`` block, and
    ``state`` is ``evolve`` (or ``evolve_block``) of it.  Each co-state is
    ``D_w * state`` for a real diagonal D_w in natural index order, column
    by column.  The result is ``(W, n_params)`` for W co-states, or ``(W,
    n_params, B)`` for a block: row w (of column b) is the gradient of
    <psi|D_w|psi>, and for D_w = sum_m w_m D_m it equals
    ``parameter_shift_jacobian(...) @ w`` to rounding.

    The sweep walks the gates backward.  Gate g rotates qubit q by theta_g,
    so d<psi|D_w|psi>/d theta_g = <lambda_g| Ry(pi)_q |psi_g>, with psi_g
    and lambda_g the state and co-state just after gate g.  Both are then
    carried back past gate g by Ry(-theta_g), and past the layout moves
    before it: the switch to layout A by the inverse transpose, and the
    chain gather by a scatter through the same cached index.

    Where ``block_columns(n) > 1`` (n <= 12) the state and co-states go
    through the sweep as the column groups of one array; from 13 qubits
    each column's arrays are swept one at a time, overwriting ``state``
    and the co-states, with one spare state besides them.  Either way a
    column's gradients are the same bits whatever the other columns hold.
    """
    params = np.asarray(params, dtype=float)
    single = params.ndim == 1
    block = params[:, None] if single else params
    if block.ndim != 2 or block.shape[0] != ansatz.n_params or block.shape[1] < 1:
        raise ParamLengthError(
            f"expected {ansatz.n_params} parameters or a ({ansatz.n_params}, B >= 1) "
            f"angle block, got shape {params.shape}"
        )
    n = ansatz.n_qubits
    width = block.shape[1]
    shape = (1 << n,) if single else (1 << n, width)
    arrays = [np.asarray(a, dtype=float) for a in (state, *costates)]
    if any(a.shape != shape for a in arrays):
        raise EncodingError("state and co-states must hold 2^n amplitudes per column")
    arrays = [a.reshape(1 << n, width) for a in arrays]
    grads = np.empty((len(costates), ansatz.n_params, width))
    if block_columns(n) > 1:
        _stacked_sweep(n, block, arrays, grads)
    else:
        for b in range(width):
            columns = [np.ascontiguousarray(a[:, b : b + 1]) for a in arrays]
            _separate_sweep(n, block[:, b], columns, grads[:, :, b])
    return grads[:, :, 0] if single else grads
