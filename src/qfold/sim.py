"""Noiseless statevector simulation of the layered real-amplitude ansatz.

The circuit family is a rotation layer of single-qubit Y rotations followed
by ``layers`` repetitions of (linear CNOT chain, rotation layer).  Every gate
is real-orthogonal, so amplitudes are stored as a plain float64 array of
length ``2 ** n_qubits``; bit ``i`` of the basis index is qubit ``q_i``,
matching character ``i`` of the bitstring convention used everywhere else.

A block of B circuits is rows: ``(B, n_params)`` angles, and ``(B, 2^n)``
states, probabilities and co-states.  ``evolve_block`` runs one, and
``evolve`` is its one-row case.  A rotation layer is the product of
Ry(theta_q) over all qubits, and the kernel applies it in groups of at most
``GROUP_QUBITS`` = 5 qubits of adjacent index bits, qubit 0's group first.
A group of g qubits is one 2^g x 2^g Kronecker block.  Per call, each
layer and row gets its groups' 2^g products of half-angle cosines and
sines (``_layer_products``), and each block is one gather from those
products and their negatives (``_layer_blocks``); the first layer needs
only the products, which are its blocks' first columns.  The kernel
applies a block as one matrix product per row: the group is read from
the bottom index bits and written to the top ones, so after the last
group the index is back in natural order.  The CNOT chain between layers
is one cached gather (``_chain_gather``).  Each row's products have the
same shape whatever B is, so row j equals ``evolve`` of that row bit
for bit.  Fusing a group sums each amplitude in another order than a
gate-by-gate loop, so the two agree to rounding, not bit for bit.

``adjoint_gradients`` is the derivative the optimizer uses: the gradients of
a few weighted diagonal expectations <psi|D_w|psi>, which is what a
vector-Jacobian product ``jac @ w`` of diagonal observables asks for.  It
sweeps the circuit backward once, layer by layer, carrying the state and
one co-state D_w psi per weight vector.  For each group it reads all of the
group's gradients from one overlap matrix per co-state and then undoes the
group with the transposed block, so its cost does not depend on P or on
the number of observables.  It is the only gradient routine; the tests
check it against the parameter-shift Jacobian, to rounding.

Provides conditional value at risk over the energy distribution
(``sorted_cvar``, the one CVaR entry: energies already ascending, one
distribution or a block of them), seeded multinomial shot sampling, and
adjoint gradients of diagonal expectations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import ShotTable
from .exceptions import EmptyDistributionError, EncodingError, ParamLengthError

# most qubits in one Kronecker block: a 32 x 32 matrix per layer and row
GROUP_QUBITS = 5


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


def _group_sizes(n_qubits: int) -> tuple:
    # qubits per rotation group, from qubit 0 up: as few groups as fit
    # GROUP_QUBITS, as even as they can be, the larger ones first
    count = -(-n_qubits // GROUP_QUBITS)
    base, extra = divmod(n_qubits, count)
    return (base + 1,) * extra + (base,) * (count - extra)


@functools.lru_cache(maxsize=4)
def _chain_gather(n_qubits: int) -> np.ndarray:
    """Gather applying the linear CNOT chain in the natural index order.

    The chain sends basis state x to its prefix XOR (new bit j = XOR of old
    bits 0..j), whose inverse is ``x ^ (x << 1)``, so ``np.take(state,
    gather, axis=-1)`` is the chained state.  One ``intp`` per amplitude,
    left writeable: ``np.take`` copies a read-only index array on every call.
    """
    index = np.arange(1 << n_qubits)
    return index ^ ((index << 1) & ((1 << n_qubits) - 1))


@functools.lru_cache(maxsize=4)
def _chain_inverse(n_qubits: int) -> np.ndarray:
    """Gather undoing the CNOT chain, the inverse of ``_chain_gather``.

    It is the prefix XOR of the index, built in place by doubling: setting
    bit k flips every prefix bit from k up.  One ``intp`` per amplitude,
    left writeable as the gather is.
    """
    inverse = np.zeros(1 << n_qubits, dtype=np.intp)
    for k in range(n_qubits):
        flips = (1 << n_qubits) - (1 << k)
        np.bitwise_xor(inverse[: 1 << k], flips, out=inverse[1 << k : 2 << k])
    return inverse


@functools.lru_cache(maxsize=GROUP_QUBITS)
def _ry_pi_table(size: int) -> np.ndarray:
    """``(4^g, g)`` signs turning a group's overlap matrix into g gradients.

    For C[i, k] = sum <psi_i, lambda_k> over the other index bits, the
    gradient of the group's qubit j is <lambda| Ry(pi)_j |psi> = sum over k
    of C[k ^ 2^j, k], counted + where bit j of k is set and - where not.
    """
    dim = 1 << size
    table = np.zeros((dim, dim, size))
    k = np.arange(dim)
    for j in range(size):
        table[k ^ (1 << j), k, j] = np.where(k >> j & 1, 1.0, -1.0)
    table = table.reshape(dim * dim, size)
    table.flags.writeable = False
    return table


def _check_params(ansatz: Ansatz, params) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.shape != (ansatz.n_params,):
        raise ParamLengthError(
            f"expected {ansatz.n_params} parameters, got shape {params.shape}"
        )
    return params


def _check_block(ansatz: Ansatz, block) -> np.ndarray:
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[1] != ansatz.n_params or block.shape[0] < 1:
        raise ParamLengthError(
            f"expected a (B >= 1, {ansatz.n_params}) angle block, "
            f"got shape {block.shape}"
        )
    return block


@functools.lru_cache(maxsize=GROUP_QUBITS)
def _kron_gather(size: int) -> np.ndarray:
    """``(2^g, 2^g)`` gather from ``[P, -P]`` into a group's Kronecker block.

    Ry(theta) = [[c, -s], [s, c]]: entry (r, c) of a Kronecker product of g
    of them takes cos where bits r and c agree and sin where they differ, so
    its magnitude is P[r ^ c], and it is negated once per bit set in c but
    not in r.  Read-only.
    """
    dim = 1 << size
    rows, cols = np.arange(dim)[:, None], np.arange(dim)
    flips = ~rows & cols
    parity = np.zeros_like(flips)
    for j in range(size):
        parity ^= flips >> j & 1
    gather = (rows ^ cols) + dim * parity
    gather.flags.writeable = False
    return gather


def _layer_products(n_qubits: int, block: np.ndarray) -> list:
    """The 2^g cos/sin products of every rotation layer, one array per group.

    For a ``(B, n_params)`` block, qubits lo .. lo + g - 1 get a ``(layers
    + 1, B, 2^g)`` array: entry k multiplies, for each qubit q of the group,
    cos(theta_q / 2) where bit q - lo of k is clear and sin(theta_q / 2)
    where it is set, qubit lo first and each later factor on the left.
    Entry k is column 0 of the group's Kronecker block, row k.  Groups are
    listed from qubit 0 up.
    """
    n = n_qubits
    half = block.reshape(block.shape[0], -1, n).transpose(1, 0, 2) / 2.0
    # (layer, row, qubit, cos or sin)
    factors = np.stack((np.cos(half), np.sin(half)), axis=-1)
    products = []
    lo = 0
    for size in _group_sizes(n):
        prod = factors[:, :, lo]
        for q in range(lo + 1, lo + size):
            # qubit q becomes the top bit of the index
            prod = (factors[:, :, q, :, None] * prod[:, :, None, :]).reshape(
                *prod.shape[:2], -1
            )
        products.append(prod)
        lo += size
    return products


def _layer_blocks(products: list) -> list:
    """Kronecker blocks of ``_layer_products``, one array per group.

    The group of qubits lo .. lo + g - 1 gets an ``(L, B, 2^g, 2^g)``
    array for the L layers of its products, holding Ry(theta_{lo+g-1}) x
    ... x Ry(theta_lo) per layer and row: qubit lo is the lowest bit of
    the group's index.  Each block is
    one gather from its products and their negatives (``_kron_gather``);
    negation is exact, so every entry is the bits of the explicit Kronecker
    product taken qubit lo first.
    """
    blocks = []
    for prod in products:
        signed = np.concatenate((prod, -prod), axis=-1)
        size = prod.shape[-1].bit_length() - 1
        blocks.append(np.take(signed, _kron_gather(size), axis=-1))
    return blocks


def evolve_block(ansatz: Ansatz, block) -> np.ndarray:
    """Run the circuit once per row of a ``(B, n_params)`` angle block.

    Returns the C-contiguous ``(B, 2^n)`` amplitudes the kernel works on;
    row j equals ``evolve(ansatz, block[j])`` bit for bit.  Each group of a
    rotation layer is one matrix product per row, of one shape whatever B
    is (module docstring).
    """
    block = _check_block(ansatz, block)
    n = ansatz.n_qubits
    width = block.shape[0]
    products = _layer_products(n, block)
    # the first layer turns |0> into the product of its blocks' first
    # columns, which are its groups' products; the other layers need blocks
    blocks = _layer_blocks([prod[1:] for prod in products])
    state = products[-1][0]
    for prod in products[-2::-1]:
        state = (state[:, :, None] * prod[0, :, None, :]).reshape(width, -1)
    # state is a C-contiguous (B, 2^n) array, a product or one group's
    # first-layer rows, and the layer loop writes into it and spare
    spare = np.empty_like(state)
    chain = _chain_gather(n)
    for layer in range(1, ansatz.layers + 1):
        # any mode but the default "raise" writes into ``out`` unbuffered
        np.take(state, chain, axis=1, out=spare, mode="clip")
        state, spare = spare, state
        for kron in blocks:
            # the group on the bottom index bits moves to the top ones
            dim = kron.shape[-1]
            np.matmul(
                kron[layer - 1],
                state.reshape(width, -1, dim).transpose(0, 2, 1),
                out=spare.reshape(width, dim, -1),
            )
            state, spare = spare, state
    return state


def evolve(ansatz: Ansatz, params) -> np.ndarray:
    """Run the circuit from the all-zeros state; returns the amplitudes."""
    params = _check_params(ansatz, params)
    return evolve_block(ansatz, params[None]).reshape(-1)


def block_columns(n_qubits: int) -> int:
    """Circuits run together as one block, one row each, at this width.

    This is the number of restarts or primal-dual trajectories
    ``optimize`` advances in lockstep.  A row costs the same matrix
    products at any block width, so a block saves only NumPy's per-call
    overhead, which pays while states are small.  From 13 qubits wider
    blocks measured no faster per circuit than one circuit at a time, so
    circuits run one at a time (crossover table in CHANGES.md).
    """
    if n_qubits <= 10:
        return 64
    if n_qubits <= 12:
        return 32
    return 1


def probabilities(state: np.ndarray) -> np.ndarray:
    return state * state


def sorted_cvar(energies: np.ndarray, probs: np.ndarray, alpha: float):
    """Mean of the lowest-energy tail holding probability mass ``alpha``.

    The one CVaR kernel, for distributions whose energies are already
    ascending.  ``probs`` is one row of probabilities in the order of
    ``energies``, or a ``(B, 2^n)`` block of such rows; the result is a
    float, or one value per row.  The boundary state counts fractionally,
    so the tail holds exactly ``alpha`` (all of a row's mass, if that is
    less), and ``alpha = 1`` is the plain expectation.  Zero-mass entries
    may stay in; they add nothing to the tail.  A row whose tail holds no
    mass, all zeros or ``alpha <= 0``, raises ``EmptyDistributionError``.
    ``ExpectationEngine.cvar_objective`` calls it on a block gathered into
    its pre-sorted diagonal's order.  The block's cumulative sums are one
    row-wise ``cumsum``; each row then takes its own ``searchsorted`` and
    contiguous dot, so a row's value is the same bits as its call alone.
    """
    rows = probs.reshape(-1, probs.shape[-1])
    cums = np.cumsum(rows, axis=1)
    out = np.empty(rows.shape[0])
    for j, (row, cum) in enumerate(zip(rows, cums)):
        mass = min(alpha, float(cum[-1]))
        if not mass > 0.0:
            raise EmptyDistributionError(f"row {j} has no mass in its CVaR tail")
        boundary = int(cum.searchsorted(mass, side="left"))
        total = float(energies[:boundary] @ row[:boundary])
        used = float(cum[boundary - 1]) if boundary else 0.0
        if boundary < energies.size and mass > used:
            total += float(energies[boundary]) * (mass - used)
        out[j] = total / mass
    return out if probs.ndim == 2 else float(out[0])


def sample(state: np.ndarray, shots: int, seed) -> ShotTable:
    """Seeded multinomial draw from the measurement distribution."""
    if shots < 1:
        raise EncodingError("shots must be >= 1")
    probs = probabilities(state)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs)
    n = int(round(math.log2(state.shape[0])))
    hit = np.flatnonzero(drawn)
    counts = {
        bitstring_of(b, n): c for b, c in zip(hit.tolist(), drawn[hit].tolist())
    }
    return ShotTable(counts=counts, shots=shots)


def adjoint_gradients(ansatz: Ansatz, params, state, costates) -> np.ndarray:
    """Gradients of diagonal expectations by one backward sweep.

    ``params`` is one angle vector or a ``(B, n_params)`` block, and
    ``state`` is ``evolve`` (or ``evolve_block``) of it.  Each co-state is
    ``D_w * state`` for a real diagonal D_w in natural index order, row by
    row.  The result is ``(W, n_params)`` for W co-states, or ``(W, B,
    n_params)`` for a block: entry w (of row b) is the gradient of
    <psi|D_w|psi>, and for D_w = sum_m w_m D_m it equals the
    parameter-shift Jacobian's ``jac @ w`` to rounding.

    The sweep walks the rotation layers backward over psi and the
    co-states, each as ``(B, 2^n)``.  psi is copied.  The co-states are
    consumed: where a co-state is C-contiguous the sweep runs in its
    buffer, which ends up holding scratch values, so a caller that still
    needs one passes a copy.  The rotations of a layer commute, and
    Ry(pi)_q commutes with Ry(theta_q), so every gate's gradient
    d<psi|D_w|psi>/d theta_q = <lambda| Ry(pi)_q |psi> may be read anywhere
    inside its layer.  The groups come off in reverse order, each from the
    top index bits.  One matrix product per row and co-state gives the
    group's overlap matrix C = sum psi lambda^T over the other index bits,
    a cached sign table turns C into the group's g gradients
    (``_ry_pi_table``), and one more product undoes the group with its
    transposed Kronecker block.  The CNOT chain is undone by one cached
    gather (``_chain_inverse``).  Every product has the same shape for every
    row, so a row's gradients are the same bits whatever the other rows
    hold.  Besides its inputs the sweep holds two states per row, the copy
    of psi and one spare, when every co-state is swept in place, and one
    more per co-state it has to copy.
    """
    params = np.asarray(params, dtype=float)
    single = params.ndim == 1
    block = _check_block(ansatz, params[None] if single else params)
    n = ansatz.n_qubits
    width = block.shape[0]
    shape = (1 << n,) if single else (width, 1 << n)
    # psi is copied; a co-state is swept in place where it is C-contiguous
    # and overlaps no other co-state, else in a copy
    arrays = [np.array(state, dtype=float, order="C")]
    for lam in costates:
        lam = np.asarray(lam, dtype=float, order="C")
        shared = any(np.may_share_memory(lam, a) for a in arrays[1:])
        arrays.append(lam.copy() if shared else lam)
    if any(a.shape != shape for a in arrays):
        raise EncodingError("state and co-states must hold 2^n amplitudes per row")
    spare = np.empty_like(arrays[0])
    unchain = _chain_inverse(n)
    blocks = _layer_blocks(_layer_products(n, block))
    grads = np.empty((len(costates), width, ansatz.n_params))
    for layer in reversed(range(ansatz.layers + 1)):
        hi = n
        for kron in reversed(blocks):
            # the group sits on the top index bits; undoing it moves it to
            # the bottom ones
            dim = kron.shape[-1]
            size = dim.bit_length() - 1
            lo = hi - size
            psi, *lams = (a.reshape(width, dim, -1) for a in arrays)
            for w, lam in enumerate(lams):
                overlap = np.matmul(psi, lam.transpose(0, 2, 1))
                gates = np.matmul(overlap.reshape(width, 1, -1), _ry_pi_table(size))
                grads[w, :, layer * n + lo : layer * n + hi] = gates[:, 0]
            if not (layer or lo):
                # the first gates of the circuit: nothing left to undo
                break
            for i, a in enumerate(arrays):
                np.matmul(
                    a.reshape(width, dim, -1).transpose(0, 2, 1),
                    kron[layer],
                    out=spare.reshape(width, -1, dim),
                )
                arrays[i], spare = spare, a
            hi = lo
        if layer:
            for i, a in enumerate(arrays):
                np.take(a, unchain, axis=-1, out=spare, mode="clip")
                arrays[i], spare = spare, a
    return grads[:, 0] if single else grads
