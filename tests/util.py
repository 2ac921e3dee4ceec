"""Shared helpers for the test suite."""

import numpy as np

from qfold import lattice as lat


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
    """The expectation engine's former one-vector F evaluation."""
    grid = probs.reshape(1 << engine.n_ancillas, 1 << engine.n_config)
    marginal = grid.sum(axis=0)
    total = float(marginal @ engine.tables.base_table)
    for idx, table in engine.tables.pair_tables.items():
        total += float(grid[engine._row_masks[idx]].sum(axis=0) @ table)
    out = np.empty(1 + engine.n_constraints)
    out[0] = total
    for m, table in enumerate(engine.tables.constraint_tables, start=1):
        out[m] = float(marginal @ table)
    return out
