"""Protein structure prediction on FCC and tetrahedral lattices.

The package compiles lattice protein folding into diagonal pseudo-Boolean
Hamiltonians (dense penalty-fit form or constrained Lagrangian form),
optimizes them with simulated variational quantum algorithms, and validates
results against classical exhaustive search.

Submodules
----------
lattice
    Turn encodings, codeword tables, the encoding layout and mode names,
    integer geometry.
pb
    Multilinear pseudo-Boolean polynomial algebra.
scoring
    Pairwise contact-energy matrices and peptide handling.
polyfit
    Chebyshev penalty fits for the dense (slack-free) overlap terms.
hamiltonian
    Indicator/position polynomials, problem assembly.
search
    Classical exhaustive conformation search oracle.
sim
    Real-amplitude statevector simulator, sampling, adjoint gradients.
optimize
    CVaR-VQE and primal-dual constrained optimization loops.
analysis
    Sample decoding, radius of gyration, file formats.
pipeline
    Run manifests and the fit, assemble, solve, sample, decode chain; each
    stage imports the layers it runs, so a search never loads the simulator,
    the optimizer or the Hamiltonian.
cli
    Command-line surface.
"""

__version__ = "0.1.0"
