"""Numerical toolkit for symbol calculus on stratified model domains.

Parses classical elliptic symbols, certifies order estimates, stratifies
model domains with corner singularities, computes factorization indices,
checks the Fredholm criterion |index - s| < 1/2 per stratum, and verifies
locality, partition-of-unity assembly, paired-operator indices and the
index of Toeplitz products on discrete lattice realizations.
"""

__version__ = "0.1.0"
