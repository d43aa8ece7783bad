"""Shared test helpers: small-GCM enumeration and grid-search oracles."""

from itertools import product

from kmx.exact import int_mat


def all_small_gcms(n, lo=-3):
    """Every n x n GCM with off-diagonal entries in [lo, 0] (zero-symmetric)."""
    pairs = [(0, 0)] + [(a, b) for a in range(lo, 0) for b in range(lo, 0)]
    idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for combo in product(pairs, repeat=len(idx)):
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), (a, b) in zip(idx, combo):
            m[i][j], m[j][i] = a, b
        yield int_mat(m)


def grid_certificate(a, relation, bound=8):
    """Exhaustive search for positive integer certificates with coords <= bound."""
    n = len(a)
    for u in product(range(1, bound + 1), repeat=n):
        vals = [sum(r * x for r, x in zip(row, u)) for row in a]
        if relation == "gt" and all(v > 0 for v in vals):
            return u
        if relation == "lt" and all(v < 0 for v in vals):
            return u
    return None
