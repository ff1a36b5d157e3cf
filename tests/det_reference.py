"""Test-only determinant by the Leibniz formula, independent of every
elimination the package runs."""

import itertools
from math import prod


def leibniz_det(g):
    n = len(g)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(g[i][perm[i]] for i in range(n))
    return total
