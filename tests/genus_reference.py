"""Test-only reference for class enumeration: a wide scan plus isometry
dedup.

The scan covers a reduced *shape* that holds several Grams per class:
ascending diagonal, every off-diagonal entry at most half the diagonal
in absolute value, the product bound g11*g22*g33 <= 2*det.  Every class
has a Minkowski-reduced Gram in this shape, so the scan is complete;
``dedup_isometry`` then keeps one Gram per class by pairwise
``is_isometric`` tests.  This is the route the package used before it
enumerated canonical forms directly, kept as an independent check on it.
"""

from k3lat.genus import ReducedForm, is_isometric, vector_counts

# Vectors up to this norm key the buckets that isometric forms share.
PROFILE_BOUND = 32


def wide_scan(rank, det):
    """Every even positive-definite Gram of the reduced shape."""
    if rank == 1:
        grams = [((det,),)] if det % 2 == 0 else []
    elif rank == 2:
        grams = []
        g11 = 2
        while 3 * g11 * g11 <= 4 * det:
            for g12 in range(-(g11 // 2), g11 // 2 + 1):
                g22, rem = divmod(det + g12 * g12, g11)
                if not rem and g22 >= g11 and g22 % 2 == 0:
                    grams.append(((g11, g12), (g12, g22)))
            g11 += 2
    else:
        grams = []
        g11 = 2
        while g11 ** 3 <= 2 * det:
            h11 = g11 // 2
            for g12 in range(-h11, h11 + 1):
                for g13 in range(-h11, h11 + 1):
                    g22 = g11
                    while g11 * g22 * g22 <= 2 * det:
                        m2 = g11 * g22 - g12 * g12
                        for g23 in range(-(g22 // 2), g22 // 2 + 1):
                            num = (det - 2 * g12 * g13 * g23
                                   + g11 * g23 * g23 + g22 * g13 * g13)
                            g33, rem = divmod(num, m2)
                            if (not rem and g33 >= g22 and g33 % 2 == 0
                                    and g11 * g22 * g33 <= 2 * det):
                                grams.append(((g11, g12, g13), (g12, g22, g23),
                                              (g13, g23, g33)))
                        g22 += 2
            g11 += 2
    return [ReducedForm(g) for g in grams]


def dedup_isometry(forms):
    """One form per isometry class, bucketed by vector counts."""
    buckets = {}
    reps = []
    for f in forms:
        bucket = buckets.setdefault(vector_counts(f.gram, PROFILE_BOUND), [])
        if not any(is_isometric(f, r) for r in bucket):
            bucket.append(f)
            reps.append(f)
    return reps


def reference_classes(rank, det):
    """One form per class of the rank and determinant, by the wide route."""
    return dedup_isometry(wide_scan(rank, det))
