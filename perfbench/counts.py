"""Counts the benchmark checks verdicts against, computed without moritalab.

Nothing here imports the package under test.  The E1 counts are closed
forms; the E2 counts are Burnside counts made with plain numpy.

E1 glues k x k to k x k with one-dimensional bimodules M = e1 M e2 and
N = e1 N e2, so a left tuple is a pair of A2-quiver representations,
f: X2 -> Y1 and g: Y2 -> X1.  Such a representation is classified by its
dimension vector and the rank of its map, and it is projective exactly when
the map is injective, injective exactly when the map is surjective.

E2 glues k[x]/(x^2) to k with M the regular bimodule and N = 0, so a left
tuple is a pair (x, f) with x a square-zero operator on X and f: X -> Y any
linear map, up to the action (h, k).(x, f) = (h x h^-1, k f h^-1) of
GL(X) x GL(Y).  The tuple is projective exactly when X is free over
k[x]/(x^2) (rank x = dim X / 2) and f is injective.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def _dimension_vectors(bound: int):
    """(x1, x2, y1, y2) with x1 + x2 <= bound and y1 + y2 <= bound."""
    for x1, x2, y1, y2 in itertools.product(range(bound + 1), repeat=4):
        if x1 + x2 <= bound and y1 + y2 <= bound:
            yield x1, x2, y1, y2


def e1_tuple_classes(bound: int) -> int:
    return sum((min(x2, y1) + 1) * (min(y2, x1) + 1)
               for x1, x2, y1, y2 in _dimension_vectors(bound))


def e1_projective_classes(bound: int) -> int:
    return sum(1 for x1, x2, y1, y2 in _dimension_vectors(bound)
               if x2 <= y1 and y2 <= x1)


def e1_injective_classes(bound: int) -> int:
    return sum(1 for x1, x2, y1, y2 in _dimension_vectors(bound)
               if y1 <= x2 and x1 <= y2)


def semisimple_pair_module_classes(bound: int) -> int:
    """Modules over k x k of dimension <= bound: one per split d = a + b."""
    return sum(d + 1 for d in range(bound + 1))


def dual_numbers_module_classes(bound: int) -> int:
    """Modules over k[x]/(x^2) of dimension <= bound: Jordan blocks of size <= 2."""
    return sum(d // 2 + 1 for d in range(bound + 1))


def rank_mod_p(m: np.ndarray, p: int) -> int:
    """Rank over GF(p) by plain Gaussian elimination on Python integers."""
    rows = [[int(v) % p for v in row] for row in m]
    rank = 0
    for c in range(m.shape[1]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _all_matrices(rows: int, cols: int, p: int) -> np.ndarray:
    entries = list(itertools.product(range(p), repeat=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(len(entries), rows, cols)


def _general_linear(n: int, p: int) -> np.ndarray:
    mats = _all_matrices(n, n, p)
    return mats[[rank_mod_p(m, p) == n for m in mats]]


def _fixed_counts(left: np.ndarray, right: np.ndarray, objects: np.ndarray,
                  p: int) -> np.ndarray:
    """counts[i, j] = #{z in objects : left[i] z = z right[j]} over GF(p)."""
    lz = np.einsum("iab,zbc->izac", left, objects) % p
    zr = np.einsum("zab,jbc->jzac", objects, right) % p
    equal = (lz[:, None] == zr[None, :]).all(axis=(3, 4))
    return equal.sum(axis=2)


def _commuting_counts(group: np.ndarray, objects: np.ndarray, p: int) -> np.ndarray:
    """counts[i] = #{z in objects : group[i] z = z group[i]} over GF(p)."""
    gz = np.einsum("iab,zbc->izac", group, objects) % p
    zg = np.einsum("zab,ibc->izac", objects, group) % p
    return (gz == zg).all(axis=(2, 3)).sum(axis=1)


def e2_tuple_classes(p: int, bound: int, projective_only: bool = False) -> int:
    """Orbits of GL(X) x GL(Y) on pairs (x, f), by Burnside's lemma.

    With projective_only, counts the orbits inside the invariant subset of
    pairs with rank x = dim X / 2 and f injective.
    """
    total = Fraction(0)
    for dx, dy in itertools.product(range(bound + 1), repeat=2):
        gx, gy = _general_linear(dx, p), _general_linear(dy, p)
        xs = _all_matrices(dx, dx, p)
        xs = xs[[not np.any((x @ x) % p) for x in xs]]
        fs = _all_matrices(dy, dx, p)
        if projective_only:
            xs = xs[[2 * rank_mod_p(x, p) == dx for x in xs]]
            fs = fs[[rank_mod_p(f, p) == dx for f in fs]]
        if len(xs) == 0 or len(fs) == 0:
            continue
        # (h, k) fixes (x, f) iff h x = x h and k f = f h; the two conditions
        # are independent, so Fix(h, k) is a product of two counts.
        fixed_x = _commuting_counts(gx, xs, p)
        fixed_f = _fixed_counts(gy, gx, fs, p)          # [k, h]
        fixed = int((fixed_f * fixed_x[None, :]).sum())
        total += Fraction(fixed, len(gx) * len(gy))
    if total.denominator != 1:
        raise ArithmeticError(f"Burnside count is not an integer: {total}")
    return int(total)
