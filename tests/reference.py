"""Constructions that the library replaced, kept for the tests as
references: the transposed structure maps of a tuple, built as module maps
into hom modules, and the epi classes decided on their kernels (replaced in
``classes.in_epi_class`` by the structural cokernels of the dual); and the
extension walk that builds every short exact sequence of a non-member
before it asks about any of them (replaced by ``classes.extensions_of``,
which builds a quotient only for a member sub)."""

import numpy as np

from moritalab import linalg as la
from moritalab.algebra import (ModuleMap, kernel_module, quotient_module,
                               submodule)
from moritalab.classes import universe_of
from moritalab.enumeration import delta_invariant_pairs, invariant_subspaces
from moritalab.morita import (CORNERS, DeltaModule, by_corner, delta_quotient,
                              delta_submodule, delta_sum)
from moritalab.tensor import hom_over_algebra


def transposed(blocks, hom):
    """The matrix sending component basis vector j to the element of the
    hom module ``hom`` whose value at bimodule basis vector i is column j of
    block i: one solve, every column a right-hand side."""
    columns = blocks.transpose(2, 1, 0)
    size = hom.target.dim * hom.source.dim
    stacked = la.zeros(size, hom.dim)
    for k, basis_map in enumerate(hom.basis):
        stacked[:, k] = la.vec(basis_map)
    coords = la.solve(stacked, columns.reshape(len(columns), size).T, hom.p)
    assert coords is not None, "a column is not a module map"
    return coords


def tilde(v, corner):
    """The transpose of the structure map leaving the ``corner`` component,
    checked: for a left tuple x -> Hom(M, y) from f ("a") and
    y -> Hom(N, x) from g ("b"); on the right Hom(N, y) and Hom(M, x)."""
    own, other = by_corner(corner, v.x, v.y)
    bimodule, _ = by_corner(corner, v.layout.f_bimodule, v.layout.g_bimodule)
    blocks, _ = by_corner(corner, v.f_blocks, v.g_blocks)
    hom = hom_over_algebra(bimodule, other)
    return ModuleMap(own, hom.module, transposed(blocks, hom))


def eliminated_tilde_kernel(v, corner):
    """The kernel of ``tilde(v, corner)`` with its inclusion, eliminated, or
    None when that map is not onto."""
    t = tilde(v, corner)
    if la.rank(t.matrix, v.p) != t.target.dim:
        return None
    return kernel_module(t)


def reference_in_epi_class(v, class_a, class_b):
    """Both transposed maps onto, with kernels in the component classes."""
    parts = [eliminated_tilde_kernel(v, corner) for corner in CORNERS]
    return (all(part is not None for part in parts)
            and class_a.contains(parts[0][0])
            and class_b.contains(parts[1][0]))


def sampled_pair_sums(tuples, count, seed):
    """``count`` sums of two of ``tuples``, the pairs drawn with ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(count if tuples else 0):
        i, j = rng.integers(len(tuples), size=2)
        yield delta_sum([tuples[i], tuples[j]])


def short_exact_sequences(obj):
    """Every 0 -> sub -> obj -> quotient -> 0 from an invariant span, in
    enumeration order, as (sub, inclusion, quotient, projection)."""
    if isinstance(obj, DeltaModule):
        return [delta_submodule(obj, xs, ys) + delta_quotient(obj, xs, ys)
                for xs, ys in delta_invariant_pairs(obj)]
    return [submodule(obj, span.T) + quotient_module(obj, span)[:2]
            for span in invariant_subspaces(obj)]


def reference_extension_witness(left, bound):
    """The first (sub, middle, quotient) with both ends in the left class
    and the middle outside it, or None, from the sequences of each
    non-member built in full before the first is asked about."""
    for whole in universe_of(left.ring, left.side, bound):
        if left.contains(whole):
            continue
        for sub, _, quot, _ in short_exact_sequences(whole):
            if left.contains(sub) and left.contains(quot):
                return sub, whole, quot
    return None
