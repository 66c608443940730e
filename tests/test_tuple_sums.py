"""Structural cokernels of tuple sums, assembled from their summands',
against the eliminating body they replaced, kept here as the reference."""

import gc
import weakref

import numpy as np
import pytest

from moritalab import morita
from moritalab import linalg as la
from moritalab.algebra import LEFT, RIGHT, quotient_module
from moritalab.classes import builtin_oracles
from moritalab.enumeration import enumerate_delta_modules
from moritalab.functors import induce
from moritalab.morita import (CORNERS, by_corner, delta_sum,
                              structural_cokernel, zero_delta_module)


def eliminated_cokernel(v, corner):
    """The cokernel of the structure map entering ``corner``, eliminated
    from the image of that map: the reference for ``structural_cokernel``."""
    _, entering = by_corner(corner, v.f_map, v.g_map)
    image = la.image_basis(entering.matrix, v.p)
    if image.shape[0] != entering.source.dim:
        return None
    return quotient_module(entering.target, image.T)[:2]


def assert_same_part(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    (module, mp), (want_module, want_mp) = got, want
    assert module.dim == want_module.dim
    assert module.side == want_module.side
    assert module.algebra is want_module.algebra
    assert np.array_equal(module.actions, want_module.actions)
    assert np.array_equal(mp.matrix, want_mp.matrix)
    assert module.name == want_module.name
    assert (mp.source.dim, mp.target.dim) == (want_mp.source.dim, want_mp.target.dim)


def refuse(*args):
    raise AssertionError("a sum was eliminated instead of assembled")


def compare_sum(total, monkeypatch):
    """Every structural cokernel of ``total`` is assembled without
    elimination and equals the eliminated one; returns the number of
    comparisons."""
    for summand in total.summands:
        for corner in CORNERS:
            structural_cokernel(summand, corner)
    got = {}
    with monkeypatch.context() as patched:
        if total.summands:
            patched.setattr(morita, "quotient_module", refuse)
        for corner in CORNERS:
            got[corner] = structural_cokernel(total, corner)
    for corner in CORNERS:
        assert_same_part(got[corner], eliminated_cokernel(total, corner))
    return len(got)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E0", "E1", "E2"])
def test_parts_of_pairwise_sums_equal_the_eliminated_ones(fixture_over,
                                                          monkeypatch, name, p):
    ctx = fixture_over(name, p).single_context()
    compared = 0
    for side in (LEFT, RIGHT):
        tuples = enumerate_delta_modules(ctx, side, 2)
        for i, u in enumerate(tuples):
            for v in tuples[i:]:
                compared += compare_sum(delta_sum([u, v]), monkeypatch)
    assert compared > 0


@pytest.mark.parametrize("p", [2, 3])
def test_the_dual_of_a_pairwise_sum_assembles_its_parts(fixture_over,
                                                        monkeypatch, p):
    # The dual of a sum is the sum of the summands' duals, so it records
    # them, and its parts are assembled from theirs.
    ctx = fixture_over("E1", p).single_context()
    for side in (LEFT, RIGHT):
        tuples = enumerate_delta_modules(ctx, side, 2)
        for i, u in enumerate(tuples):
            for v in tuples[i:]:
                dual = delta_sum([u, v]).dual
                assert dual.summands == tuple(t.dual for t in (u, v) if t.dim)
                assert dual.x.summands == tuple(
                    t.x.dual for t in (u, v) if t.x.dim)
                compare_sum(dual, monkeypatch)


@pytest.mark.parametrize("p", [2, 3])
def test_parts_of_nested_and_degenerate_sums(fixture_over, monkeypatch, p):
    ctx = fixture_over("E1", p).single_context()
    for side in (LEFT, RIGHT):
        tuples = enumerate_delta_modules(ctx, side, 2)
        zero = zero_delta_module(ctx, side)
        lopsided = [t for t in tuples if t.dim and not (t.x.dim and t.y.dim)]
        assert lopsided, "no tuple with a zero component at bound 2"
        first, last = tuples[1], tuples[-1]
        inner = delta_sum([first, last])
        sums = [delta_sum([inner, first]), delta_sum([last, inner, inner]),
                delta_sum([zero, last, zero]), delta_sum([zero]),
                delta_sum([zero, zero]), delta_sum([last]),
                delta_sum([lopsided[0], last, lopsided[-1]]),
                delta_sum([delta_sum([zero, lopsided[0]]), lopsided[-1]])]
        assert sums[2].summands == (last,)
        assert sums[3].summands == ()
        for total in sums:
            compare_sum(total, monkeypatch)


def test_returned_modules_are_not_memoised(e1):
    # The arrays of a part are memoised on its tuple, but each call builds a
    # new module and map on them, so whatever is memoised on a returned
    # module (class membership, induced tuples, tensor products) dies with it.
    flat = builtin_oracles(e1.algebra_a, LEFT)["flat"]
    tuples = enumerate_delta_modules(e1, LEFT, 2)
    owners = [v for v in tuples if structural_cokernel(v, "a") is not None]
    for v in (owners[-1], delta_sum([owners[0], owners[-1]])):
        module, mp = structural_cokernel(v, "a")
        again, _ = structural_cokernel(v, "a")
        assert again is not module and again.actions is module.actions
        flat.contains(module)
        induce(e1, module, "a")
        alive = weakref.ref(module)
        del module, mp, again
        gc.collect()
        assert alive() is None
