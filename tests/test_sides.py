"""Tuple operations on both sides and in odd characteristic.

Every tuple operation reads its layout from ``morita.tuple_layout``.  These
properties run on all enumerated left and right tuples of E1 and E2 over
GF(p), p in {2, 3, 5}: at bound 2 for p = 2 and 3, at bound 1 for p = 5.
"""

import numpy as np
import pytest

from moritalab.algebra import (LEFT, RIGHT, ModuleMap, dual_module, hom_space,
                               module_sum)
from moritalab.enumeration import (enumerate_delta_modules, enumerate_modules,
                                   invariant_subspaces)
from moritalab.functors import check_adjunction
from moritalab.morita import (DeltaModuleMap, delta_direct_sum, delta_dual,
                              delta_hom_space, delta_sum, pack, unpack)
from moritalab.report import Verdict
from moritalab.workspace import (Workspace, emit_workspace, parse_workspace,
                                 workspaces_equal)
from reference import short_exact_sequences

BOUND = {2: 2, 3: 2, 5: 1}

pytestmark = [pytest.mark.parametrize("side", [LEFT, RIGHT]),
              pytest.mark.parametrize("p", sorted(BOUND))]


def enumerated(fixture_over, side, p):
    """(context, tuples) for E1 and E2 over GF(p)."""
    for name in ("E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        yield ctx, enumerate_delta_modules(ctx, side, BOUND[p])


def assert_same_tuple(got, want):
    assert got.side == want.side
    assert np.array_equal(got.x.actions, want.x.actions)
    assert np.array_equal(got.y.actions, want.y.actions)
    assert np.array_equal(got.f_plain, want.f_plain)
    assert np.array_equal(got.g_plain, want.g_plain)


def test_pack_unpack_round_trip_on_the_nose(fixture_over, side, p):
    for ctx, tuples in enumerated(fixture_over, side, p):
        for v in tuples:
            assert_same_tuple(unpack(pack(v), ctx), v)


def test_double_dual_on_the_nose(fixture_over, side, p):
    for _, tuples in enumerated(fixture_over, side, p):
        for v in tuples:
            dual = delta_dual(v)
            assert dual.side != side
            assert_same_tuple(delta_dual(dual), v)


def test_the_dual_is_one_object_and_self_inverse(fixture_over, side, p):
    """Every entry point gives the one dual an object keeps, and the dual of
    the dual is the object itself, for modules over both corners and for
    tuples.  Tuples that share a component share its dual."""
    for ctx, tuples in enumerated(fixture_over, side, p):
        modules = [m for algebra in (ctx.algebra_a, ctx.algebra_b)
                   for m in enumerate_modules(algebra, side, BOUND[p])]
        for m in modules:
            assert dual_module(m) is m.dual
            assert m.dual.dual is m and m.dual.side != side
        for v in tuples:
            assert delta_dual(v) is v.dual
            assert v.dual.dual is v
            assert v.dual.x is v.x.dual and v.dual.y is v.y.dual


def test_map_duals_transpose_between_the_duals(fixture_over, side, p):
    """A map's dual runs from its target's dual to its source's dual with the
    transposed matrix, passes the full map check, and has the map as its
    dual: hom bases of modules over both corners and of tuples."""
    for ctx, tuples in enumerated(fixture_over, side, p):
        maps = []
        for algebra in (ctx.algebra_a, ctx.algebra_b):
            modules = enumerate_modules(algebra, side, BOUND[p])
            maps += [phi for u, v in zip(modules, reversed(modules))
                     for phi in hom_space(u, v)]
        maps += [phi for u, v in zip(tuples, reversed(tuples))
                 for phi in delta_hom_space(u, v)]
        assert maps
        for phi in maps:
            dual = phi.dual
            assert dual.source is phi.target.dual
            assert dual.target is phi.source.dual
            assert np.array_equal(dual.matrix, phi.matrix.T)
            assert dual.dual is phi
            if isinstance(phi, DeltaModuleMap):
                DeltaModuleMap(dual.source, dual.target, dual.a_matrix,
                               dual.b_matrix)
            else:
                ModuleMap(dual.source, dual.target, dual.matrix)


def test_dual_commutes_with_pack(fixture_over, side, p):
    for ctx, tuples in enumerated(fixture_over, side, p):
        for v in tuples:
            assert_same_tuple(unpack(dual_module(pack(v)), ctx), delta_dual(v))


def test_sum_is_the_unpacked_sum_of_packed_modules(fixture_over, side, p):
    for ctx, tuples in enumerated(fixture_over, side, p):
        for u, v in zip(tuples, reversed(tuples)):
            # The witnesses of delta_direct_sum are validated tuple maps.
            total = delta_direct_sum([u, v])[0]
            assert_same_tuple(delta_sum([u, v]), total)
            assert_same_tuple(total, unpack(module_sum([pack(u), pack(v)]), ctx))


def test_adjunctions(fixture_over, side, p):
    for ctx, tuples in enumerated(fixture_over, side, p):
        for v in tuples:
            for pair in ("induce-a", "induce-b", "coinduce-a", "coinduce-b"):
                corner = ctx.algebra_a if pair.endswith("a") else ctx.algebra_b
                report = check_adjunction(ctx, corner.regular_module(side), v, pair)
                assert report.verdict is Verdict.PASS, (v.name, pair, report.detail)


def test_short_exact_sequences(fixture_over, side, p):
    for _, tuples in enumerated(fixture_over, side, p):
        for v in tuples:
            sequences = short_exact_sequences(v)
            # A submodule of the packed module splits along the corner
            # idempotents, so it is exactly one sub-tuple.
            assert len(sequences) == len(invariant_subspaces(pack(v)))
            for sub, incl, quot, proj in sequences:
                assert sub.dim + quot.dim == v.dim
                assert proj.compose(incl).is_zero()


def test_workspace_round_trip_keeps_the_structure_maps(fixture_over, side, p):
    for name in ("E1", "E2"):
        ws = fixture_over(name, p)
        tuples = enumerate_delta_modules(ws.single_context(), side, BOUND[p])
        out = Workspace(p=ws.p, algebras=ws.algebras, bimodules=ws.bimodules,
                        contexts=ws.contexts)
        for k, v in enumerate(tuples):
            out.modules[f"x{k}"], out.modules[f"y{k}"] = v.x, v.y
            out.tuples[f"t{k}"] = v
        back = parse_workspace(emit_workspace(out))
        assert workspaces_equal(out, back)
