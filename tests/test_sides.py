"""Tuple operations on both sides and in odd characteristic.

Every tuple operation reads its layout from ``morita.tuple_layout``.  These
properties run on all enumerated left and right tuples of E1 and E2 over
GF(p), p in {2, 3, 5}: at bound 2 for p = 2 and 3, at bound 1 for p = 5.
"""

import numpy as np
import pytest

from moritalab.algebra import LEFT, RIGHT, dual_module, module_sum
from moritalab.enumeration import (delta_short_exact_sequences,
                                   enumerate_delta_modules, invariant_subspaces)
from moritalab.functors import check_adjunction
from moritalab.morita import (delta_direct_sum, delta_dual, delta_sum, pack,
                              unpack)
from moritalab.report import Verdict
from moritalab.workspace import (Workspace, emit_workspace, parse_workspace,
                                 workspaces_equal)

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
            sequences = delta_short_exact_sequences(v)
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
