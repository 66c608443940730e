import numpy as np
import pytest

from moritalab import functors
from moritalab.algebra import LEFT, Module
from moritalab.enumeration import enumerate_delta_modules
from moritalab.functors import (
    check_adjunction,
    coinduce_from_a,
    coinduce_from_b,
    component_a,
    component_b,
    induce_from_a,
    induce_from_a_map,
    induce_from_b,
    tilde_f,
    tilde_g,
)
from moritalab.morita import (CORNERS, DeltaModuleMap, by_corner,
                              delta_hom_space, is_projective_delta)
from moritalab.report import AlgebraMismatchError, Verdict


def simple(e2):
    return Module(e2.algebra_a, LEFT, 1,
                  np.array([[[1]], [[0]]], dtype=np.int64), name="k")


def test_induction_keeps_the_component(e2):
    k = simple(e2)
    ta = induce_from_a(e2, k)
    assert induce_from_a(e2, k) is ta
    assert component_a(ta) is k
    assert ta.y.dim == 1          # M (x) k collapses the radical
    assert ta.side == LEFT


def test_induction_of_the_regular_is_projective(e1, e2):
    for ctx in (e1, e2):
        reg = ctx.algebra_a.regular_module(LEFT)
        assert is_projective_delta(induce_from_a(ctx, reg))
        reg_b = ctx.algebra_b.regular_module(LEFT)
        assert is_projective_delta(induce_from_b(ctx, reg_b))


def test_induction_rejects_the_wrong_corner(e2):
    k_b = e2.algebra_b.regular_module(LEFT)
    with pytest.raises(AlgebraMismatchError):
        induce_from_a(e2, k_b)


def test_coinduction_components(e2):
    k = simple(e2)
    ha = coinduce_from_a(e2, k)
    assert ha.x is k
    assert ha.y.dim == 0          # Hom(N, k) with N = 0
    reg_b = e2.algebra_b.regular_module(LEFT)
    hb = coinduce_from_b(e2, reg_b)
    assert hb.y is reg_b
    assert hb.x.dim == 2          # Hom(M, k) has the dimension of M


def test_induced_map_is_functorial(e2):
    reg = e2.algebra_a.regular_module(LEFT)
    k = simple(e2)
    from moritalab.algebra import hom_space
    maps = [phi for phi in hom_space(reg, k) if np.any(phi.matrix)]
    assert maps
    phi = maps[0]
    lifted = induce_from_a_map(e2, phi)
    assert lifted.source.x is reg
    assert lifted.target.x is k
    assert np.array_equal(lifted.a_matrix, phi.matrix)


def test_tilde_maps_have_matching_endpoints(e1):
    for v in enumerate_delta_modules(e1, LEFT, 1):
        tf = tilde_f(v)
        tg = tilde_g(v)
        assert tf.source is v.x
        assert tg.source is v.y


@pytest.mark.parametrize("pair", ["induce-a", "induce-b",
                                  "coinduce-a", "coinduce-b"])
def test_adjunctions_hold_on_enumerated_tuples(e2, pair):
    corner = e2.algebra_a if pair.endswith("a") else e2.algebra_b
    plain = corner.regular_module(LEFT)
    for v in enumerate_delta_modules(e2, LEFT, 1):
        report = check_adjunction(e2, plain, v, pair)
        assert report.verdict is Verdict.PASS, report.detail


def test_adjunctions_hold_on_the_semisimple_fixture(e1):
    k = Module(e1.algebra_a, LEFT, 1,
               np.array([[[1]], [[0]]], dtype=np.int64), name="s1")
    for v in enumerate_delta_modules(e1, LEFT, 1):
        for pair in ("induce-a", "coinduce-a"):
            report = check_adjunction(e1, k, v, pair)
            assert report.verdict is Verdict.PASS, report.detail


@pytest.mark.parametrize("kind", ["induce", "coinduce"])
def test_the_adjunction_check_refutes_a_wrong_adjoint(e2, monkeypatch, kind):
    # The adjoint maps are built unchecked, so an adjoint that is wrong
    # outside the corner must be caught by the round trip itself.
    right = getattr(functors, f"{kind}d_adjoint")

    def zero_outside_the_corner(*args):
        phi, corner = right(*args), args[-1]
        own, other = by_corner(corner, phi.a_matrix, phi.b_matrix)
        return DeltaModuleMap._intertwining(
            phi.source, phi.target, *by_corner(corner, own, 0 * other))

    caught = 0
    for corner in CORNERS:
        algebra, _ = by_corner(corner, e2.algebra_a, e2.algebra_b)
        plain = algebra.regular_module(LEFT)
        made = getattr(functors, kind)(e2, plain, corner)
        pair = f"{kind}-{corner}"
        for v in enumerate_delta_modules(e2, LEFT, 2):
            ends = (made, v) if kind == "induce" else (v, made)
            homs = delta_hom_space(*ends)
            if not any(by_corner(corner, h.a_matrix, h.b_matrix)[1].any()
                       for h in homs):
                continue
            assert check_adjunction(e2, plain, v, pair).verdict is Verdict.PASS
            with monkeypatch.context() as patch:
                patch.setattr(functors, f"{kind}d_adjoint",
                              zero_outside_the_corner)
                report = check_adjunction(e2, plain, v, pair)
            assert report.verdict is Verdict.REFUTED
            assert report.detail == "composites are not mutually inverse"
            caught += 1
    assert caught
