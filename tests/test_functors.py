import numpy as np
import pytest

from moritalab import classes, functors
from moritalab import linalg as la
from moritalab.algebra import LEFT, RIGHT, Module, hom_space
from moritalab.classes import builtin_oracles, check_functor_membership
from moritalab.enumeration import enumerate_delta_modules, enumerate_modules
from moritalab.functors import (
    check_adjunction,
    coinduce_from_a,
    coinduce_from_b,
    component_a,
    component_b,
    induce_from_a,
    induce_from_b,
    induce_map,
)
from moritalab.morita import (CORNERS, DeltaModule, DeltaModuleMap, by_corner,
                              delta_hom_space, delta_is_isomorphic,
                              is_projective_delta)
from moritalab.report import AlgebraMismatchError, Verdict
from moritalab.tensor import hom_over_algebra
from reference import tilde, transposed


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
    lifted = induce_map(e2, phi, "a")
    assert lifted.source.x is reg
    assert lifted.target.x is k
    assert np.array_equal(lifted.a_matrix, phi.matrix)


def test_tilde_maps_have_matching_endpoints(e1):
    for v in enumerate_delta_modules(e1, LEFT, 1):
        tf = tilde(v, "a")
        tg = tilde(v, "b")
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


def _assert_refuted_by_a_wrong_adjoint(fresh, monkeypatch, kind, block):
    """Put a zero ``block`` ("corner" or "other") in every map that
    ``induced_adjoint`` builds, and assert that the check refutes every
    pair whose tuple homs have that block nonzero.  Co-induction pairs are
    checked on the duals, through ``induced_adjoint``, so the wrong adjoint
    is put there for both kinds.  Outcomes are memoised by value, so the
    wrong adjoint is asked about the tuples of a second fresh parse of E2,
    equal to the first one's but of values that no check has seen."""
    right = functors.induced_adjoint
    at = 0 if block == "corner" else 1

    def wrong(ind, v, mat, corner):
        phi = right(ind, v, mat, corner)
        blocks = list(by_corner(corner, phi.a_matrix, phi.b_matrix))
        blocks[at] = 0 * blocks[at]
        return DeltaModuleMap._intertwining(phi.source, phi.target,
                                            *by_corner(corner, *blocks))

    e2, twin = (fresh("E2").single_context() for _ in range(2))
    caught = 0
    for corner in CORNERS:
        algebra, _ = by_corner(corner, e2.algebra_a, e2.algebra_b)
        plain = algebra.regular_module(LEFT)
        twin_plain = by_corner(corner, twin.algebra_a,
                               twin.algebra_b)[0].regular_module(LEFT)
        made = getattr(functors, kind)(e2, plain, corner)
        pair = f"{kind}-{corner}"
        for v, twin_v in zip(enumerate_delta_modules(e2, LEFT, 2),
                             enumerate_delta_modules(twin, LEFT, 2)):
            ends = (made, v) if kind == "induce" else (v, made)
            homs = delta_hom_space(*ends)
            if not any(by_corner(corner, h.a_matrix, h.b_matrix)[at].any()
                       for h in homs):
                continue
            assert check_adjunction(e2, plain, v, pair).verdict is Verdict.PASS
            with monkeypatch.context() as patch:
                patch.setattr(functors, "induced_adjoint", wrong)
                report = check_adjunction(twin, twin_plain, twin_v, pair)
            assert report.verdict is Verdict.REFUTED
            assert report.detail == "composites are not mutually inverse"
            caught += 1
    assert caught


@pytest.mark.parametrize("kind", ["induce", "coinduce"])
def test_the_adjunction_check_refutes_a_wrong_adjoint(fresh, monkeypatch,
                                                     kind):
    # The adjoint maps are built unchecked, so an adjoint that is wrong
    # outside the corner must be caught by the round trip itself.
    _assert_refuted_by_a_wrong_adjoint(fresh, monkeypatch, kind, "other")


@pytest.mark.parametrize("kind", ["induce", "coinduce"])
def test_the_adjunction_check_refutes_a_wrong_corner_block(fresh,
                                                           monkeypatch, kind):
    # The check runs one round, backward . forward = id on the tuple homs;
    # an adjoint whose corner block is not its argument fails that round.
    _assert_refuted_by_a_wrong_adjoint(fresh, monkeypatch, kind, "corner")


def test_an_adjunction_is_checked_once_per_value(fresh, monkeypatch):
    """Equal objects built twice are checked once: the second ask runs no
    hom space.  Each call builds its own report, so changing one report
    does not change the next."""
    ctx = fresh("E2").single_context()
    template = enumerate_delta_modules(ctx, LEFT, 2)[-1]

    def built(corner):
        algebra = by_corner(corner, ctx.algebra_a, ctx.algebra_b)[0]
        regular = algebra.regular_module(LEFT)
        plain = Module(algebra, LEFT, regular.dim, regular.actions.copy(),
                       name="plain")
        v = DeltaModule(ctx, LEFT, template.x, template.y,
                        template.f_plain.copy(), template.g_plain.copy(),
                        name="v")
        return plain, v

    bodies, real = [], functors.delta_hom_space
    monkeypatch.setattr(functors, "delta_hom_space",
                        lambda *ends: bodies.append(ends) or real(*ends))
    for pair in ("induce-a", "induce-b", "coinduce-a", "coinduce-b"):
        corner = pair[-1]
        first, second = built(corner), built(corner)
        bodies.clear()
        report = check_adjunction(ctx, *first, pair)
        assert len(bodies) == 1
        again = check_adjunction(ctx, *second, pair)
        assert len(bodies) == 1
        assert again == report and again is not report
        assert report.verdict is Verdict.PASS
        report.detail = "changed"
        report.witnesses.append({"changed": True})
        assert check_adjunction(ctx, *second, pair) == again


def reference_check_adjunction(ctx, plain, v, pair):
    """The adjunction check with a branch per kind and both rounds: a
    co-induction pair is checked on ``coinduce`` and ``coinduced_adjoint``,
    and forward . backward = id is checked on the plain hom basis besides
    backward . forward = id on the tuple hom basis.  The reference for
    ``check_adjunction``, which reads co-induction through the dual and
    checks the second round only."""
    name = f"adjunction-{pair}"
    kind, _, corner = pair.partition("-")
    own = functors.component(v, corner)
    if kind == "induce":
        ind = functors.induce(ctx, plain, corner)
        tuple_homs = delta_hom_space(ind, v)
        plain_homs = hom_space(plain, own)

        def backward(mat):
            return functors.induced_adjoint(ind, v, mat, corner)
    else:
        coind = functors.coinduce(ctx, plain, corner)
        tuple_homs = delta_hom_space(v, coind)
        plain_homs = hom_space(own, plain)

        def backward(mat):
            return functors.coinduced_adjoint(v, coind, mat, corner)

    if len(tuple_homs) != len(plain_homs):
        return (name, Verdict.REFUTED,
                f"hom dimensions differ: {len(tuple_homs)} vs {len(plain_homs)}")

    def forward(dm):
        return by_corner(corner, dm.a_matrix, dm.b_matrix)[0]

    def restored(dm):
        back = backward(forward(dm))
        return (np.array_equal(back.a_matrix, dm.a_matrix)
                and np.array_equal(back.b_matrix, dm.b_matrix))

    if (all(np.array_equal(forward(backward(h.matrix)), h.matrix)
            for h in plain_homs)
            and all(restored(dm) for dm in tuple_homs)):
        return (name, Verdict.PASS,
                f"bijection verified on hom spaces of dim {len(plain_homs)}")
    return (name, Verdict.REFUTED, "composites are not mutually inverse")


@pytest.mark.parametrize("name", ["E0", "E1", "E2"])
@pytest.mark.parametrize("p", [2, 3])
def test_the_adjunction_check_matches_the_two_branch_reference(fixture_over,
                                                               name, p):
    ctx = fixture_over(name, p).single_context()
    checked = 0
    for side in (LEFT, RIGHT):
        regular = dict(zip(CORNERS, (ctx.algebra_a.regular_module(side),
                                     ctx.algebra_b.regular_module(side))))
        for v in enumerate_delta_modules(ctx, side, 2):
            for corner in CORNERS:
                for kind in ("induce", "coinduce"):
                    pair = f"{kind}-{corner}"
                    report = check_adjunction(ctx, regular[corner], v, pair)
                    assert (report.name, report.verdict, report.detail) == \
                        reference_check_adjunction(ctx, regular[corner], v,
                                                   pair)
                    checked += 1
    assert checked


def _evaluation_plain(hom, lay):
    """Evaluation on plain tensor coordinates: in the block of bimodule
    basis vector i, column k is the value of basis map k at i."""
    blocks = np.zeros((hom.source.dim, hom.target.dim, hom.dim), dtype=np.int64)
    for k, mat in enumerate(hom.basis):
        blocks[:, :, k] = mat.T
    return lay.unblocks(blocks) % hom.p


def reference_coinduce(ctx, module, corner):
    """Co-induction built by hand and checked: X |-> (X, Hom(N, X)) on the
    left, the structure map into X evaluation on the basis of the hom
    module.  The reference for ``functors.coinduce``, which reads induction
    through the dual."""
    lay = functors._corner_layout(ctx, module, corner)
    own, other = by_corner(corner, lay.f_bimodule, lay.g_bimodule)
    hom = hom_over_algebra(other, module)
    return DeltaModule(ctx, module.side,
                       *by_corner(corner, module, hom.module),
                       *by_corner(corner, la.zeros(hom.dim, own.dim * module.dim),
                                  _evaluation_plain(hom, lay)),
                       name=f"coind_{corner}[{module.describe()}]")


def reference_coinduced_adjoint(v, coind, mat, corner):
    """The adjoint v -> coind of mat on the hom-module basis of
    ``reference_coinduce``, checked: through the structure map of v
    entering the corner, then mat, read as an element of the hom module."""
    _, entering = by_corner(corner, v.f_blocks, v.g_blocks)
    _, hommed_from = by_corner(corner, coind.layout.f_bimodule,
                               coind.layout.g_bimodule)
    hom = hom_over_algebra(hommed_from, functors.component(coind, corner))
    other = transposed((mat @ entering) % v.p, hom)
    return DeltaModuleMap(v, coind, *by_corner(corner, mat, other))


@pytest.mark.parametrize("name", ["E0", "E1", "E2"])
@pytest.mark.parametrize("p", [2, 3])
def test_coinduction_through_the_dual_matches_the_hom_construction(
        fixture_over, monkeypatch, name, p):
    # The reference adjoint of the identity of x is the comparison map of
    # the two co-inductions.  Maps into a co-induced tuple are fixed by
    # their corner block, so each new adjoint, followed by it, must be the
    # reference adjoint of the same block.
    ctx = fixture_over(name, p).single_context()
    for side in (LEFT, RIGHT):
        tuples = enumerate_delta_modules(ctx, side, 1)
        for corner in CORNERS:
            algebra, _ = by_corner(corner, ctx.algebra_a, ctx.algebra_b)
            for x in enumerate_modules(algebra, side, 2):
                coind = functors.coinduce(ctx, x, corner)
                assert functors.component(coind, corner) is x
                assert functors.coinduce(ctx, x, corner) is coind
                reference = reference_coinduce(ctx, x, corner)
                assert delta_is_isomorphic(coind, reference) is not None
                comparison = reference_coinduced_adjoint(
                    coind, reference, la.eye(x.dim), corner)
                assert la.rank(comparison.matrix, p) == coind.dim
                for v in tuples:
                    for h in hom_space(functors.component(v, corner), x):
                        phi = functors.coinduced_adjoint(v, coind, h.matrix,
                                                         corner)
                        assert phi.source is v and phi.target is coind
                        assert np.array_equal(
                            by_corner(corner, phi.a_matrix, phi.b_matrix)[0],
                            h.matrix)
                        DeltaModuleMap(phi.source, phi.target, phi.a_matrix,
                                       phi.b_matrix)
                        want = reference_coinduced_adjoint(v, reference,
                                                           h.matrix, corner)
                        assert np.array_equal(comparison.compose(phi).matrix,
                                              want.matrix)

    def coinduce(ctx, module, corner):   # clause names read this name
        return reference_coinduce(ctx, module, corner)

    kinds = ("flat", "injective", "all")
    for left in kinds:
        for right in kinds:
            quad = dict(
                c1=builtin_oracles(ctx.algebra_a, LEFT)[left],
                c2=builtin_oracles(ctx.algebra_a, RIGHT)[right],
                d1=builtin_oracles(ctx.algebra_b, LEFT)[left],
                d2=builtin_oracles(ctx.algebra_b, RIGHT)[right])
            got = check_functor_membership(ctx, bound=2, **quad).to_dict()
            with monkeypatch.context() as patch:
                patch.setattr(classes, "coinduce", coinduce)
                want = check_functor_membership(ctx, bound=2, **quad).to_dict()
            assert got == want
