"""Class oracles and the duality-pair machinery on its own."""

import weakref
from importlib import resources

import numpy as np
import pytest

from moritalab import morita
from moritalab.algebra import LEFT, RIGHT, Module
from moritalab.classes import (
    ClassOracle,
    DualityPairSpec,
    _closure_witnesses,
    builtin_oracles,
    check_duality_transfer,
    check_functor_membership,
    check_injective_structure,
    check_perfect_pair,
    in_component_class,
    in_epi_class,
    in_mono_class,
    universe_of,
    verify_duality_pair,
    verify_oracle,
)
from moritalab.enumeration import enumerate_modules
from moritalab.functors import induce_from_a
from moritalab.morita import DeltaModule
from moritalab.report import ValidationError, Verdict
from moritalab.workspace import parse_workspace


def simple(ctx):
    return Module(ctx.algebra_a, LEFT, 1,
                  np.array([[[1]], [[0]]], dtype=np.int64), name="k")


def test_flat_oracle_over_dual_numbers(e2):
    flat = builtin_oracles(e2.algebra_a, LEFT)["flat"]
    assert flat.contains(e2.algebra_a.regular_module(LEFT))
    assert not flat.contains(simple(e2))


def test_fp_injective_equals_injective_here(e2):
    fp = builtin_oracles(e2.algebra_a, RIGHT)["fp-injective"]
    inj = builtin_oracles(e2.algebra_a, RIGHT)["injective"]
    for x in enumerate_modules(e2.algebra_a, RIGHT, 2):
        assert fp.contains(x) == inj.contains(x)


def test_builtin_oracles_verify_their_closure_properties(e1):
    for kind in ("projective", "injective", "flat"):
        oracle = builtin_oracles(e1.algebra_a, LEFT)[kind]
        report = verify_oracle(oracle, 2)
        assert report.ok, report.detail


def test_flat_injective_duality_pair(e2):
    flat = builtin_oracles(e2.algebra_a, LEFT)["flat"]
    inj = builtin_oracles(e2.algebra_a, RIGHT)["injective"]
    report = verify_duality_pair(DualityPairSpec(flat, inj, 2))
    assert report.verdict is Verdict.PASS


def test_perfection_of_the_flat_class(e2):
    flat = builtin_oracles(e2.algebra_a, LEFT)["flat"]
    inj = builtin_oracles(e2.algebra_a, RIGHT)["injective"]
    report = check_perfect_pair(DualityPairSpec(flat, inj, 2))
    assert report.ok
    names = [c.name for c in report.clauses]
    assert any("perfection" in n for n in names)


def test_mono_class_membership_tracks_the_cokernel(e2):
    flat_a = builtin_oracles(e2.algebra_a, LEFT)["flat"]
    flat_b = builtin_oracles(e2.algebra_b, LEFT)["flat"]
    anything_a = builtin_oracles(e2.algebra_a, LEFT)["all"]
    ta = induce_from_a(e2, simple(e2))
    # f is an isomorphism and g has zero source, so the cokernel of g is
    # the simple itself: flat fails, the unconstrained class accepts
    assert not in_mono_class(ta, flat_a, flat_b)
    assert in_mono_class(ta, anything_a, flat_b)


def test_component_class_membership(ws_e2, e2):
    inj_a = builtin_oracles(e2.algebra_a, LEFT)["injective"]
    inj_b = builtin_oracles(e2.algebra_b, LEFT)["injective"]
    assert in_component_class(ws_e2.tuples["Delta"], inj_a, inj_b)
    bad = induce_from_a(e2, simple(e2))
    assert not in_component_class(bad, inj_a, inj_b)


def test_epi_class_on_the_dual_side(e2):
    fp_a = builtin_oracles(e2.algebra_a, RIGHT)["fp-injective"]
    fp_b = builtin_oracles(e2.algebra_b, RIGHT)["fp-injective"]
    from moritalab.morita import delta_dual
    dual = delta_dual(induce_from_a(e2, e2.algebra_a.regular_module(LEFT)))
    assert in_epi_class(dual, fp_a, fp_b)


def test_functor_membership_rejects_misconfigured_classes(e2):
    flat_a = builtin_oracles(e2.algebra_a, LEFT)["flat"]
    flat_b = builtin_oracles(e2.algebra_b, LEFT)["flat"]
    inj_b = builtin_oracles(e2.algebra_b, RIGHT)["injective"]
    with pytest.raises(ValidationError, match="opposite-side"):
        check_functor_membership(e2, flat_a, flat_a, flat_b, inj_b, 1)
    from moritalab.report import AlgebraMismatchError
    inj_a = builtin_oracles(e2.algebra_a, RIGHT)["injective"]
    with pytest.raises(AlgebraMismatchError):
        check_functor_membership(e2, flat_b, inj_a, flat_b, inj_b, 1)


def test_injective_structure_smoke(e2):
    report = check_injective_structure(e2, 1)
    assert report.verdict is Verdict.PASS, report.detail


def reference_closure_witness(cls, bound):
    """The first pair whose sum breaks sum-and-summand closure, scanned for
    this class alone."""
    objs = universe_of(cls.ring, cls.side, bound)
    for i, u in enumerate(objs):
        for v in objs[i:]:
            if (cls.contains(u) and cls.contains(v)) != cls.contains(u.plus(v)):
                return u, v
    return None


def dimension(obj):
    return obj.x.dim + obj.y.dim if isinstance(obj, DeltaModule) else obj.dim


# isomorphism invariant and holding the zero module; only "zero" is closed
# under finite sums and summands.  The first witness of "dim<=2" comes after
# those of "dim<=1" and "dim-even", which share theirs.
DIMENSION_CLASSES = {
    "dim<=1": lambda obj: dimension(obj) <= 1,   # not closed under sums
    "dim-even": lambda obj: dimension(obj) % 2 == 0,   # nor under summands
    "dim<=2": lambda obj: dimension(obj) <= 2,
    "zero": lambda obj: dimension(obj) == 0,
}


def dimension_oracles(ring, side):
    return [ClassOracle(name, ring, side, member)
            for name, member in DIMENSION_CLASSES.items()]


@pytest.mark.parametrize("name", ["E1", "E2"])
def test_one_closure_scan_finds_each_class_its_own_witness(fixture_over, name):
    ctx = fixture_over(name, 2).single_context()
    for ring in (ctx.algebra_a, ctx):
        for side in (LEFT, RIGHT):
            classes = dimension_oracles(ring, side)
            found = _closure_witnesses(ring, side, 2, *classes)
            reference = [reference_closure_witness(cls, 2) for cls in classes]
            assert [w is None for w in reference] == [False] * 3 + [True]
            assert reference[0] == reference[1] != reference[2]
            assert found == tuple(reference)


@pytest.mark.parametrize("name", ["E1", "E2"])
def test_unclosed_right_classes_are_refuted_with_their_witness(fixture_over,
                                                               name):
    ctx = fixture_over(name, 2).single_context()
    for left, right in zip(dimension_oracles(ctx, LEFT),
                           dimension_oracles(ctx, RIGHT)):
        report = verify_duality_pair(DualityPairSpec(left, right, 2))
        character, closure = report.clauses
        assert character.verdict is Verdict.PASS   # dim D(v) = dim v
        witness = reference_closure_witness(right, 2)
        if witness is None:
            assert report.verdict is Verdict.PASS
            assert closure.witnesses == []
        else:
            assert report.verdict is closure.verdict is Verdict.REFUTED
            assert closure.witnesses == [{"first": witness[0].describe(),
                                          "second": witness[1].describe()}]


def test_the_transfer_builds_each_pair_sum_once_and_keeps_none(monkeypatch):
    """Theorem 3.3's three tuple classes share one walk over the right
    tuples: one sum per unordered pair, each gone before the next is built.
    A fresh copy of E1 carries no memoised scan."""
    ctx = parse_workspace(resources.files("moritalab").joinpath(
        "data", "E1.txt").read_text()).single_context()
    quad = [builtin_oracles(algebra, side)[kind]
            for algebra in (ctx.algebra_a, ctx.algebra_b)
            for side, kind in ((LEFT, "flat"), (RIGHT, "injective"))]
    built = []

    def tracked(tuples):
        assert not built or built[-1]() is None
        total = delta_sum(tuples)
        built.append(weakref.ref(total))
        return total

    delta_sum = morita.delta_sum
    monkeypatch.setattr(morita, "delta_sum", tracked)
    report = check_duality_transfer(ctx, *quad, 2)
    n = len(universe_of(ctx, RIGHT, 2))
    assert report.verdict is Verdict.PASS
    assert (n, len(built)) == (57, 57 * 58 // 2)
