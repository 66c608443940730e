"""Class oracles and the duality-pair machinery on its own."""

import sys
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from moritalab import classes, morita
from moritalab import linalg as la
from moritalab.algebra import (LEFT, RIGHT, Module, endomorphism_algebra,
                               is_indecomposable, is_local, submodule)
from moritalab.cli import run
from moritalab.classes import (
    ClassOracle,
    DualityPairSpec,
    _closure_witnesses,
    _extension_witness,
    builtin_oracles,
    check_complete_transfer,
    check_duality_transfer,
    check_functor_membership,
    check_injective_structure,
    check_perfect_pair,
    check_perfect_transfer,
    component_class_oracle,
    epi_class_oracle,
    in_component_class,
    in_epi_class,
    in_mono_class,
    mono_class_oracle,
    universe_keys,
    universe_of,
    verify_duality_pair,
    verify_oracle,
)
from moritalab.enumeration import enumerate_delta_modules, enumerate_modules
from moritalab.functors import induce_from_a
from moritalab.morita import (DeltaModule, delta_submodule, is_flat_delta,
                              is_injective_delta, is_projective_delta)
from moritalab.report import (CheckReport, InternalCheckError, ValidationError,
                              Verdict)
from moritalab.workspace import _list_oracle, parse_workspace
from reference import (reference_extension_witness, reference_in_epi_class,
                       sampled_pair_sums)

ROOT = Path(__file__).resolve().parent.parent


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


def reference_sum_witness(cls, bound):
    """The first pair of members whose sum leaves the class, scanned over
    the members of this class alone."""
    members = [obj for obj in universe_of(cls.ring, cls.side, bound)
               if cls.contains(obj)]
    for i, u in enumerate(members):
        for v in members[i:]:
            if not cls.contains(u.plus(v)):
                return u, v
    return None


def dimension(obj):
    return obj.x.dim + obj.y.dim if isinstance(obj, DeltaModule) else obj.dim


# isomorphism invariant and holding the zero module; only "zero" is closed
# under finite sums and summands, and "dim-even" is closed under sums.  The
# first closure witness of "dim<=2" comes after those of "dim<=1" and
# "dim-even", which share theirs.  "dim-0-or-2" first fails summands, at a
# pair of one-dimensional objects, and only later sums, at a pair of
# two-dimensional ones.
DIMENSION_CLASSES = {
    "dim<=1": lambda obj: dimension(obj) <= 1,   # not closed under sums
    "dim-even": lambda obj: dimension(obj) % 2 == 0,   # nor under summands
    "dim<=2": lambda obj: dimension(obj) <= 2,
    "dim-0-or-2": lambda obj: dimension(obj) in (0, 2),
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
            found = _closure_witnesses(ring, side, 2, tuple(classes))
            closure = [reference_closure_witness(cls, 2) for cls in classes]
            sums = [reference_sum_witness(cls, 2) for cls in classes]
            assert [w is None for w in closure] == [False] * 4 + [True]
            assert [w is None for w in sums] == [False, True, False, False,
                                                 True]
            assert closure[0] == closure[1] != closure[2]
            assert dimension(closure[3][0]) == 1
            assert dimension(sums[3][0]) == 2
            assert found == tuple(zip(closure, sums))


def test_a_later_walk_serves_only_the_classes_without_a_result(e1):
    """Each class keeps its witnesses.  A walk for more classes over the
    same universe asks only the new ones, and returns the kept results of
    the others unchanged."""
    first, *rest = dimension_oracles(e1, RIGHT)
    kept = _closure_witnesses(e1, RIGHT, 2, (first,))
    first.member = None     # asking it about a new sum would fail
    found = _closure_witnesses(e1, RIGHT, 2, (first, *rest))
    assert found[0] is kept[0]
    assert found[1:] == tuple((reference_closure_witness(cls, 2),
                               reference_sum_witness(cls, 2)) for cls in rest)


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


def pair_key(u, v):
    """The Krull-Schmidt key of u + v for two objects of one universe at
    bound 2: the sum of their keys (``universe_keys``)."""
    keys = dict(zip(map(id, universe_of(u.ring, u.side, 2)),
                    universe_keys(u.ring, u.side, 2)))
    return u.side, tuple(a + b for a, b in zip(keys[id(u)], keys[id(v)]))


def test_the_transfer_builds_each_pair_sum_once_and_keeps_none(monkeypatch):
    """Theorem 3.3's three tuple classes share one walk over the right
    tuples: one sum per isomorphism class of pair sums, 574 of the
    57 * 58 / 2 pairs, each gone before the next is built, and no two with
    the same key.  A fresh copy of E1 carries no memoised scan."""
    ctx = parse_workspace(resources.files("moritalab").joinpath(
        "data", "E1.txt").read_text()).single_context()
    quad = [builtin_oracles(algebra, side)[kind]
            for algebra in (ctx.algebra_a, ctx.algebra_b)
            for side, kind in ((LEFT, "flat"), (RIGHT, "injective"))]
    built, summands = [], []

    def tracked(tuples):
        assert not built or built[-1]() is None
        total = delta_sum(tuples)
        built.append(weakref.ref(total))
        summands.append(tuples)
        return total

    delta_sum = morita.delta_sum
    monkeypatch.setattr(morita, "delta_sum", tracked)
    report = check_duality_transfer(ctx, *quad, 2)
    n = len(universe_of(ctx, RIGHT, 2))
    assert report.verdict is Verdict.PASS
    assert (n, len(built)) == (57, 574)
    assert len({pair_key(u, v) for u, v in summands}) == 574


def test_theorem_3_6_builds_each_pair_sum_once_and_keeps_none(tmp_path,
                                                             monkeypatch):
    """Theorem 3.6 at bound 2 on a fresh copy of E1: the perfect and the
    complete halves share one walk over the left tuples and one over the
    right ones, and the direct-sum clauses of perfection read that walk, so
    one sum is built for each of the 574 isomorphism classes of pair sums
    of either universe, with no key twice, each sum gone before the next is
    built."""
    fixture = tmp_path / "E1.txt"
    fixture.write_text(resources.files("moritalab").joinpath(
        "data", "E1.txt").read_text())
    built, summands = [], []

    def tracked(tuples):
        assert not built or built[-1]() is None
        total = delta_sum(tuples)
        built.append(weakref.ref(total))
        summands.append(tuples)
        return total

    delta_sum = morita.delta_sum
    monkeypatch.setattr(morita, "delta_sum", tracked)
    assert run(["theorem", "3.6", "--fixture", str(fixture),
                "--bound", "2"]) == 2
    assert len(built) == 2 * 574 == 1148
    assert len({pair_key(u, v) for u, v in summands}) == 1148


def test_the_transfer_builds_one_dual_per_left_tuple(monkeypatch):
    """Theorem 3.3's three tuple pairs scan the same left tuples in their
    character clauses, and the epi class is decided on the dual of each
    right tuple and of each pair sum its closure walk builds.  A tuple
    keeps its dual, so each of the 57 left tuples, the 57 right tuples and
    the 574 right pair sums, one per key, is dualised once for all three
    pairs, and no tuple twice.  A fresh copy of E1 carries no duals."""
    ctx = parse_workspace(resources.files("moritalab").joinpath(
        "data", "E1.txt").read_text()).single_context()
    quad = [builtin_oracles(algebra, side)[kind]
            for algebra in (ctx.algebra_a, ctx.algebra_b)
            for side, kind in ((LEFT, "flat"), (RIGHT, "injective"))]
    built, summands = [], []
    derived = DeltaModule._derived.__func__

    def recording(cls, *args):
        if sys._getframe(1).f_code.co_name == "delta_dual":
            built.append((args[1], args[-1]))   # the dual's side and name
        return derived(cls, *args)

    def tracked(tuples):
        summands.append(tuples)
        return delta_sum(tuples)

    delta_sum = morita.delta_sum
    monkeypatch.setattr(morita, "delta_sum", tracked)
    monkeypatch.setattr(DeltaModule, "_derived", classmethod(recording))
    report = check_duality_transfer(ctx, *quad, 2)
    assert report.verdict is Verdict.PASS
    assert len(universe_of(ctx, LEFT, 2)) == len(universe_of(ctx, RIGHT, 2)) \
        == 57
    assert len(built) == len(set(built)) == 57 + 57 + 574 == 688
    assert sum(side == RIGHT for side, _ in built) == 57
    assert len(summands) == len({pair_key(u, v) for u, v in summands}) == 574


@pytest.mark.parametrize("at,row", [(2, "mono-epi"), (3, "componentwise")])
def test_a_refuted_tuple_pair_refutes_its_equivalence(e1, monkeypatch, at, row):
    """The refuted side of either equivalence is reachable only through a
    wrong pair report.  On E1 both hypotheses and both membership conditions
    hold, so forcing the mono/epi report, then the componentwise report, to
    refuted must refute the matching equivalence row and the harness, and
    leave the other row consistent."""
    quad = [builtin_oracles(algebra, side)[kind]
            for algebra in (e1.algebra_a, e1.algebra_b)
            for side, kind in ((LEFT, "flat"), (RIGHT, "fp-injective"))]
    other = {"mono-epi": "componentwise", "componentwise": "mono-epi"}[row]
    for harness, reporter, kind in (
            (check_perfect_transfer, "_perfect_pairs", "perfect"),
            (check_complete_transfer, "_complete_pairs", "complete")):
        def broken(specs, real=getattr(classes, reporter)):
            reports = real(specs)
            reports[at] = CheckReport(reports[at].name, Verdict.REFUTED)
            return reports

        monkeypatch.setattr(classes, reporter, broken)
        report = harness(e1, *quad, 1)
        rows = {clause.name: clause.verdict for clause in report.clauses}
        assert report.verdict is Verdict.REFUTED
        assert rows[f"{kind}-equivalence({row})"] is Verdict.REFUTED
        assert rows[f"{kind}-equivalence({other})"] is Verdict.CONSISTENT


def workspace_over(name, p):
    """A new parse of the shipped fixture or test workspace ``name`` with
    its ``field 2`` line set to ``field p``."""
    if name.startswith("T2"):
        text = (ROOT / "tests" / "workspaces" / f"{name}.txt").read_text()
    else:
        text = resources.files("moritalab").joinpath(
            "data", f"{name}.txt").read_text()
    return parse_workspace(text.replace("field 2", f"field {p}", 1))


@pytest.mark.parametrize("name, p, bound", [
    ("E1", 2, 2), ("E1", 3, 2), ("E2", 2, 2), ("E2", 3, 2), ("T2-k", 2, 2),
    ("T2-k-op", 2, 2), ("T2-kx", 2, 2), ("E1", 5, 1), ("E2", 5, 1),
    ("T2-k", 5, 1), ("T2-k-op", 5, 1), ("T2-kx", 5, 1)])
def test_the_epi_class_read_on_the_dual_equals_the_tilde_kernels(name, p,
                                                                 bound):
    """``in_epi_class`` decides the transposed structure maps on the
    structural cokernels of the dual.  It must agree with the reference,
    which builds each transposed map into its hom module and eliminates its
    kernel, on every tuple up to the bound and on sampled pair sums, for
    the builtin classes and the dimension classes.  Each tuple classifier
    has two routes and raises when they disagree, so the classifiers are
    asked too; in the third characteristic, GF(5), nothing else asks them.
    """
    ctx = workspace_over(name, p).single_context()
    rings = (ctx.algebra_a, ctx.algebra_b)
    members = 0
    for side in (LEFT, RIGHT):
        tuples = enumerate_delta_modules(ctx, side, bound)
        assert len(tuples) >= 5
        a, b = (builtin_oracles(ring, side) for ring in rings)
        pairs = [(a[kind], b[kind]) for kind in a] + list(
            zip(*(dimension_oracles(ring, side) for ring in rings)))
        for v in tuples + list(sampled_pair_sums(tuples, 20, seed=28)):
            is_projective_delta(v), is_injective_delta(v), is_flat_delta(v)
            for class_a, class_b in pairs:
                got = in_epi_class(v, class_a, class_b)
                assert got == reference_in_epi_class(v, class_a, class_b), \
                    (v.describe(), class_a.name)
                members += got
    assert members


def test_the_extension_clause_builds_a_quotient_only_for_a_member_sub(
        monkeypatch):
    """The left classes of ``theorem 3.6 --c1 simples`` on E2, whose list
    oracle holds the simple A2-module, at bound 3 on a new parse, so no
    verdict is memoised: every quotient that perfection builds belongs to a
    sub of the class, and some are built."""
    ws = parse_workspace(
        (ROOT / "tests" / "workspaces" / "E2-simples.txt").read_text())
    ctx = ws.single_context()
    simples = ws.oracles["simples"]
    flat_k = builtin_oracles(ctx.algebra_b, LEFT)["flat"]
    subs = []

    def recording(build, sub_of):
        def wrapped(obj, *spans):
            subs.append(sub_of(obj, *spans)[0])
            return build(obj, *spans)
        return wrapped

    monkeypatch.setattr(classes, "quotient_module", recording(
        classes.quotient_module, lambda m, span: submodule(m, span.T)))
    monkeypatch.setattr(classes, "delta_quotient", recording(
        classes.delta_quotient, delta_submodule))
    built = 0
    for left in (simples, flat_k, mono_class_oracle(ctx, simples, flat_k),
                 component_class_oracle(ctx, simples, flat_k)):
        subs.clear()
        classes._verify_perfection(left, 3)
        assert all(left.contains(sub) for sub in subs), left.name
        built += len(subs)
    assert built


@pytest.mark.parametrize("name, p", [
    ("E1", 2), ("E1", 3), ("E2", 2), ("E2", 3), ("T2-k", 2), ("T2-kx", 2)])
def test_the_lazy_extension_walk_finds_the_eager_witness(name, p):
    """The extension clause, which builds a quotient only for a member sub,
    finds the witness of the reference walk, which builds every sequence
    first, at bound 2.  The classes: the builtin classes of both corners;
    the one-dimensional modules of the first corner as a member list
    ("simples"); the componentwise class of the projectives, which passes;
    and the componentwise, mono and epi classes of (simples, flat), which
    are all refuted.  The tuple classes of the other builtin kinds are left
    out: each walks every non-member, which takes seconds in all."""
    ctx = workspace_over(name, p).single_context()
    a, b = (builtin_oracles(ring, LEFT) for ring in (ctx.algebra_a,
                                                      ctx.algebra_b))
    simples = _list_oracle("simples", ctx.algebra_a, LEFT, [
        m for m in enumerate_modules(ctx.algebra_a, LEFT, 1) if m.dim == 1])
    lefts = [*a.values(), *b.values(), simples,
             component_class_oracle(ctx, a["projective"], b["projective"])] + [
        make(ctx, simples, b["flat"]) for make in (
            component_class_oracle, mono_class_oracle, epi_class_oracle)]
    refuted = []
    for left in lefts:
        got = _extension_witness(left, 2)
        want = reference_extension_witness(left, 2)
        assert (got is None) == (want is None), left.name
        if got is not None:
            assert [(obj.describe(), obj.value_key()) for obj in got] \
                == [(obj.describe(), obj.value_key()) for obj in want], left.name
            refuted.append(left)
    assert refuted[-4:] == [simples, *lefts[-3:]]


def invertible_hom(x, y, rng, tries: int = 256):
    """The matrix of an isomorphism x -> y, found among ``tries`` random
    combinations of the hom basis, or None.  A combination of hom basis
    maps is a module map, so an invertible one certifies x and y
    isomorphic; the isomorphism scan would try up to p^dim Hom of them."""
    homs = x.homs(y)
    if not homs or x.dim != y.dim:
        return None
    basis = np.stack([phi.matrix for phi in homs])
    coeffs = rng.integers(0, x.p, size=(tries, len(basis)))
    maps = np.tensordot(coeffs, basis, axes=1) % x.p
    found = np.flatnonzero(la.nonsingular_mask(maps, x.p))
    return maps[found[0]] if found.size else None


@pytest.mark.parametrize("name, p, bound", [
    ("E1", 2, 2), ("E1", 3, 2), ("E2", 2, 2), ("E2", 3, 2), ("T2-kx", 2, 2),
    ("T2-k", 2, 1)])
def test_equal_keys_mean_isomorphic_sums(name, p, bound):
    """Pair sums with one Krull-Schmidt key are isomorphic: in each key
    group, every sum is checked against the group's first sum, for the
    tuples and for the plain modules over the first corner, by an
    invertible map among seeded random combinations of their hom basis, or
    else by the isomorphism scan (``isomorphism()``), which alone would
    exceed the default budget on some sums (2^24 candidates over GF(2),
    3^20 over GF(3)).
    Sums with different keys differ in some dim Hom(I, -), so they are not
    isomorphic."""
    ctx = workspace_over(name, p).single_context()
    rng = np.random.default_rng(32)
    checked = 0
    for ring in (ctx, ctx.algebra_a):
        objs = universe_of(ring, LEFT, bound)
        keys = universe_keys(ring, LEFT, bound)
        assert keys is not None and len(set(keys)) == len(objs)
        groups: dict = {}
        for i, u in enumerate(objs):
            for j in range(i, len(objs)):
                key = tuple(a + b for a, b in zip(keys[i], keys[j]))
                groups.setdefault(key, []).append((u, objs[j]))
        for pairs in groups.values():
            first = pairs[0][0].plus(pairs[0][1])
            for u, v in pairs[1:]:
                total = u.plus(v)
                assert (invertible_hom(total, first, rng) is not None
                        or total.isomorphism(first) is not None), \
                    (u.describe(), v.describe())
                checked += 1
    assert checked


@pytest.mark.parametrize("name, p, bound", [
    ("E1", 2, 2), ("E1", 3, 2), ("E2", 2, 2), ("E2", 3, 2), ("T2-kx", 2, 2),
    ("T2-k", 2, 2)])
def test_the_local_endomorphism_test_matches_an_idempotent_scan(name, p,
                                                                bound):
    """A nonzero module is indecomposable exactly when End(M) has no
    idempotent but 0 and 1.  Every object of both universes, tuples (on
    their packed modules) and plain modules over the first corner, with
    dim End <= 8 is scanned for one, against ``is_indecomposable`` and
    against the local test of its End algebra alone, without the
    certificates that ``is_indecomposable`` reads first."""
    ctx = workspace_over(name, p).single_context()
    scanned = {True: 0, False: 0}
    for ring in (ctx, ctx.algebra_a):
        for obj in universe_of(ring, LEFT, bound)[1:]:
            module = obj.packed if isinstance(obj, DeltaModule) else obj
            basis = np.stack([phi.matrix for phi in module.homs(module)])
            if len(basis) > 8:
                continue
            codes = np.arange(p ** len(basis))
            digits = (codes[:, None] // p ** np.arange(len(basis))) % p
            maps = np.tensordot(digits, basis, axes=1) % p
            idempotent = ((maps @ maps - maps) % p == 0).all(axis=(1, 2))
            trivial = (maps == 0).all(axis=(1, 2)) | (
                maps == np.eye(module.dim, dtype=np.int64)).all(axis=(1, 2))
            split = bool((idempotent & ~trivial).any())
            assert is_indecomposable(module) is not split, obj.describe()
            assert is_local(endomorphism_algebra(module)) is not split, \
                obj.describe()
            scanned[split] += 1
    assert scanned[True] and scanned[False]


def test_the_walk_without_keys_gives_the_same_reports(tmp_path, monkeypatch):
    """With no keys, the closure walk builds every pair's sum, as it did
    before it read them; theorems 3.3 and 3.6 on E1 at bound 2 report the
    same, row for row and in their JSON documents."""
    fixture = tmp_path / "E1.txt"
    fixture.write_text(resources.files("moritalab").joinpath(
        "data", "E1.txt").read_text())

    def reports(number):
        document = tmp_path / "report.json"
        code = run(["theorem", number, "--fixture", str(fixture),
                    "--report", str(document)])
        return code, document.read_text()

    for number in ("3.3", "3.6"):
        keyed = reports(number)
        asked = []
        with monkeypatch.context() as patch:
            patch.setattr(classes, "universe_keys",
                          lambda *args: asked.append(args))
            assert reports(number) == keyed
        assert asked


def test_a_dropped_indecomposable_fails_the_second_route(monkeypatch):
    """Keys made with one indecomposable taken for decomposable no longer
    count the enumeration's classes, which is an internal error that names
    the enumeration; so is a key shared by two objects."""
    ws = parse_workspace(resources.files("moritalab").joinpath(
        "data", "E1.txt").read_text())
    ctx = ws.single_context()
    dropped = []

    def all_but_one(module):
        found = classes_is_indecomposable(module)
        if found and not dropped:
            dropped.append(module)
            return False
        return found

    classes_is_indecomposable = classes.is_indecomposable
    monkeypatch.setattr(classes, "is_indecomposable", all_but_one)
    for ring in (ctx, ctx.algebra_a):
        dropped.clear()
        with pytest.raises(InternalCheckError,
                           match=f"enumeration of {ring.name}/left at bound 2"):
            universe_keys(ring, LEFT, 2)
        assert dropped
