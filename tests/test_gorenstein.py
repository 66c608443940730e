"""Resolution windows and the transported Gorenstein checks.

The dual-numbers corner of E2 is the interesting case: the simple has an
unbounded periodic resolution, the algebra is self-injective, and the window
machinery has to splice resolutions with coresolutions without losing
exactness.
"""

import dataclasses
import json
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from moritalab import gorenstein
from moritalab.algebra import LEFT, RIGHT, Module, ModuleMap
from moritalab.morita import (DeltaModule, DeltaModuleMap,
                              induced_isomorphism)
from moritalab.classes import builtin_oracles
from moritalab.enumeration import enumerate_delta_modules, enumerate_modules
from moritalab.functors import induce, induce_from_a
from moritalab.gorenstein import (
    ChainComplex,
    check_ding_transport,
    check_window_transport_backward,
    check_window_transport_forward,
    complete_resolution_window,
    cover_steps,
    exactness_table,
    flat_test_oracle,
    injective_dimension_within,
    is_ding_projective_window,
    is_gorenstein_projective_window,
    projective_dimension_within,
)
from moritalab.report import (InternalCheckError, ValidationError, Verdict,
                              WindowConstructionError)

from moritalab import linalg as la
from moritalab.workspace import parse_workspace

ROOT = Path(__file__).resolve().parent.parent


def simple(ctx):
    return Module(ctx.algebra_a, LEFT, 1,
                  np.array([[[1]], [[0]]], dtype=np.int64), name="k")


def _walked_resolution(x, length):
    """(window, augmentation) from length + 1 steps of the cover walk of x:
    the covers at positions -length .. 0 and the epi onto x."""
    steps = list(islice(cover_steps(x), length + 1))
    terms = [cover for cover, _, _ in reversed(steps)]
    maps = [d for _, _, d in reversed(steps[1:])]
    return ChainComplex(-length, terms, maps), steps[0][1]


def _walked_coresolution(x, length):
    """(window, coaugmentation) from length + 1 steps of the cover walk of
    ``x.dual``, every term and map replaced by its dual."""
    steps = list(islice(cover_steps(x.dual), length + 1))
    coaug = steps[0][1].dual
    return ChainComplex(0, [cover.dual for cover, _, _ in steps],
                        [d.dual for _, _, d in steps[1:]], coaug), coaug


def test_resolution_of_the_simple_is_periodic(e2):
    k = simple(e2)
    res, aug = _walked_resolution(k, 3)
    assert res.lo == -3 and res.hi == 0
    assert res.dims() == [2, 2, 2, 2]
    assert la.rank(aug.matrix, 2) == 1
    for pos, exact in exactness_table(res):
        assert exact, f"resolution fails exactness at {pos}"


def test_coresolution_mirrors_the_resolution(e2):
    k = simple(e2)
    cores, coaug = _walked_coresolution(k, 3)
    assert cores.lo == 0 and cores.hi == 3
    assert cores.dims() == [2, 2, 2, 2]
    assert la.rank(coaug.matrix, 2) == 1


def _rebuilt(phi):
    """phi through its checked constructor, which raises unless it
    intertwines."""
    if isinstance(phi, DeltaModuleMap):
        return DeltaModuleMap(phi.source, phi.target, phi.a_matrix,
                              phi.b_matrix)
    return ModuleMap(phi.source, phi.target, phi.matrix)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E1", "E2"])
def test_coresolution_maps_pass_the_full_map_check(fixture_over, name, p):
    """The coresolution is the dualised resolution of the dual: its maps are
    unchecked transposes, each of which must pass the full map check, and
    its coaugmentation starts at the object itself.  Modules of both corners
    up to dimension 2 and tuples up to dimension 2, on both sides."""
    ctx = fixture_over(name, p).single_context()
    count = 0
    for side in (LEFT, RIGHT):
        objects = [x for algebra in (ctx.algebra_a, ctx.algebra_b)
                   for x in enumerate_modules(algebra, side, 2)]
        objects += enumerate_delta_modules(ctx, side, 2)
        for x in objects:
            cores, coaug = _walked_coresolution(x, 2)
            assert coaug.source is x and cores.coaugmentation is coaug
            for phi in cores.maps + [coaug]:
                _rebuilt(phi)
                count += 1
    assert count


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E1", "E2"])
def test_transported_window_maps_pass_the_full_map_check(fixture_over, name,
                                                         p):
    """The differentials and coaugmentation of a transported window are
    built unchecked from tuple maps; each must pass the full tuple-map
    check.  Every left tuple up to dimension 2 whose transport succeeds."""
    ctx = fixture_over(name, p).single_context()
    count = 0
    for v in enumerate_delta_modules(ctx, LEFT, 2):
        split = induced_isomorphism(v)
        if split is None:
            continue
        try:
            cx = gorenstein._transported_window(v, split, 2)
        except WindowConstructionError:
            continue
        for phi in cx.maps + [cx.coaugmentation]:
            _rebuilt(phi)
        count += 1
    assert count


def test_projective_dimensions(e1, e2):
    k = simple(e2)
    assert projective_dimension_within(k) is None        # unbounded
    assert projective_dimension_within(
        e2.algebra_a.regular_module(LEFT)) == 0
    assert injective_dimension_within(k) is None
    for semisimple_module in (simple(e1),
                              e1.algebra_a.regular_module(LEFT)):
        assert projective_dimension_within(semisimple_module) == 0


def test_window_of_the_simple(e2):
    k = simple(e2)
    cx = complete_resolution_window(k, 4)
    assert cx.lo == -4 and cx.hi == 4
    assert cx.dims() == [2] * 9
    assert all(exact for _, exact in exactness_table(cx))


def test_window_of_the_zero_module(e2):
    zero = Module(e2.algebra_a, LEFT, 0,
                  np.zeros((2, 0, 0), dtype=np.int64))
    cx = complete_resolution_window(zero, 2)
    assert cx.dims() == [0] * 5


def test_window_width_must_be_positive(e2):
    from moritalab.report import ValidationError
    with pytest.raises(ValidationError):
        complete_resolution_window(simple(e2), 0)


def test_transported_window_for_an_induced_tuple(e2):
    ta = induce_from_a(e2, simple(e2))
    cx = complete_resolution_window(ta, 4)
    assert cx.dims() == [4] * 9
    assert all(exact for _, exact in exactness_table(cx))


def test_some_tuples_admit_no_window(e1):
    # the glued ring of E1 is radical-square-zero and not self-injective,
    # so coresolutions leave the projectives for some tuples
    failures = 0
    for v in enumerate_delta_modules(e1, LEFT, 1):
        try:
            complete_resolution_window(v, 2)
        except WindowConstructionError as err:
            failures += 1
            assert "no projective coresolution" in str(err)
    assert failures > 0


def test_gorenstein_window_consistent_against_flat_tests(e2):
    k = simple(e2)
    flat = builtin_oracles(e2.algebra_a, LEFT)["flat"]
    verdict = is_gorenstein_projective_window(k, flat, 4, 2)
    assert verdict.consistent
    assert verdict.report.verdict is Verdict.CONSISTENT
    assert verdict.width == 4


def test_gorenstein_window_refuted_against_all_tests(e2):
    k = simple(e2)
    everything = builtin_oracles(e2.algebra_a, LEFT)["all"]
    verdict = is_gorenstein_projective_window(k, everything, 4, 2)
    assert not verdict.consistent
    assert verdict.report.verdict is Verdict.REFUTED
    assert verdict.failing_test is not None
    assert verdict.homology
    clause = next(c for c in verdict.report.clauses
                  if c.name == "window-hom-exactness")
    witness = clause.witnesses[0]
    assert witness["homology-dimension"] >= 1


def test_ding_window_for_the_induced_simple(e2):
    k = simple(e2)
    verdict = is_ding_projective_window(induce_from_a(e2, k), 4, 2)
    assert verdict.consistent
    # Inducing k again gives the same tuple, whose window is not rebuilt.
    ta = induce_from_a(e2, k)
    assert is_ding_projective_window(ta, 4, 2) is verdict
    oracle = flat_test_oracle(ta)
    from moritalab.morita import flat_characterisation
    tests = [t for t in verdict.test_modules]
    assert tests
    for t in tests:
        assert oracle.contains(t)
        assert flat_characterisation(t)


def test_transport_forward_and_backward(e2):
    k = simple(e2)
    flat_a = builtin_oracles(e2.algebra_a, LEFT)["flat"]
    flat_b = builtin_oracles(e2.algebra_b, LEFT)["flat"]
    forward = check_window_transport_forward(e2, k, flat_a, flat_b, 4, 2)
    assert forward.verdict is Verdict.CONSISTENT, forward.detail
    names = [c.name for c in forward.clauses]
    assert "adjunction-dimension-cross-check" in names
    adj = next(c for c in forward.clauses
               if c.name == "adjunction-dimension-cross-check")
    assert adj.verdict is Verdict.PASS

    image = forward.window_complex
    backward = check_window_transport_backward(
        e2, induce_from_a(e2, k), flat_a, flat_b, 4, 2, window=image)
    assert backward.verdict is Verdict.CONSISTENT, backward.detail


def test_transport_premise_failure_degrades_to_hypothesis(e2):
    # feed a module whose own window is dirty for the chosen test class:
    # the simple against the class of all modules cannot pass, and the
    # forward harness must not claim refutation of the transport itself
    k = simple(e2)
    everything_a = builtin_oracles(e2.algebra_a, LEFT)["all"]
    flat_b = builtin_oracles(e2.algebra_b, LEFT)["flat"]
    report = check_window_transport_forward(e2, k, everything_a, flat_b, 4, 2)
    assert report.verdict is Verdict.HYPOTHESIS_FAILURE


def t2k():
    """The upper triangular 2x2 matrices over GF(2), glued to themselves."""
    return parse_workspace((ROOT / "tests" / "workspaces" / "T2-k.txt")
                           .read_text())


def _recording_costs(monkeypatch):
    """Record every cover and kernel taken, in order, as (kind, receiver):
    the covers of modules and tuples and the kernels of their maps."""
    calls = []
    for cls, kind in ((Module, "cover"), (DeltaModule, "cover"),
                      (ModuleMap, "kernel"), (DeltaModuleMap, "kernel")):
        def recording(self, real=getattr(cls, kind), kind=kind):
            calls.append((kind, self))
            return real(self)
        monkeypatch.setattr(cls, kind, recording)
    return calls


def test_a_rejected_splice_costs_one_cover_of_the_dual(monkeypatch):
    """Over T2(k) the coresolution of a nonzero object starts with the dual
    of a projective cover, which is not projective.  The splice tests each
    coresolution term as it is made, so an object it rejects costs exactly
    one cover, of its dual: no kernel and no cover of its own.  Every
    nonzero module of either side and every left tuple of dimension at most
    1 that does not split into induced pieces (a split tuple is first tried
    piece by piece)."""
    ctx = t2k().single_context()
    objects = [x for side in (LEFT, RIGHT)
               for x in enumerate_modules(ctx.algebra_a, side, 2)]
    objects += [v for v in enumerate_delta_modules(ctx, LEFT, 1)
                if induced_isomorphism(v) is None]
    objects = [x for x in objects if x.dim]
    calls = _recording_costs(monkeypatch)
    for x in objects:
        del calls[:]
        with pytest.raises(WindowConstructionError, match="position 0"):
            complete_resolution_window(x, 2)
        assert calls == [("cover", x.dual)], x.describe()
    assert any(isinstance(x, DeltaModule) for x in objects)


def test_a_module_with_no_window_fails_the_transport_premise():
    """No module over T2(k) has a spliced window.  The forward transport
    reports that as a failed premise naming the rejected term, not as an
    error, and the backward transport has nothing to restrict."""
    ws = t2k()
    ctx, probe = ws.single_context(), ws.modules["probe.a"]
    flat = builtin_oracles(ctx.algebra_a, LEFT)["flat"]
    report = check_window_transport_forward(ctx, probe, flat, flat, 4, 2)
    gate = report.clauses[-1]
    assert report.verdict is gate.verdict is Verdict.HYPOTHESIS_FAILURE
    assert gate.name == "component-window-premise"
    assert "(T.regular.right)^+" in gate.detail
    assert not hasattr(report, "window_complex")


def test_a_failed_hypothesis_leaves_only_the_cross_check_deciding():
    """Over E2 with a simple M the inner bimodules are not projective on
    the right, and the induced window is not exact.  That conclusion is
    promised only under the hypothesis, so its refuted clauses stay in the
    report but the harness fails the hypothesis; the adjunction cross-check
    needs no hypothesis, so a refutation of it still decides."""
    ws = parse_workspace((ROOT / "tests" / "workspaces" / "E2-simple-M.txt")
                         .read_text())
    ctx, probe = ws.single_context(), ws.modules["probe.a"]
    flat_a = builtin_oracles(ctx.algebra_a, LEFT)["flat"]
    flat_b = builtin_oracles(ctx.algebra_b, LEFT)["flat"]
    report = check_window_transport_forward(ctx, probe, flat_a, flat_b, 4, 2)
    verdicts = {c.name: c.verdict for c in report.clauses}
    assert report.verdict is Verdict.HYPOTHESIS_FAILURE
    assert verdicts["inner-bimodules-projective-on-the-right"] \
        is Verdict.HYPOTHESIS_FAILURE
    assert verdicts["window-exactness"] is Verdict.REFUTED
    cross = report.clauses[-1]
    assert cross.name == "adjunction-dimension-cross-check"
    cross.verdict = Verdict.REFUTED
    hyp_rows = report.clauses[:2]
    assert gorenstein._under_hypotheses(report, hyp_rows, (cross,)).verdict \
        is Verdict.REFUTED


def test_ding_transport_smoke(e1):
    report = check_ding_transport(e1, 2, 1)
    assert report.ok, report.detail
    names = [c.name for c in report.clauses]
    for expected in ("induced-ding(a)", "induced-ding(b)",
                     "component-ding(a)", "component-ding(b)"):
        assert expected in names


def _windows(ctx):
    """The width-4 windows of the left modules over both corners and the
    left tuples of dimension at most 1, where one can be built."""
    objects = (enumerate_modules(ctx.algebra_a, LEFT, 1)
               + enumerate_modules(ctx.algebra_b, LEFT, 1)
               + [v for v in enumerate_delta_modules(ctx, LEFT, 1) if v.dim <= 1])
    out = []
    for x in objects:
        try:
            out.append((x, complete_resolution_window(x, 4)))
        except WindowConstructionError:
            pass
    return out


def _fields(verdict):
    return (verdict.consistent, verdict.exactness, verdict.hom_exactness,
            verdict.failing_position, verdict.failing_test, verdict.homology,
            [t.describe() for t in verdict.test_modules],
            json.dumps(verdict.report.to_dict(), sort_keys=True))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E1", "E2"])
def test_the_regular_certificate_changes_no_window_verdict(fixture_over,
                                                            monkeypatch, name, p):
    # Hom(window, R) exact certifies every projective test at once; the
    # per-test path builds every test's complex.  Gorenstein windows test
    # against the projectives, Ding windows against the (widened) flat
    # sample, and a window against the class of all objects must still name
    # its first failing test.
    ctx = fixture_over(name, p).single_context()
    windows = _windows(ctx)
    assert windows
    refuted = 0
    for bound in (1, 2):
        for i, (x, cx) in enumerate(windows):
            classes = [builtin_oracles(x.ring, x.side)["projective"],
                       flat_test_oracle(x)]
            if i < 3:
                classes.append(builtin_oracles(x.ring, x.side)["all"])
            for test_class in classes:
                certified = gorenstein._window_report(x, cx, test_class, bound)
                with monkeypatch.context() as patched:
                    patched.setattr(gorenstein, "_regular_hom_exact",
                                    lambda cx: False)
                    per_test = gorenstein._window_report(x, cx, test_class, bound)
                assert _fields(certified) == _fields(per_test)
                refuted += certified.failing_test is not None
    # Over E1 every module of the corners is projective, so nothing fails.
    assert refuted or name == "E1"


def _counting_hom_complexes(monkeypatch, sample, mutate):
    """Record the test of every Hom complex built; with ``mutate``, the
    complex against a test outside ``sample``, the regular module, reads
    homology one more at every position."""
    real = gorenstein._hom_complex_data
    seen = []

    def counted(cx, test):
        bases, homology = real(cx, test)
        seen.append(test)
        if mutate and not any(test is t for t in sample):
            homology = [(pos, h + 1) for pos, h in homology]
        return bases, homology

    monkeypatch.setattr(gorenstein, "_hom_complex_data", counted)
    return seen


@pytest.mark.parametrize("carrier", ["module", "tuple"])
def test_a_dirty_regular_complex_falls_back_to_every_test(e2, monkeypatch,
                                                         carrier):
    x = simple(e2) if carrier == "module" else induce_from_a(e2, simple(e2))
    cx = complete_resolution_window(x, 4)
    projective = builtin_oracles(x.ring, x.side)["projective"]
    tests = projective.sample(2)
    assert tests
    clean = gorenstein._window_report(x, cx, projective, 2)
    assert clean.consistent

    seen = _counting_hom_complexes(monkeypatch, tests, mutate=False)
    assert _fields(gorenstein._window_report(x, cx, projective, 2)) \
        == _fields(clean)
    assert len(seen) == 1 and not any(seen[0] is t for t in tests)

    seen = _counting_hom_complexes(monkeypatch, tests, mutate=True)
    assert _fields(gorenstein._window_report(x, cx, projective, 2)) \
        == _fields(clean)
    assert len(seen) == 1 + len(tests)
    assert all(a is b for a, b in zip(seen[1:], tests))


def _kernel_clause(cx, x):
    return next(c for c in gorenstein._structural_clauses(cx, x)[1]
                if c.name == "window-kernel-identification")


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E1", "E2"])
def test_the_rank_certificate_agrees_with_the_isomorphism_scan(fixture_over,
                                                               name, p):
    """Every buildable width-4 window identifies its kernel through its
    coaugmentation, and the isomorphism scan, kept as the reference,
    agrees: on both sides, for the modules of both corners up to dimension
    2 and their induced windows, and for the tuples up to dimension 2 (up
    to 1 over E1, whose tuple windows are the slow ones)."""
    ctx = fixture_over(name, p).single_context()
    tuple_bound = 1 if name == "E1" else 2
    count = 0
    for side in (LEFT, RIGHT):
        objects = [(x, corner) for corner, algebra
                   in zip("ab", (ctx.algebra_a, ctx.algebra_b))
                   for x in enumerate_modules(algebra, side, 2)]
        objects += [(v, None)
                    for v in enumerate_delta_modules(ctx, side, tuple_bound)]
        for x, corner in objects:
            try:
                cx = complete_resolution_window(x, 4)
            except WindowConstructionError:
                continue
            windows = [(x, cx)]
            if corner is not None:
                windows.append((induce(ctx, x, corner),
                                gorenstein._induced_window(ctx, cx, corner)))
            for obj, window in windows:
                certified = _kernel_clause(window, obj).verdict is Verdict.PASS
                scanned = window.diff(0).kernel()[0].isomorphism(obj) is not None
                assert certified and scanned, obj.describe()
                count += 1
    assert count >= 40


def test_a_bad_coaugmentation_refutes_the_kernel_identification(e1, e2):
    """A coaugmentation that is not one-to-one, that leaves ker d^0, or that
    starts at another object refutes the kernel clause, in the report and in
    the re-verification; one that misses the term at position 0 is refused."""
    for x in enumerate_modules(e1.algebra_a, LEFT, 2):
        window = complete_resolution_window(x, 2)
        h = next((h for h in x.homs(window.term(0))
                  if not window.diff(0).compose(h).is_zero()), None)
        if h is not None:
            break
    assert h is not None
    # one-to-one, as the coaugmentation is, but no longer into ker d^0
    shifted = ModuleMap(x, window.term(0), window.coaugmentation.matrix + h.matrix)
    assert la.rank(shifted.matrix, 2) == x.dim
    k = simple(e2)
    cx = complete_resolution_window(k, 4)
    assert _kernel_clause(cx, k).verdict is Verdict.PASS
    twin = Module(k.algebra, k.side, k.dim, k.actions, name="k")
    zero = ModuleMap(k, cx.term(0), np.zeros((cx.term(0).dim, 1), dtype=np.int64))
    projective = builtin_oracles(e2.algebra_a, LEFT)["projective"]
    for obj, bad in ((k, dataclasses.replace(cx, coaugmentation=zero)),
                     (x, dataclasses.replace(window, coaugmentation=shifted)),
                     (twin, cx)):
        assert _kernel_clause(bad, obj).verdict is Verdict.REFUTED
        with pytest.raises(WindowConstructionError,
                           match="fails window-kernel-identification"):
            gorenstein._verify_window(bad, obj, WindowConstructionError)
        if obj.ring is projective.ring:
            report = gorenstein._window_report(obj, bad, projective, 1).report
            assert report.verdict is Verdict.REFUTED
    with pytest.raises(ValidationError, match="position 0"):
        dataclasses.replace(cx, coaugmentation=ModuleMap(
            k, cx.term(1), np.zeros((cx.term(1).dim, 1), dtype=np.int64)))


def test_each_window_is_checked_once(fresh, monkeypatch):
    """The structural check of a window is memoised on the window, so the
    check it passes at construction is the one its report shows: one
    exactness table per window, spliced, transported or a transported
    window's piece."""
    tables = []
    monkeypatch.setattr(gorenstein, "exactness_table",
                        lambda cx: tables.append(cx) or exactness_table(cx))
    ctx = fresh("E1").single_context()
    projective = builtin_oracles(ctx.algebra_a, LEFT)["projective"]
    for m in enumerate_modules(ctx.algebra_a, LEFT, 2):
        for verdict in (is_gorenstein_projective_window(m, projective, 4, 2),
                        is_ding_projective_window(induce_from_a(ctx, m), 4, 1)):
            assert verdict.consistent
            assert sum(cx is verdict.window for cx in tables) == 1
    assert len(tables) > 12
    assert len({id(cx) for cx in tables}) == len(tables)


def test_a_spliced_window_that_fails_its_reverification_is_a_defect(
        e2, monkeypatch):
    """The splice is exact with projective terms and kernel im(coaug) by
    construction, so a failed re-verification is an internal error, not a
    missing window; the transported route still falls back to the splice."""
    monkeypatch.setattr(gorenstein, "exactness_table",
                        lambda cx: [(cx.lo + 1, False)])
    for x in (simple(e2), induce_from_a(e2, simple(e2))):
        with pytest.raises(InternalCheckError, match="window-exactness"):
            complete_resolution_window(x, 4)


def test_a_failed_transport_falls_back_to_the_splice(e2, monkeypatch):
    """A transported window that fails its re-verification raises
    WindowConstructionError and sends the tuple to the splice.  The induced
    simple of E2 has no spliced window, so the splice's fact surfaces."""
    ta = induce_from_a(e2, simple(e2))
    verify = gorenstein._verify_window

    def transport_fails(cx, x, error):
        if error is WindowConstructionError:
            raise error("refused")
        verify(cx, x, error)

    monkeypatch.setattr(gorenstein, "_verify_window", transport_fails)
    with pytest.raises(WindowConstructionError,
                       match="no projective coresolution"):
        complete_resolution_window(ta, 4)


@pytest.mark.parametrize("carrier", ["flat", "mono"])
def test_repeated_test_samples_return_the_same_tuples(e2, carrier):
    """The induced test pool is memoised, so a window's tests are the same
    objects at every sample and their membership memos hit."""
    if carrier == "flat":
        oracle = flat_test_oracle(induce_from_a(e2, simple(e2)))
    else:
        flats = [builtin_oracles(algebra, LEFT)["flat"]
                 for algebra in (e2.algebra_a, e2.algebra_b)]
        oracle = gorenstein.mono_class_test_oracle(e2, *flats)
    first, second = oracle.sample(2), oracle.sample(2)
    assert first and len(first) == len(second)
    assert all(u is v for u, v in zip(first, second))


# ---------------------------------------------------------------------------
# the eager splice, kept as the reference for the lazy one

def projective_resolution(x, length):
    """Resolution by iterated covers, as (window, augmentation), each cover
    and kernel taken up front: the window occupies positions -length .. 0;
    the augmentation is the epi from the position-0 term onto x."""
    if length < 0:
        raise ValidationError("resolution length must be nonnegative")
    covers, epis, inclusions = [], [], []
    target = x
    for _ in range(length + 1):
        cov, eps = target.cover()
        ker, incl = eps.kernel()
        covers.append(cov)
        epis.append(eps)
        inclusions.append(incl)
        target = ker
    terms = list(reversed(covers))
    maps = [inclusions[j - 1].compose(epis[j]) for j in range(length, 0, -1)]
    return ChainComplex(-length, terms, maps), epis[0]


def injective_coresolution(x, length):
    """The resolution of ``x.dual`` with every term and map replaced by its
    dual, as (window, coaugmentation), at positions 0 .. length."""
    res, aug = projective_resolution(x.dual, length)
    terms = [t.dual for t in reversed(res.terms)]
    maps = [d.dual for d in reversed(res.maps)]
    return ChainComplex(0, terms, maps, aug.dual), aug.dual


def eager_spliced_window(x, w):
    """The splice with its whole coresolution built before any term is
    tested projective."""
    cores, coaug = injective_coresolution(x, w)
    for pos, term in enumerate(cores.terms):
        if not gorenstein._projective(term):
            raise WindowConstructionError(
                "no projective coresolution within window: the term at "
                f"position {pos} ({term.describe()}) is not projective")
    res, aug = projective_resolution(x, w - 1)
    junction = coaug.compose(aug)
    cx = ChainComplex(-w, res.terms + cores.terms,
                      res.maps + [junction] + cores.maps, coaug)
    gorenstein._verify_window(cx, x, InternalCheckError)
    return cx


def _entries(obj):
    """The data of a module or tuple, or of a map of them."""
    if isinstance(obj, DeltaModule):
        return [obj.x.actions.tolist(), obj.y.actions.tolist(),
                obj.f_plain.tolist(), obj.g_plain.tolist()]
    if isinstance(obj, Module):
        return obj.actions.tolist()
    return obj.matrix.tolist()


def _window_or_error(x, w):
    """The window around x as plain data, or the message of the
    WindowConstructionError that refuses it."""
    try:
        cx = complete_resolution_window(x, w)
    except WindowConstructionError as err:
        return str(err)
    assert cx.coaugmentation.source is x
    return (cx.lo, [t.describe() for t in cx.terms],
            [_entries(t) for t in cx.terms], [_entries(d) for d in cx.maps],
            _entries(cx.coaugmentation))


def _matches_the_eager_splice(monkeypatch, objects, widths):
    """Assert that every window (or refusal) of the lazy splice equals the
    one built with the eager splice in its place, entry for entry; return
    how many were compared."""
    count = 0
    for x in objects:
        for w in widths:
            with monkeypatch.context() as m:
                m.setattr(gorenstein, "_spliced_window", eager_spliced_window)
                expected = _window_or_error(x, w)
            assert _window_or_error(x, w) == expected, (x.describe(), w)
            count += 1
    return count


def _bounded_objects(ctx, bound):
    """The modules of both corners and the tuples up to ``bound``, on both
    sides."""
    return [x for side in (LEFT, RIGHT)
            for x in enumerate_modules(ctx.algebra_a, side, bound)
            + enumerate_modules(ctx.algebra_b, side, bound)
            + enumerate_delta_modules(ctx, side, bound)]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E1", "E2"])
def test_the_lazy_splice_matches_the_eager_one(fixture_over, monkeypatch,
                                               name, p):
    ctx = fixture_over(name, p).single_context()
    assert _matches_the_eager_splice(monkeypatch, _bounded_objects(ctx, 2),
                                     (2, 4))


@pytest.mark.parametrize("workspace", ["T2-k.txt", "T2-k-op.txt"])
def test_the_lazy_splice_matches_the_eager_one_over_t2(monkeypatch,
                                                       workspace):
    ctx = parse_workspace((ROOT / "tests" / "workspaces" / workspace)
                          .read_text()).single_context()
    assert _matches_the_eager_splice(monkeypatch, _bounded_objects(ctx, 1),
                                     (2,))


def test_a_refused_coresolution_term_stops_the_walk(e2, monkeypatch):
    """Refusing the coresolution term at position 2 raises the eager
    splice's message, and the walk over the dual stops there: three covers
    of the dual side, two kernels, and no cover of x itself."""
    k = simple(e2)
    real = gorenstein._projective

    def refusing_the_third():
        tested = []

        def projective(term):
            tested.append(term)
            return len(tested) != 3 and real(term)
        return projective

    with monkeypatch.context() as m:
        m.setattr(gorenstein, "_projective", refusing_the_third())
        with pytest.raises(WindowConstructionError) as expected:
            eager_spliced_window(k, 4)
    assert "position 2" in str(expected.value)

    monkeypatch.setattr(gorenstein, "_projective", refusing_the_third())
    calls = _recording_costs(monkeypatch)
    with pytest.raises(WindowConstructionError) as got:
        complete_resolution_window(k, 4)
    assert str(got.value) == str(expected.value)
    assert [kind for kind, _ in calls] == ["cover", "kernel", "cover",
                                           "kernel", "cover"]
    assert calls[0] == ("cover", k.dual)
    assert all(obj is not k for _, obj in calls)
