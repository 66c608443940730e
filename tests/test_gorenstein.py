"""Resolution windows and the transported Gorenstein checks.

The dual-numbers corner of E2 is the interesting case: the simple has an
unbounded periodic resolution, the algebra is self-injective, and the window
machinery has to splice resolutions with coresolutions without losing
exactness.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from moritalab import gorenstein
from moritalab.algebra import LEFT, RIGHT, Module, ModuleMap
from moritalab.morita import DeltaModuleMap, induced_isomorphism
from moritalab.classes import builtin_oracles
from moritalab.enumeration import enumerate_delta_modules, enumerate_modules
from moritalab.functors import induce, induce_from_a
from moritalab.gorenstein import (
    check_ding_transport,
    check_window_transport_backward,
    check_window_transport_forward,
    complete_resolution_window,
    exactness_table,
    flat_test_oracle,
    injective_coresolution,
    injective_dimension_within,
    is_ding_projective_window,
    is_gorenstein_projective_window,
    projective_dimension_within,
    projective_resolution,
)
from moritalab.report import (InternalCheckError, ValidationError, Verdict,
                              WindowConstructionError)

from moritalab import linalg as la
from moritalab.workspace import parse_workspace

ROOT = Path(__file__).resolve().parent.parent


def simple(ctx):
    return Module(ctx.algebra_a, LEFT, 1,
                  np.array([[[1]], [[0]]], dtype=np.int64), name="k")


def test_resolution_of_the_simple_is_periodic(e2):
    k = simple(e2)
    res, aug = projective_resolution(k, 3)
    assert res.lo == -3 and res.hi == 0
    assert res.dims() == [2, 2, 2, 2]
    assert la.rank(aug.matrix, 2) == 1
    for pos, exact in exactness_table(res):
        assert exact, f"resolution fails exactness at {pos}"


def test_coresolution_mirrors_the_resolution(e2):
    k = simple(e2)
    cores, coaug = injective_coresolution(k, 3)
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
            cores, coaug = injective_coresolution(x, 2)
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


def test_a_rejected_splice_resolves_only_the_dual(monkeypatch):
    """Over T2(k) the coresolution of a nonzero module starts with the dual
    of a free module, the injective cogenerator, which is not projective.
    The splice tests its coresolution first, so an object it rejects is
    never resolved itself; only its dual is."""
    algebra = t2k().algebras["T"]
    resolved = []
    real = gorenstein.projective_resolution

    def recording(x, length):
        resolved.append(x)
        return real(x, length)

    monkeypatch.setattr(gorenstein, "projective_resolution", recording)
    for x in enumerate_modules(algebra, LEFT, 2):
        if not x.dim:
            continue
        with pytest.raises(WindowConstructionError, match="position 0"):
            complete_resolution_window(x, 2)
        assert resolved[-1] is x.dual
        assert all(obj is not x for obj in resolved)


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
