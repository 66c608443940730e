"""Algebras, bimodules, plain modules, hom spaces and the class tests."""

import re
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moritalab import linalg as la
from moritalab.algebra import (
    HOM_SYSTEM_CAP,
    LEFT,
    RIGHT,
    Algebra,
    Bimodule,
    FieldSpec,
    Module,
    ModuleMap,
    dual_module,
    find_invertible_combination,
    free_cover,
    hom_space,
    hom_system,
    is_injective,
    is_isomorphic,
    is_projective,
    kernel_module,
    module_generators,
    module_sum,
    quotient_module,
    submodule,
    validate_module_data,
)
from moritalab.enumeration import (_rref_patterns, enumerate_delta_modules,
                                   enumerate_modules)
from moritalab.gorenstein import cover_steps
from moritalab.report import BudgetExceededError, ValidationError
from moritalab.workspace import parse_workspace

P2 = FieldSpec(2)
ROOT = Path(__file__).resolve().parent.parent


def test_nonassociative_table_names_the_triple():
    st_bad = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        st_bad[0, j, j] = 1
        st_bad[j, 0, j] = 1
    st_bad[1, 1, 2] = 1   # a*a = b
    st_bad[2, 1, 1] = 1   # b*a = a, while a*b = 0
    with pytest.raises(ValidationError, match=r"associativity fails at basis "
                                              r"triple \(1, 1, 1\)"):
        Algebra(P2, 3, st_bad, np.array([1, 0, 0], dtype=np.int64), name="bad")


def test_broken_unit_is_rejected():
    table = np.ones((1, 1, 1), dtype=np.int64)
    with pytest.raises(ValidationError, match="unit fails"):
        Algebra(P2, 1, table, np.zeros(1, dtype=np.int64))


def test_invalid_right_action_is_rejected(e2):
    a, k = e2.algebra_a, e2.algebra_b
    scalar = np.stack([np.eye(2, dtype=np.int64)])
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    # x squares to zero in the algebra but the action matrix squares to 1
    with pytest.raises(ValidationError, match="action law fails"):
        Bimodule(k, a, 2, scalar, np.stack([np.eye(2, dtype=np.int64), swap]),
                 name="broken")


def reference_law_failure(algebra, side, actions):
    """The first basis pair failing the action law, found by the einsum the
    module check ran before it shared the enumeration's law kernel."""
    p = algebra.p
    first, second = actions[:, None], actions[None, :]
    if side != LEFT:
        first, second = second, first
    products = (first @ second) % p
    expected = np.einsum("ijk,kab->ijab", algebra.structure, actions) % p
    failed = np.argwhere(products != expected)
    return None if failed.size == 0 else [int(v) for v in failed[0][:2]]


@pytest.mark.parametrize("name,p", [("E1", 2), ("E2", 2), ("E2", 3)])
def test_module_check_names_the_first_failing_pair(fixture_over, name, p):
    """Random action tensors with the unit acting as the identity reach the
    law check, which must report the same first failing pair as the old
    einsum, on both sides."""
    ctx = fixture_over(name, p).single_context()
    rng = np.random.default_rng(0)
    for algebra in (ctx.algebra_a, ctx.algebra_b):
        i = int(np.flatnonzero(algebra.unit)[0])
        inverse = pow(int(algebra.unit[i]), -1, p)
        for side in (LEFT, RIGHT):
            for d in (1, 2, 3):
                for _ in range(20):
                    actions = rng.integers(0, p, (algebra.dim, d, d))
                    others = (np.einsum("i,ijk->jk", algebra.unit, actions)
                              - algebra.unit[i] * actions[i])
                    actions[i] = inverse * (np.eye(d, dtype=np.int64)
                                            - others) % p
                    report = validate_module_data(algebra, side, d, actions)
                    pair = reference_law_failure(algebra, side, actions)
                    assert report.witnesses == (
                        [] if pair is None else [{"pair": pair}])


def test_noncommuting_actions_are_rejected(e1):
    kk = e1.algebra_a
    lefts = np.stack([np.array([[1, 0], [0, 0]], dtype=np.int64),
                      np.array([[0, 0], [0, 1]], dtype=np.int64)])
    rights = np.stack([np.array([[1, 0], [1, 0]], dtype=np.int64),
                       np.array([[0, 0], [1, 1]], dtype=np.int64)])
    # each one-sided law holds; the two actions do not commute
    with pytest.raises(ValidationError, match="fail to commute"):
        Bimodule(kk, kk, 2, lefts, rights, name="skew")


def test_non_intertwining_matrix_names_the_basis_element(e2):
    reg = e2.algebra_a.regular_module(LEFT)
    # commutes with the unit (basis element 0), not with x (basis element 1)
    corner = np.array([[1, 0], [0, 0]], dtype=np.int64)
    with pytest.raises(ValidationError, match="^matrix does not intertwine action "
                                              "of basis element 1$"):
        ModuleMap(reg, reg, corner)


def test_regular_module_is_projective_not_simple_over_dual_numbers(e2):
    a = e2.algebra_a
    reg = a.regular_module(LEFT)
    assert is_projective(reg)
    simple = Module(a, LEFT, 1, np.array([[[1]], [[0]]], dtype=np.int64))
    assert not is_projective(simple)
    assert not is_injective(simple)


def test_semisimple_fixture_has_projective_simples(e1):
    kk = e1.algebra_a
    s1 = Module(kk, LEFT, 1, np.array([[[1]], [[0]]], dtype=np.int64))
    assert is_projective(s1)
    assert is_injective(s1)


def test_self_injectivity_of_dual_numbers(e2):
    reg = e2.algebra_a.regular_module(LEFT)
    assert is_injective(reg)


def test_dual_module_flips_side_and_squares_to_identity(e2):
    simple = Module(e2.algebra_a, LEFT, 1,
                    np.array([[[1]], [[0]]], dtype=np.int64), name="s")
    dual = dual_module(simple)
    assert dual.side == RIGHT
    double = dual_module(dual)
    assert double.side == LEFT
    assert is_isomorphic(simple, double) is not None


def test_hom_space_dimensions_over_dual_numbers(e2):
    a = e2.algebra_a
    reg = a.regular_module(LEFT)
    simple = Module(a, LEFT, 1, np.array([[[1]], [[0]]], dtype=np.int64))
    assert len(hom_space(reg, reg)) == 2
    assert len(hom_space(reg, simple)) == 1
    assert len(hom_space(simple, reg)) == 1
    assert len(hom_space(simple, simple)) == 1


def test_free_cover_is_epi(e2):
    simple = Module(e2.algebra_a, LEFT, 1,
                    np.array([[[1]], [[0]]], dtype=np.int64))
    free, eps = free_cover(simple)
    assert free.dim == 2
    assert la.rank(eps.matrix, 2) == simple.dim


def test_each_ring_keeps_one_regular_module_per_side(e2):
    """The regular module is built and checked once per side, and every
    free cover is a sum of copies of that one module."""
    a = e2.algebra_a
    assert a.regular_module(LEFT) is a.regular_module(LEFT)
    assert a.regular_module(RIGHT) is a.regular_module("right")
    assert a.regular_module(LEFT) is not a.regular_module(RIGHT)
    simple = Module(a, LEFT, 1, np.array([[[1]], [[0]]], dtype=np.int64))
    first, _ = free_cover(simple)
    second, _ = free_cover(a.regular_module(LEFT))
    assert first.summands == second.summands == (a.regular_module(LEFT),)


def greedy_generators(module):
    """The per-vector loop module_generators replaced, kept as the reference:
    a rank test of each basis vector against the submodule generated so far."""
    p = module.p
    chosen = []
    span = la.zeros(module.dim, 0)
    span_rank = 0
    for j in range(module.dim):
        e = la.eye(module.dim)[:, [j]]
        if span_rank and la.rank(np.hstack([span, e]), p) == span_rank:
            continue
        chosen.append(j)
        orbit = np.hstack([module.actions[i] @ e
                           for i in range(module.algebra.dim)]) % p
        span = la.image_basis(np.hstack([span, orbit]), p).T
        span_rank = span.shape[1]
        if span_rank == module.dim:
            break
    return chosen


@pytest.mark.parametrize("p, tuple_bound", [(2, 3), (3, 2)])
def test_module_generators_match_the_greedy_loop(fixture_over, p, tuple_bound):
    for name in ("E0", "E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            modules = (enumerate_modules(ctx.algebra_a, side, 3)
                       + enumerate_modules(ctx.algebra_b, side, 3)
                       + [v.packed for v in
                          enumerate_delta_modules(ctx, side, tuple_bound)])
            for module in modules:
                assert module_generators(module) == greedy_generators(module)


def test_kernel_of_the_cover_is_the_radical(e2):
    a = e2.algebra_a
    simple = Module(a, LEFT, 1, np.array([[[1]], [[0]]], dtype=np.int64))
    _, eps = free_cover(simple)
    ker, incl = kernel_module(eps)
    assert ker.dim == 1
    assert is_isomorphic(ker, simple) is not None


def test_quotient_by_radical(e2):
    a = e2.algebra_a
    reg = a.regular_module(LEFT)
    rad = np.array([[0], [1]], dtype=np.int64)   # span of x
    quot, proj, section = quotient_module(reg, rad)
    assert quot.dim == 1
    assert np.array_equal((proj.matrix @ section) % 2, np.eye(1, dtype=np.int64))


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_non_invariant_spans_are_refused_naming_the_module(e1, e2, side):
    """Every subspace of every module up to dimension 2 over the corners and
    the glued algebras of E1 and E2: ``submodule`` and ``quotient_module``
    accept the invariant ones, decided here by rank, and refuse the others
    with errors that name the module."""
    refused = 0
    for ctx in (e1, e2):
        modules = [v.packed for v in enumerate_delta_modules(ctx, side, 2)] + [
            m for algebra in (ctx.algebra_a, ctx.algebra_b)
            for m in enumerate_modules(algebra, side, 2)]
        for module in modules:
            name = re.escape(module.describe())
            for span in _rref_patterns(module.dim, module.p):
                r = span.shape[1]
                if all(la.rank(np.hstack([span, action @ span]), 2) == r
                       for action in module.actions):
                    assert submodule(module, span.T)[0].dim == r
                    assert quotient_module(module, span)[0].dim == module.dim - r
                    continue
                refused += 1
                with pytest.raises(ValidationError,
                                   match=f"^span is not invariant in {name}$"):
                    submodule(module, span.T)
                with pytest.raises(ValidationError, match="^column space is not "
                                                          f"invariant in {name}$"):
                    quotient_module(module, span)
    assert refused


def invertibles(dim):
    return st.lists(st.integers(0, 1), min_size=dim * dim,
                    max_size=dim * dim).map(
        lambda bits: np.array(bits, dtype=np.int64).reshape(dim, dim)).filter(
        lambda g: la.rank(g, 2) == dim)


@settings(max_examples=25, deadline=None)
@given(g=invertibles(2))
def test_conjugated_module_is_isomorphic(g):
    st_table = np.zeros((2, 2, 2), dtype=np.int64)
    st_table[0, 0, 0] = 1
    st_table[0, 1, 1] = 1
    st_table[1, 0, 1] = 1
    a = Algebra(P2, 2, st_table, np.array([1, 0], dtype=np.int64))
    reg = a.regular_module(LEFT)
    ginv = la.inverse(g, 2)
    twisted = Module(a, LEFT, 2, np.stack(
        [(g @ act @ ginv) % 2 for act in reg.actions]))
    assert is_isomorphic(reg, twisted) is not None


def test_isomorphism_scans_share_the_one_default_budget(monkeypatch):
    # Zero basis vectors never give an invertible 1 x 1 block, so the scan
    # visits all 2^h combinations and returns None.
    monkeypatch.delenv("MORITA_ENUM_BUDGET", raising=False)
    shapes = [(1, 1, 0)]
    zeros = [np.zeros(1, dtype=np.int64)] * 19
    assert find_invertible_combination(zeros, shapes, 2) is None
    with pytest.raises(BudgetExceededError, match="2097152"):
        find_invertible_combination(zeros + zeros[:3], shapes, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_hom_space_basis_maps_pass_the_full_map_check(fixture_over, p):
    # hom_space builds its basis maps without re-running the intertwining
    # check, which the kernel of the hom system already guarantees.
    for name in ("E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            packed = [v.packed for v in enumerate_delta_modules(ctx, side, 2)]
            for modules in (enumerate_modules(ctx.algebra_a, side, 2),
                            enumerate_modules(ctx.algebra_b, side, 2), packed):
                for source in modules:
                    for target in modules:
                        for phi in hom_space(source, target):
                            checked = ModuleMap(source, target, phi.matrix)
                            assert np.array_equal(checked.matrix, phi.matrix)


@pytest.mark.parametrize("p", [2, 3])
def test_hom_system_is_the_stack_of_kron_blocks(fixture_over, p):
    for name in ("E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            packed = [v.packed for v in enumerate_delta_modules(ctx, side, 2)]
            for modules in (enumerate_modules(ctx.algebra_a, side, 2),
                            enumerate_modules(ctx.algebra_b, side, 2),
                            packed[::4]):
                for source in modules:
                    for target in modules:
                        n, m = target.dim, source.dim
                        want = np.vstack([
                            (la.kron(la.eye(n), s.T, p) - la.kron(t, la.eye(m), p)) % p
                            for s, t in zip(source.actions, target.actions)])
                        got = hom_system(source, target)
                        assert got.dtype == np.int64
                        assert got.shape == want.shape
                        assert np.array_equal(got, want)


def _broadcast_hom_system(source, target):
    """The hom system as three broadcast arrays, the terms and their
    difference: the reference for ``hom_system``'s one-array build."""
    k, n, m = source.algebra.dim, target.dim, source.dim
    src_t = source.actions.transpose(0, 2, 1)
    first = la.eye(n)[None, :, None, :, None] * src_t[:, None, :, None, :]
    second = target.actions[:, :, None, :, None] * la.eye(m)[None, None, :, None, :]
    return ((first - second) % source.p).reshape(k * n * m, n * m)


def _traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_hom_system_takes_little_more_memory_than_its_result():
    # Eight copies of the regular right module of T2(k)^op: a system of
    # 3 * 24^4 entries, about 8 MB.  The broadcast build held four such
    # arrays at its peak.  Solving it adds the reduced matrix and the
    # residues packed in one byte each, not a second int64 copy.
    ws = parse_workspace((ROOT / "tests" / "workspaces" / "T2-k-op.txt")
                         .read_text())
    regular = ws.algebras["T"].regular_module(RIGHT)
    for copies in (1, 2, 8):
        summed = module_sum([regular] * copies)
        want = _broadcast_hom_system(summed, summed)
        got, peak = _traced_peak(hom_system, summed, summed)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        if copies == 8:
            assert peak <= 1.5 * got.nbytes
            _, solved = _traced_peak(hom_space, summed, summed)
            assert solved <= 2.5 * got.nbytes


@pytest.mark.parametrize("p", [2, 3])
def test_composites_and_cover_maps_pass_the_full_map_check(fixture_over,
                                                           monkeypatch, p):
    # Composites of module maps and the counits of free covers are built
    # without the intertwining check, which their construction proves: a
    # composite of intertwining maps intertwines, and a counit sends each
    # free basis element to an element acted on.  Each must pass the check.
    made, builders = [], set()
    intertwining = ModuleMap._intertwining.__func__

    def recording(cls, *args):
        builder = sys._getframe(1).f_code.co_name
        if builder in ("compose", "free_cover"):
            builders.add(builder)
            made.append(intertwining(cls, *args))
            return made[-1]
        return intertwining(cls, *args)

    monkeypatch.setattr(ModuleMap, "_intertwining", classmethod(recording))
    for name in ("E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            plain = (enumerate_modules(ctx.algebra_a, side, 2)
                     + enumerate_modules(ctx.algebra_b, side, 2))
            packed = [v.packed for v in enumerate_delta_modules(ctx, side, 2)]
            for module in plain:
                list(islice(cover_steps(module), 3))
            for module in packed:
                list(islice(cover_steps(module), 2))
            for source in plain:
                for target in plain:
                    if source.algebra is not target.algebra:
                        continue
                    for phi in hom_space(source, target):
                        for psi in hom_space(target, source):
                            psi.compose(phi)
    assert builders == {"compose", "free_cover"}
    for phi in made:
        checked = ModuleMap(phi.source, phi.target, phi.matrix)
        assert np.array_equal(checked.matrix, phi.matrix)


def test_an_oversize_hom_system_is_refused_before_it_is_built(e1):
    # 2 * (62 * 64)^2 entries, about 2^24.9: 250 MB of int64 if built.
    reg = e1.algebra_a.regular_module(LEFT)
    source, target = module_sum([reg] * 31), module_sum([reg] * 32)
    entries = 2 * (source.dim * target.dim) ** 2
    assert entries > HOM_SYSTEM_CAP
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as caught:
            hom_space(source, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert str(caught.value) == (
        f"hom system of ((kxk.regular.left)×31) (dim 62) -> "
        f"((kxk.regular.left)×32) (dim 64) has {entries} entries, above the "
        f"cap of {HOM_SYSTEM_CAP}")


def test_an_oversize_hom_system_counts_equal_summands():
    """The cap message writes each run of equal summands once, with its
    count, in nested sums and inside other names too; ``describe()`` still
    spells them out.  The cap is checked before anything is allocated, so
    this is cheap."""
    ws = parse_workspace((ROOT / "tests" / "workspaces" / "T2-k-op.txt")
                         .read_text())
    regular = ws.algebras["T"].regular_module(RIGHT)
    forty = module_sum([regular] * 40)
    assert forty.describe() == "(" + " + ".join(["T.regular.right"] * 40) + ")"
    with pytest.raises(BudgetExceededError) as caught:
        hom_system(forty, forty)
    assert str(caught.value) == (
        "hom system of ((T.regular.right)×40) (dim 120) -> "
        "((T.regular.right)×40) (dim 120) has 622080000 entries, above the "
        f"cap of {HOM_SYSTEM_CAP}")
    nested = module_sum([forty, forty, regular])
    named = Module(regular.algebra, RIGHT, nested.dim, nested.actions,
                   name=f"quot[{nested.describe()}^+] + x)(")
    with pytest.raises(BudgetExceededError) as caught:
        hom_system(nested, named)
    assert str(caught.value).startswith(
        "hom system of (((T.regular.right)×40)×2 + T.regular.right) (dim 243) "
        f"-> {named.describe()} (dim 243) has ")


def test_an_exhausted_isomorphism_scan_names_both_modules(monkeypatch):
    st_table = np.zeros((2, 2, 2), dtype=np.int64)
    st_table[0, 0, 0] = st_table[0, 1, 1] = st_table[1, 0, 1] = 1
    a = Algebra(P2, 2, st_table, np.array([1, 0], dtype=np.int64), name="D")
    reg = a.regular_module(LEFT)
    swap = np.array([[1, 1], [0, 1]], dtype=np.int64)
    twisted = Module(a, LEFT, 2, np.stack([(swap @ act @ swap) % 2 for act in reg.actions]),
                     name="twisted")
    monkeypatch.setenv("MORITA_ENUM_BUDGET", "3")
    with pytest.raises(BudgetExceededError,
                       match=r"^isomorphism scan of 4 combinations exceeds budget 3 "
                             r"between D\.regular\.left and twisted$"):
        is_isomorphic(reg, twisted)
