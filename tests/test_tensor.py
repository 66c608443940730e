import sys

import numpy as np
import pytest

from moritalab import linalg as la
from moritalab.algebra import (
    LEFT,
    RIGHT,
    Bimodule,
    FieldSpec,
    Module,
    is_isomorphic,
    module_sum,
    validate_module_data,
    zero_module,
)
from moritalab.classes import extensions_of
from moritalab.enumeration import (enumerate_delta_modules, enumerate_modules,
                                   invariant_subspaces, _rref_patterns)
from moritalab.morita import delta_dual, delta_sum, tuple_layout
from moritalab.report import AlgebraMismatchError, Verdict
from moritalab.tensor import hom_over_algebra, tensor_over_algebra, tor_one_dimension


def simple_a(e2):
    return Module(e2.algebra_a, LEFT, 1,
                  np.array([[[1]], [[0]]], dtype=np.int64), name="k")


def test_tensor_with_regular_recovers_the_bimodule(e2):
    reg = e2.algebra_a.regular_module(LEFT)
    t = tensor_over_algebra(e2.m, reg)
    assert t.module.dim == e2.m.dim
    assert is_isomorphic(t.module, e2.m.as_left_module) is not None


def test_tensor_with_the_simple_collapses_the_radical(e2):
    t = tensor_over_algebra(e2.m, simple_a(e2))
    assert t.module.dim == 1
    assert t.module.algebra is e2.algebra_b


def test_zero_bimodule_tensors_to_zero(e2):
    y = e2.algebra_b.regular_module(LEFT)
    t = tensor_over_algebra(e2.n, y)
    assert t.module.dim == 0


def test_tensor_projection_section_are_mutually_inverse(e1):
    t = tensor_over_algebra(e1.m, e1.algebra_a.regular_module(LEFT))
    composed = (t.projection @ t.section) % 2
    assert np.array_equal(composed, np.eye(t.module.dim, dtype=np.int64))


def test_side_mismatch_is_rejected(e2):
    right_reg = e2.algebra_a.regular_module("right")
    with pytest.raises(AlgebraMismatchError):
        tensor_over_algebra(e2.m, right_reg)


def test_hom_out_of_the_regular_bimodule(e2):
    # Hom over B of M into a left B-module; M is free of rank 2 over B = k
    y = e2.algebra_b.regular_module(LEFT)
    h = hom_over_algebra(e2.m, y)
    assert h.module.dim == 2
    assert h.module.algebra is e2.algebra_a
    assert h.module.side == LEFT


def test_tor_detects_the_nonflat_simple(e2):
    a = e2.algebra_a
    one = np.array([[1]], dtype=np.int64)
    zero = np.array([[0]], dtype=np.int64)
    k_as_right_bimodule = Bimodule(e2.algebra_b, a, 1, np.stack([one]),
                                   np.stack([one, zero]), name="k-line")
    assert tor_one_dimension(k_as_right_bimodule, simple_a(e2)) == 1
    assert tor_one_dimension(k_as_right_bimodule,
                             a.regular_module(LEFT)) == 0


def test_tor_vanishes_over_the_semisimple_fixture(e1):
    from moritalab.enumeration import enumerate_modules
    for x in enumerate_modules(e1.algebra_a, LEFT, 2):
        assert tor_one_dimension(e1.m, x) == 0


def _sums(algebra, side, components):
    """Sums of every ordered pair of components, a sum with zero summands,
    a nested sum and a free module."""
    zero = zero_module(algebra, side)
    first, last = components[0], components[-1]
    return ([module_sum([u, v]) for u in components for v in components]
            + [module_sum([zero, last, zero]), module_sum([zero]),
               module_sum([module_sum([first, last]), first]),
               module_sum([algebra.regular_module(side)] * 3)])


def _regular_bimodule(algebra):
    return Bimodule(algebra, algebra, algebra.dim, algebra.left_mult,
                    algebra.right_mult, name=f"{algebra.name}.regular")


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["E0", "E1", "E2"])
def test_products_and_homs_of_sums_equal_the_eliminated_ones(fixture_over,
                                                             name, p):
    # A direct sum is eliminated once per value like any module: its
    # product, under the sum's own name, reads the value core's arrays, and
    # those equal an elimination from scratch entry for entry.
    from moritalab.tensor import _describe, _tensor_arrays

    ctx = fixture_over(name, p).single_context()
    for side in (LEFT, RIGHT):
        lay = tuple_layout(ctx, side)
        for algebra, tensored in ((ctx.algebra_a, lay.f_bimodule),
                                  (ctx.algebra_b, lay.g_bimodule)):
            for total in _sums(algebra, side, enumerate_modules(algebra, side, 2)):
                for tensored_with in (tensored, _regular_bimodule(algebra)):
                    factors = lay.order(tensored_with, total)
                    got = lay.tensor(tensored_with, total)
                    core = _tensor_arrays(*factors)
                    _same_arrays(core, _tensor_arrays.__wrapped__(*factors))
                    assert all(a is b for a, b in zip(
                        (got.module.actions, got.projection, got.section,
                         got.relations), core[2:], strict=True))
                    assert got.module.name == (
                        f"({_describe(factors[0])} (x) {_describe(factors[1])})")
                    assert got.dims == tuple(f.dim for f in factors)


def _invariant_spans(module):
    """The subspaces kept by one solve per basis element of the algebra:
    the reference for ``invariant_subspaces``."""
    p = module.p
    return [span for span in _rref_patterns(module.dim, p)
            if all(la.solve(span, (action @ span) % p, p) is not None
                   for action in module.actions)]


@pytest.mark.parametrize("p", [2, 3])
def test_derived_modules_pass_the_full_module_check(fixture_over, monkeypatch, p):
    # Sums, duals, submodules, quotients, tensor products and packed tuples
    # are built without re-running the module check, which their inputs
    # already passed.  A sum builds the products of its structure maps on
    # first use, so each sum's f_map and g_map are read, and the packed
    # modules of sums and their duals are read.
    made, builders = [], set()
    derived = Module._derived.__func__

    def recording(cls, *args):
        builders.add(sys._getframe(1).f_code.co_name)
        made.append(derived(cls, *args))
        return made[-1]

    monkeypatch.setattr(Module, "_derived", classmethod(recording))
    for name in ("E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            tuples = enumerate_delta_modules(ctx, side, 2)
            for module in [u.packed for u in tuples] + [
                    m for algebra in (ctx.algebra_a, ctx.algebra_b)
                    for m in enumerate_modules(algebra, side, 2)]:
                for _, quotient in extensions_of(module):
                    quotient()
                assert [s.tolist() for s in invariant_subspaces(module)] \
                    == [s.tolist() for s in _invariant_spans(module)]
            for i, u in enumerate(tuples):
                for _, quotient in extensions_of(u):
                    quotient()
                # u keeps its cover, so a new copy builds one
                delta_sum([u]).cover()[1].kernel()
                for v in tuples[i:]:
                    total = delta_sum([u, v])
                    total.f_map, total.g_map
                    total.packed, delta_dual(total).packed
    assert builders == {"module_sum", "dual_module", "tensor_over_algebra",
                        "submodule", "quotient_module", "pack"}
    for m in made:
        report = validate_module_data(m.algebra, m.side, m.dim, m.actions)
        assert report.verdict is Verdict.PASS, m.name


def _copy(module, name="copy"):
    """A checked module equal to ``module``, on copied actions, under a new
    name."""
    return Module(module.algebra, module.side, module.dim,
                  module.actions.copy(), name=name)


def _t2kx():
    from pathlib import Path

    from moritalab.workspace import parse_workspace
    path = Path(__file__).resolve().parent / "workspaces" / "T2-kx.txt"
    return parse_workspace(path.read_text())


@pytest.fixture(scope="module")
def value_core_contexts(fixture_over):
    return [fixture_over(name, p).single_context()
            for name in ("E1", "E2") for p in (2, 3)] \
        + [_t2kx().single_context()]


def _tensor_cases(ctx, side):
    """Every module of the bound-2 universes of both corners and every
    component of the bound-2 tuples on ``side``, each with the bimodule it
    tensors with, as (factors in order, module)."""
    lay = tuple_layout(ctx, side)
    tuples = enumerate_delta_modules(ctx, side, 2)
    for algebra, bimodule, component in (
            (ctx.algebra_a, lay.f_bimodule, "x"),
            (ctx.algebra_b, lay.g_bimodule, "y")):
        for module in (enumerate_modules(algebra, side, 2)
                       + [getattr(v, component) for v in tuples]):
            yield bimodule, module


def _same_arrays(got, want):
    out_alg, out_side, *arrays = got
    assert out_alg is want[0] and out_side == want[1]
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(arrays, want[2:], strict=True))


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_an_equal_fresh_factor_reads_the_eliminated_arrays(value_core_contexts,
                                                           side):
    """A fresh copy of a factor, a new module under a new name, gets its
    own product, under its own name, around the read-only arrays that the
    original's value was eliminated to, and those equal an elimination
    from scratch entry for entry."""
    from moritalab.tensor import _tensor_arrays

    cases = 0
    for ctx in value_core_contexts:
        lay = tuple_layout(ctx, side)
        for bimodule, module in _tensor_cases(ctx, side):
            copy = _copy(module)
            original = lay.tensor(bimodule, module)
            fresh = lay.tensor(bimodule, copy)
            assert fresh is lay.tensor(bimodule, copy)
            assert fresh is not original and fresh.module is not original.module
            assert fresh.first is lay.order(bimodule, copy)[0]
            assert fresh.second is lay.order(bimodule, copy)[1]
            assert "copy" in fresh.module.name
            assert fresh.module.name != original.module.name
            core = _tensor_arrays(*lay.order(bimodule, copy))
            _same_arrays(core, _tensor_arrays.__wrapped__(
                *lay.order(bimodule, copy)))
            shared = (fresh.module.actions, fresh.projection, fresh.section,
                      fresh.relations)
            assert all(a is b for a, b in zip(shared, core[2:]))
            assert not any(a.flags.writeable for a in shared)
            assert fresh.module.algebra is core[0]
            assert fresh.module.side == core[1]
            assert fresh.dims == original.dims
            assert all(a is b for a, b in zip(shared, (
                original.module.actions, original.projection,
                original.section, original.relations)))
            cases += 1
    assert cases == 416


def test_bimodule_products_and_argument_checks_bypass_the_value_core(e2):
    """Two bimodules have no value key; their product is eliminated
    directly, once per identity.  A factor on the wrong side, or over the
    other algebra, is refused on a fresh object too."""
    a = e2.algebra_a
    regular = _regular_bimodule(a)
    square = tensor_over_algebra(regular, regular)
    assert square is tensor_over_algebra(regular, regular)
    assert square.module.dim == a.dim
    assert square.module.algebra.dim == 1
    assert tensor_over_algebra(e2.m, e2.n).dim == 0
    wrong_side = _copy(a.regular_module(RIGHT))
    with pytest.raises(AlgebraMismatchError, match="left-sided"):
        tensor_over_algebra(e2.m, wrong_side)
    with pytest.raises(AlgebraMismatchError, match="right-sided"):
        tensor_over_algebra(_copy(a.regular_module(LEFT)), e2.n)
    other_algebra = _copy(e2.algebra_b.regular_module(LEFT))
    with pytest.raises(AlgebraMismatchError, match="different algebras"):
        tensor_over_algebra(e2.m, other_algebra)


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_an_equal_fresh_packed_module_reads_the_unpacked_arrays(
        value_core_contexts, side):
    """``unpack`` on a fresh ``pack(v)``, or on its fresh dual, builds a new
    tuple with new components under its own name, around the read-only
    arrays of the first unpacking of that value, and those equal an
    unpacking from scratch entry for entry."""
    from moritalab.algebra import dual_module
    from moritalab.morita import _unpacked_arrays, pack, unpack

    for ctx in value_core_contexts:
        for v in enumerate_delta_modules(ctx, side, 2):
            for build in (pack, lambda v: dual_module(pack(v))):
                module, again = build(v), build(v)
                first, second = unpack(module, ctx), unpack(again, ctx)
                assert second is not first
                assert second.x is not first.x and second.y is not first.y
                assert second.name == first.name \
                    == f"unpacked[{module.describe()}]"
                assert (second.x.name, second.y.name) \
                    == ("unpacked.x", "unpacked.y")
                want = _unpacked_arrays.__wrapped__(again, ctx)
                got = (second.x.actions, second.y.actions, second.f_plain,
                       second.g_plain)
                assert all(np.array_equal(a, b) and a.dtype == b.dtype
                           for a, b in zip(got, want, strict=True))
                assert all(a is b for a, b in zip(got, (
                    first.x.actions, first.y.actions, first.f_plain,
                    first.g_plain)))
                assert not any(a.flags.writeable for a in got)
                assert (second.side, second.x.side) == (module.side,) * 2
                assert second.value_key() == first.value_key()
