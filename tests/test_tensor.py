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


def _eliminated(module):
    """An equal module that records no summands, so its products are
    eliminated from scratch."""
    return Module(module.algebra, module.side, module.dim, module.actions,
                  name=module.name)


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


def _same_span(a, b, p):
    return la.rank(a, p) == la.rank(b, p) == la.rank(np.hstack([a, b]), p)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["E0", "E1", "E2"])
def test_products_and_homs_of_sums_equal_the_eliminated_ones(fixture_over,
                                                             monkeypatch, name, p):
    # The products of a sum are assembled from its summands' and must
    # equal the eliminated ones entry for entry.  Over the regular bimodule
    # of k x k the section columns of a sum interleave those of its
    # summands, so the sort by plain index is exercised.
    ctx = fixture_over(name, p).single_context()

    def refuse(*args):
        raise AssertionError("a sum was eliminated instead of assembled")

    for side in (LEFT, RIGHT):
        lay = tuple_layout(ctx, side)
        for algebra, tensored in ((ctx.algebra_a, lay.f_bimodule),
                                  (ctx.algebra_b, lay.g_bimodule)):
            for total in _sums(algebra, side, enumerate_modules(algebra, side, 2)):
                plain = _eliminated(total)
                for tensored_with in (tensored, _regular_bimodule(algebra)):
                    for summand in total.summands:
                        lay.tensor(tensored_with, summand)
                    with monkeypatch.context() as patched:
                        if total.summands:  # a sum of zero modules is eliminated
                            patched.setattr(la, "quotient_data", refuse)
                        got = lay.tensor(tensored_with, total)
                    want = lay.tensor(tensored_with, plain)
                    assert np.array_equal(got.projection, want.projection)
                    assert np.array_equal(got.section, want.section)
                    assert np.array_equal(got.module.actions, want.module.actions)
                    assert got.module.name == want.module.name
                    assert got.dims == want.dims
                    assert _same_span(got.relations, want.relations, p)


def _invariant_spans(module):
    """The subspaces kept by one solve per basis element of the algebra:
    the reference for ``invariant_subspaces``."""
    p = module.p
    return [span for span in _rref_patterns(module.dim, p)
            if all(la.solve(span, (action @ span) % p, p) is not None
                   for action in module.actions)]


@pytest.mark.parametrize("p", [2, 3])
def test_derived_modules_pass_the_full_module_check(fixture_over, monkeypatch, p):
    # Sums, duals, submodules, quotients, tensor products (eliminated or
    # assembled) and packed tuples are built without re-running the module
    # check, which their inputs already passed.  A sum builds the products
    # of its structure maps on first use, so each sum's f_map and g_map are
    # read, and the packed modules of sums and their duals are read.
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
    assert builders == {"module_sum", "dual_module", "_assembled_tensor",
                        "tensor_over_algebra", "submodule", "quotient_module",
                        "pack"}
    for m in made:
        report = validate_module_data(m.algebra, m.side, m.dim, m.actions)
        assert report.verdict is Verdict.PASS, m.name
