"""The memo: entries die with their owner, keys follow the signature, and
by-value entries are shared by equal objects and die with the last one."""

import gc
import weakref
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from moritalab import algebra
from moritalab import linalg as la
from moritalab import memo as memo_module
from moritalab.algebra import (LEFT, RIGHT, FieldSpec, Module, hom_space,
                               is_injective, is_projective, module_sum)
from moritalab.classes import (builtin_oracles, in_component_class,
                               in_epi_class, in_mono_class)
from moritalab.enumeration import enumerate_delta_modules, enumerate_modules
from moritalab.functors import induce_from_a
from moritalab.gorenstein import complete_resolution_window
from moritalab.memo import array_key, memo, value_token
from moritalab.morita import (DeltaModule, is_flat_delta, is_injective_delta,
                              is_projective_delta)
from moritalab.report import WindowConstructionError
from moritalab.tensor import hom_over_algebra, tensor_over_algebra
from moritalab.workspace import parse_workspace
from reference import sampled_pair_sums

ROOT = Path(__file__).resolve().parent.parent


def test_entries_are_freed_with_their_owner(e2):
    template = enumerate_modules(e2.algebra_a, LEFT, 2)[-1]
    x = Module(template.algebra, LEFT, template.dim, template.actions.copy(),
               name="throwaway")
    projective = builtin_oracles(e2.algebra_a, LEFT)["projective"]
    assert tensor_over_algebra(e2.m, x) is tensor_over_algebra(e2.m, x)
    assert hom_over_algebra(e2.n, x) is hom_over_algebra(e2.n, x)
    projective.contains(x)
    assert induce_from_a(e2, x) is induce_from_a(e2, x)
    alive = weakref.ref(x)
    del x
    gc.collect()
    assert alive() is None


def test_duals_are_freed_with_their_owner(e2):
    """An object keeps its dual, which refers back weakly; both die with
    the owner, for a module, a tuple and a tuple map."""
    template = enumerate_delta_modules(e2, LEFT, 2)[-1]
    x, y = (Module(m.algebra, LEFT, m.dim, m.actions.copy(), name="throwaway")
            for m in (template.x, template.y))
    v = DeltaModule(e2, LEFT, x, y, template.f_plain, template.g_plain,
                    name="throwaway")
    phi = v.homs(v)[0]
    assert x.dual.dual is x and v.dual.dual is v
    assert phi.dual.dual is phi
    alive = [weakref.ref(obj) for obj in (x, x.dual, v, v.dual, phi.dual)]
    del x, y, v, phi
    gc.collect()
    assert all(ref() is None for ref in alive)


def test_defaults_and_keywords_share_an_entry(e2):
    algebra = e2.algebra_a
    assert algebra.regular_module() is algebra.regular_module(LEFT) \
        is algebra.regular_module(side=LEFT)


@dataclass(eq=False)
class Box:
    """An owner: it compares by identity and has a __dict__."""


def counted_probe():
    calls = []

    @memo("box")
    def probe(tag, box, budget=None):
        calls.append(tag)
        if tag == "fail":
            raise ValueError(tag)
        return object()

    return probe, calls


def test_the_key_is_every_bound_argument_but_the_owner():
    probe, calls = counted_probe()
    box, other = Box(), Box()
    first = probe("t", box)
    assert probe("t", box, None) is first
    assert probe(box=box, tag="t", budget=None) is first
    assert probe("t", box, budget=3) is not first
    assert probe("t", other) is not first
    assert len(calls) == 3
    for _ in range(2):
        with pytest.raises(ValueError):
            probe("fail", box)
    assert len(calls) == 5


def test_arguments_that_compare_by_value_are_refused():
    probe, calls = counted_probe()
    with pytest.raises(TypeError):
        probe(FieldSpec(2), Box())
    assert not calls


def test_a_miss_refuses_arguments_that_compare_by_value_on_a_full_table():
    # Only a miss is tested, so the refusal must also come when the
    # owner's table already holds entries, for hashable and unhashable
    # arguments alike.
    probe, calls = counted_probe()
    box = Box()
    first = probe("t", box)
    for value in (FieldSpec(2), [1]):
        with pytest.raises(TypeError, match="compares by value"):
            probe(value, box)
    assert probe("t", box) is first
    assert calls == ["t"]


def test_a_batch_keeps_one_entry_per_owner():
    """With ``each``, the owners of a batch share no entry: a later batch is
    computed only for its owners without one, each once, and a batch that
    raises stores nothing."""
    calls = []

    @memo("boxes", each=True)
    def probe(tag, boxes):
        calls.append(boxes)
        if tag == "fail":
            raise ValueError(tag)
        return tuple(object() for _ in boxes)

    a, b, c = Box(), Box(), Box()
    first = probe("t", (a, b))
    assert probe("t", (b, a)) == first[::-1]
    later = probe("t", (c, a, c, b))
    assert later == (later[0], first[0], later[0], first[1])
    assert probe("u", (a,)) != first[:1]
    assert calls == [(a, b), (c,), (a,)]
    with pytest.raises(ValueError):
        probe("fail", (a, b))
    with pytest.raises(ValueError):
        probe("fail", (a,))
    assert calls[-2:] == [(a, b), (a,)]
    with pytest.raises(TypeError, match="compares by value"):
        probe(FieldSpec(2), (a,))


def simple(algebra, side=LEFT):
    """The simple module of the dual numbers, a new object at every call."""
    return Module(algebra, side, 1, np.array([[[1]], [[0]]], dtype=np.int64),
                  name="k")


def counting_rref(monkeypatch) -> list:
    calls, real = [], la.rref

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(la, "rref", counted)
    return calls


def test_equal_objects_share_one_decision(fresh, monkeypatch):
    """A module and a tuple built twice are decided once: asking about the
    second object runs no elimination."""
    ctx = fresh("E2").single_context()
    calls = counting_rref(monkeypatch)
    x, twin = simple(ctx.algebra_a), simple(ctx.algebra_a)
    v, v_twin = induce_from_a(ctx, x), induce_from_a(ctx, twin)
    assert value_token(x) is value_token(twin)
    assert v is not v_twin and value_token(v) is value_token(v_twin)
    calls.clear()
    first = [is_projective(x), [phi.matrix.tolist() for phi in hom_space(x, x)],
             is_projective_delta(v), is_injective_delta(v), is_flat_delta(v)]
    assert calls
    calls.clear()
    again = [is_projective(twin),
             [phi.matrix.tolist() for phi in hom_space(twin, twin)],
             is_projective_delta(v_twin), is_injective_delta(v_twin),
             is_flat_delta(v_twin)]
    assert again == first and not calls
    assert all(phi.source is twin and phi.target is twin
               for phi in hom_space(twin, twin))


def test_values_are_not_shared_across_parses_sides_or_shapes(fresh):
    first, second = (fresh("E2").single_context() for _ in range(2))
    token = value_token(simple(first.algebra_a))
    assert value_token(simple(first.algebra_a)) is token
    assert value_token(simple(second.algebra_a)) is not token
    assert value_token(simple(first.algebra_a, RIGHT)) is not token
    v = induce_from_a(first, simple(first.algebra_a))
    w = induce_from_a(second, simple(second.algebra_a))
    assert value_token(v) is not value_token(w)

    @dataclass(eq=False)
    class Valued:
        ring: object
        array: np.ndarray

        def value_key(self):
            return (self.ring, *array_key(self.array))

    ring = Box()
    empty = value_token(Valued(ring, np.zeros((0, 3), dtype=np.int64)))
    assert value_token(Valued(ring, np.zeros((3, 0), dtype=np.int64))) is not empty
    zeros = value_token(Valued(ring, np.zeros(2, dtype=np.int64)))
    assert value_token(Valued(ring, np.zeros(4, dtype=np.int32))) is not zeros
    assert value_token(Valued(ring, np.zeros((2, 1), dtype=np.int64))) is not zeros
    assert value_token(Valued(Box(), np.zeros(2, dtype=np.int64))) is not zeros


def test_a_by_value_memo_keys_other_arguments_by_their_tokens():
    calls = []

    @dataclass(eq=False)
    class Valued:
        value: int

        def value_key(self):
            return (self.value,)

    @memo("owner", by_value=True)
    def probe(owner, other, tag):
        calls.append((owner, other, tag))
        return object()

    a, b = Valued(1), Valued(2)
    first = probe(a, b, "t")
    assert probe(Valued(1), Valued(2), "t") is first
    assert probe(a, Valued(3), "t") is not first
    assert probe(a, b, "u") is not first
    assert len(calls) == 3
    with pytest.raises(TypeError, match="compares by value"):
        probe(a, FieldSpec(2), "t")
    with pytest.raises(TypeError, match="batch"):
        memo("xs", each=True, by_value=True)


def test_a_value_token_dies_with_the_last_object_of_its_value(fresh):
    ctx = fresh("E2").single_context()
    x, twin = simple(ctx.algebra_a), simple(ctx.algebra_a)
    is_projective(x)
    hom_space(x, x)
    key = x.value_key()
    token = weakref.ref(value_token(x))
    assert value_token(twin) is token() and key in memo_module._TOKENS
    del x
    gc.collect()
    assert token() is not None and key in memo_module._TOKENS
    del twin
    gc.collect()
    assert token() is None and key not in memo_module._TOKENS


def test_a_memoised_array_is_read_only(fresh):
    ctx = fresh("E2").single_context()
    x = simple(ctx.algebra_a)
    phi = hom_space(x, x)[0]
    with pytest.raises(ValueError, match="read-only"):
        phi.matrix[0, 0] += 1
    assert hom_space(x, x)[0].matrix.tolist() == phi.matrix.tolist()


def test_value_entries_of_products_and_unpackings_die_with_their_value(fresh):
    """A tensor product and an unpacking keep their arrays on the value
    token of their module, so deleting every object of that value frees
    the token and the arrays: the value caches do not grow over a long
    session."""
    from moritalab.morita import _unpacked_arrays, pack, unpack
    from moritalab.tensor import _tensor_arrays

    ctx = fresh("E2").single_context()
    xs = [simple(ctx.algebra_a) for _ in range(2)]
    tuples = [induce_from_a(ctx, x) for x in xs]
    packed = [pack(v) for v in tuples]
    products = [tensor_over_algebra(ctx.m, x) for x in xs]
    unpacked = [unpack(module, ctx) for module in packed]
    assert products[0].projection is products[1].projection
    assert unpacked[0].f_plain is unpacked[1].f_plain
    entries = [*_tensor_arrays(ctx.m, xs[0])[2:],
               *_unpacked_arrays(packed[0], ctx)]
    gone = [weakref.ref(obj) for obj in
            (value_token(xs[0]), value_token(packed[0]), *entries)]
    assert value_token(tuples[0].packed) is value_token(packed[0])
    del xs, tuples, packed, products, unpacked, entries
    gc.collect()
    assert [ref() for ref in gone] == [None] * len(gone)


def throwaway_tuple(ctx):
    """A checked tuple on new components, referenced from nowhere else."""
    template = enumerate_delta_modules(ctx, LEFT, 2)[-1]
    x, y = (Module(m.algebra, LEFT, m.dim, m.actions.copy(), name="throwaway")
            for m in (template.x, template.y))
    return DeltaModule(ctx, LEFT, x, y, template.f_plain, template.g_plain,
                       name="throwaway")


def test_a_dropped_sum_is_freed_though_its_dual_was_asked(fresh):
    """Injectivity and the epi class build the dual of what they decide.
    The dual refers back weakly, so a sum and its dual are freed when the
    sum's last reference goes, with the cycle collector off: no sum waits
    for a collection.  The values are new, so nothing is read back."""
    ctx = fresh("E1").single_context()
    tuples = enumerate_delta_modules(ctx, RIGHT, 2)
    injective = [builtin_oracles(ring, RIGHT)["injective"]
                 for ring in (ctx.algebra_a, ctx.algebra_b)]
    modules = enumerate_modules(ctx.algebra_a, RIGHT, 2)
    alive = []
    gc.collect()
    gc.disable()
    try:
        for total in sampled_pair_sums(tuples, 25, seed=60):
            is_injective_delta(total)
            in_epi_class(total, *injective)
            alive += [weakref.ref(total), weakref.ref(total.dual)]
            del total
        for x, y in zip(modules, modules[1:]):
            total = module_sum([x, y])
            is_injective(total)
            alive += [weakref.ref(total), weakref.ref(total.dual)]
            del total
        left = sum(ref() is not None for ref in alive)
    finally:
        gc.enable()
    assert len(alive) == 2 * (25 + len(modules) - 1) and left == 0


def test_a_dual_that_outlives_its_original_builds_an_equal_one(e2):
    """Once the original has died, the dual's dual is built again, equal in
    value, and kept: its own dual is the dual that built it."""
    v = throwaway_tuple(e2)
    x, phi = v.x, v.homs(v)[-1]
    want = [v.x.actions, v.y.actions, v.f_plain, v.g_plain, phi.a_matrix,
            phi.b_matrix]
    d, dx, dphi = v.dual, x.dual, phi.dual
    gone = [weakref.ref(obj) for obj in (v, x, phi)]
    del v, x, phi
    gc.collect()
    assert all(ref() is None for ref in gone)
    v, x, phi = d.dual, dx.dual, dphi.dual
    assert (d.dual, dx.dual, dphi.dual) == (v, x, phi)
    assert v.dual is d and x.dual is dx and phi.dual is dphi
    assert phi.source is v is phi.target and v.side == LEFT
    got = [v.x.actions, v.y.actions, v.f_plain, v.g_plain, phi.a_matrix,
           phi.b_matrix]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(x.actions, want[0])


def test_covers_are_kept_by_what_they_cover(e1):
    x = enumerate_modules(e1.algebra_a, LEFT, 2)[-1]
    v = enumerate_delta_modules(e1, LEFT, 2)[-1]
    assert x.cover() is x.cover()
    assert v.cover() is v.cover()


def test_a_window_asked_twice_covers_the_dual_once(monkeypatch):
    """The injective cogenerator of T2(k) is not projective, so no spliced
    window exists over T.  Asked twice, the window of a module over T fails
    twice, and the second attempt starts from the cover the first one made
    of its dual."""
    ws = parse_workspace((ROOT / "tests" / "workspaces" / "T2-k.txt")
                         .read_text())
    x = ws.modules["probe.a"]
    covered, generators = [], algebra.module_generators

    def recording(module):
        covered.append(module)
        return generators(module)

    monkeypatch.setattr(algebra, "module_generators", recording)
    for _ in range(2):
        with pytest.raises(WindowConstructionError):
            complete_resolution_window(x, 2)
    assert sum(module is x.dual for module in covered) == 1


def test_caches_plateau_over_rounds_of_queries():
    """Three rounds of library queries in one process over a GF(3) copy of
    E1: the classifiers, the three tuple classes, duals, pair sums built
    anew every round and width-4 windows.  After the second round no
    round leaves more value tokens, modules or tuples alive."""
    ctx = parse_workspace(resources.files("moritalab").joinpath(
        "data", "E1.txt").read_text().replace("field 2", "field 3", 1)
    ).single_context()

    def query_round():
        for side in (LEFT, RIGHT):
            tuples = enumerate_delta_modules(ctx, side, 2)
            pairs = [[builtin_oracles(ring, side)[kind]
                      for ring in (ctx.algebra_a, ctx.algebra_b)]
                     for kind in ("flat", "injective")]
            sums = list(sampled_pair_sums(tuples, 20, seed=3))
            for v in tuples + sums:
                is_projective_delta(v), is_injective_delta(v), is_flat_delta(v)
                v.dual.dual
                for pair in pairs:
                    in_component_class(v, *pair), in_mono_class(v, *pair)
                    in_epi_class(v, *pair)
            for x in tuples[:6] + sums[:4] + enumerate_modules(
                    ctx.algebra_a, side, 2):
                try:
                    complete_resolution_window(x, 4)
                except WindowConstructionError:
                    pass

    def census():
        gc.collect()
        live = gc.get_objects()
        return (len(memo_module._TOKENS),
                sum(isinstance(obj, Module) for obj in live),
                sum(isinstance(obj, DeltaModule) for obj in live))

    counts = []
    for _ in range(3):
        query_round()
        counts.append(census())
    assert counts[2] == counts[1]
