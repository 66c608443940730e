"""The memo: entries die with their owner, keys follow the signature."""

import gc
import weakref
from dataclasses import dataclass

import pytest

from moritalab.algebra import LEFT, FieldSpec, Module
from moritalab.classes import builtin_oracles
from moritalab.enumeration import enumerate_delta_modules, enumerate_modules
from moritalab.functors import induce_from_a
from moritalab.memo import memo
from moritalab.morita import DeltaModule
from moritalab.tensor import hom_over_algebra, tensor_over_algebra


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
    """An object and its dual refer to each other; the cycle dies with its
    owner, for a module, a tuple and a tuple map."""
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
