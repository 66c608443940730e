"""Exhaustive scans with frozen class counts.

The counts pin the enumeration as an oracle: a change in any of them means
either the scan or the isomorphism reduction regressed.  The orbit labelling
is also compared, object by object, with the pairwise isomorphism dedupe it
replaced, which is kept here as the reference.
"""

from pathlib import Path

import numpy as np
import pytest

from moritalab import linalg as la
from moritalab.algebra import (LEFT, RIGHT, FieldSpec, Module, field_algebra,
                               hom_space, is_isomorphic, module_sum,
                               scan_budget)
from moritalab.classes import extensions_of
from moritalab.enumeration import (
    _CHUNK,
    _coords,
    _delta_classes,
    _linear_move,
    _orbit_minima,
    _structures_of_dim,
    _unit_generators,
    enumerate_delta_modules,
    enumerate_modules,
)
from moritalab.morita import DeltaModule, delta_is_isomorphic
from moritalab.report import BudgetExceededError, InternalCheckError
from moritalab.tensor import tensor_over_algebra
from moritalab.workspace import parse_workspace

WORKSPACES = Path(__file__).resolve().parent / "workspaces"


def pairwise_modules(algebra, side, max_dim):
    """Keep each candidate not isomorphic to a kept one, in scan order."""
    out = []
    for d in range(max_dim + 1):
        kept = []
        structures = _structures_of_dim(algebra, side, d, scan_budget())[1]
        for k, acts in enumerate(structures):
            module = Module(algebra, side, d, acts,
                            name=f"enum[{algebra.name or 'R'}/{side}/{d}/{k}]")
            if not any(is_isomorphic(module, rep) is not None for rep in kept):
                kept.append(module)
        out.extend(kept)
    return out


def pairwise_tuples(ctx, side, max_dim):
    """Build every candidate tuple and keep it unless it is isomorphic to a
    kept tuple over the same components."""
    p = ctx.p
    out, counter = [], 0
    for x in enumerate_modules(ctx.algebra_a, side, max_dim):
        for y in enumerate_modules(ctx.algebra_b, side, max_dim):
            if side == LEFT:
                tf, tg = tensor_over_algebra(ctx.m, x), tensor_over_algebra(ctx.n, y)
            else:
                tf, tg = tensor_over_algebra(x, ctx.n), tensor_over_algebra(y, ctx.m)
            f_basis = hom_space(tf.module, y)
            g_basis = hom_space(tg.module, x)
            hf, hg = len(f_basis), len(g_basis)
            kept = []
            for code in range(p ** (hf + hg)):
                digits = la.digits(np.array([code]), p, hf + hg)[0]
                f_mat = sum((int(c) * h.matrix for c, h in zip(digits, f_basis)),
                            la.zeros(y.dim, tf.dim)) % p
                g_mat = sum((int(c) * h.matrix for c, h in zip(digits[hf:], g_basis)),
                            la.zeros(x.dim, tg.dim)) % p
                candidate = DeltaModule(
                    ctx, side, x, y, f_mat @ tf.projection, g_mat @ tg.projection,
                    name=f"enum[{ctx.name or 'ctx'}/{side}/{counter}]")
                counter += 1
                if not any(delta_is_isomorphic(candidate, rep) is not None
                           for rep in kept):
                    kept.append(candidate)
                    out.append(candidate)
    return out


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E0", "E1", "E2"])
def test_orbit_labelling_matches_pairwise_dedupe(fixture_over, name, p):
    ctx = fixture_over(name, p).single_context()
    for side in (LEFT, RIGHT):
        for algebra in (ctx.algebra_a, ctx.algebra_b):
            found = enumerate_modules(algebra, side, 2)
            reference = pairwise_modules(algebra, side, 2)
            assert [m.name for m in found] == [m.name for m in reference]
            assert all(np.array_equal(m.actions, r.actions)
                       for m, r in zip(found, reference))
        found = enumerate_delta_modules(ctx, side, 2)
        reference = pairwise_tuples(ctx, side, 2)
        assert [v.name for v in found] == [v.name for v in reference]
        for v, r in zip(found, reference):
            assert v.x is r.x and v.y is r.y
            assert np.array_equal(v.f_plain, r.f_plain)
            assert np.array_equal(v.g_plain, r.g_plain)


def test_orbit_minima_of_small_groups():
    def shift(codes):
        return (codes + 4) % 12

    def swap(codes):
        return codes ^ 1

    assert _orbit_minima(12, []).tolist() == list(range(12))
    assert _orbit_minima(12, [shift]).tolist() == [0, 1, 2, 3]
    # <shift, swap> joins each orbit {c, c+4, c+8} with its partner under c ^ 1
    assert _orbit_minima(12, [shift, swap]).tolist() == [0, 2]


def recomputing_orbit_minima(size, moves):
    """The orbit labelling that recomputes every move's images, chunk by
    chunk, on every hook pass: the reference for ``_orbit_minima``, which
    computes them once."""
    labels = np.arange(size, dtype=np.int64)
    while True:
        hooked = False
        for move in moves:
            for start in range(0, size, _CHUNK):
                src = np.arange(start, min(start + _CHUNK, size), dtype=np.int64)
                a, b = labels[src], labels[move(src)]
                apart = a != b
                if apart.any():
                    hooked = True
                    np.minimum.at(labels, np.maximum(a, b)[apart],
                                  np.minimum(a, b)[apart])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if not hooked:
            return np.flatnonzero(labels == np.arange(size))


def random_invertible(rng, width, p):
    """A random invertible matrix over GF(p): a dense one, or a transvection
    or diagonal scaling, whose groups have many orbits."""
    kind = rng.integers(3)
    if kind == 0:
        while True:
            matrix = rng.integers(p, size=(1, width, width))
            if la.nonsingular_mask(matrix, p)[0]:
                return matrix[0]
    matrix = la.eye(width)
    if kind == 1:
        i, j = rng.choice(width, size=2, replace=False)
        matrix[i, j] = rng.integers(1, p)
    else:
        matrix[np.diag_indices(width)] = rng.integers(1, p, size=width)
    return matrix


# Code spaces of 8 and 243 elements fit one chunk; 2^14 is two whole
# chunks and 3^9 = 19683 ends in a partial one.
@pytest.mark.parametrize("p,width", [(2, 3), (2, 14), (3, 5), (3, 9)])
def test_orbit_minima_match_the_recomputing_reference(p, width):
    rng = np.random.default_rng(1000 * p + width)
    size = p ** width
    for count in (0, 1, 2, 3, 3):
        moves = [_linear_move(random_invertible(rng, width, p), p)
                 for _ in range(count)]
        assert np.array_equal(_orbit_minima(size, moves),
                              recomputing_orbit_minima(size, moves))


# The BudgetExceededError that _delta_classes(ctx, side, 3, 2**k) raises at
# k = 0, 1, ..., 12, recorded before the per-component unit tables: runs of
# (count, message up to " candidates"), None for no error, "{side}" the side.
BUDGET_ERRORS = {
    ("E1", 2): [(1, "structural-map scan needs 2"),
                (1, "unit scan of End(enum[kxk/{side}/2/1]) needs 4"),
                (2, "unit scan of End(enum[kxk/{side}/2/5]) needs 16"),
                (1, "unit scan of End(enum[kxk/{side}/3/1]) needs 32"),
                (4, "unit scan of End(enum[kxk/{side}/3/35]) needs 512"),
                (4, None)],
    ("E1", 3): [(2, "structural-map scan needs 3"),
                (2, "unit scan of End(enum[kxk/{side}/2/1]) needs 9"),
                (3, "unit scan of End(enum[kxk/{side}/2/7]) needs 81"),
                (1, "unit scan of End(enum[kxk/{side}/3/1]) needs 243"),
                (5, "unit scan of End(enum[kxk/{side}/3/103]) needs 19683")],
    ("E2", 2): [(1, "structural-map scan needs 2"),
                (1, "structural-map scan needs 4"),
                (2, "unit scan of End(enum[k/{side}/2/0]) needs 16"),
                (5, "unit scan of End(enum[k/{side}/3/0]) needs 512"),
                (4, None)],
    ("E2", 3): [(2, "structural-map scan needs 3"),
                (2, "structural-map scan needs 9"),
                (3, "unit scan of End(enum[k/{side}/2/0]) needs 81"),
                (6, "unit scan of End(enum[k/{side}/3/0]) needs 19683")],
}


@pytest.mark.parametrize("name,p", sorted(BUDGET_ERRORS))
def test_budget_errors_come_in_scan_order(fixture_over, name, p):
    """The unit scan and twists of a component are made at its first pair
    with structure maps, so each budget names the scan the pair loop meets
    first, as it did when every pair made its own."""
    ctx = fixture_over(name, p).single_context()
    for side in (LEFT, RIGHT):
        expected = [prefix for count, prefix in BUDGET_ERRORS[name, p]
                    for _ in range(count)]
        for k, prefix in enumerate(expected):
            if prefix is None:
                _delta_classes(ctx, side, 3, 2 ** k)
                continue
            with pytest.raises(BudgetExceededError) as caught:
                _delta_classes(ctx, side, 3, 2 ** k)
            assert str(caught.value) == (prefix.format(side=side)
                                         + f" candidates, budget is {2 ** k}")


def test_representatives_pass_the_tuple_check(fixture_over):
    """Representatives are derived, unchecked; rebuilt by the checked
    constructor each passes and packs to the same module."""
    contexts = [(fixture_over(name, p).single_context(), 3)
                for name in ("E1", "E2") for p in (2, 3)]
    contexts += [(parse_workspace((WORKSPACES / f"{name}.txt").read_text())
                  .single_context(), 2)
                 for name in ("T2-k", "T2-k-op", "T2-kx")]
    checked = 0
    for ctx, bound in contexts:
        for side in (LEFT, RIGHT):
            for v in enumerate_delta_modules(ctx, side, bound):
                rebuilt = DeltaModule(ctx, side, v.x, v.y, v.f_plain,
                                      v.g_plain, name=v.name)
                assert np.array_equal(rebuilt.packed.actions,
                                      v.packed.actions)
                checked += 1
    assert checked == 2 * (2 * 203 + 2 * 62 + 87 + 70 + 27)


def unique_unit_generators(module):
    """The greedy generating set of Aut(module), its frontier deduped with
    ``np.unique``."""
    if module.dim == 0:
        return []
    p = module.p
    basis = [h.matrix for h in hom_space(module, module)]
    e = len(basis)
    stacked = np.stack(basis)
    mats = np.tensordot(la.digits(np.arange(p ** e), p, e), stacked, axes=1) % p
    is_unit = la.nonsingular_mask(mats, p)
    powers = p ** np.arange(e, dtype=np.int64)
    identity = int(_coords(basis, [la.eye(module.dim)], p, "End")[:, 0] @ powers)
    in_group = np.zeros(p ** e, dtype=bool)
    in_group[identity] = True
    members = np.array([identity], dtype=np.int64)
    gens, right = [], []
    for code in np.flatnonzero(is_unit):
        if members.size == int(is_unit.sum()):
            break
        if in_group[code]:
            continue
        unit = mats[code]
        gens.append(unit)
        step = _linear_move(
            _coords(basis, [(b @ unit) % p for b in basis], p, "End"), p)
        right.append(step)
        frontier, moves = members, [step]
        while frontier.size:
            reached = np.unique(np.concatenate(
                [move(frontier[s:s + _CHUNK]) for move in moves
                 for s in range(0, frontier.size, _CHUNK)]))
            frontier = reached[~in_group[reached]]
            in_group[frontier] = True
            members = np.concatenate([members, frontier])
            moves = right
    return gens


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E1", "E2"])
def test_unit_generators_match_the_np_unique_frontier(fixture_over, name, p):
    ctx = fixture_over(name, p).single_context()
    modules = [Module(field_algebra(ctx.algebra_a.field), LEFT, d,
                      la.eye(d)[None]) for d in (1, 2)]
    for side in (LEFT, RIGHT):
        for algebra in (ctx.algebra_a, ctx.algebra_b):
            modules += enumerate_modules(algebra, side, 2)
    for module in modules:
        found = _unit_generators(module, scan_budget())
        reference = unique_unit_generators(module)
        assert len(found) == len(reference)
        assert all(np.array_equal(g, r) for g, r in zip(found, reference))


def test_a_map_leaving_its_hom_space_is_an_internal_error():
    basis = [np.array([[1, 0], [0, 0]])]
    assert _coords(basis, [np.array([[1, 0], [0, 0]])], 2, "E11").tolist() == [[1]]
    with pytest.raises(InternalCheckError, match="space of E11"):
        _coords(basis, [np.array([[0, 1], [0, 0]])], 2, "E11")


def test_bound_three_tuple_counts(e1, e2):
    assert len(enumerate_delta_modules(e1, LEFT, 3)) == 203
    assert len(enumerate_delta_modules(e2, LEFT, 3)) == 62


def test_module_counts_over_the_ground_field():
    k = field_algebra(FieldSpec(2))
    assert len(enumerate_modules(k, LEFT, 1)) == 2      # 0 and k
    assert len(enumerate_modules(k, LEFT, 3)) == 4      # one per dimension


def test_module_counts_over_dual_numbers(e2):
    found = enumerate_modules(e2.algebra_a, LEFT, 2)
    assert len(found) == 4                              # 0, k, k^2, regular
    assert sorted(m.dim for m in found) == [0, 1, 2, 2]


def test_module_counts_over_the_product_ring(e1):
    assert len(enumerate_modules(e1.algebra_a, LEFT, 1)) == 3   # 0, S1, S2


def test_tuple_counts(e0, e1, e2):
    assert len(enumerate_delta_modules(e0, LEFT, 1)) == 4
    assert len(enumerate_delta_modules(e2, LEFT, 1)) == 5
    assert len(enumerate_delta_modules(e1, LEFT, 2)) == 57
    assert len(enumerate_delta_modules(e2, LEFT, 2)) == 22


def test_zero_context_tuples_have_zero_maps(e0):
    for v in enumerate_delta_modules(e0, LEFT, 1):
        assert not np.any(v.f_plain)
        assert not np.any(v.g_plain)


def test_enumerated_tuples_are_pairwise_nonisomorphic(e2):
    pool = enumerate_delta_modules(e2, LEFT, 1)
    for i, u in enumerate(pool):
        for v in pool[i + 1:]:
            assert delta_is_isomorphic(u, v) is None


def test_tuple_enumeration_matches_glued_enumeration(e1):
    small = [v for v in enumerate_delta_modules(e1, LEFT, 2)
             if v.x.dim + v.y.dim <= 2]
    packed = enumerate_modules(e1.delta, LEFT, 2)
    assert len(small) == len(packed) == 17


def test_enumeration_is_cached_and_deterministic(e2):
    first = enumerate_delta_modules(e2, LEFT, 2)
    second = enumerate_delta_modules(e2, LEFT, 2)
    assert all(u is v for u, v in zip(first, second))
    assert len(first) == len(second)


def test_budget_guard(e1, monkeypatch):
    from moritalab.algebra import Algebra
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    fresh = Algebra(FieldSpec(2), 2, table, np.array([1, 1], dtype=np.int64),
                    name="cold")
    # The shipped E1 is warm: its classes are already known at the default
    # budget, which must not answer a call under a smaller one.
    enumerate_delta_modules(e1, LEFT, 2)
    monkeypatch.setenv("MORITA_ENUM_BUDGET", "3")
    for scan in (lambda: enumerate_modules(fresh, LEFT, 2),
                 lambda: enumerate_modules(e1.algebra_a, LEFT, 2),
                 lambda: enumerate_delta_modules(e1, LEFT, 2)):
        with pytest.raises(BudgetExceededError):
            scan()


def test_nonsplit_extension_is_found(e2):
    reg = e2.algebra_a.regular_module(LEFT)
    hits = []
    for sub, quotient in extensions_of(reg):
        if sub.dim == 1 and (quot := quotient()).dim == 1:
            hits.append((sub, quot))
    assert hits
    # the middle term is indecomposable, so none of these sequences split
    for sub, quot in hits:
        assert is_isomorphic(reg, module_sum([sub, quot])) is None


def test_semisimple_fixture_yields_only_split_sequences(e1):
    for module in enumerate_modules(e1.algebra_a, LEFT, 2):
        for sub, quotient in extensions_of(module):
            assert is_isomorphic(module, module_sum([sub, quotient()])) \
                is not None
