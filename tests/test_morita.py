"""Glued rings, tuple modules, and the pack/unpack dictionary."""

import itertools
import sys

import numpy as np
import pytest

from moritalab.algebra import (LEFT, RIGHT, Module, ModuleMap, dual_module,
                               find_invertible_combination, hom_space,
                               is_injective, is_projective, kernel_module,
                               quotient_module)
from moritalab.classes import _twist
from moritalab.enumeration import (delta_invariant_pairs,
                                   delta_short_exact_sequences,
                                   enumerate_delta_modules, enumerate_modules,
                                   invariant_subspaces)
from moritalab import morita
from moritalab import linalg as la
from moritalab.functors import (check_adjunction, coinduce, coinduce_from_a,
                                coinduce_from_b, component, induce,
                                induce_from_a, induce_from_b, induce_map,
                                tilde)
from moritalab.morita import (
    CORNERS,
    DeltaModule,
    DeltaModuleMap,
    MoritaContext,
    delta_direct_sum,
    delta_dual,
    delta_hom_space,
    delta_is_isomorphic,
    delta_sum,
    induced_isomorphism,
    is_injective_delta,
    is_projective_delta,
    pack,
    unpack,
    zero_delta_module,
)
from moritalab.report import (BudgetExceededError, InternalCheckError,
                             ValidationError, Verdict)


def test_glued_dimensions(e0, e1, e2):
    assert e0.delta.dim == 2
    assert e1.delta.dim == 6
    assert e2.delta.dim == 5


def test_nonvanishing_bimodule_product_is_rejected(e2):
    one = np.array([[1]], dtype=np.int64)
    zero = np.array([[0]], dtype=np.int64)
    from moritalab.algebra import Bimodule
    n_bad = Bimodule(e2.algebra_a, e2.algebra_b, 1,
                     np.stack([one, zero]), np.stack([one]), name="bad-n")
    with pytest.raises(ValidationError, match="vanish"):
        MoritaContext(e2.algebra_a, e2.algebra_b, e2.m, n_bad, name="broken")


def test_pack_unpack_round_trip_on_the_regular_tuple(ws_e2):
    v = ws_e2.tuples["Delta"]
    back = unpack(pack(v), v.context)
    assert delta_is_isomorphic(v, back) is not None


def test_pack_unpack_round_trip_exhaustive_small(e1):
    for v in enumerate_delta_modules(e1, LEFT, 1):
        assert delta_is_isomorphic(v, unpack(pack(v), e1)) is not None


def test_packed_dimension_is_the_component_sum(ws_e2):
    v = ws_e2.tuples["Delta"]
    assert pack(v).dim == v.x.dim + v.y.dim


def test_dual_flips_side_and_doubles_back(e2):
    for v in enumerate_delta_modules(e2, LEFT, 1):
        dual = delta_dual(v)
        assert dual.side != v.side
        assert delta_is_isomorphic(v, delta_dual(dual)) is not None


def test_dual_commutes_with_pack(e2):
    for v in enumerate_delta_modules(e2, LEFT, 1):
        via_tuple = delta_dual(v)
        via_packed = unpack(dual_module(pack(v)), e2)
        assert delta_is_isomorphic(via_tuple, via_packed) is not None


def test_tuple_homs_match_packed_homs(e2):
    pool = enumerate_delta_modules(e2, LEFT, 1)
    for u in pool:
        for v in pool:
            tuple_side = len(delta_hom_space(u, v))
            packed_side = len(hom_space(pack(u), pack(v)))
            assert tuple_side == packed_side


def test_direct_sum_components_and_projections(e2, ws_e2):
    v = ws_e2.tuples["Delta"]
    w = zero_delta_module(e2, LEFT)
    total, injections, projections = delta_direct_sum([v, w, v])
    assert total.x.dim == 2 * v.x.dim
    assert total.y.dim == 2 * v.y.dim
    round_trip = projections[0].compose(injections[0])
    assert np.array_equal(round_trip.a_matrix, np.eye(v.x.dim, dtype=np.int64))
    assert np.array_equal(round_trip.b_matrix, np.eye(v.y.dim, dtype=np.int64))
    crossed = projections[2].compose(injections[0])
    assert crossed.is_zero()


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_sums_without_witnesses_match_the_witnessed_sums(e1, e2, side):
    for ctx in (e1, e2):
        tuples = enumerate_delta_modules(ctx, side, 1)
        for u, v in itertools.product(tuples, repeat=2):
            got = delta_sum([u, v])
            want = delta_direct_sum([u, v])[0]
            assert got.name == want.name
            for attr in ("f_plain", "g_plain"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
            for comp in ("x", "y"):
                assert np.array_equal(getattr(got, comp).actions,
                                      getattr(want, comp).actions)


def test_regular_tuple_is_projective(ws_e0, ws_e1, ws_e2):
    for ws in (ws_e0, ws_e1, ws_e2):
        assert is_projective_delta(ws.tuples["Delta"])


def test_injectivity_of_the_regular_tuple(ws_e0, ws_e1):
    # the zero-bimodule glue of two copies of k is semisimple, so its
    # regular module is injective; gluing k x k through nonzero bimodules
    # produces a radical-square-zero ring that is not self-injective
    assert is_injective_delta(ws_e0.tuples["Delta"])
    assert not is_injective_delta(ws_e1.tuples["Delta"])


def rebuilt(v, ctx):
    """A checked copy of the tuple v over ctx, a context parsed from the
    same text as v's: an equal tuple whose verdicts no memo holds yet."""
    x, y = (Module(ring, v.side, part.dim, part.actions.copy(), name=part.name)
            for ring, part in ((ctx.algebra_a, v.x), (ctx.algebra_b, v.y)))
    return DeltaModule(ctx, v.side, x, y, v.f_plain, v.g_plain, name=v.name)


@pytest.mark.parametrize("bound", [2, 3])
def test_both_routes_decide_right_tuples(e1, e2, fresh, bound, monkeypatch):
    """The structural routes run on right tuples and agree with the packed
    routes; once their final rank test is made to lie, every tuple that
    reaches it raises.  The lying test is asked about copies of the tuples
    over a fresh parse, so it runs: the verdicts on the originals are
    memoised by value."""
    for name, ctx in (("E1", e1), ("E2", e2)):
        tuples = enumerate_delta_modules(ctx, RIGHT, bound)
        projective = [v for v in tuples if is_projective_delta(v)]
        injective = [v for v in tuples if is_injective_delta(v)]
        assert projective and injective
        other = fresh(name).single_context()
        reached = []
        with monkeypatch.context() as patch:
            honest = morita._bijective
            patch.setattr(morita, "_bijective",
                          lambda maps: reached.append(maps) or not honest(maps))
            for v in projective:
                with pytest.raises(InternalCheckError, match="projectivity"):
                    is_projective_delta(rebuilt(v, other))
            for v in injective:
                with pytest.raises(InternalCheckError, match="injectivity"):
                    is_injective_delta(rebuilt(v, other))
        assert len(reached) == len(projective) + len(injective)


def test_structure_square_violation_is_rejected(e2):
    simple = Module(e2.algebra_a, LEFT, 1,
                    np.array([[[1]], [[0]]], dtype=np.int64))
    ta = induce_from_a(e2, simple)
    good = DeltaModuleMap(ta, ta, np.eye(1, dtype=np.int64),
                          np.eye(ta.y.dim, dtype=np.int64))
    assert not good.is_zero()
    with pytest.raises(ValidationError):
        DeltaModuleMap(ta, ta, np.eye(1, dtype=np.int64),
                       np.zeros((ta.y.dim, ta.y.dim), dtype=np.int64))


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("p", [2, 3])
def test_induced_splitting_matches_the_isomorphism_scan(fixture_over, side, p):
    """The section-and-rank decision agrees with scanning for an isomorphism
    between the tuple and the sum induced from its structural cokernels."""
    outcomes = set()
    for name in ("E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for v in enumerate_delta_modules(ctx, side, 2):
            p0 = quotient_module(v.x, la.image_basis(v.g_map.matrix, p).T)[0]
            q0 = quotient_module(v.y, la.image_basis(v.f_map.matrix, p).T)[0]
            candidate = delta_sum([induce_from_a(ctx, p0), induce_from_b(ctx, q0)])
            scanned = delta_is_isomorphic(candidate, v) is not None
            found = induced_isomorphism(v)
            assert (found is not None) == scanned, v.describe()
            if found is not None:
                assert [m.actions.tolist() for m in found[0]] \
                    == [m.actions.tolist() for m in (p0, q0)]
            outcomes.add(scanned)
    assert outcomes == {True, False}


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("p", [2, 3])
def test_coinduced_splitting_matches_the_isomorphism_scan(fixture_over, side, p):
    """The structural route of is_injective_delta, the section-and-rank
    decision on the dual, agrees with scanning for an isomorphism between
    the tuple and the sum co-induced from the kernels of its transposed
    structure maps, both injective."""
    outcomes = set()
    for name in ("E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for v in enumerate_delta_modules(ctx, side, 2):
            x1 = kernel_module(tilde(v, "a"))[0]
            y1 = kernel_module(tilde(v, "b"))[0]
            candidate = delta_sum([coinduce_from_a(ctx, x1), coinduce_from_b(ctx, y1)])
            scanned = (is_injective(x1) and is_injective(y1)
                       and delta_is_isomorphic(v, candidate) is not None)
            found = induced_isomorphism(v.dual, is_projective)
            assert (found is not None) == scanned, v.describe()
            outcomes.add(scanned)
    assert outcomes == {True, False}


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("p", [2, 3])
def test_the_coinduced_rank_test_passes_whenever_it_is_reached(fixture_over,
                                                               monkeypatch, side, p):
    """The section route on the dual reaches its rank test on tuples up to
    dimension 3 and never fails it.  Dualising turns the structure maps of
    v's dual and their cokernels into v's tilde maps and their kernels, so
    the test is reached when v has onto tilde maps whose kernels are
    injective and retract, and every such v is co-induced: the adjoint map
    from v to the co-induced sum is one-to-one, and the dimensions agree
    because x/X' is Hom(M, y) and Hom(M, Y') -> Hom(M, y) is onto, its
    cokernel lying in Hom(M, Hom(N, x)) = Hom(N (x) M, x) = 0; the y side
    mirrors it.  The rank test stays as the check of that argument."""
    outcomes = []
    bijective = morita._bijective

    def recording(maps):
        outcomes.append(bijective(maps))
        return outcomes[-1]

    monkeypatch.setattr(morita, "_bijective", recording)
    for name in ("E1", "E2"):
        for v in enumerate_delta_modules(fixture_over(name, p).single_context(),
                                         side, 3):
            induced_isomorphism(v.dual, is_projective)
    assert outcomes and all(outcomes)


def test_an_exhausted_tuple_isomorphism_scan_names_both_tuples(ws_e2, monkeypatch):
    delta = ws_e2.tuples["Delta"]
    copy = delta_sum([delta])          # an equal tuple, not the same object
    assert len(delta_hom_space(delta, copy)) == 5
    monkeypatch.setenv("MORITA_ENUM_BUDGET", "31")
    with pytest.raises(BudgetExceededError,
                       match=r"^isomorphism scan of 32 combinations exceeds budget 31 "
                             r"between Delta and \(Delta\)$"):
        delta_is_isomorphic(delta, copy)


def _two_block_scan(u, v, homs):
    """The reference: the first combination of ``homs`` whose two component
    blocks are both invertible, as (a_matrix, b_matrix), or None."""
    vecs = [h.coord_vector() for h in homs]
    shapes = [(v.x.dim, u.x.dim, 0), (v.y.dim, u.y.dim, u.x.dim * u.x.dim)]
    coeffs = find_invertible_combination(vecs, shapes, u.p)
    if coeffs is None:
        return None
    return tuple(sum(int(c) * block for c, block in zip(coeffs, blocks)) % u.p
                 for blocks in ([h.a_matrix for h in homs],
                                [h.b_matrix for h in homs]))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E1", "E2"])
def test_tuple_isomorphisms_equal_the_two_block_scan(fixture_over, monkeypatch,
                                                     name, p):
    """The packed-matrix scan of delta_is_isomorphic returns the map the
    scan over both component blocks returns: a block-diagonal matrix is
    invertible exactly when both blocks are, so the first hit is the same.
    Pairs of enumerated tuples and of a tuple with a twisted copy of each,
    on both sides, at bound 2."""
    seen = []

    def recording(u, v):
        seen.append(delta_hom_space(u, v))
        return seen[-1]

    monkeypatch.setattr(morita, "delta_hom_space", recording)
    ctx = fixture_over(name, p).single_context()
    found = 0
    for side in (LEFT, RIGHT):
        tuples = [v for v in enumerate_delta_modules(ctx, side, 2) if v.dim]
        pool = tuples + [_twist(v) for v in tuples]
        for u in tuples:
            for v in pool:
                if v is u or (u.x.dim, u.y.dim) != (v.x.dim, v.y.dim):
                    continue
                seen.clear()
                got = delta_is_isomorphic(u, v)
                want = _two_block_scan(u, v, seen[0]) if seen[0] else None
                if want is None:
                    assert got is None, (u.describe(), v.describe())
                else:
                    assert got is not None, (u.describe(), v.describe())
                    assert np.array_equal(got.a_matrix, want[0])
                    assert np.array_equal(got.b_matrix, want[1])
                    found += 1
    assert found


def _closed_span_pairs(v):
    """The invariant span pairs that f and g carry into each other, decided
    one plain column at a time: the reference for ``delta_invariant_pairs``."""
    def carried(plain, span):
        return all(la.solve(span, column, v.p) is not None
                   for column in plain.T)

    lay = v.layout
    return [(sx, sy) for sx in invariant_subspaces(v.x)
            for sy in invariant_subspaces(v.y)
            if carried(lay.unblocks((v.f_blocks @ sx) % v.p), sy)
            and carried(lay.unblocks((v.g_blocks @ sy) % v.p), sx)]


def _listed(pairs):
    return [(sx.tolist(), sy.tolist()) for sx, sy in pairs]


@pytest.mark.parametrize("p", [2, 3])
def test_derived_tuples_equal_checked_ones(fixture_over, monkeypatch, p):
    # Sums, duals, sub-tuples (kernels among them), quotients, unpacked and
    # induced tuples skip the tuple check and build their tensor products
    # and structure maps on first use, unchecked; co-induced tuples are
    # duals of induced ones.  Each must equal the fully checked tuple on the
    # same data, on checked components.
    made, builders = [], set()
    derived = morita.DeltaModule._derived.__func__

    def recording(cls, *args):
        builders.add(sys._getframe(1).f_code.co_name)
        made.append(derived(cls, *args))
        return made[-1]

    monkeypatch.setattr(morita.DeltaModule, "_derived", classmethod(recording))
    for name in ("E0", "E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            tuples = enumerate_delta_modules(ctx, side, 2)
            for i, u in enumerate(tuples):
                dual = delta_dual(u)
                # The dual's components are fresh objects, so the memos of
                # induce and coinduce on them do not hit.
                for corner in CORNERS:
                    induce(ctx, component(dual, corner), corner)
                    coinduce(ctx, component(dual, corner), corner)
                unpack(u.packed, ctx)
                delta_short_exact_sequences(u)
                u.cover()[1].kernel()
                assert _listed(delta_invariant_pairs(u)) \
                    == _listed(_closed_span_pairs(u))
                for v in tuples[i:]:
                    delta_dual(delta_sum([u, v]))
    assert builders == {"delta_sum", "delta_dual", "delta_submodule",
                        "delta_quotient", "unpack", "induce"}
    for v in made:
        for comp in (v.x, v.y):
            Module(comp.algebra, comp.side, comp.dim, comp.actions)
        for structure_map in (v.f_map, v.g_map):
            ModuleMap(structure_map.source, structure_map.target,
                      structure_map.matrix)
        checked = morita.DeltaModule(v.context, v.side, v.x, v.y, v.f_plain,
                                     v.g_plain, name=v.name)
        assert v.tensor_f is checked.tensor_f
        assert v.tensor_g is checked.tensor_g
        assert v.f_map.source is checked.f_map.source
        assert v.g_map.source is checked.g_map.source
        assert np.array_equal(v.f_map.matrix, checked.f_map.matrix)
        assert np.array_equal(v.g_map.matrix, checked.g_map.matrix)


@pytest.mark.parametrize("p", [2, 3])
def test_derived_tuple_maps_pass_the_full_map_check(fixture_over, monkeypatch,
                                                    p):
    # Hom bases and their combinations, sum witnesses, the maps of short
    # exact sequences, covers, composites, duals and the maps of the
    # induction functor skip the map check; the adjoints of co-induction
    # are duals of induced ones.  Each must pass it.
    made, builders = [], set()
    intertwining = DeltaModuleMap._intertwining.__func__

    def recording(cls, *args):
        builders.add(sys._getframe(1).f_code.co_name)
        made.append(intertwining(cls, *args))
        return made[-1]

    monkeypatch.setattr(DeltaModuleMap, "_intertwining", classmethod(recording))
    for name in ("E0", "E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            regular = dict(zip(CORNERS, (ctx.algebra_a.regular_module(side),
                                         ctx.algebra_b.regular_module(side))))
            tuples = enumerate_delta_modules(ctx, side, 2)
            for i, u in enumerate(tuples):
                delta_short_exact_sequences(u)
                u.cover()
                induced_isomorphism(u)
                is_injective_delta(u)
                delta_is_isomorphic(u, u)
                delta_is_isomorphic(u, delta_sum([u]))
                for corner in CORNERS:
                    for kind in ("induce", "coinduce"):
                        report = check_adjunction(ctx, regular[corner], u,
                                                  f"{kind}-{corner}")
                        assert report.verdict is Verdict.PASS, report.detail
                    for phi in hom_space(regular[corner], component(u, corner)):
                        induce_map(ctx, phi, corner)
                for v in tuples[i:]:
                    delta_hom_space(u, v)
                    delta_direct_sum([u, v])
    assert builders == {"delta_hom_space", "delta_direct_sum",
                        "delta_submodule", "delta_quotient", "compose",
                        "_delta_cover", "induce_map", "induced_adjoint",
                        "dual", "delta_is_isomorphic", "identity"}
    for phi in made:
        checked = DeltaModuleMap(phi.source, phi.target, phi.a_matrix,
                                 phi.b_matrix)
        for derived, full in ((phi.a_map, checked.a_map),
                              (phi.b_map, checked.b_map)):
            assert derived.source is full.source
            assert derived.target is full.target
            assert np.array_equal(derived.matrix, full.matrix)


def _descends(plain, tensor, target):
    """The law a structure map obeys, checked on the tensor quotient: it
    vanishes on the relations and, through the section, is a module map
    into ``target``."""
    p = tensor.p
    induced = (plain @ tensor.section) % p
    if np.any((induced @ tensor.projection - plain) % p):
        return False
    try:
        ModuleMap(tensor.module, target, induced)
    except ValidationError:
        return False
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_tuples_are_accepted_exactly_when_they_pack_to_modules(fixture_over, p):
    """Three random pairs of structure maps on every pair of components up
    to dimension 2: the tuple check, the module laws of the packed actions,
    accepts exactly the candidates whose f and g descend through the tensor
    relations to module maps."""
    rng = np.random.default_rng(p)
    outcomes = set()
    for name in ("E0", "E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            lay = morita.tuple_layout(ctx, side)
            for x, y, _ in itertools.product(
                    enumerate_modules(ctx.algebra_a, side, 2),
                    enumerate_modules(ctx.algebra_b, side, 2), range(3)):
                f = rng.integers(0, p, (y.dim, lay.f_bimodule.dim * x.dim))
                g = rng.integers(0, p, (x.dim, lay.g_bimodule.dim * y.dim))
                lawful = (_descends(f, lay.tensor(lay.f_bimodule, x), y)
                          and _descends(g, lay.tensor(lay.g_bimodule, y), x))
                try:
                    morita.DeltaModule(ctx, side, x, y, f, g)
                    accepted = True
                except ValidationError:
                    accepted = False
                assert accepted == lawful, (name, side, x.describe(), y.describe())
                outcomes.add(accepted)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", [2, 3])
def test_tuple_maps_are_accepted_exactly_when_their_squares_commute(
        fixture_over, p):
    """Random component matrices between random pairs of bound-2 tuples:
    the map check, one ``ModuleMap`` of the packed modules, accepts exactly
    the pairs whose components are module maps and make both structure
    squares commute."""
    rng = np.random.default_rng(p)
    outcomes = set()
    for name in ("E0", "E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            tuples = enumerate_delta_modules(ctx, side, 2)
            for _ in range(60):
                u, v = (tuples[i] for i in rng.integers(0, len(tuples), 2))
                a = rng.integers(0, p, (v.x.dim, u.x.dim))
                b = rng.integers(0, p, (v.y.dim, u.y.dim))
                try:
                    ModuleMap(u.x, v.x, a)
                    ModuleMap(u.y, v.y, b)
                    lawful = not (np.any((b @ u.f_blocks - v.f_blocks @ a) % p)
                                  or np.any((a @ u.g_blocks - v.g_blocks @ b) % p))
                except ValidationError:
                    lawful = False
                try:
                    DeltaModuleMap(u, v, a, b)
                    accepted = True
                except ValidationError:
                    accepted = False
                assert accepted == lawful, (name, side, u.describe(), v.describe())
                outcomes.add(accepted)
    assert outcomes == {True, False}


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_sub_tuples_restrict_every_structure_block(e1, e2, side):
    # One solve restricts all blocks of a structure map; a span that one
    # nonzero block leaves is refused, and the whole tuple restricts to
    # itself.
    refused = 0
    for ctx in (e1, e2):
        for v in enumerate_delta_modules(ctx, side, 2):
            whole_x, whole_y = la.eye(v.x.dim), la.eye(v.y.dim)
            sub = morita.delta_submodule(v, whole_x, whole_y)[0]
            assert np.array_equal(sub.f_plain, v.f_plain)
            assert np.array_equal(sub.g_plain, v.g_plain)
            if v.f_plain.any():
                with pytest.raises(ValidationError, match="^f does not carry"):
                    morita.delta_submodule(v, whole_x, la.zeros(v.y.dim, 0))
                refused += 1
            if v.g_plain.any():
                with pytest.raises(ValidationError, match="^g does not carry"):
                    morita.delta_submodule(v, la.zeros(v.x.dim, 0), whole_y)
                refused += 1
    assert refused
