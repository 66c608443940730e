"""Exhaustive generation of modules and tuples up to isomorphism.

Every biconditional checked in this package quantifies over some universe of
modules; these functions produce those universes by brute force and are the
independent oracle the theorem harnesses lean on.

A module structure on k^d is pinned down by the action matrices of a small
generating set of the algebra: first express each basis element as a linear
combination of words in the generators, then scan all p^(r*d*d) assignments
of generator matrices, reconstruct the full action of each candidate, and
keep the assignments satisfying the unit and multiplication laws.  The scan
is chunked and vectorised.

Survivors are reduced modulo isomorphism without any isomorphism test: the
isomorphism classes are the orbits of a group acting on the scanned codes,
GL(d) by conjugation for modules and Aut(x) x Aut(y) on the structure-map
space Hom(M (x) X, Y) x Hom(N (x) Y, X) for tuples with fixed components.
Orbits are labelled by a vectorised union-find under a generating set of
the group, and the smallest code of each orbit is its representative.

Scan order is deterministic, and each representative is the first member of
its class in that order, so enumeration output (and every count frozen in
the tests) is stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg as la
from .algebra import (LEFT, Algebra, Bimodule, Module, ModuleMap,
                      field_algebra, hom_space, quotient_module, scan_budget,
                      submodule)
from .memo import memo
from .morita import (DeltaModule, DeltaModuleMap, MoritaContext, TupleLayout,
                     delta_submodule, delta_quotient, tuple_layout)
from .report import BudgetExceededError, InternalCheckError
from .tensor import TensorModule, tensor_map

_CHUNK = 1 << 13


@dataclass(eq=False)
class GeneratorPlan:
    """A generating set of an algebra plus word data to rebuild full actions.

    ``words`` index into ``generators`` ((), the empty word, is the unit) and
    their values form a basis of the algebra; ``coefficients[j, l]`` is the
    weight of word j in basis element l.
    """

    algebra: Algebra
    generators: list[int]
    words: list[tuple[int, ...]]
    coefficients: np.ndarray


def _word_basis(algebra: Algebra, generators: list[int]):
    """Span-enlarging words in the generators, BFS by length.

    Keeps a word only when its value leaves the current span, which keeps the
    kept values linearly independent; pruned words contribute nothing new, so
    the kept span still equals the generated unital subalgebra.
    """
    p = algebra.p
    gen_elements = [la.eye(algebra.dim)[:, g] for g in generators]
    words: list[tuple[int, ...]] = [()]
    values = {(): algebra.unit.copy()}
    rows = [algebra.unit.copy()]
    frontier = [()]
    while frontier:
        next_frontier = []
        for w in frontier:
            for s in range(len(generators)):
                value = algebra.multiply(values[w], gen_elements[s])
                if la.coords_in_span(rows, value, p) is None:
                    word = w + (s,)
                    words.append(word)
                    values[word] = value
                    rows.append(value)
                    next_frontier.append(word)
        frontier = next_frontier
    return words, values, rows


@memo("algebra")
def generator_plan(algebra: Algebra) -> GeneratorPlan:
    """Greedy generating set over basis elements, minimised by drop-one."""
    p = algebra.p
    chosen: list[int] = []
    words, values, rows = _word_basis(algebra, chosen)
    for i in range(algebra.dim):
        if len(words) == algebra.dim:
            break
        if la.coords_in_span(rows, la.eye(algebra.dim)[:, i], p) is None:
            chosen.append(i)
            words, values, rows = _word_basis(algebra, chosen)
    for g in list(chosen):
        trial = [h for h in chosen if h != g]
        t_words, t_values, t_rows = _word_basis(algebra, trial)
        if len(t_words) == algebra.dim:
            chosen, words, values, rows = trial, t_words, t_values, t_rows
    # Express each basis element in the word values: columns of V are the
    # values, so V @ coefficients = identity.
    value_cols = np.stack([values[w] for w in words], axis=1) % p
    coefficients = la.solve(value_cols, la.eye(algebra.dim), p)
    return GeneratorPlan(algebra, chosen, words, coefficients)


def _structures_of_dim(algebra: Algebra, side: str, d: int,
                       budget: int | None) -> tuple[np.ndarray, np.ndarray]:
    """All valid action tensors of shape (algebra.dim, d, d), no iso reduction.

    Returns (codes, actions): the ascending scan codes of the valid
    generator-matrix assignments and their full action tensors.
    """
    p = algebra.p
    if d == 0:
        return (np.zeros(1, dtype=np.int64),
                np.zeros((1, algebra.dim, 0, 0), dtype=np.int64))
    plan = generator_plan(algebra)
    r = len(plan.generators)
    total = p ** (r * d * d)
    limit = budget if budget is not None else scan_budget()
    if total > limit:
        raise BudgetExceededError(
            f"module scan over {algebra.name or '<algebra>'} at dim {d} needs "
            f"{total} candidates, budget is {limit}")
    word_index = {w: j for j, w in enumerate(plan.words)}
    structure = algebra.structure
    identity = la.eye(d)
    found_codes: list[np.ndarray] = []
    found: list[np.ndarray] = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        n = idx.size
        mats = la.digits(idx, p, r * d * d).reshape(n, r, d, d)
        # Word values by prefix: BFS order guarantees each prefix was kept.
        values = np.empty((n, len(plan.words), d, d), dtype=np.int64)
        for j, w in enumerate(plan.words):
            if not w:
                values[:, j] = identity
            elif side == LEFT:
                values[:, j] = np.matmul(values[:, word_index[w[:-1]]],
                                         mats[:, w[-1]]) % p
            else:
                values[:, j] = np.matmul(mats[:, w[-1]],
                                         values[:, word_index[w[:-1]]]) % p
        actions = np.transpose(
            np.tensordot(plan.coefficients, values, axes=([0], [1])),
            (1, 0, 2, 3)) % p
        # The unit law holds by construction (the empty word is the unit), so
        # only the multiplication law filters.  One row of it prunes cheaply
        # before the full quadratic check.
        keep = _law_mask(actions, structure, side, p, rows=[0])
        actions, idx = actions[keep], idx[keep]
        keep = _law_mask(actions, structure, side, p)
        found.append(actions[keep])
        found_codes.append(idx[keep])
    return np.concatenate(found_codes), np.concatenate(found)


def _law_mask(actions: np.ndarray, structure: np.ndarray, side: str, p: int,
              rows: list[int] | None = None) -> np.ndarray:
    """Mask of candidates satisfying act(b_i) act(b_j) = act(b_i b_j).

    ``rows`` restricts i to the given basis indices; None checks all pairs.
    For right modules the composition order is reversed.
    """
    sub = actions if rows is None else actions[:, rows]
    st = structure if rows is None else structure[rows]
    if side == LEFT:
        products = np.matmul(sub[:, :, None], actions[:, None, :])
    else:
        products = np.matmul(actions[:, None, :], sub[:, :, None])
    expected = np.transpose(
        np.tensordot(st, actions, axes=([2], [1])), (2, 0, 1, 3, 4))
    return ~np.any((products - expected) % p, axis=(1, 2, 3, 4))


def _orbit_minima(size: int, moves) -> np.ndarray:
    """The smallest element of each orbit on 0..size-1, ascending.

    ``moves`` are the actions of a generating set of a finite group on
    0..size-1, each mapping an array of elements to their images.  The
    orbits are the connected components of the graph with edges c - move(c),
    labelled by a vectorised union-find: a pass hooks the larger root of
    every edge under the smaller, pointer jumping then flattens the forest,
    and a pass that hooks nothing ends the loop.  Every label is a member
    of its own orbit and never exceeds its element, so the final roots are
    the orbit minima.  Edges are recomputed chunk by chunk, so memory stays
    one label per element whatever the size of the group.
    """
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


def _linear_move(matrix: np.ndarray, p: int):
    """The action of ``matrix`` on codes of coefficient vectors (digit k is
    the coefficient of basis element k)."""
    width = matrix.shape[0]
    powers = p ** np.arange(width, dtype=np.int64)

    def move(codes: np.ndarray) -> np.ndarray:
        return ((la.digits(codes, p, width) @ matrix.T) % p) @ powers

    return move


def _coords(basis: list[np.ndarray], images: list[np.ndarray], p: int,
            space: str) -> np.ndarray:
    """Coordinates of ``images`` in the span of ``basis``, one column each.

    ``space`` names the hom space the basis spans.  An image outside it is
    a group element that failed to preserve the space, which is a defect,
    not an input condition.
    """
    stacked = np.stack([la.vec(b) for b in basis], axis=1)
    sol = la.solve(stacked, np.stack([la.vec(m) for m in images], axis=1), p)
    if sol is None:
        raise InternalCheckError(f"enumeration: a map left the space of {space}")
    return sol


def _conjugation_move(g: np.ndarray, codes: np.ndarray, r: int, p: int):
    """The action X -> g X g^-1 on each of the r generator matrices, as a
    map on positions in the ascending array ``codes`` of valid structures."""
    d = g.shape[0]
    g_inv = la.inverse(g, p)
    powers = p ** np.arange(r * d * d, dtype=np.int64)

    def move(positions: np.ndarray) -> np.ndarray:
        mats = la.digits(codes[positions], p, r * d * d).reshape(
            positions.size, r, d, d)
        moved = ((g @ mats % p) @ g_inv % p).reshape(positions.size, -1) @ powers
        found = np.minimum(np.searchsorted(codes, moved), codes.size - 1)
        if np.any(codes[found] != moved):
            raise InternalCheckError(
                "a conjugate of a valid module structure failed the action law")
        return found

    return move


@memo("algebra")
def _classes_of_dim(algebra: Algebra, side: str, d: int,
                    budget: int) -> list[Module]:
    """First structure in scan order of each isomorphism class of dim d.

    Two structures on k^d are isomorphic exactly when some g in GL(d)
    conjugates the generator matrices of one into the other's, so the
    classes are the GL(d)-orbits on the valid codes.  GL(d) is the unit
    group of the plain space k^d; its scan of p^(d*d) endomorphisms is no
    larger than the structure scan whenever there is more than one
    candidate.
    """
    codes, candidates = _structures_of_dim(algebra, side, d, budget)
    moves = []
    if codes.size > 1:
        plain = Module(field_algebra(algebra.field), LEFT, d, la.eye(d)[None])
        r = len(generator_plan(algebra).generators)
        moves = [_conjugation_move(g, codes, r, algebra.p)
                 for g in _unit_generators(plain, budget)]
    return [Module(algebra, side, d, candidates[k],
                   name=f"enum[{algebra.name or 'R'}/{side}/{d}/{k}]")
            for k in _orbit_minima(codes.size, moves)]


def enumerate_modules(algebra: Algebra, side: str, max_dim: int,
                      budget: int | None = None) -> list[Module]:
    """One representative per isomorphism class of modules of dim <= max_dim."""
    budget = budget if budget is not None else scan_budget()
    out: list[Module] = []
    for d in range(max_dim + 1):
        out.extend(_classes_of_dim(algebra, side, d, budget))
    return out


def enumerate_delta_modules(ctx: MoritaContext, side: str, max_dim: int,
                            budget: int | None = None) -> list[DeltaModule]:
    """One representative per isomorphism class of tuples with component
    dimensions <= max_dim.

    Scans all pairs (x, y) of component classes.  For each pair, a candidate
    is a code over the two structural hom spaces, digit k the coefficient of
    basis map k (the f-basis first, then the g-basis), and two candidates
    are isomorphic exactly when Aut(x) x Aut(y) moves one to the other:
    alpha acts by f -> f (M (x) alpha^-1) and g -> alpha g, beta by
    f -> beta f and g -> g (N (x) beta^-1) (alpha^-1 (x) N and so on for
    right tuples).  Orbits are labelled under generating sets of the two
    unit groups, and the smallest code of each orbit, the first member of
    its class in scan order, is built as the representative; its name
    carries its index among all candidates of the run.  Bucketing by
    component identity is sound because the components are drawn from fixed
    representative lists.  The structure-map space of each pair and the
    End scan of each component count against the budget.
    """
    return _delta_classes(ctx, side, max_dim,
                          budget if budget is not None else scan_budget())


@memo("ctx")
def _delta_classes(ctx: MoritaContext, side: str, max_dim: int,
                   limit: int) -> list[DeltaModule]:
    """enumerate_delta_modules under a resolved budget, memoised on ctx."""
    p = ctx.p
    xs = enumerate_modules(ctx.algebra_a, side, max_dim, limit)
    ys = enumerate_modules(ctx.algebra_b, side, max_dim, limit)
    lay = tuple_layout(ctx, side)
    out: list[DeltaModule] = []
    counter = 0
    for x in xs:
        for y in ys:
            tf = lay.tensor(lay.f_bimodule, x)
            tg = lay.tensor(lay.g_bimodule, y)
            f_basis = [h.matrix for h in hom_space(tf.module, y)]
            g_basis = [h.matrix for h in hom_space(tg.module, x)]
            hf, hg = len(f_basis), len(g_basis)
            size = p ** (hf + hg)
            if size > limit:
                raise BudgetExceededError(
                    f"structural-map scan needs {size} candidates, "
                    f"budget is {limit}")
            moves = []
            if hf + hg:
                where = f"maps over ({x.describe()}, {y.describe()})"
                for alpha in _unit_generators(x, limit):
                    twist = _twist(tf, lay, lay.f_bimodule, la.inverse(alpha, p))
                    moves.append(_tuple_move(
                        f_basis, [(f @ twist) % p for f in f_basis],
                        g_basis, [(alpha @ g) % p for g in g_basis], p, where))
                for beta in _unit_generators(y, limit):
                    twist = _twist(tg, lay, lay.g_bimodule, la.inverse(beta, p))
                    moves.append(_tuple_move(
                        f_basis, [(beta @ f) % p for f in f_basis],
                        g_basis, [(g @ twist) % p for g in g_basis], p, where))
            for code in _orbit_minima(size, moves):
                digits = la.digits(np.array([code]), p, hf + hg)[0]
                f_mat = la.zeros(y.dim, tf.dim)
                for c, h in zip(digits[:hf], f_basis):
                    f_mat = (f_mat + c * h) % p
                g_mat = la.zeros(x.dim, tg.dim)
                for c, h in zip(digits[hf:], g_basis):
                    g_mat = (g_mat + c * h) % p
                out.append(DeltaModule(
                    ctx, side, x, y,
                    (f_mat @ tf.projection) % p, (g_mat @ tg.projection) % p,
                    name=f"enum[{ctx.name or 'ctx'}/{side}/{counter + code}]"))
            counter += size
    return out


def _twist(tm: TensorModule, lay: TupleLayout, bimodule: Bimodule,
           auto: np.ndarray) -> np.ndarray:
    """Matrix of id (x) auto on the tensor quotient ``tm`` of ``bimodule``
    with a component."""
    return tensor_map(tm, tm, *lay.order(la.eye(bimodule.dim), auto)).matrix


def _tuple_move(f_basis, f_images, g_basis, g_images, p: int, where: str):
    """The code-space action sending basis map k of each hom space to the
    given image; block diagonal because f and g move separately."""
    hf, hg = len(f_basis), len(g_basis)
    matrix = la.zeros(hf + hg, hf + hg)
    if hf:
        matrix[:hf, :hf] = _coords(f_basis, f_images, p, f"f-{where}")
    if hg:
        matrix[hf:, hf:] = _coords(g_basis, g_images, p, f"g-{where}")
    return _linear_move(matrix, p)


@memo("module")
def _unit_generators(module: Module, limit: int) -> list[np.ndarray]:
    """A generating set of Aut(module), greedy in the scan order of End.

    Every element of End(module) is scanned once, under the budget, and
    tested for invertibility exactly.  Units are walked in scan order and
    one is kept when it lies outside the subgroup generated by those kept
    so far.  That subgroup is the set reached from the identity by right
    multiplication with the kept units, each a linear map on End codes, and
    the walk stops once it holds every unit.
    """
    if module.dim == 0:
        return []
    p = module.p
    basis = [h.matrix for h in hom_space(module, module)]
    e = len(basis)
    total = p ** e
    if total > limit:
        raise BudgetExceededError(
            f"unit scan of End({module.describe()}) needs {total} candidates, "
            f"budget is {limit}")
    stacked = np.stack(basis)
    is_unit = np.zeros(total, dtype=bool)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        mats = np.tensordot(la.digits(idx, p, e), stacked, axes=1) % p
        is_unit[idx] = la.nonsingular_mask(mats, p)
    powers = p ** np.arange(e, dtype=np.int64)
    where = f"End({module.describe()})"
    identity = int(_coords(basis, [la.eye(module.dim)], p, where)[:, 0]
                   @ powers)
    in_group = np.zeros(total, dtype=bool)
    in_group[identity] = True
    members = np.array([identity], dtype=np.int64)
    n_units = int(is_unit.sum())
    gens: list[np.ndarray] = []
    right: list = []
    for code in np.flatnonzero(is_unit):
        if members.size == n_units:
            break
        if in_group[code]:
            continue
        unit = np.tensordot(la.digits(np.array([code]), p, e)[0], stacked,
                            axes=1) % p
        gens.append(unit)
        step = _linear_move(
            _coords(basis, [(b @ unit) % p for b in basis], p, where), p)
        right.append(step)
        frontier, moves = members, [step]
        while frontier.size:
            reached = np.sort(np.concatenate(
                [move(frontier[s:s + _CHUNK]) for move in moves
                 for s in range(0, frontier.size, _CHUNK)]))
            # dedupe by hand: np.unique imports numpy.ma on first use
            reached = reached[np.append(True, reached[1:] != reached[:-1])]
            frontier = reached[~in_group[reached]]
            in_group[frontier] = True
            members = np.concatenate([members, frontier])
            moves = right
    return gens


def invariant_subspaces(module: Module) -> list[np.ndarray]:
    """Column bases of all action-invariant subspaces, zero and full included.

    Subspaces are enumerated through their reduced-row-echelon row bases, one
    representative per subspace, then filtered by invariance.
    """
    return [span for span in _rref_patterns(module.dim, module.p)
            if la.restrict(module.actions, span, span, module.p) is not None]


def _rref_patterns(d: int, p: int):
    """Column bases of all subspaces of GF(p)^d, via rref row patterns."""
    yield la.zeros(d, 0)
    for r in range(1, d + 1):
        for pivots in combinations(range(d), r):
            free_cells = [(i, j) for i in range(r) for j in range(d)
                          if j > pivots[i] and j not in pivots]
            base = la.zeros(r, d)
            for i, c in enumerate(pivots):
                base[i, c] = 1
            for code in range(p ** len(free_cells)):
                rows = base.copy()
                rem = code
                for (i, j) in free_cells:
                    rows[i, j] = rem % p
                    rem //= p
                yield rows.T.copy()


def short_exact_sequences(module: Module) \
        -> list[tuple[Module, ModuleMap, Module, ModuleMap]]:
    """All extensions 0 -> sub -> module -> quotient -> 0 from invariant subspaces."""
    out = []
    for span in invariant_subspaces(module):
        sub, incl = submodule(module, span.T)
        quot, proj, _ = quotient_module(module, span)
        out.append((sub, incl, quot, proj))
    return out


def delta_invariant_pairs(v: DeltaModule) -> list[tuple[np.ndarray, np.ndarray]]:
    """Column-basis pairs (in x, in y) spanning sub-tuples of v: invariant
    spans that f and g carry into each other."""
    p, y_spans = v.p, invariant_subspaces(v.y)
    return [(span_x, span_y) for span_x in invariant_subspaces(v.x)
            for span_y in y_spans
            if la.restrict(v.f_blocks, span_x, span_y, p) is not None
            and la.restrict(v.g_blocks, span_y, span_x, p) is not None]


def delta_short_exact_sequences(v: DeltaModule) \
        -> list[tuple[DeltaModule, DeltaModuleMap, DeltaModule, DeltaModuleMap]]:
    """All extensions 0 -> sub -> v -> quotient -> 0 of tuples."""
    out = []
    for span_x, span_y in delta_invariant_pairs(v):
        sub, incl = delta_submodule(v, span_x, span_y)
        quot, proj = delta_quotient(v, span_x, span_y)
        out.append((sub, incl, quot, proj))
    return out
