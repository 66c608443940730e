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
the group, and the smallest code of each orbit is its representative.  The
generating set of Aut(x) is scanned, inverted and twisted once per
component, not once per pair, and the tuple representatives of a pair are
derived together, without the tuple check: a combination of hom-space basis
maps always gives a tuple.

Scan order is deterministic, and each representative is the first member of
its class in that order, so enumeration output (and every count frozen in
the tests) is stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg as la
from .algebra import (LEFT, Algebra, Bimodule, Module, ModuleMap, _law_defects,
                      field_algebra, hom_space, scan_budget)
from .memo import memo
from .morita import DeltaModule, MoritaContext, TupleLayout, tuple_layout
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
                       limit: int) -> tuple[np.ndarray, np.ndarray]:
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
        for rows in ([0], None):
            defects = _law_defects(actions, structure, side, p, rows)
            keep = ~defects.any(axis=(1, 2, 3, 4))
            actions, idx = actions[keep], idx[keep]
        found.append(actions)
        found_codes.append(idx)
    return np.concatenate(found_codes), np.concatenate(found)


def _orbit_minima(size: int, moves) -> np.ndarray:
    """The smallest element of each orbit on 0..size-1, ascending.

    ``moves`` are the actions of a generating set of a finite group on
    0..size-1, each mapping an array of elements to their images.  Each
    move's images of all elements are computed once, chunk by chunk, and
    every pass below only indexes into them.  The orbits are the connected
    components of the graph with edges c - move(c), labelled by a
    vectorised union-find: a pass hooks the larger root of every edge under
    the smaller, pointer jumping then flattens the forest, and a pass that
    hooks nothing ends the loop.  Every label is a member of its own orbit
    and never exceeds its element, so the final roots are the orbit minima.
    Labels and images are ``int32`` below 2^31 elements, so memory is
    (1 + len(moves)) labels per element: at most 8 MB per move at the
    default scan budget of 2^21.
    """
    dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    images = []
    for move in moves:
        image = np.empty(size, dtype=dtype)
        for start in range(0, size, _CHUNK):
            image[start:start + _CHUNK] = move(
                np.arange(start, min(start + _CHUNK, size), dtype=np.int64))
        images.append(image)
    labels = np.arange(size, dtype=dtype)
    while True:
        hooked = False
        for image in images:
            for start in range(0, size, _CHUNK):
                a = labels[start:start + _CHUNK]
                b = labels[image[start:start + _CHUNK]]
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


def _coords(basis, images, p: int, space: str) -> np.ndarray:
    """Coordinates of ``images`` in the span of ``basis``, one column each.

    Both are sequences of matrices of one shape, lists or stacks.  ``space``
    names the hom space the basis spans.  An image outside it is a group
    element that failed to preserve the space, which is a defect, not an
    input condition.
    """
    stacked = np.reshape(basis, (len(basis), -1)).T
    sol = la.solve(stacked, np.reshape(images, (len(images), -1)).T, p)
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


def enumerate_modules(algebra: Algebra, side: str, max_dim: int) -> list[Module]:
    """One representative per isomorphism class of modules of dim <= max_dim.

    Each dimension is memoised on the algebra under the budget it was
    scanned with (``scan_budget()``), so no call is answered from a scan
    made under another budget."""
    budget = scan_budget()
    out: list[Module] = []
    for d in range(max_dim + 1):
        out.extend(_classes_of_dim(algebra, side, d, budget))
    return out


def enumerate_delta_modules(ctx: MoritaContext, side: str,
                            max_dim: int) -> list[DeltaModule]:
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
    its class in scan order, is its representative; its name carries its
    index among all candidates of the run.  The unit scan of each component
    and the inverses and twists of its generators are made once per
    component; each pair makes one solve per hom space for the moves of
    all generators, and derives all its representatives in one step (see
    ``_representatives``).  Bucketing by component identity is sound
    because the components are drawn from fixed representative lists.  The
    structure-map space of each pair and the End scan of each component
    count against the budget.
    """
    return _delta_classes(ctx, side, max_dim, scan_budget())


@memo("ctx")
def _delta_classes(ctx: MoritaContext, side: str, max_dim: int,
                   limit: int) -> list[DeltaModule]:
    """enumerate_delta_modules under a resolved budget, memoised on ctx.

    The twisted unit generators of a component are kept in a table local
    to the call and made at the first pair that needs them, so every budget
    error is raised where and in the order the pair scan first meets it.
    """
    p = ctx.p
    xs = enumerate_modules(ctx.algebra_a, side, max_dim)
    ys = enumerate_modules(ctx.algebra_b, side, max_dim)
    lay = tuple_layout(ctx, side)
    # A and B may be one algebra, so the x and y roles keep separate tables.
    x_units: dict = {}
    y_units: dict = {}
    out: list[DeltaModule] = []
    counter = 0
    for x in xs:
        tf = lay.tensor(lay.f_bimodule, x)
        for y in ys:
            tg = lay.tensor(lay.g_bimodule, y)
            f_basis = _stacked(hom_space(tf.module, y), y.dim, tf.dim)
            g_basis = _stacked(hom_space(tg.module, x), x.dim, tg.dim)
            hf, hg = len(f_basis), len(g_basis)
            size = p ** (hf + hg)
            if size > limit:
                raise BudgetExceededError(
                    f"structural-map scan needs {size} candidates, "
                    f"budget is {limit}")
            moves = []
            if hf + hg:
                moves = _tuple_moves(
                    f_basis, g_basis,
                    _twisted_units(x, tf, lay, lay.f_bimodule, limit, x_units),
                    _twisted_units(y, tg, lay, lay.g_bimodule, limit, y_units),
                    p, f"maps over ({x.describe()}, {y.describe()})")
            out += _representatives(ctx, side, x, y, tf, tg, f_basis, g_basis,
                                    _orbit_minima(size, moves), counter)
            counter += size
    return out


def _stacked(maps: list[ModuleMap], rows: int, cols: int) -> np.ndarray:
    """The matrices of ``maps`` as one (len(maps), rows, cols) stack."""
    return np.array([h.matrix for h in maps], dtype=np.int64).reshape(
        len(maps), rows, cols)


def _twisted_units(component: Module, tm: TensorModule, lay: TupleLayout,
                   bimodule: Bimodule, limit: int, made: dict) -> list:
    """The unit generators u of Aut(component), each with the matrix of its
    twist id (x) u^-1 on the tensor quotient ``tm`` of ``bimodule`` with the
    component, built by the checked ``tensor_map``; made on first use and
    kept in ``made``."""
    found = made.get(component)
    if found is None:
        identity = la.eye(bimodule.dim)
        found = made[component] = [
            (u, tensor_map(tm, tm, *lay.order(
                identity, la.inverse(u, component.p))).matrix)
            for u in _unit_generators(component, limit)]
    return found


def _tuple_moves(f_basis: np.ndarray, g_basis: np.ndarray, alphas: list,
                 betas: list, p: int, where: str) -> list:
    """The code-space actions of the twisted units ``alphas`` of Aut(x) and
    ``betas`` of Aut(y), each sending basis map k of each hom space to its
    image; block diagonal because f and g move separately.

    One solve per hom space takes the images under every generator as
    right-hand sides, as ``linalg.restrict`` does; the basis is independent,
    so each block is the one a solve of its own would give.
    """
    if not alphas and not betas:    # a trivial group; nothing to stack
        return []
    f_images = ([(f_basis @ twist) % p for _, twist in alphas]
                + [(beta @ f_basis) % p for beta, _ in betas])
    g_images = ([(alpha @ g_basis) % p for alpha, _ in alphas]
                + [(g_basis @ twist) % p for _, twist in betas])
    blocks = []
    for label, basis, images in (("f", f_basis, f_images),
                                 ("g", g_basis, g_images)):
        if len(basis):
            coords = _coords(basis, np.concatenate(images), p,
                             f"{label}-{where}")
            blocks.append(np.split(coords, len(images), axis=1))
        else:
            blocks.append([la.zeros(0, 0)] * len(images))
    return [_linear_move(la.block_diagonal([f, g]), p)
            for f, g in zip(*blocks)]


def _representatives(ctx: MoritaContext, side: str, x: Module, y: Module,
                     tf: TensorModule, tg: TensorModule, f_basis: np.ndarray,
                     g_basis: np.ndarray, codes: np.ndarray,
                     counter: int) -> list[DeltaModule]:
    """The tuples over (x, y) of the structure-map ``codes``, derived.

    Code c with base-p digits d stands for f = sum_k d_k f_k over the
    f-basis and g = sum_k d_(hf+k) g_k over the g-basis; one ``tensordot``
    each expands every code.  f is a combination of a basis of
    Hom(M (x)_A x, y) (Hom(x (x)_A N, y) on the right), so it is a module
    map on the tensor quotient, and f @ projection descends through the
    tensor relations to it; g likewise.  The bimodule products of a
    ``MoritaContext`` vanish, so every such pair of maps is admissible and
    the tuple packs to a module: it is built by ``DeltaModule._derived``,
    without the construction check.
    """
    p, hf = ctx.p, len(f_basis)
    digits = la.digits(codes, p, hf + len(g_basis))
    f_plain = (np.tensordot(digits[:, :hf], f_basis, axes=1) % p
               @ tf.projection) % p
    g_plain = (np.tensordot(digits[:, hf:], g_basis, axes=1) % p
               @ tg.projection) % p
    out = []
    # A loop, not a comprehension: on Python < 3.12 a comprehension is a
    # frame of its own, and the recording tests name each builder's frame.
    for code, f, g in zip(codes, f_plain, g_plain):
        out.append(DeltaModule._derived(
            ctx, side, x, y, f, g,
            f"enum[{ctx.name or 'ctx'}/{side}/{counter + code}]"))
    return out


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


def delta_invariant_pairs(v: DeltaModule) -> list[tuple[np.ndarray, np.ndarray]]:
    """Column-basis pairs (in x, in y) spanning sub-tuples of v: invariant
    spans that f and g carry into each other."""
    p, y_spans = v.p, invariant_subspaces(v.y)
    return [(span_x, span_y) for span_x in invariant_subspaces(v.x)
            for span_y in y_spans
            if la.restrict(v.f_blocks, span_x, span_y, p) is not None
            and la.restrict(v.g_blocks, span_y, span_x, p) is not None]
