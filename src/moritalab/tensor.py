"""Tensor products over an algebra, hom modules, and first Tor.

The tensor product of a right structure and a left structure over a shared
algebra is realised as an explicit quotient of the plain GF(p) tensor space:
relations are the columns of rho_first(b) (x) I - I (x) lambda_second(b) over
the shared basis.  Each product keeps its projection and section so maps can
be defined on plain tensors and pushed down.

Index convention: the plain tensor basis is ordered (i, j) -> i * dim2 + j,
matching numpy's kron.

The product of a bimodule with a direct sum (``algebra.module_sum``) is not
eliminated again: it is assembled from the memoised products of the
summands, and equals the eliminated one entry for entry.  Each summand's
plain coordinates sit in the sum's plain coordinates by an index map that
keeps their order, and the relation space of the sum is the direct sum of
the summands' relation spaces on those disjoint coordinate sets.  So a unit
vector of one summand's coordinates lies in the span of the relations and
of the unit vectors chosen before it exactly when it does so within its
summand: the greedy section of ``linalg.quotient_data`` is the union of the
summands' sections, sorted by plain index in the sum.  The projection is
the unique map that kills the relations and inverts that section, so it is
the summands' projections put in place, and the residual actions are the
summands' actions, block-diagonal in the sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .algebra import (LEFT, RIGHT, Algebra, Bimodule, Module, ModuleMap,
                      field_algebra, free_cover, hom_space, kernel_module)
from .memo import memo
from .report import AlgebraMismatchError, InternalCheckError


@dataclass(eq=False)
class TensorModule:
    """A tensor product over an algebra together with its quotient data."""

    first: object               # Bimodule or right Module
    second: object              # Bimodule or left Module
    shared: Algebra             # the algebra tensored over
    module: Module              # the quotient, with its inherited action
    projection: np.ndarray      # (dim, dim1 * dim2)
    section: np.ndarray         # (dim1 * dim2, dim)
    relations: np.ndarray       # (dim1 * dim2, r) column basis of the relation space
    dims: tuple[int, int]

    @property
    def p(self) -> int:
        return self.module.p

    @property
    def dim(self) -> int:
        return self.module.dim


def _right_action_of(obj) -> tuple[Algebra, np.ndarray, int]:
    if isinstance(obj, Bimodule):
        return obj.right_algebra, obj.right_actions, obj.dim
    if isinstance(obj, Module):
        if obj.side != RIGHT:
            raise AlgebraMismatchError("first tensor factor must be right-sided")
        return obj.algebra, obj.actions, obj.dim
    raise TypeError(f"cannot tensor a {type(obj).__name__}")


def _left_action_of(obj) -> tuple[Algebra, np.ndarray, int]:
    if isinstance(obj, Bimodule):
        return obj.left_algebra, obj.left_actions, obj.dim
    if isinstance(obj, Module):
        if obj.side != LEFT:
            raise AlgebraMismatchError("second tensor factor must be left-sided")
        return obj.algebra, obj.actions, obj.dim
    raise TypeError(f"cannot tensor a {type(obj).__name__}")


def _module_factor(first, second) -> str:
    """The factor a tensor product is memoised on: the module, or the second
    bimodule when both factors are bimodules."""
    return "second" if isinstance(first, Bimodule) else "first"


@memo(_module_factor)
def tensor_over_algebra(first, second) -> TensorModule:
    """Tensor product first (x)_A second.

    ``first`` contributes a right A-action and ``second`` a left A-action;
    the residual action on the quotient depends on what else survives:

    * Bimodule (x) left module  -> left module over the bimodule's left algebra
    * right module (x) Bimodule -> right module over the bimodule's right algebra
    * right module (x) left module, or Bimodule (x) Bimodule
                                -> plain space (module over the field)

    The product is derived (see ``Module._derived``), not checked again.
    The ambient actions on the plain tensor space, a bimodule's residual
    action tensored with an identity (or the identity alone), commute with
    the relations, because the bimodule's two actions commute; so they keep
    the relation span.  With P the projection and S the section, P·amb·S
    are then the induced actions on the quotient, and they obey the module
    laws, as in the projection case of ``Module._derived``.
    """
    alg1, rho, d1 = _right_action_of(first)
    alg2, lam, d2 = _left_action_of(second)
    if alg1 is not alg2:
        raise AlgebraMismatchError(
            "tensor factors act through different algebras "
            f"({alg1.name!r} vs {alg2.name!r})")
    shared = alg1
    p = shared.p
    name = f"({_describe(first)} (x) {_describe(second)})"
    if isinstance(first, Bimodule) != isinstance(second, Bimodule):
        axis = 1 if isinstance(first, Bimodule) else 0
        if (first, second)[axis].summands:
            return _assembled_tensor(first, second, shared, axis, (d1, d2), name)
    plain = d1 * d2
    if plain:
        rel_blocks = [(la.kron(rho[i], la.eye(d2), p)
                       - la.kron(la.eye(d1), lam[i], p)) % p
                      for i in range(shared.dim)]
        rel = np.hstack(rel_blocks)
    else:
        rel = la.zeros(plain, 0)
    projection, section, q, relations = la.quotient_data(rel, p)

    if isinstance(first, Bimodule) and isinstance(second, Module):
        out_alg, out_side = first.left_algebra, LEFT
        ambient = [la.kron(first.left_actions[i], la.eye(d2), p)
                   for i in range(out_alg.dim)]
    elif isinstance(first, Module) and isinstance(second, Bimodule):
        out_alg, out_side = second.right_algebra, RIGHT
        ambient = [la.kron(la.eye(d1), second.right_actions[i], p)
                   for i in range(out_alg.dim)]
    else:
        out_alg, out_side = field_algebra(shared.field), LEFT
        ambient = [la.kron(la.eye(d1), la.eye(d2), p)]

    acts = np.stack([(projection @ amb @ section) % p for amb in ambient]) \
        .reshape(out_alg.dim, q, q)
    module = Module._derived(out_alg, out_side, q, acts, name)
    return TensorModule(first, second, shared, module, projection, section,
                        relations, (d1, d2))


def _assembled_tensor(first, second, shared: Algebra, axis: int,
                      dims: tuple[int, int], name: str) -> TensorModule:
    """The product of a bimodule and a module sum, from its summands'.

    ``axis`` is the factor that is the sum: 1 for bimodule (x) sum, 0 for
    sum (x) bimodule.  The result equals the eliminated product entry for
    entry (see the module docstring).
    """
    factors = [first, second]
    total = factors[axis]
    grid = np.arange(dims[0] * dims[1]).reshape(dims)
    parts, plains, offset = [], [], 0
    for summand in total.summands:
        factors[axis] = summand
        parts.append(tensor_over_algebra(*factors))
        block = [slice(None), slice(None)]
        block[axis] = slice(offset, offset + summand.dim)
        plains.append(grid[tuple(block)].ravel())
        offset += summand.dim
    # Quotient coordinates in summand order, then sorted by the plain index
    # of their section column.
    chosen = np.concatenate([plain[np.nonzero(t.section.T)[1]]
                             for t, plain in zip(parts, plains)])
    order = np.argsort(chosen)
    q, size = chosen.size, grid.size
    projection = la.zeros(q, size)
    relations = la.zeros(size, sum(t.relations.shape[1] for t in parts))
    row = col = 0
    for t, plain in zip(parts, plains):
        projection[row:row + t.dim, plain] = t.projection
        relations[plain, col:col + t.relations.shape[1]] = t.relations
        row += t.dim
        col += t.relations.shape[1]
    section = la.zeros(size, q)
    section[chosen[order], np.arange(q)] = 1
    out_alg = parts[0].module.algebra
    acts = la.block_diagonal([t.module.actions for t in parts])
    module = Module._derived(out_alg, parts[0].module.side, q,
                             acts[:, order][:, :, order], name)
    return TensorModule(first, second, shared, module, projection[order],
                        section, relations, dims)


def _describe(obj) -> str:
    if isinstance(obj, Bimodule):
        return obj.name or "<bimodule>"
    return obj.describe()


def tensor_map(tm_source: TensorModule, tm_target: TensorModule,
               first_matrix: np.ndarray, second_matrix: np.ndarray) -> ModuleMap:
    """The induced map between tensor products from maps of both factors.

    The factor maps must intertwine the shared-algebra actions; that is not
    re-checked here, but the induced matrix is verified to respect relations
    and the module structure (ModuleMap construction fails otherwise).
    """
    p = tm_source.p
    plain = la.kron(la.reduce_mod(first_matrix, p), la.reduce_mod(second_matrix, p), p)
    descended = (tm_target.projection @ plain) % p
    if np.any((descended @ tm_source.relations) % p):
        raise InternalCheckError("factor maps do not carry relations into relations")
    matrix = (descended @ tm_source.section) % p
    return ModuleMap(tm_source.module, tm_target.module, matrix)


@dataclass(eq=False)
class HomModule:
    """Hom over an algebra out of a bimodule, with the leftover action.

    For an (A,B)-bimodule N and a left A-module X, hom collects the left
    A-maps N -> X; b acts by precomposition with right multiplication, making
    it a left B-module.  Mirrored for right modules into the right side.
    """

    source: Bimodule
    target: Module
    module: Module
    basis: list[np.ndarray]     # matrices (target.dim, source.dim)

    @property
    def p(self) -> int:
        return self.module.p

    @property
    def dim(self) -> int:
        return self.module.dim


@memo("target")
def hom_over_algebra(source: Bimodule, target: Module) -> HomModule:
    """Hom_A(source, target) with its residual one-sided action.

    ``target.side`` selects the variant: a left module over the bimodule's
    left algebra yields a left module over its right algebra, and a right
    module over the right algebra yields a right module over the left one.
    """
    if target.side == LEFT:
        if target.algebra is not source.left_algebra:
            raise AlgebraMismatchError("target is not a left module over the bimodule's left algebra")
        inner = source.as_left_module
        residual_alg = source.right_algebra
        twist = source.right_actions
    else:
        if target.algebra is not source.right_algebra:
            raise AlgebraMismatchError("target is not a right module over the bimodule's right algebra")
        inner = source.as_right_module
        residual_alg = source.left_algebra
        twist = source.left_actions
    name = f"Hom({source.name or '<bimodule>'}, {target.describe()})"
    maps = hom_space(inner, target)
    basis = [m.matrix for m in maps]
    h = len(basis)
    p = target.p
    acts = np.zeros((residual_alg.dim, h, h), dtype=np.int64)
    if h:
        # One solve: column (i, k) is basis map k precomposed with twist i.
        mats = np.stack(basis)
        moved = np.einsum("kab,ibc->acik", mats, twist) % p
        coords = la.solve(mats.reshape(h, -1).T,
                          moved.reshape(-1, residual_alg.dim * h), p)
        if coords is None:
            raise InternalCheckError("hom action left the hom space")
        acts = coords.reshape(h, residual_alg.dim, h).transpose(1, 0, 2).copy()
    module = Module(residual_alg, target.side, h, acts, name=name)
    return HomModule(source, target, module, basis)


def tor_one_dimension(first, second: Module) -> int:
    """Dimension of Tor_1 over the shared algebra.

    Computed from the canonical free presentation of the second argument:
    Tor_1(first, second) is the kernel of first (x) K -> first (x) F.
    """
    free, eps = free_cover(second)
    K, incl = kernel_module(eps)
    t_K = tensor_over_algebra(first, K)
    t_F = tensor_over_algebra(first, free)
    d1 = t_K.dims[0]
    induced = tensor_map(t_K, t_F, la.eye(d1), incl.matrix)
    return t_K.dim - la.rank(induced.matrix, t_K.p)
