"""The glued matrix algebra of a two-algebra context and its module tuples.

A context consists of algebras A and B, a (B,A)-bimodule M and an (A,B)-
bimodule N whose products M (x)_A N and N (x)_B M both vanish.  The glued
algebra has underlying space A + N + M + B with multiplication

    (a, n, m, b) (a', n', m', b') = (aa', an' + nb', ma' + bm', bb').

Left modules over it are tuples (X, Y, f, g) with X a left A-module, Y a
left B-module, f : M (x)_A X -> Y a B-map and g : N (x)_B Y -> X an A-map;
right modules are tuples (X, Y, f, g) with X right over A, Y right over B,
f : X (x)_A N -> Y and g : Y (x)_B M -> X.  Because the bimodule products
vanish, any pair of maps is admissible.  The maps f and g are stored on
plain tensor coordinates and descend through the cached tensor quotients.

``pack`` realises a tuple as a module over the glued algebra on the basis
[X block, Y block]; ``unpack`` recovers the tuple from the images of the
two corner idempotents, and the round trip is exact on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg as la
from .algebra import (LEFT, RIGHT, Algebra, Bimodule, Module, ModuleMap,
                      block_injections, dual_module, find_invertible_combination,
                      hom_space, is_flat, is_injective, is_projective,
                      kernel_module, module_sum, quotient_module, submodule,
                      zero_module)
from .report import (AlgebraMismatchError, InternalCheckError,
                     ValidationError)
from .tensor import factor_through, tensor_over_algebra


@dataclass(eq=False)
class MoritaContext:
    """Two algebras with a pair of bimodules whose tensor products vanish."""

    algebra_a: Algebra
    algebra_b: Algebra
    m: Bimodule     # (B, A)-bimodule, the lower-left corner
    n: Bimodule     # (A, B)-bimodule, the upper-right corner
    name: str = ""

    def __post_init__(self):
        a, b = self.algebra_a, self.algebra_b
        if self.m.left_algebra is not b or self.m.right_algebra is not a:
            raise AlgebraMismatchError("lower-left bimodule must be (B, A)-sided")
        if self.n.left_algebra is not a or self.n.right_algebra is not b:
            raise AlgebraMismatchError("upper-right bimodule must be (A, B)-sided")
        mn = tensor_over_algebra(self.m, self.n).dim
        nm = tensor_over_algebra(self.n, self.m).dim
        if mn or nm:
            raise ValidationError(
                f"context {self.name or '<anon>'}: bimodule products must vanish, "
                f"got dim M(x)N = {mn}, dim N(x)M = {nm}")

    @property
    def p(self) -> int:
        return self.algebra_a.p

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.algebra_a.dim, self.n.dim, self.m.dim, self.algebra_b.dim)

    @cached_property
    def delta(self) -> Algebra:
        return build_glued_algebra(self)

    # Basis layout of the glued algebra: [A block, N block, M block, B block].
    @property
    def offsets(self) -> tuple[int, int, int, int]:
        da, dn, dm, _ = self.dims
        return (0, da, da + dn, da + dn + dm)

    def embed(self, kind: str, coords: np.ndarray) -> np.ndarray:
        """Coordinates of a corner element inside the glued algebra."""
        da, dn, dm, db = self.dims
        sizes = {"a": da, "n": dn, "m": dm, "b": db}
        starts = dict(zip("anmb", self.offsets))
        out = np.zeros(da + dn + dm + db, dtype=np.int64)
        coords = la.reduce_mod(np.asarray(coords), self.p)
        out[starts[kind]:starts[kind] + sizes[kind]] = coords
        return out

    @cached_property
    def idempotent_a(self) -> np.ndarray:
        return self.embed("a", self.algebra_a.unit)

    @cached_property
    def idempotent_b(self) -> np.ndarray:
        return self.embed("b", self.algebra_b.unit)


def build_glued_algebra(ctx: MoritaContext) -> Algebra:
    """Structure constants of the glued algebra, validated on construction."""
    da, dn, dm, db = ctx.dims
    d = da + dn + dm + db
    oa, on, om, ob = ctx.offsets
    c = np.zeros((d, d, d), dtype=np.int64)
    # a a'
    c[oa:oa + da, oa:oa + da, oa:oa + da] = ctx.algebra_a.structure
    # b b'
    c[ob:ob + db, ob:ob + db, ob:ob + db] = ctx.algebra_b.structure
    for i in range(da):
        for j in range(dn):     # a n' lands in N
            c[oa + i, on + j, on:on + dn] = ctx.n.left_actions[i][:, j]
        for j in range(dm):     # m a' lands in M
            c[om + j, oa + i, om:om + dm] = ctx.m.right_actions[i][:, j]
    for i in range(db):
        for j in range(dn):     # n b' lands in N
            c[on + j, ob + i, on:on + dn] = ctx.n.right_actions[i][:, j]
        for j in range(dm):     # b m' lands in M
            c[ob + i, om + j, om:om + dm] = ctx.m.left_actions[i][:, j]
    unit = np.zeros(d, dtype=np.int64)
    unit[oa:oa + da] = ctx.algebra_a.unit
    unit[ob:ob + db] = ctx.algebra_b.unit
    return Algebra(ctx.algebra_a.field, d, c, unit,
                   name=f"Glued({ctx.name or 'ctx'})")


@dataclass(eq=False)
class DeltaModule:
    """A module over the glued algebra in tuple form.

    For side "left": f : M (x)_A x -> y on plain coordinates (i, j) ->
    i * x.dim + j over (M basis, x basis); g : N (x)_B y -> x likewise.
    For side "right": f : x (x)_A N -> y on (j, i) -> j * N.dim + i over
    (x basis, N basis); g : y (x)_B M -> x likewise.
    """

    context: MoritaContext
    side: str
    x: Module
    y: Module
    f_plain: np.ndarray
    g_plain: np.ndarray
    name: str = ""

    def __post_init__(self):
        ctx, p = self.context, self.context.p
        if self.x.algebra is not ctx.algebra_a or self.x.side != self.side:
            raise AlgebraMismatchError("x component must live over A on the declared side")
        if self.y.algebra is not ctx.algebra_b or self.y.side != self.side:
            raise AlgebraMismatchError("y component must live over B on the declared side")
        self.f_plain = la.reduce_mod(self.f_plain, p)
        self.g_plain = la.reduce_mod(self.g_plain, p)
        if self.side == LEFT:
            self.tensor_f = tensor_over_algebra(ctx.m, self.x)
            self.tensor_g = tensor_over_algebra(ctx.n, self.y)
        else:
            self.tensor_f = tensor_over_algebra(self.x, ctx.n)
            self.tensor_g = tensor_over_algebra(self.y, ctx.m)
        fd = self.tensor_f.dims
        gd = self.tensor_g.dims
        if self.f_plain.shape != (self.y.dim, fd[0] * fd[1]):
            raise ValidationError(
                f"f must have shape {(self.y.dim, fd[0] * fd[1])}, got {self.f_plain.shape}")
        if self.g_plain.shape != (self.x.dim, gd[0] * gd[1]):
            raise ValidationError(
                f"g must have shape {(self.x.dim, gd[0] * gd[1])}, got {self.g_plain.shape}")
        self.f_map = ModuleMap(self.tensor_f.module, self.y,
                               factor_through(self.tensor_f, self.f_plain))
        self.g_map = ModuleMap(self.tensor_g.module, self.x,
                               factor_through(self.tensor_g, self.g_plain))

    @property
    def p(self) -> int:
        return self.context.p

    @property
    def dim(self) -> int:
        return self.x.dim + self.y.dim

    def describe(self) -> str:
        return self.name or f"<{self.side} tuple ({self.x.dim}, {self.y.dim})>"

    @cached_property
    def packed(self) -> Module:
        return pack(self)


def zero_delta_module(ctx: MoritaContext, side: str) -> DeltaModule:
    x = zero_module(ctx.algebra_a, side)
    y = zero_module(ctx.algebra_b, side)
    return DeltaModule(ctx, side, x, y, la.zeros(0, 0), la.zeros(0, 0), name="0")


@dataclass(eq=False)
class DeltaModuleMap:
    """A map of tuples: component maps making both structure squares commute."""

    source: DeltaModule
    target: DeltaModule
    a_matrix: np.ndarray    # (target.x.dim, source.x.dim)
    b_matrix: np.ndarray    # (target.y.dim, source.y.dim)

    def __post_init__(self):
        u, v = self.source, self.target
        if u.context is not v.context or u.side != v.side:
            raise AlgebraMismatchError("tuple map endpoints disagree on context or side")
        p = u.p
        self.a_matrix = la.reduce_mod(self.a_matrix, p)
        self.b_matrix = la.reduce_mod(self.b_matrix, p)
        self.a_map = ModuleMap(u.x, v.x, self.a_matrix)
        self.b_map = ModuleMap(u.y, v.y, self.b_matrix)
        # Structure squares, compared on plain tensor coordinates.
        if u.side == LEFT:
            md, nd = u.context.m.dim, u.context.n.dim
            f_move = la.kron(la.eye(md), self.a_matrix, p)
            g_move = la.kron(la.eye(nd), self.b_matrix, p)
        else:
            nd, md = u.context.n.dim, u.context.m.dim
            f_move = la.kron(self.a_matrix, la.eye(nd), p)
            g_move = la.kron(self.b_matrix, la.eye(md), p)
        if np.any((self.b_matrix @ u.f_plain - v.f_plain @ f_move) % p):
            raise ValidationError("square through f does not commute")
        if np.any((self.a_matrix @ u.g_plain - v.g_plain @ g_move) % p):
            raise ValidationError("square through g does not commute")

    @property
    def p(self) -> int:
        return self.source.p

    def compose(self, other: "DeltaModuleMap") -> "DeltaModuleMap":
        """self after other."""
        if other.target is not self.source:
            raise AlgebraMismatchError("composition endpoints do not match")
        return DeltaModuleMap(other.source, self.target,
                              (self.a_matrix @ other.a_matrix) % self.p,
                              (self.b_matrix @ other.b_matrix) % self.p)

    def is_zero(self) -> bool:
        return not (np.any(self.a_matrix) or np.any(self.b_matrix))

    def coord_vector(self) -> np.ndarray:
        return np.concatenate([la.vec(self.a_matrix), la.vec(self.b_matrix)])

    def packed_matrix(self) -> np.ndarray:
        out = la.zeros(self.target.dim, self.source.dim)
        tx, sx = self.target.x.dim, self.source.x.dim
        out[:tx, :sx] = self.a_matrix
        out[tx:, sx:] = self.b_matrix
        return out

    @classmethod
    def identity(cls, v: DeltaModule) -> "DeltaModuleMap":
        return cls(v, v, la.eye(v.x.dim), la.eye(v.y.dim))


def pack(v: DeltaModule) -> Module:
    """Realise a tuple as a module over the glued algebra.

    Basis order [x block, y block]; the corner elements act through the
    structure maps.  Module construction re-validates the action law, so a
    successful pack doubles as a consistency check on the tuple.
    """
    ctx = v.context
    da, dn, dm, db = ctx.dims
    dx, dy = v.x.dim, v.y.dim
    d = dx + dy
    acts = np.zeros((ctx.delta.dim, d, d), dtype=np.int64)
    oa, on, om, ob = ctx.offsets
    for i in range(da):
        acts[oa + i, :dx, :dx] = v.x.actions[i]
    for i in range(db):
        acts[ob + i, dx:, dx:] = v.y.actions[i]
    if v.side == LEFT:
        for i in range(dn):
            acts[on + i, :dx, dx:] = v.g_plain[:, i * dy:(i + 1) * dy]
        for i in range(dm):
            acts[om + i, dx:, :dx] = v.f_plain[:, i * dx:(i + 1) * dx]
    else:
        for i in range(dn):
            block = np.stack([v.f_plain[:, j * dn + i] for j in range(dx)], axis=1) \
                if dx else la.zeros(dy, 0)
            acts[on + i, dx:, :dx] = block
        for i in range(dm):
            block = np.stack([v.g_plain[:, j * dm + i] for j in range(dy)], axis=1) \
                if dy else la.zeros(dx, 0)
            acts[om + i, :dx, dx:] = block
    return Module(ctx.delta, v.side, d, acts, name=f"packed[{v.describe()}]")


def unpack(module: Module, ctx: MoritaContext) -> DeltaModule:
    """Recover the tuple form of a module over the glued algebra.

    The components are the images of the corner idempotents; the structure
    maps are read off from the corner element actions in those coordinates.
    """
    if module.algebra is not ctx.delta:
        raise AlgebraMismatchError("module does not live over this context's glued algebra")
    p = ctx.p
    e_a = module.action_of(ctx.idempotent_a)
    e_b = module.action_of(ctx.idempotent_b)
    cols_x = la.image_basis(e_a, p).T
    cols_y = la.image_basis(e_b, p).T
    dx, dy = cols_x.shape[1], cols_y.shape[1]
    if dx + dy != module.dim:
        raise InternalCheckError("corner idempotent images do not span the module")

    def restricted(cols, alg, block):
        acts = np.zeros((alg.dim, cols.shape[1], cols.shape[1]), dtype=np.int64)
        for i in range(alg.dim):
            big = module.action_of(_basis_embed(ctx, block, i))
            sol = la.solve(cols, (big @ cols) % p, p)
            if sol is None:
                raise InternalCheckError("corner action left its idempotent block")
            acts[i] = sol.reshape(cols.shape[1], cols.shape[1])
        return acts

    acts_x = restricted(cols_x, ctx.algebra_a, 0)
    acts_y = restricted(cols_y, ctx.algebra_b, 3)
    x = Module(ctx.algebra_a, module.side, dx, acts_x, name="unpacked.x")
    y = Module(ctx.algebra_b, module.side, dy, acts_y, name="unpacked.y")

    dn, dm = ctx.n.dim, ctx.m.dim
    if module.side == LEFT:
        f_plain = la.zeros(dy, dm * dx)
        for i in range(dm):
            act = module.action_of(_basis_embed(ctx, 2, i))
            moved = (act @ cols_x) % p
            coords = la.solve(cols_y, moved, p)
            if coords is None:
                raise InternalCheckError("lower corner action missed the y block")
            f_plain[:, i * dx:(i + 1) * dx] = coords.reshape(dy, dx)
        g_plain = la.zeros(dx, dn * dy)
        for i in range(dn):
            act = module.action_of(_basis_embed(ctx, 1, i))
            moved = (act @ cols_y) % p
            coords = la.solve(cols_x, moved, p)
            if coords is None:
                raise InternalCheckError("upper corner action missed the x block")
            g_plain[:, i * dy:(i + 1) * dy] = coords.reshape(dx, dy)
    else:
        f_plain = la.zeros(dy, dx * dn)
        for i in range(dn):
            act = module.action_of(_basis_embed(ctx, 1, i))
            moved = (act @ cols_x) % p
            coords = la.solve(cols_y, moved, p)
            if coords is None:
                raise InternalCheckError("upper corner action missed the y block")
            coords = coords.reshape(dy, dx)
            for j in range(dx):
                f_plain[:, j * dn + i] = coords[:, j]
        g_plain = la.zeros(dx, dy * dm)
        for i in range(dm):
            act = module.action_of(_basis_embed(ctx, 2, i))
            moved = (act @ cols_y) % p
            coords = la.solve(cols_x, moved, p)
            if coords is None:
                raise InternalCheckError("lower corner action missed the x block")
            coords = coords.reshape(dx, dy)
            for j in range(dy):
                g_plain[:, j * dm + i] = coords[:, j]
    return DeltaModule(ctx, module.side, x, y, f_plain, g_plain,
                       name=f"unpacked[{module.describe()}]")


def _basis_embed(ctx: MoritaContext, block: int, i: int) -> np.ndarray:
    d = ctx.delta.dim
    out = np.zeros(d, dtype=np.int64)
    out[ctx.offsets[block] + i] = 1
    return out


def delta_dual(v: DeltaModule) -> DeltaModule:
    """Linear dual of a tuple, switching sides.

    For a left tuple the dual structure maps evaluate through the originals:
    f+(phi (x) n) = phi . g(n (x) -) and g+(psi (x) m) = psi . f(m (x) -);
    symmetrically for right tuples.  Double duals are equal on the nose.
    """
    ctx, p = v.context, v.p
    dx, dy = v.x.dim, v.y.dim
    dn, dm = ctx.n.dim, ctx.m.dim
    x_dual = dual_module(v.x)
    y_dual = dual_module(v.y)
    if v.side == LEFT:
        f_new = la.zeros(dy, dx * dn)
        for i in range(dx):
            for j in range(dn):
                f_new[:, i * dn + j] = v.g_plain[i, j * dy:(j + 1) * dy]
        g_new = la.zeros(dx, dy * dm)
        for j in range(dy):
            for i in range(dm):
                g_new[:, j * dm + i] = v.f_plain[j, i * dx:(i + 1) * dx]
    else:
        f_new = la.zeros(dy, dm * dx)
        for i in range(dm):
            for j in range(dx):
                f_new[:, i * dx + j] = np.array(
                    [v.g_plain[j, l * dm + i] for l in range(dy)], dtype=np.int64)
        g_new = la.zeros(dx, dn * dy)
        for i in range(dn):
            for j in range(dy):
                g_new[:, i * dy + j] = np.array(
                    [v.f_plain[j, l * dn + i] for l in range(dx)], dtype=np.int64)
    other = RIGHT if v.side == LEFT else LEFT
    return DeltaModule(ctx, other, x_dual, y_dual, f_new % p, g_new % p,
                       name=f"{v.describe()}^+")


def delta_dual_map(phi: DeltaModuleMap, dual_source: DeltaModule | None = None,
                   dual_target: DeltaModule | None = None) -> DeltaModuleMap:
    """Transpose of a tuple map between the duals, contravariantly."""
    ds = dual_source if dual_source is not None else delta_dual(phi.target)
    dt = dual_target if dual_target is not None else delta_dual(phi.source)
    return DeltaModuleMap(ds, dt, phi.a_matrix.T.copy(), phi.b_matrix.T.copy())


def delta_hom_space(u: DeltaModule, v: DeltaModule) -> list[DeltaModuleMap]:
    """Basis of the space of tuple maps u -> v.

    Computed as the hom space of the packed modules; every map over the
    glued algebra preserves the idempotent blocks, so each basis element
    splits into component blocks (asserted, not assumed).
    """
    maps = hom_space(u.packed, v.packed)
    out = []
    sx, tx = u.x.dim, v.x.dim
    for mp in maps:
        if np.any(mp.matrix[:tx, sx:]) or np.any(mp.matrix[tx:, :sx]):
            raise InternalCheckError("glued-algebra map does not preserve the blocks")
        out.append(DeltaModuleMap(u, v, mp.matrix[:tx, :sx], mp.matrix[tx:, sx:]))
    return out


def delta_sum(tuples: list[DeltaModule]) -> DeltaModule:
    """Componentwise direct sum of tuples, blocks in the given order.

    Builds only the sum; ``delta_direct_sum`` adds the injection and
    projection witnesses for callers that use them.
    """
    if not tuples:
        raise ValueError("direct sum of an empty list is ambiguous; pass a zero tuple")
    ctx, side = tuples[0].context, tuples[0].side
    if any(t.context is not ctx or t.side != side for t in tuples):
        raise AlgebraMismatchError("direct sum factors disagree on context or side")
    x_sum = module_sum([t.x for t in tuples])
    y_sum = module_sum([t.y for t in tuples])
    dn, dm = ctx.n.dim, ctx.m.dim
    dxs, dys = x_sum.dim, y_sum.dim
    if side == LEFT:
        f_plain = la.zeros(dys, dm * dxs)
        g_plain = la.zeros(dxs, dn * dys)
        ox = oy = 0
        for t in tuples:
            dx, dy = t.x.dim, t.y.dim
            for i in range(dm):
                f_plain[oy:oy + dy, i * dxs + ox:i * dxs + ox + dx] = \
                    t.f_plain[:, i * dx:(i + 1) * dx]
            for i in range(dn):
                g_plain[ox:ox + dx, i * dys + oy:i * dys + oy + dy] = \
                    t.g_plain[:, i * dy:(i + 1) * dy]
            ox += dx
            oy += dy
    else:
        f_plain = la.zeros(dys, dxs * dn)
        g_plain = la.zeros(dxs, dys * dm)
        ox = oy = 0
        for t in tuples:
            dx, dy = t.x.dim, t.y.dim
            for j in range(dx):
                f_plain[oy:oy + dy, (ox + j) * dn:(ox + j + 1) * dn] = \
                    t.f_plain[:, j * dn:(j + 1) * dn]
            for j in range(dy):
                g_plain[ox:ox + dx, (oy + j) * dm:(oy + j + 1) * dm] = \
                    t.g_plain[:, j * dm:(j + 1) * dm]
            ox += dx
            oy += dy
    name = "(" + " + ".join(t.describe() for t in tuples) + ")"
    return DeltaModule(ctx, side, x_sum, y_sum, f_plain, g_plain, name=name)


def delta_direct_sum(tuples: list[DeltaModule]) \
        -> tuple[DeltaModule, list[DeltaModuleMap], list[DeltaModuleMap]]:
    """Componentwise direct sum with injection and projection tuple maps.

    Callers that discard the witnesses use ``delta_sum``.
    """
    total = delta_sum(tuples)
    x_inj = block_injections([t.x.dim for t in tuples])
    y_inj = block_injections([t.y.dim for t in tuples])
    injections, projections = [], []
    for t, xi, yi in zip(tuples, x_inj, y_inj):
        injections.append(DeltaModuleMap(t, total, xi, yi))
        projections.append(DeltaModuleMap(total, t, xi.T, yi.T))
    return total, injections, projections


def delta_is_isomorphic(u: DeltaModule, v: DeltaModule) -> DeltaModuleMap | None:
    """An isomorphism of tuples if one exists, else None.

    Scans the tuple hom space for an element with both component blocks
    invertible; component dimensions must match exactly.
    """
    if u.context is not v.context or u.side != v.side:
        return None
    if u.x.dim != v.x.dim or u.y.dim != v.y.dim:
        return None
    if u is v:
        return DeltaModuleMap.identity(u)
    homs = delta_hom_space(u, v)
    if not homs:
        if u.dim == 0:
            return DeltaModuleMap(u, v, la.zeros(0, 0), la.zeros(0, 0))
        return None
    vecs = [h.coord_vector() for h in homs]
    shapes = [(v.x.dim, u.x.dim, 0), (v.y.dim, u.y.dim, u.x.dim * u.x.dim)]
    coeffs = find_invertible_combination(vecs, shapes, u.p)
    if coeffs is None:
        return None
    a = la.zeros(v.x.dim, u.x.dim)
    b = la.zeros(v.y.dim, u.y.dim)
    for c, h in zip(coeffs, homs):
        a = (a + int(c) * h.a_matrix) % u.p
        b = (b + int(c) * h.b_matrix) % u.p
    return DeltaModuleMap(u, v, a, b)


def delta_submodule(v: DeltaModule, x_cols: np.ndarray, y_cols: np.ndarray) \
        -> tuple[DeltaModule, DeltaModuleMap]:
    """The sub-tuple spanned by the given component columns, with inclusion.

    The spans must be action-invariant and closed under the structure maps;
    violations raise ValidationError.
    """
    ctx, p = v.context, v.p
    x_sub, incl_x = submodule(v.x, x_cols.T)
    y_sub, incl_y = submodule(v.y, y_cols.T)
    cx, cy = incl_x.matrix, incl_y.matrix
    dxs, dys = x_sub.dim, y_sub.dim
    dn, dm = ctx.n.dim, ctx.m.dim
    if v.side == LEFT:
        f_sub = la.zeros(dys, dm * dxs)
        for i in range(dm):
            moved = (v.f_plain[:, i * v.x.dim:(i + 1) * v.x.dim] @ cx) % p
            coords = la.solve(cy, moved, p)
            if coords is None:
                raise ValidationError("f does not carry the x span into the y span")
            f_sub[:, i * dxs:(i + 1) * dxs] = coords.reshape(dys, dxs)
        g_sub = la.zeros(dxs, dn * dys)
        for i in range(dn):
            moved = (v.g_plain[:, i * v.y.dim:(i + 1) * v.y.dim] @ cy) % p
            coords = la.solve(cx, moved, p)
            if coords is None:
                raise ValidationError("g does not carry the y span into the x span")
            g_sub[:, i * dys:(i + 1) * dys] = coords.reshape(dxs, dys)
    else:
        f_sub = la.zeros(dys, dxs * dn)
        for i in range(dn):
            block = np.stack([v.f_plain[:, l * dn + i] for l in range(v.x.dim)],
                             axis=1) if v.x.dim else la.zeros(v.y.dim, 0)
            moved = (block @ cx) % p
            coords = la.solve(cy, moved, p)
            if coords is None:
                raise ValidationError("f does not carry the x span into the y span")
            coords = coords.reshape(dys, dxs)
            for j in range(dxs):
                f_sub[:, j * dn + i] = coords[:, j]
        g_sub = la.zeros(dxs, dys * dm)
        for i in range(dm):
            block = np.stack([v.g_plain[:, l * dm + i] for l in range(v.y.dim)],
                             axis=1) if v.y.dim else la.zeros(v.x.dim, 0)
            moved = (block @ cy) % p
            coords = la.solve(cx, moved, p)
            if coords is None:
                raise ValidationError("g does not carry the y span into the x span")
            coords = coords.reshape(dxs, dys)
            for j in range(dys):
                g_sub[:, j * dm + i] = coords[:, j]
    sub = DeltaModule(ctx, v.side, x_sub, y_sub, f_sub, g_sub,
                      name=f"sub[{v.describe()}]")
    return sub, DeltaModuleMap(sub, v, cx, cy)


def delta_kernel(phi: DeltaModuleMap) -> tuple[DeltaModule, DeltaModuleMap]:
    """Kernel of a tuple map as a sub-tuple with its inclusion.

    Both structure squares carry the component kernels into each other, so
    the span checks inside delta_submodule cannot fail here.
    """
    p = phi.p
    kx = la.kernel_basis(phi.a_matrix, p).T
    ky = la.kernel_basis(phi.b_matrix, p).T
    return delta_submodule(phi.source, kx, ky)


def delta_quotient(v: DeltaModule, x_cols: np.ndarray, y_cols: np.ndarray) \
        -> tuple[DeltaModule, DeltaModuleMap]:
    """Quotient of a tuple by the sub-tuple spanned by the given columns.

    The spans must form a sub-tuple (the structure maps must carry them into
    each other); otherwise the induced maps are ill-defined and this raises
    ValidationError.
    """
    ctx, p = v.context, v.p
    x_quot, proj_x, sx = quotient_module(v.x, x_cols)
    y_quot, proj_y, sy = quotient_module(v.y, y_cols)
    px, py = proj_x.matrix, proj_y.matrix
    dn, dm = ctx.n.dim, ctx.m.dim
    if v.side == LEFT:
        f_kill = la.kron(la.eye(dm), la.reduce_mod(x_cols, p), p)
        g_kill = la.kron(la.eye(dn), la.reduce_mod(y_cols, p), p)
        f_new = (py @ v.f_plain @ la.kron(la.eye(dm), sx, p)) % p
        g_new = (px @ v.g_plain @ la.kron(la.eye(dn), sy, p)) % p
    else:
        f_kill = la.kron(la.reduce_mod(x_cols, p), la.eye(dn), p)
        g_kill = la.kron(la.reduce_mod(y_cols, p), la.eye(dm), p)
        f_new = (py @ v.f_plain @ la.kron(sx, la.eye(dn), p)) % p
        g_new = (px @ v.g_plain @ la.kron(sy, la.eye(dm), p)) % p
    if np.any((py @ v.f_plain @ f_kill) % p):
        raise ValidationError("f does not carry the x span into the y span")
    if np.any((px @ v.g_plain @ g_kill) % p):
        raise ValidationError("g does not carry the y span into the x span")
    quot = DeltaModule(ctx, v.side, x_quot, y_quot, f_new, g_new,
                       name=f"quot[{v.describe()}]")
    return quot, DeltaModuleMap(v, quot, px, py)


def is_projective_delta(v: DeltaModule) -> bool:
    """Projectivity of a tuple, computed two independent ways.

    Route one packs the tuple and tests splitting of a free cover over the
    glued algebra.  Route two decomposes: the tuple is projective exactly
    when the structure-map cokernels P = x/im g and Q = y/im f are
    projective and the tuple is isomorphic to the induced tuple of P plus
    the co-induced-from-B tuple of Q.  Disagreement is an internal error.
    """
    from .functors import induce_from_a, induce_from_b

    packed_answer = is_projective(v.packed)

    structural = None
    if v.side == LEFT:
        p_quot, _, _ = quotient_module(v.x, la.image_basis(v.g_map.matrix, v.p).T)
        q_quot, _, _ = quotient_module(v.y, la.image_basis(v.f_map.matrix, v.p).T)
        if is_projective(p_quot) and is_projective(q_quot):
            model = delta_sum([induce_from_a(v.context, p_quot),
                              induce_from_b(v.context, q_quot)])
            structural = delta_is_isomorphic(v, model) is not None
        else:
            structural = False

    if structural is not None and structural != packed_answer:
        raise InternalCheckError(
            f"projectivity routes disagree on {v.describe()}: "
            f"packed={packed_answer}, structural={structural}")
    return packed_answer


def is_injective_delta(v: DeltaModule) -> bool:
    """Injectivity of a tuple, computed two independent ways.

    Route one: the dual tuple packs to a projective module on the other
    side.  Route two (left tuples): the kernels X' of the transposed f and
    Y' of the transposed g must be injective and the tuple isomorphic to
    the sum of the two co-induced tuples.  Disagreement is an internal error.
    """
    from .functors import coinduce_from_a, coinduce_from_b, tilde_f, tilde_g

    packed_answer = is_injective(v.packed)

    structural = None
    if v.side == LEFT:
        x_ker, _ = kernel_module(tilde_f(v))
        y_ker, _ = kernel_module(tilde_g(v))
        if is_injective(x_ker) and is_injective(y_ker):
            model = delta_sum([coinduce_from_a(v.context, x_ker),
                              coinduce_from_b(v.context, y_ker)])
            structural = delta_is_isomorphic(v, model) is not None
        else:
            structural = False

    if structural is not None and structural != packed_answer:
        raise InternalCheckError(
            f"injectivity routes disagree on {v.describe()}: "
            f"packed={packed_answer}, structural={structural}")
    return packed_answer


def flat_characterisation(v: DeltaModule) -> bool:
    """Monomorphism form of flatness: f and g injective with flat cokernels."""
    f_mono = la.rank(v.f_map.matrix, v.p) == v.tensor_f.dim
    g_mono = la.rank(v.g_map.matrix, v.p) == v.tensor_g.dim
    if not (f_mono and g_mono):
        return False
    p_quot, _, _ = quotient_module(v.x, la.image_basis(v.g_map.matrix, v.p).T)
    q_quot, _, _ = quotient_module(v.y, la.image_basis(v.f_map.matrix, v.p).T)
    return is_flat(p_quot) and is_flat(q_quot)


def is_flat_delta(v: DeltaModule) -> bool:
    """Flatness of a tuple, computed two independent ways.

    Over these finite-dimensional algebras flat coincides with projective,
    so the packed route settles it.  The monomorphism characterisation
    (f and g injective with flat cokernels) must agree unconditionally;
    a disagreement is an internal error.
    """
    packed_answer = is_projective(v.packed)
    structural = flat_characterisation(v)
    if structural != packed_answer:
        raise InternalCheckError(
            f"flatness routes disagree on {v.describe()}: "
            f"packed={packed_answer}, structural={structural}")
    return packed_answer
