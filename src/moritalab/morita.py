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
``TupleLayout`` is the one place that knows, for a side, which bimodule
each map tensors with and how its plain coordinates are ordered; every
tuple operation here and in the functors is written once against it.
Likewise ``by_corner`` is the one place that swaps the A corner (x, f)
with the B corner (y, g); corner constructions, such as the structural
cokernels x/im g and y/im f in ``structural_cokernel``, are written once
against it.

``pack`` realises a tuple as a module over the glued algebra on the basis
[X block, Y block]; ``unpack`` recovers the tuple from the images of the
two corner idempotents, and the round trip is exact on the nose.

A tuple is the same thing as a module over the glued algebra, and a tuple
map the same thing as a map of packed modules that keeps the two blocks,
so each is checked as what it packs to.  The ``DeltaModule`` constructor
checks the module laws of the packed actions, which hold exactly when f
and g descend through the tensor relations to module maps; the
``DeltaModuleMap`` constructor checks one ``ModuleMap`` between the packed
modules, which intertwines exactly when both components are module maps
and both structure squares commute.  Every other tuple is derived
(``DeltaModule._derived``): the sums of ``delta_sum``, the duals of
``delta_dual``, the sub-tuples of ``delta_submodule`` (and so the kernels
of ``delta_kernel``), the quotients of ``delta_quotient``, the tuples of
``unpack`` and the induced tuples of ``functors.induce`` pack to modules
derived from checked ones, and the representatives of
``enumeration.enumerate_delta_modules`` have structure maps combined from
hom-space bases; a co-induced tuple is the dual of an induced one.  Every other map (``DeltaModuleMap._intertwining``) packs to a map
that its construction proves: hom bases and their combinations, sum
witnesses, inclusions and projections of sub-tuples and quotients,
composites, covers, duals and the maps of the induction functor, whose
duals are those of co-induction.  So every tuple that exists packs to a
module, and ``pack`` builds it unchecked; tensor products and
``f_map``/``g_map`` are built on first read, with no check.

A sum built by ``delta_sum`` also records its nonzero summands
(``DeltaModule.summands``), and its dual their duals; no other tuple does.
Its structural cokernels (``structural_cokernel``) are assembled from its
summands' memoised ones, equal entry for entry to the eliminated ones, and
its structure maps are not built for them.  A tuple is injective exactly
when its dual is projective, so ``is_injective_delta`` is
``is_projective_delta``'s two routes on the dual, and the epi classes read
the dual's structural cokernels (``classes.in_epi_class``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import linalg as la
from .algebra import (LEFT, Algebra, Bimodule, Module, ModuleMap,
                      _invertible_in_span, block_injections, free_cover,
                      hom_space, is_flat, is_projective, module_sum,
                      quotient_module, submodule, validate_module_data,
                      zero_module)
from .memo import array_key, linked_dual, memo, value_token
from .report import (AlgebraMismatchError, InternalCheckError,
                     ValidationError, Verdict)
from .tensor import TensorModule, tensor_over_algebra


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

    @memo("self")
    def regular_module(self, side: str) -> "DeltaModule":
        """The glued algebra as a module over itself, in tuple form, built
        once per side."""
        return unpack(self.delta.regular_module(side), self)


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


@dataclass(frozen=True, eq=False)
class TupleLayout:
    """Where the structure maps of a tuple live, for one side.

    A left tuple has f : M (x)_A X -> Y and g : N (x)_B Y -> X, a right
    tuple f : X (x)_A N -> Y and g : Y (x)_B M -> X.  Plain tensor
    coordinates follow the factor order (see tensor.py): bimodule basis
    vector i and component basis vector j index column i * dim X + j of a
    left f (bimodule outer) and column j * dim N + i of a right f
    (component outer); g likewise.  Read through ``blocks``, a plain map is
    one (rows, component) block per bimodule basis vector: the matrix by
    which that element of the glued algebra carries one component block of
    the packed module into the other.  Tuple operations work on the blocks.
    """

    side: str
    f_bimodule: Bimodule    # the bimodule f tensors with
    g_bimodule: Bimodule    # the bimodule g tensors with
    f_corner: slice         # basis of f_bimodule inside the glued algebra
    g_corner: slice

    def order(self, bimodule_part, component_part) -> tuple:
        """The two parts in this side's tensor factor order."""
        if self.side == LEFT:
            return bimodule_part, component_part
        return component_part, bimodule_part

    def tensor(self, bimodule: Bimodule, component: Module) -> TensorModule:
        return tensor_over_algebra(*self.order(bimodule, component))

    def lift(self, bimodule: Bimodule, matrix: np.ndarray) -> np.ndarray:
        """id (x) matrix on plain tensor coordinates."""
        return la.kron(*self.order(la.eye(bimodule.dim), matrix), bimodule.p)

    def blocks(self, plain: np.ndarray, bimodule: Bimodule,
               component_dim: int) -> np.ndarray:
        """A plain map as blocks of shape (bimodule.dim, rows, component_dim)."""
        bimodule_axis, component_axis = self.order(1, 2)
        return plain.reshape(plain.shape[0],
                             *self.order(bimodule.dim, component_dim)) \
            .transpose(bimodule_axis, 0, component_axis)

    def unblocks(self, blocks: np.ndarray) -> np.ndarray:
        """The plain map with the given blocks."""
        n, rows, component_dim = blocks.shape
        return blocks.transpose(1, *self.order(0, 2)) \
            .reshape(rows, n * component_dim)


CORNERS = ("a", "b")


def by_corner(corner: str, a_part, b_part) -> tuple:
    """The pair (own, other) of ``corner`` "a" or "b", from parts given in
    (A, B) order, such as x/y, f/g or algebra_a/algebra_b.

    The glued ring is symmetric under swapping (A, N, x, f) with
    (B, M, y, g), and this is the one place that swaps.  The swap is its own
    inverse: ``by_corner(corner, own, other)`` is in (A, B) order.
    """
    if corner not in CORNERS:
        raise ValidationError(f"corner must be 'a' or 'b', got {corner!r}")
    return (a_part, b_part) if corner == CORNERS[0] else (b_part, a_part)


@memo("ctx")
def tuple_layout(ctx: MoritaContext, side: str) -> TupleLayout:
    """The layout of the tuples over ``ctx`` on ``side``."""
    _, on, om, ob = ctx.offsets
    n_corner, m_corner = slice(on, om), slice(om, ob)
    if side == LEFT:
        return TupleLayout(side, ctx.m, ctx.n, m_corner, n_corner)
    return TupleLayout(side, ctx.n, ctx.m, n_corner, m_corner)


@dataclass(eq=False)
class DeltaModule:
    """A module over the glued algebra in tuple form, laid out by
    ``tuple_layout(context, side)``.

    It has the method surface of ``algebra.Module`` (``ring``, ``dual``,
    ``homs``, ``isomorphism``, ``plus``, ``cover``), and ``DeltaModuleMap``
    that of ``ModuleMap``, so code above the carriers is written once.

    Construction checks the tuple as the module it packs to: the components
    live over A and B on the declared side, f and g have the shapes of their
    plain tensor domains, and the packed actions obey the module laws of the
    glued algebra, which they do exactly when f and g descend through the
    tensor relations to module maps.  On the left, f does so exactly when its
    blocks obey f(m_i a) = f_i x(a) and f(b m_i) = y(b) f_i, f_i the block
    of the basis vector m_i of M: the action laws of the products m a and
    b m.  The right side and g are alike, and the laws of the products of the
    two bimodule corners, which vanish, then follow.  The tuple keeps its
    packed module.  A derived tuple (see ``_derived``), an enumerated
    representative or a sum, dual, sub-tuple, quotient, unpacked or induced
    tuple built by ``delta_sum``, ``delta_dual``, ``delta_submodule``,
    ``delta_quotient``, ``unpack`` or ``functors.induce``, is not checked
    again; nor is a co-induced tuple, the dual of an induced one.  The tensor products
    ``tensor_f``/``tensor_g`` and structure maps ``f_map``/``g_map`` of
    every tuple are built on first use, since most scanned tuples only read
    the blocks.  Maps between tuples are derived in the same way where
    their construction proves them (``DeltaModuleMap._intertwining``).

    A sum built by ``delta_sum`` records its nonzero summands in order, as
    ``algebra.module_sum`` does, and a dual of a sum records the duals of
    its summands; every other tuple records none.  ``structural_cokernel``
    assembles the results of a sum from its summands'.
    """

    context: MoritaContext
    side: str
    x: Module
    y: Module
    f_plain: np.ndarray
    g_plain: np.ndarray
    name: str = ""
    summands: ClassVar[tuple["DeltaModule", ...]] = ()

    def __post_init__(self):
        ctx, p = self.context, self.context.p
        if self.x.algebra is not ctx.algebra_a or self.x.side != self.side:
            raise AlgebraMismatchError("x component must live over A on the declared side")
        if self.y.algebra is not ctx.algebra_b or self.y.side != self.side:
            raise AlgebraMismatchError("y component must live over B on the declared side")
        self.f_plain = la.reduce_mod(self.f_plain, p)
        self.g_plain = la.reduce_mod(self.g_plain, p)
        self.layout = lay = tuple_layout(ctx, self.side)
        for label, plain, rows, bimodule, component in (
                ("f", self.f_plain, self.y.dim, lay.f_bimodule, self.x),
                ("g", self.g_plain, self.x.dim, lay.g_bimodule, self.y)):
            shape = (rows, bimodule.dim * component.dim)
            if plain.shape != shape:
                raise ValidationError(
                    f"{label} must have shape {shape}, got {plain.shape}")
        packed = pack(self)
        report = validate_module_data(ctx.delta, self.side, self.dim,
                                      packed.actions)
        if report.verdict is not Verdict.PASS:
            # (x, y, f, 0) packs to a module exactly when f descends; when
            # it does, g is the structure map that does not.
            f_alone = packed.actions.copy()
            f_alone[lay.g_corner] = 0
            f_report = validate_module_data(ctx.delta, self.side, self.dim,
                                            f_alone)
            label, report = (("f", f_report) if f_report.verdict is not Verdict.PASS
                             else ("g", report))
            i, j = report.witnesses[0]["pair"]
            raise ValidationError(
                f"tuple {self.describe()}: {label} does not descend through "
                f"the tensor relations to a module map (glued basis pair "
                f"({i}, {j}))", report)
        self.packed = packed

    @classmethod
    def _derived(cls, context: MoritaContext, side: str, x: Module, y: Module,
                 f_plain: np.ndarray, g_plain: np.ndarray,
                 name: str) -> "DeltaModule":
        """A tuple that its caller has built to pack to a module derived
        from checked ones, so the construction check, the module check of
        the packed actions, is not run again.

        The packed module of a sum of ``delta_sum`` is the block sum of the
        summands' packed modules in the basis order [x blocks, y blocks], a
        permutation of theirs; that of a dual of ``delta_dual`` is the
        transposed module ``pack(v).dual``, since transposing reverses
        products.  A pair of spans (X', Y'), invariant in x and y and
        carried into each other by f and g, is exactly a submodule of
        ``pack(v)``: every element of the glued algebra acts by blocks that
        keep X' + Y'.  The sub-tuple of ``delta_submodule`` packs to that
        submodule, its blocks the restricted actions, and the tuple of
        ``delta_quotient`` packs to the quotient by it, its blocks the
        projected actions (see ``Module._derived`` for both).  The tuple of
        ``unpack`` packs to its module in a new basis, and
        ``functors.induce`` proves that its canonical projection descends
        to a module map, and ``enumeration._representatives`` that its
        combinations of hom bases do.  Since the result packs to a module,
        f and g descend through the tensor quotients to module maps, and
        ``f_map``/``g_map`` need no check.
        """
        v = object.__new__(cls)
        v.context, v.side, v.x, v.y, v.name = context, side, x, y, name
        v.f_plain, v.g_plain = f_plain, g_plain
        v.layout = tuple_layout(context, side)
        return v

    @property
    def p(self) -> int:
        return self.context.p

    @property
    def dim(self) -> int:
        return self.x.dim + self.y.dim

    def describe(self) -> str:
        return self.name or f"<{self.side} tuple ({self.x.dim}, {self.y.dim})>"

    def value_key(self) -> tuple:
        """What the tuple is as a value, for ``memo(by_value=True)``: its
        context, side, the values of its components and its plain structure
        maps; the name and summands are not part of it."""
        return (self.context, self.side, value_token(self.x),
                value_token(self.y), *array_key(self.f_plain),
                *array_key(self.g_plain))

    @property
    def ring(self) -> MoritaContext:
        return self.context

    @property
    def dual(self) -> "DeltaModule":
        """The dual tuple, kept by ``delta_dual``."""
        return delta_dual(self)

    def homs(self, target: "DeltaModule") -> list["DeltaModuleMap"]:
        return delta_hom_space(self, target)

    def isomorphism(self, other: "DeltaModule") -> "DeltaModuleMap | None":
        return delta_is_isomorphic(self, other)

    def plus(self, other: "DeltaModule") -> "DeltaModule":
        return delta_sum([self, other])

    def cover(self) -> tuple["DeltaModule", "DeltaModuleMap"]:
        return _delta_cover(self)

    @cached_property
    def packed(self) -> Module:
        """The module over the glued algebra; a checked tuple keeps the one
        its construction checked."""
        return pack(self)

    @cached_property
    def tensor_f(self) -> TensorModule:
        """The domain of f, M (x)_A x on the left, x (x)_A N on the right."""
        return self.layout.tensor(self.layout.f_bimodule, self.x)

    @cached_property
    def tensor_g(self) -> TensorModule:
        """The domain of g, N (x)_B y on the left, y (x)_B M on the right."""
        return self.layout.tensor(self.layout.g_bimodule, self.y)

    @cached_property
    def f_map(self) -> ModuleMap:
        """f on the tensor quotient, through the section; unchecked, since
        the tuple packs to a module."""
        return ModuleMap._intertwining(
            self.tensor_f.module, self.y,
            (self.f_plain @ self.tensor_f.section) % self.p)

    @cached_property
    def g_map(self) -> ModuleMap:
        """g on the tensor quotient, through the section; unchecked, since
        the tuple packs to a module."""
        return ModuleMap._intertwining(
            self.tensor_g.module, self.x,
            (self.g_plain @ self.tensor_g.section) % self.p)

    @cached_property
    def f_blocks(self) -> np.ndarray:
        """f as one (y.dim, x.dim) block per basis vector of its bimodule."""
        return self.layout.blocks(self.f_plain, self.layout.f_bimodule, self.x.dim)

    @cached_property
    def g_blocks(self) -> np.ndarray:
        """g as one (x.dim, y.dim) block per basis vector of its bimodule."""
        return self.layout.blocks(self.g_plain, self.layout.g_bimodule, self.y.dim)


def zero_delta_module(ctx: MoritaContext, side: str) -> DeltaModule:
    x = zero_module(ctx.algebra_a, side)
    y = zero_module(ctx.algebra_b, side)
    return DeltaModule(ctx, side, x, y, la.zeros(0, 0), la.zeros(0, 0), name="0")


@dataclass(eq=False)
class DeltaModuleMap:
    """A map of tuples: component maps making both structure squares commute.

    Construction checks the map as the map of packed modules it is: the
    endpoints share context and side, the components have the shapes of
    their endpoints, and the block matrix ``matrix`` is a ``ModuleMap``
    between the packed modules, which it is exactly when both components
    are module maps and both squares commute.  A map whose construction
    proves that (see ``_intertwining``) is not checked again.  The
    component maps ``a_map``/``b_map`` are built on first use.
    """

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
        for label, matrix, shape in (("a", self.a_matrix, (v.x.dim, u.x.dim)),
                                     ("b", self.b_matrix, (v.y.dim, u.y.dim))):
            if matrix.shape != shape:
                raise ValidationError(
                    f"{label} matrix shape {matrix.shape} != {shape}")
        ModuleMap(u.packed, v.packed, self.matrix)

    @classmethod
    def _intertwining(cls, source: DeltaModule, target: DeltaModule,
                      a_matrix: np.ndarray,
                      b_matrix: np.ndarray) -> "DeltaModuleMap":
        """A map that its caller has built to pack to a map of packed
        modules its construction proves, as ``ModuleMap._intertwining``
        does for module maps; the construction check, the ``ModuleMap``
        check of the packed map, is not run again.

        The proofs are those of module maps: a hom-space vector of the
        packed modules, a linear combination of such vectors, a block
        injection or projection of a sum, the inclusion of a restriction to
        a closed span pair or the projection to its quotient, and a
        composite of tuple maps, whose packed maps compose.
        """
        phi = object.__new__(cls)
        phi.source, phi.target = source, target
        phi.a_matrix, phi.b_matrix = a_matrix, b_matrix
        return phi

    @cached_property
    def a_map(self) -> ModuleMap:
        """The x component, unchecked, since the packed map is a module map."""
        return ModuleMap._intertwining(self.source.x, self.target.x,
                                       self.a_matrix)

    @cached_property
    def b_map(self) -> ModuleMap:
        """The y component, unchecked, since the packed map is a module map."""
        return ModuleMap._intertwining(self.source.y, self.target.y,
                                       self.b_matrix)

    @property
    def p(self) -> int:
        return self.source.p

    def compose(self, other: "DeltaModuleMap") -> "DeltaModuleMap":
        """self after other, unchecked: the squares of the two maps paste."""
        if other.target is not self.source:
            raise AlgebraMismatchError("composition endpoints do not match")
        return DeltaModuleMap._intertwining(
            other.source, self.target,
            (self.a_matrix @ other.a_matrix) % self.p,
            (self.b_matrix @ other.b_matrix) % self.p)

    def is_zero(self) -> bool:
        return not (np.any(self.a_matrix) or np.any(self.b_matrix))

    def coord_vector(self) -> np.ndarray:
        return np.concatenate([la.vec(self.a_matrix), la.vec(self.b_matrix)])

    @property
    def matrix(self) -> np.ndarray:
        """The map of packed modules: a_matrix and b_matrix as blocks."""
        out = la.zeros(self.target.dim, self.source.dim)
        tx, sx = self.target.x.dim, self.source.x.dim
        out[:tx, :sx] = self.a_matrix
        out[tx:, sx:] = self.b_matrix
        return out

    def kernel(self) -> tuple[DeltaModule, "DeltaModuleMap"]:
        return delta_kernel(self)

    @property
    @linked_dual
    def dual(self) -> "DeltaModuleMap":
        """The transpose, from ``target.dual`` to ``source.dual``; its dual
        is this map while it lives (``memo.linked_dual``).  Unchecked: it
        packs to the transpose of the packed map, taken between the packed
        duals (see ``DeltaModule._derived``), which intertwines as
        ``ModuleMap.dual`` does."""
        return DeltaModuleMap._intertwining(
            self.target.dual, self.source.dual, self.a_matrix.T.copy(),
            self.b_matrix.T.copy())

    @classmethod
    def identity(cls, v: DeltaModule) -> "DeltaModuleMap":
        return cls._intertwining(v, v, la.eye(v.x.dim), la.eye(v.y.dim))


def pack(v: DeltaModule) -> Module:
    """Realise a tuple as a module over the glued algebra.

    Basis order [x block, y block]; the corner elements act through the
    blocks of the structure maps.  Every tuple packs to a module: a checked
    tuple passed the module check on these actions, and a derived one packs
    to a module derived from checked ones (see ``DeltaModule._derived``),
    so the module is built without the check.
    """
    ctx, lay = v.context, v.layout
    da, _, _, db = ctx.dims
    oa, _, _, ob = ctx.offsets
    dx, d = v.x.dim, v.dim
    acts = np.zeros((ctx.delta.dim, d, d), dtype=np.int64)
    acts[oa:oa + da, :dx, :dx] = v.x.actions
    acts[ob:ob + db, dx:, dx:] = v.y.actions
    acts[lay.f_corner, dx:, :dx] = v.f_blocks
    acts[lay.g_corner, :dx, dx:] = v.g_blocks
    return Module._derived(ctx.delta, v.side, d, acts, f"packed[{v.describe()}]")


def unpack(module: Module, ctx: MoritaContext) -> DeltaModule:
    """Recover the tuple form of a module over the glued algebra.

    The components are the images of the corner idempotents; the structure
    maps are read off from the corner element actions in those coordinates.
    Nothing is checked again.  The column bases of the two images together
    are a basis of the module, and every action keeps both spans, so in that
    basis each action of the glued algebra is block-diagonal on the corners
    and carries the corner blocks into each other: the restricted actions.
    Those are the actions of the module in a new basis, which obey the
    module laws because the module's do; the A and B corners restrict to
    modules x and y (see ``Module._derived``, e_a acting as the identity on
    its image), and the tuple packs to the module in the new basis (see
    ``DeltaModule._derived``).  The restricted actions depend only on the
    module's value, so they are computed once per value
    (``_unpacked_arrays``) and read-only; the tuple and its components are
    built on every call, under the module's name.
    """
    if module.algebra is not ctx.delta:
        raise AlgebraMismatchError("module does not live over this context's glued algebra")
    x_acts, y_acts, f_plain, g_plain = _unpacked_arrays(module, ctx)
    x = Module._derived(ctx.algebra_a, module.side, x_acts.shape[1], x_acts,
                        "unpacked.x")
    y = Module._derived(ctx.algebra_b, module.side, y_acts.shape[1], y_acts,
                        "unpacked.y")
    return DeltaModule._derived(ctx, module.side, x, y, f_plain, g_plain,
                                f"unpacked[{module.describe()}]")


@memo("module", by_value=True)
def _unpacked_arrays(module: Module, ctx: MoritaContext) -> tuple:
    """The read-only actions of x and y and the plain structure maps f and
    g of ``unpack(module, ctx)``."""
    p = ctx.p
    e_a = module.action_of(ctx.idempotent_a)
    e_b = module.action_of(ctx.idempotent_b)
    cols_x = la.image_basis(e_a, p).T
    cols_y = la.image_basis(e_b, p).T
    if cols_x.shape[1] + cols_y.shape[1] != module.dim:
        raise InternalCheckError("corner idempotent images do not span the module")
    da, _, _, db = ctx.dims
    oa, _, _, ob = ctx.offsets
    lay = tuple_layout(ctx, module.side)
    acts = module.actions
    restricted = [la.restrict(acts[oa:oa + da], cols_x, cols_x, p),
                  la.restrict(acts[ob:ob + db], cols_y, cols_y, p),
                  la.restrict(acts[lay.f_corner], cols_x, cols_y, p),
                  la.restrict(acts[lay.g_corner], cols_y, cols_x, p)]
    if any(blocks is None for blocks in restricted):
        raise InternalCheckError("an action does not keep the corner blocks")
    x_acts, y_acts, f_blocks, g_blocks = restricted
    arrays = (x_acts, y_acts, lay.unblocks(f_blocks), lay.unblocks(g_blocks))
    for array in arrays:
        array.flags.writeable = False
    return arrays


@linked_dual
def delta_dual(v: DeltaModule) -> DeltaModule:
    """Linear dual of a tuple, switching sides.

    The dual structure maps evaluate through the originals, so their blocks
    are the transposed blocks of the other map: for a left tuple
    f+(phi (x) n) = phi . g(n (x) -) and g+(psi (x) m) = psi . f(m (x) -),
    and symmetrically for right tuples.  The components are ``v.x.dual``
    and ``v.y.dual``, so tuples that share a component share its dual.  The
    dual is built once and kept as ``v.dual``, with v as the dual's dual
    while it lives (``memo.linked_dual``).  The dual of a sum is the sum of
    the summands' duals entry for entry, as transposing block-diagonal
    blocks transposes each block in place, so it records them as summands.
    """
    x_dual, y_dual = v.x.dual, v.y.dual
    lay = tuple_layout(v.context, x_dual.side)
    dual = DeltaModule._derived(
        v.context, x_dual.side, x_dual, y_dual,
        lay.unblocks(v.g_blocks.transpose(0, 2, 1)),
        lay.unblocks(v.f_blocks.transpose(0, 2, 1)), f"{v.describe()}^+")
    if v.summands:
        dual.summands = tuple(summand.dual for summand in v.summands)
    return dual


def delta_hom_space(u: DeltaModule, v: DeltaModule) -> list[DeltaModuleMap]:
    """Basis of the space of tuple maps u -> v.

    Computed as the hom space of the packed modules; every map over the
    glued algebra preserves the idempotent blocks, so each basis element
    splits into component blocks (asserted, not assumed).  A map of packed
    modules that keeps the blocks is a tuple map, so none is checked again.
    """
    maps = hom_space(u.packed, v.packed)
    out = []
    sx, tx = u.x.dim, v.x.dim
    for mp in maps:
        if np.any(mp.matrix[:tx, sx:]) or np.any(mp.matrix[tx:, :sx]):
            raise InternalCheckError("glued-algebra map does not preserve the blocks")
        out.append(DeltaModuleMap._intertwining(
            u, v, mp.matrix[:tx, :sx], mp.matrix[tx:, sx:]))
    return out


def delta_sum(tuples: list[DeltaModule]) -> DeltaModule:
    """Componentwise direct sum of tuples, blocks in the given order.

    Builds only the sum; ``delta_direct_sum`` adds the injection and
    projection witnesses for callers that use them.  The sum records its
    nonzero summands, from which its structural cokernels, and those of its
    dual, are assembled.
    """
    if not tuples:
        raise ValueError("direct sum of an empty list is ambiguous; pass a zero tuple")
    ctx, side = tuples[0].context, tuples[0].side
    if any(t.context is not ctx or t.side != side for t in tuples):
        raise AlgebraMismatchError("direct sum factors disagree on context or side")
    x_sum = module_sum([t.x for t in tuples])
    y_sum = module_sum([t.y for t in tuples])
    lay = tuples[0].layout
    f_blocks = la.block_diagonal([t.f_blocks for t in tuples])
    g_blocks = la.block_diagonal([t.g_blocks for t in tuples])
    name = "(" + " + ".join(t.describe() for t in tuples) + ")"
    out = DeltaModule._derived(ctx, side, x_sum, y_sum, lay.unblocks(f_blocks),
                               lay.unblocks(g_blocks), name)
    out.summands = tuple(t for t in tuples if t.dim)
    return out


def delta_direct_sum(tuples: list[DeltaModule]) \
        -> tuple[DeltaModule, list[DeltaModuleMap], list[DeltaModuleMap]]:
    """Componentwise direct sum with injection and projection tuple maps.

    Callers that discard the witnesses use ``delta_sum``.  The witnesses
    are the block injections and projections of the packed sum, which keep
    the x and y blocks, so they are not checked again.
    """
    total = delta_sum(tuples)
    x_inj = block_injections([t.x.dim for t in tuples])
    y_inj = block_injections([t.y.dim for t in tuples])
    injections, projections = [], []
    for t, xi, yi in zip(tuples, x_inj, y_inj):
        injections.append(DeltaModuleMap._intertwining(t, total, xi, yi))
        projections.append(DeltaModuleMap._intertwining(total, t, xi.T, yi.T))
    return total, injections, projections


def delta_is_isomorphic(u: DeltaModule, v: DeltaModule) -> DeltaModuleMap | None:
    """An isomorphism of tuples if one exists, else None.

    Scans the tuple hom space, as maps of packed modules, for an invertible
    element; component dimensions must match exactly.  The tuple maps form
    a linear space, so the element found is one and is not checked again.
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
            return DeltaModuleMap._intertwining(u, v, la.zeros(0, 0),
                                                la.zeros(0, 0))
        return None
    mat = _invertible_in_span(homs, u.p, (u, v))
    if mat is None:
        return None
    dx = u.x.dim
    return DeltaModuleMap._intertwining(u, v, mat[:dx, :dx], mat[dx:, dx:])


def delta_submodule(v: DeltaModule, x_cols: np.ndarray, y_cols: np.ndarray) \
        -> tuple[DeltaModule, DeltaModuleMap]:
    """The sub-tuple spanned by the given component columns, with inclusion.

    The columns of each component must be linearly independent, and the
    spans action-invariant and closed under the structure maps; violations
    raise ValidationError.  The sub-tuple is derived (see ``_derived``),
    and so is its inclusion: the restricted blocks C_i obey
    incl C_i = B_i incl for every action and structure block B_i, which are
    the module-map laws and both squares.
    """
    x_sub, incl_x = submodule(v.x, x_cols.T)
    y_sub, incl_y = submodule(v.y, y_cols.T)
    cx, cy = incl_x.matrix, incl_y.matrix
    f_sub = la.restrict(v.f_blocks, cx, cy, v.p)
    if f_sub is None:
        raise ValidationError("f does not carry the x span into the y span")
    g_sub = la.restrict(v.g_blocks, cy, cx, v.p)
    if g_sub is None:
        raise ValidationError("g does not carry the y span into the x span")
    sub = DeltaModule._derived(v.context, v.side, x_sub, y_sub,
                               v.layout.unblocks(f_sub),
                               v.layout.unblocks(g_sub), f"sub[{v.describe()}]")
    return sub, DeltaModuleMap._intertwining(sub, v, cx, cy)


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
    ValidationError.  The quotient is derived (see ``_derived``), and so
    is its projection: the projected blocks P B_i S obey
    (P B_i S) P = P B_i for every action and structure block B_i, since
    I - S P lands in the spans, which are the module-map laws and both
    squares.
    """
    p = v.p
    x_quot, proj_x, sx = quotient_module(v.x, x_cols)
    y_quot, proj_y, sy = quotient_module(v.y, y_cols)
    px, py = proj_x.matrix, proj_y.matrix
    if np.any((py @ v.f_blocks @ x_cols) % p):
        raise ValidationError("f does not carry the x span into the y span")
    if np.any((px @ v.g_blocks @ y_cols) % p):
        raise ValidationError("g does not carry the y span into the x span")
    quot = DeltaModule._derived(v.context, v.side, x_quot, y_quot,
                                v.layout.unblocks((py @ v.f_blocks @ sx) % p),
                                v.layout.unblocks((px @ v.g_blocks @ sy) % p),
                                f"quot[{v.describe()}]")
    return quot, DeltaModuleMap._intertwining(v, quot, px, py)


def corner_parts(v: DeltaModule, part_of) -> list | None:
    """``part_of(v, corner)`` for both corners in (A, B) order, or None as
    soon as one of them is None."""
    parts = []
    for corner in CORNERS:
        part = part_of(v, corner)
        if part is None:
            return None
        parts.append(part)
    return parts


@memo("v")
def _cokernel_arrays(v: DeltaModule, corner: str) \
        -> tuple[np.ndarray, np.ndarray] | None:
    """The actions and projection of ``structural_cokernel(v, corner)``: of
    a sum, None as soon as one summand gives None, else the summands'
    arrays, block-diagonal in order."""
    if v.summands:
        parts = []
        for summand in v.summands:
            part = _cokernel_arrays(summand, corner)
            if part is None:
                return None
            parts.append(part)
        return (la.block_diagonal([actions for actions, _ in parts]),
                la.block_diagonal([matrix for _, matrix in parts]))
    _, entering = by_corner(corner, v.f_map, v.g_map)
    image = la.image_basis(entering.matrix, v.p)
    if image.shape[0] != entering.source.dim:
        return None
    quot, proj, _ = quotient_module(entering.target, image.T)
    return quot.actions, proj.matrix


def structural_cokernel(v: DeltaModule, corner: str) \
        -> tuple[Module, ModuleMap] | None:
    """The cokernel of the structure map into the ``corner`` component,
    x/im g for "a" and y/im f for "b", with its projection, or None when
    that structure map is not one-to-one.  Asked of ``v.dual`` it decides
    v's epi classes (``classes.in_epi_class``).

    The actions and the projection are memoised on v; each call returns a
    new module and map on them, so nothing memoised on a returned module
    outlives it.  A tuple that records no summands eliminates the image of
    its structure map.  A sum is assembled from its summands' results,
    equal entry for entry to the eliminated one, without building its
    structure maps.  Its structure map is block-diagonal up to the order of
    its tensor coordinates, and rank is additive over blocks, so it is
    one-to-one exactly when every summand's is.  The projection of
    ``linalg.quotient_data`` is the rows of E below the rank in
    rref([m | I]) = E [m | I]; they are in reduced echelon form and span
    the left null space of m, so the projection is the reduced echelon
    basis of the annihilator of im m and depends only on that span.  For
    the sum the span is the direct sum of the summands' spans, its
    annihilator is the direct sum of theirs, and the block-diagonal matrix
    of their reduced echelon bases is in reduced echelon form: the
    projection is the summands' projections, block-diagonal in order.  The
    quotient actions P A S equal the induced actions, which P determines
    (P A = A' P and P S = I), so they are the summands', block-diagonal.
    """
    arrays = _cokernel_arrays(v, corner)
    if arrays is None:
        return None
    actions, projection = arrays
    own, _ = by_corner(corner, v.x, v.y)
    quot = Module._derived(own.algebra, own.side, projection.shape[0], actions,
                           f"quot[{own.describe()}]")
    return quot, ModuleMap._intertwining(own, quot, projection)


def _section(proj: ModuleMap) -> np.ndarray | None:
    """A module map s with ``proj`` s the identity of ``proj.target``, or
    None when ``proj`` does not split."""
    quot, own, p = proj.target, proj.source, proj.p
    if quot.dim == 0:
        return la.zeros(own.dim, 0)
    homs = [h.matrix for h in hom_space(quot, own)]
    if not homs:
        return None
    stacked = np.stack([la.vec((proj.matrix @ h) % p) for h in homs], axis=1)
    coeffs = la.solve(stacked, la.vec(la.eye(quot.dim)), p)
    if coeffs is None:
        return None
    return np.tensordot(coeffs, np.stack(homs), axes=1) % p


def _bijective(maps: list[DeltaModuleMap]) -> bool:
    """Whether the maps out of the summands of a sum, joined componentwise,
    form an isomorphism of tuples."""
    p = maps[0].p
    return all(m.shape[0] == m.shape[1] == la.rank(m, p)
               for m in (np.hstack([phi.a_matrix for phi in maps]),
                         np.hstack([phi.b_matrix for phi in maps])))


def induced_isomorphism(v: DeltaModule, premise=lambda module: True) \
        -> tuple[tuple[Module, Module], list[DeltaModuleMap]] | None:
    """The structural cokernels (P, Q) = (x/im g, y/im f) of v when v is
    isomorphic to the sum of the tuples induced from P and from Q, together
    with the maps ind P -> v and ind Q -> v that jointly are an isomorphism
    from that sum; else None.

    None also when ``premise`` fails on P or Q; it is tested before any
    section is sought.  In an induced sum the structure maps are one-to-one
    and the projections x -> P and y -> Q split, so v is no such sum when a
    structure map has a kernel or a projection has no section.  Sections
    s : P -> x and t : Q -> y give a map from the induced sum to v by
    adjunction, with components s and t.  It is onto: its image and
    Jv = (im g, im f) span v, and J, the ideal of the two bimodule corners,
    squares to zero.  The cokernels of a sum induced from any P' and Q' are
    P' and Q', so if v is isomorphic to one, the dimensions agree and this
    map is bijective.  Rank decides it.
    """
    from .functors import induce, induced_adjoint

    parts = corner_parts(v, structural_cokernel)
    if parts is None or not all(premise(quot) for quot, _ in parts):
        return None
    joined = []
    for corner, (quot, proj) in zip(CORNERS, parts):
        section = _section(proj)
        if section is None:
            return None
        joined.append(induced_adjoint(induce(v.context, quot, corner), v,
                                      section, corner))
    if not _bijective(joined):
        return None
    return (parts[0][0], parts[1][0]), joined


@memo("v")
def _delta_cover(v: DeltaModule) -> tuple[DeltaModule, DeltaModuleMap]:
    """An epi onto v from a projective tuple, kept by v.

    The source is the sum of the inductions of component covers; its packed
    module is a sum of principal summands of the glued algebra, so it is
    projective with no hypothesis on the inner bimodules.  No map is checked
    again: the counit ind(own) -> v is the adjoint of the identity of own,
    each lift is a composite of tuple maps, and a map out of a sum whose
    restrictions to the summands are tuple maps is one.  The rank test of
    surjectivity stays.
    """
    from .functors import induce, induce_map, induced_adjoint

    ctx, p = v.context, v.p
    lifts = []
    for corner in CORNERS:
        own, _ = by_corner(corner, v.x, v.y)
        _, cover = free_cover(own)
        counit = induced_adjoint(induce(ctx, own, corner), v, la.eye(own.dim),
                                 corner)
        lifts.append(counit.compose(induce_map(ctx, cover, corner)))
    total = delta_sum([lift.source for lift in lifts])
    eps = DeltaModuleMap._intertwining(
        total, v,
        np.hstack([lift.a_matrix for lift in lifts]) % p,
        np.hstack([lift.b_matrix for lift in lifts]) % p)
    if la.rank(eps.matrix, p) != v.dim:
        raise InternalCheckError("tuple cover failed to surject")
    return total, eps


def _agreed(property_name: str, v: DeltaModule, packed_answer: bool,
            structural_answer: bool) -> bool:
    """The packed route's answer for v when the structural route gives the
    same; a disagreement is an internal error naming the property.  The
    callers evaluate the packed route first."""
    if structural_answer != packed_answer:
        raise InternalCheckError(
            f"{property_name} routes disagree on {v.describe()}: "
            f"packed={packed_answer}, structural={structural_answer}")
    return packed_answer


@memo("v", by_value=True)
def is_projective_delta(v: DeltaModule) -> bool:
    """Projectivity of a tuple, computed two independent ways.

    Route one packs the tuple and applies the Tor certificate of
    ``is_projective`` over the glued algebra.  Route two decomposes: the
    tuple is projective exactly when the structure-map cokernels
    P = x/im g and Q = y/im f are projective and the tuple is isomorphic to
    the sum of the tuples induced from P and from Q, which
    ``induced_isomorphism`` decides by rank.
    Disagreement is an internal error.  Both routes run once for each value
    of v: the verdict is memoised by value (see ``memo``), so a tuple equal
    to one decided before, such as a cover, dual, cokernel or sum built
    again, is not decided again.
    """
    return _agreed("projectivity", v, is_projective(v.packed),
                   induced_isomorphism(v, is_projective) is not None)


@memo("v", by_value=True)
def is_injective_delta(v: DeltaModule) -> bool:
    """Injectivity of a tuple, computed two independent ways.

    A tuple is injective exactly when its dual is projective on the other
    side ([EJ]), so both routes of ``is_projective_delta`` run on
    ``v.dual``: the Tor certificate of its packed module, and its
    isomorphism to the sum of the tuples induced from its projective
    structural cokernels.  Disagreement is an internal error.  Like
    projectivity, the verdict is memoised by the value of v.
    """
    dual = v.dual
    return _agreed("injectivity", v, is_projective(dual.packed),
                   induced_isomorphism(dual, is_projective) is not None)


def flat_characterisation(v: DeltaModule) -> bool:
    """Monomorphism form of flatness: f and g injective with flat cokernels."""
    parts = corner_parts(v, structural_cokernel)
    return parts is not None and all(is_flat(quot) for quot, _ in parts)


@memo("v", by_value=True)
def is_flat_delta(v: DeltaModule) -> bool:
    """Flatness of a tuple, computed two independent ways.

    Over these finite-dimensional algebras flat coincides with projective,
    so the packed route settles it.  The monomorphism characterisation
    (f and g injective with flat cokernels) must agree unconditionally;
    a disagreement is an internal error.  Like projectivity, the verdict is
    memoised by the value of v.
    """
    return _agreed("flatness", v, is_projective(v.packed),
                   flat_characterisation(v))
