"""Finite-dimensional algebras over GF(p) and their one-sided modules.

An algebra is given by structure constants c[i][j][k] (the coefficient of
basis element k in the product b_i * b_j) plus the coordinates of the unit.
A module is a list of action matrices, one per algebra basis element; for a
left module the assignment b -> action(b) is multiplicative, for a right
module it reverses products.  Bimodules carry commuting actions of two
algebras.  Every object validates its defining equations at construction,
except a module derived from validated ones, such as a direct sum or a dual,
whose laws follow from theirs (see ``Module._derived``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from . import linalg as la
from .linalg import FieldSpec
from .memo import array_key, linked_dual, memo
from .report import (AlgebraMismatchError, BudgetExceededError, CheckReport,
                     InputError, InternalCheckError, ValidationError, Verdict)

LEFT = "left"
RIGHT = "right"

_SCAN_BUDGET_DEFAULT = 1 << 21

# The most entries one hom system may have, k (n m)^2 for an algebra of
# dimension k and modules of dimensions n and m: 128 MB of int64.  Unlike
# the scan budget it cannot be set; it stops a system that cannot be held
# before it is built.
HOM_SYSTEM_CAP = 1 << 24


def scan_budget() -> int:
    """Candidate ceiling of every exhaustive scan: module, structure-map,
    unit and isomorphism scans alike.  MORITA_ENUM_BUDGET overrides it with
    a nonnegative integer; any other value is an ``InputError``."""
    raw = os.environ.get("MORITA_ENUM_BUDGET")
    if not raw:
        return _SCAN_BUDGET_DEFAULT
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise InputError(
            f"MORITA_ENUM_BUDGET must be a nonnegative integer, got {raw!r}")
    return budget


def validate_algebra_data(field_spec: FieldSpec, dim: int, structure: np.ndarray,
                          unit: np.ndarray) -> CheckReport:
    """Check associativity and the two-sided unit law on raw structure data.

    The report names the first failing basis triple, which is what the
    workspace parser surfaces as a semantic diagnostic.
    """
    p = field_spec.p
    structure = la.reduce_mod(structure, p)
    unit = la.reduce_mod(unit, p)
    if structure.shape != (dim, dim, dim):
        return CheckReport("validate-algebra", Verdict.REFUTED,
                           f"structure constants must have shape {(dim, dim, dim)}, "
                           f"got {structure.shape}")
    if unit.shape != (dim,):
        return CheckReport("validate-algebra", Verdict.REFUTED,
                           f"unit vector must have length {dim}")
    lhs = np.einsum("ijl,lkm->ijkm", structure, structure) % p
    rhs = np.einsum("jkl,ilm->ijkm", structure, structure) % p
    bad = np.argwhere((lhs - rhs) % p)
    if bad.size:
        i, j, k = (int(v) for v in bad[0][:3])
        return CheckReport("validate-algebra", Verdict.REFUTED,
                           f"associativity fails at basis triple ({i}, {j}, {k})",
                           witnesses=[{"triple": [i, j, k]}])
    left_unit = np.einsum("i,ijk->jk", unit, structure) % p
    right_unit = np.einsum("j,ijk->ik", unit, structure) % p
    if not np.array_equal(left_unit, la.eye(dim)):
        j = int(np.argwhere((left_unit - la.eye(dim)) % p)[0][0])
        return CheckReport("validate-algebra", Verdict.REFUTED,
                           f"unit fails on the left at basis element {j}")
    if not np.array_equal(right_unit, la.eye(dim)):
        j = int(np.argwhere((right_unit - la.eye(dim)) % p)[0][0])
        return CheckReport("validate-algebra", Verdict.REFUTED,
                           f"unit fails on the right at basis element {j}")
    return CheckReport("validate-algebra", Verdict.PASS, f"dim {dim} over GF({p})")


@dataclass(eq=False)
class Algebra:
    """Associative unital algebra over GF(p) given by structure constants."""

    field: FieldSpec
    dim: int
    structure: np.ndarray   # (dim, dim, dim); c[i][j][k]
    unit: np.ndarray        # (dim,)
    name: str = ""

    def __post_init__(self):
        self.structure = la.reduce_mod(self.structure, self.p)
        self.unit = la.reduce_mod(self.unit, self.p)
        report = validate_algebra_data(self.field, self.dim, self.structure, self.unit)
        if report.verdict is not Verdict.PASS:
            raise ValidationError(f"algebra {self.name or '<anon>'}: {report.detail}", report)

    @property
    def p(self) -> int:
        return self.field.p

    @cached_property
    def left_mult(self) -> np.ndarray:
        """left_mult[i] is the matrix of x -> b_i * x."""
        return np.transpose(self.structure, (0, 2, 1)).copy()

    @cached_property
    def right_mult(self) -> np.ndarray:
        """right_mult[i] is the matrix of x -> x * b_i."""
        return np.transpose(self.structure, (1, 2, 0)).copy()

    def multiply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product of two elements given in coordinates."""
        return np.einsum("i,j,ijk->k", u % self.p, v % self.p, self.structure) % self.p

    @memo("self")
    def regular_module(self, side: str = LEFT) -> "Module":
        """The algebra as a module over itself, built once per side."""
        actions = self.left_mult if side == LEFT else self.right_mult
        return Module(self, side, self.dim, actions.copy(),
                      name=f"{self.name or 'A'}.regular.{side}")


_FIELD_ALGEBRAS: dict[int, Algebra] = {}


def field_algebra(field_spec: FieldSpec) -> Algebra:
    """The base field as a one-dimensional algebra; its modules are plain spaces.

    Cached per characteristic so identity comparisons between plain spaces work.
    """
    if field_spec.p not in _FIELD_ALGEBRAS:
        _FIELD_ALGEBRAS[field_spec.p] = Algebra(
            field_spec, 1, np.ones((1, 1, 1), dtype=np.int64),
            np.ones(1, dtype=np.int64), name="k")
    return _FIELD_ALGEBRAS[field_spec.p]


def _law_defects(actions: np.ndarray, structure: np.ndarray, side: str,
                 p: int, rows: list[int] | None = None) -> np.ndarray:
    """Defects of the action law on a stack of action tensors.

    For b_i b_j = sum_k c[i][j][k] b_k the operator law reads
    act(b_i) act(b_j) = sum_k c[i][j][k] act(b_k) on the left, with the
    composition order reversed on the right.  ``actions`` has shape
    (n, algebra.dim, d, d); the result, of shape (n, len(rows), algebra.dim,
    d, d), is the difference of the two sides mod p at each pair (i, j), so
    a candidate satisfies the law where its slice is zero.  ``rows``
    restricts i to the given basis indices; None checks all pairs.
    """
    sub = actions if rows is None else actions[:, rows]
    st = structure if rows is None else structure[rows]
    if side == LEFT:
        products = np.matmul(sub[:, :, None], actions[:, None, :])
    else:
        products = np.matmul(actions[:, None, :], sub[:, :, None])
    n, dim, d, _ = actions.shape
    expected = np.matmul(st.reshape(-1, dim), actions.reshape(n, dim, d * d))
    return (products - expected.reshape(products.shape)) % p


def validate_module_data(algebra: Algebra, side: str, dim: int,
                         actions: np.ndarray) -> CheckReport:
    """Check the unit law and multiplicativity of an action assignment."""
    p = algebra.p
    actions = la.reduce_mod(actions, p)
    if side not in (LEFT, RIGHT):
        return CheckReport("validate-module", Verdict.REFUTED, f"unknown side {side!r}")
    if actions.shape != (algebra.dim, dim, dim):
        return CheckReport("validate-module", Verdict.REFUTED,
                           f"actions must have shape {(algebra.dim, dim, dim)}, "
                           f"got {actions.shape}")
    unit_action = np.einsum("i,ijk->jk", algebra.unit, actions) % p
    if not np.array_equal(unit_action, la.eye(dim)):
        return CheckReport("validate-module", Verdict.REFUTED, "unit does not act as identity")
    failed = _law_defects(actions[None], algebra.structure, side, p)[0] != 0
    if failed.any():
        i, j = (int(v) for v in np.argwhere(failed)[0][:2])
        return CheckReport("validate-module", Verdict.REFUTED,
                           f"action law fails at basis pair ({i}, {j})",
                           witnesses=[{"pair": [i, j]}])
    return CheckReport("validate-module", Verdict.PASS, f"{side} module of dim {dim}")


@dataclass(eq=False)
class Module:
    """One-sided module over an Algebra, stored as per-basis action matrices."""

    algebra: Algebra
    side: str
    dim: int
    actions: np.ndarray     # (algebra.dim, dim, dim)
    name: str = ""

    def __post_init__(self):
        self.actions = la.reduce_mod(self.actions, self.p)
        report = validate_module_data(self.algebra, self.side, self.dim, self.actions)
        if report.verdict is not Verdict.PASS:
            raise ValidationError(f"module {self.name or '<anon>'}: {report.detail}", report)

    @classmethod
    def _derived(cls, algebra: Algebra, side: str, dim: int,
                 actions: np.ndarray, name: str) -> "Module":
        """A module whose reduced actions its caller has built from validated
        modules by an operation that keeps the action laws, such as a block
        sum, a transpose, a restriction or a projection; the construction
        check is not run again.

        Restriction (``submodule``): on an invariant span with a column
        basis C, action A_i restricts to the unique D_i with C D_i = A_i C.
        Since C is one-to-one, C D_i D_j = A_i A_j C and C D(1) = C give
        the module laws for the D_i.  Projection (``quotient_module``): with
        P the projection onto the quotient by an invariant span and S a
        section, I - S P lands in that span, so P A_i = A'_i P for
        A'_i = P A_i S, and since P is onto, the laws of the A_i pass to the
        A'_i.  In both cases C and P intertwine.
        """
        module = object.__new__(cls)
        module.algebra, module.side, module.dim = algebra, side, dim
        module.actions, module.name = actions, name
        return module

    @property
    def p(self) -> int:
        return self.algebra.p

    def action_of(self, element: np.ndarray) -> np.ndarray:
        """Action matrix of an algebra element given in coordinates."""
        return np.einsum("i,ijk->jk", la.reduce_mod(element, self.p), self.actions) % self.p

    def describe(self) -> str:
        return self.name or f"<{self.side} module dim {self.dim} over {self.algebra.name}>"

    def value_key(self) -> tuple:
        """What the module is as a value, for ``memo(by_value=True)``: its
        algebra, side and reduced actions; the name is not part of it."""
        return (self.algebra, self.side, *array_key(self.actions))

    # The surface shared with morita.DeltaModule, so class and window code
    # is written once for modules and tuples.

    @property
    def ring(self) -> Algebra:
        return self.algebra

    @property
    def dual(self) -> "Module":
        """The GF(p)-linear dual, kept by ``dual_module``."""
        return dual_module(self)

    def homs(self, target: "Module") -> list["ModuleMap"]:
        return hom_space(self, target)

    def isomorphism(self, other: "Module") -> "ModuleMap | None":
        return is_isomorphic(self, other)

    def plus(self, other: "Module") -> "Module":
        return module_sum([self, other])

    def cover(self) -> tuple["Module", "ModuleMap"]:
        return free_cover(self)


def zero_module(algebra: Algebra, side: str) -> Module:
    return Module(algebra, side, 0, np.zeros((algebra.dim, 0, 0), dtype=np.int64),
                  name="0")


@dataclass(eq=False)
class Bimodule:
    """A (left_algebra, right_algebra)-bimodule with commuting actions."""

    left_algebra: Algebra
    right_algebra: Algebra
    dim: int
    left_actions: np.ndarray    # (left_algebra.dim, dim, dim)
    right_actions: np.ndarray   # (right_algebra.dim, dim, dim)
    name: str = ""

    def __post_init__(self):
        if self.left_algebra.p != self.right_algebra.p:
            raise AlgebraMismatchError("bimodule algebras live over different fields")
        p = self.p
        self.left_actions = la.reduce_mod(self.left_actions, p)
        self.right_actions = la.reduce_mod(self.right_actions, p)
        for side_name, alg, acts, side in (
                ("left", self.left_algebra, self.left_actions, LEFT),
                ("right", self.right_algebra, self.right_actions, RIGHT)):
            report = validate_module_data(alg, side, self.dim, acts)
            if report.verdict is not Verdict.PASS:
                raise ValidationError(
                    f"bimodule {self.name or '<anon>'} ({side_name} action): {report.detail}",
                    report)
        commute = (np.einsum("iab,jbc->ijac", self.left_actions, self.right_actions)
                   - np.einsum("jab,ibc->ijac", self.right_actions, self.left_actions)) % p
        if commute.any():
            i, j = (int(v) for v in np.argwhere(commute)[0][:2])
            raise ValidationError(
                f"bimodule {self.name or '<anon>'}: actions fail to commute at "
                f"basis pair ({i}, {j})")

    @property
    def p(self) -> int:
        return self.left_algebra.p

    @cached_property
    def as_left_module(self) -> Module:
        return Module(self.left_algebra, LEFT, self.dim, self.left_actions,
                      name=f"{self.name}.left")

    @cached_property
    def as_right_module(self) -> Module:
        return Module(self.right_algebra, RIGHT, self.dim, self.right_actions,
                      name=f"{self.name}.right")


@dataclass(eq=False)
class ModuleMap:
    """A homomorphism of one-sided modules, validated to intertwine the actions."""

    source: Module
    target: Module
    matrix: np.ndarray      # (target.dim, source.dim)

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra or self.source.side != self.target.side:
            raise AlgebraMismatchError("module map endpoints disagree on algebra or side")
        p = self.p
        self.matrix = la.reduce_mod(self.matrix, p)
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValidationError(
                f"map matrix shape {self.matrix.shape} != "
                f"{(self.target.dim, self.source.dim)}")
        lhs = np.einsum("ab,ibc->iac", self.matrix, self.source.actions) % p
        rhs = np.einsum("iab,bc->iac", self.target.actions, self.matrix) % p
        failed = (lhs - rhs) % p
        if failed.any():
            raise ValidationError(
                "matrix does not intertwine action of basis element "
                f"{int(np.argwhere(failed)[0][0])}")

    @property
    def p(self) -> int:
        return self.source.p

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other; a composite of intertwining maps intertwines, so
        it is not checked again."""
        if other.target is not self.source:
            raise AlgebraMismatchError("composition endpoints do not match")
        return ModuleMap._intertwining(other.source, self.target,
                                       (self.matrix @ other.matrix) % self.p)

    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    def coord_vector(self) -> np.ndarray:
        return la.vec(self.matrix)

    def kernel(self) -> tuple[Module, "ModuleMap"]:
        return kernel_module(self)

    @property
    @linked_dual
    def dual(self) -> "ModuleMap":
        """The transpose, from ``target.dual`` to ``source.dual``; its dual
        is this map while it lives (``memo.linked_dual``).  Unchecked:
        transposing phi A = B phi gives A^T phi^T = phi^T B^T, the
        intertwining law of the dual actions."""
        return ModuleMap._intertwining(self.target.dual, self.source.dual,
                                       self.matrix.T.copy())

    @classmethod
    def identity(cls, module: Module) -> "ModuleMap":
        return cls(module, module, la.eye(module.dim))

    @classmethod
    def _intertwining(cls, source: Module, target: Module,
                      matrix: np.ndarray) -> "ModuleMap":
        """A map whose reduced matrix its caller has already proved to
        intertwine the actions, such as a kernel vector of the hom system;
        the construction check is not run again."""
        phi = object.__new__(cls)
        phi.source, phi.target, phi.matrix = source, target, matrix
        return phi


def module_sum(modules: list[Module]) -> Module:
    """Direct sum of modules, actions block-diagonal in the given order.

    Block-diagonal actions obey the action laws because each block does, so
    the sum is not validated again."""
    if not modules:
        raise ValueError("direct sum of an empty list is ambiguous; pass a zero module")
    alg, side = modules[0].algebra, modules[0].side
    if any(m.algebra is not alg or m.side != side for m in modules):
        raise AlgebraMismatchError("direct sum factors disagree on algebra or side")
    actions = la.block_diagonal([m.actions for m in modules])
    name = "(" + " + ".join(m.describe() for m in modules) + ")"
    return Module._derived(alg, side, actions.shape[1], actions, name)


def block_injections(dims: list[int]) -> list[np.ndarray]:
    """The matrices of the block injections k^d_i -> k^(sum d), in order."""
    total = sum(dims)
    out, offset = [], 0
    for d in dims:
        inj = la.zeros(total, d)
        inj[offset:offset + d, :] = la.eye(d)
        out.append(inj)
        offset += d
    return out


def hom_space(source: Module, target: Module) -> list[ModuleMap]:
    """Basis of the space of module homomorphisms source -> target.

    Solves the intertwining system act_target(b) F = F act_source(b) for all
    basis elements b; the echelon kernel basis makes the result deterministic.
    The basis depends only on the values of source and target, so its rows
    are memoised by value (``_hom_rows``) and read-only; the maps are built
    on every call, around the objects passed in.
    """
    if source.algebra is not target.algebra or source.side != target.side:
        raise AlgebraMismatchError("hom endpoints disagree on algebra or side")
    n, m = target.dim, source.dim
    if n * m == 0:
        return []
    return [ModuleMap._intertwining(source, target, row.reshape(n, m))
            for row in _hom_rows(source, target)]


@memo("source", by_value=True)
def _hom_rows(source: Module, target: Module) -> np.ndarray:
    """The echelon kernel basis of ``hom_system``, one vec F a row."""
    rows = la.kernel_basis(hom_system(source, target), source.p)
    rows.flags.writeable = False
    return rows


def hom_dimension(source: Module, target: Module) -> int:
    """dim Hom(source, target): the nullity of ``hom_system``, one rank,
    with no basis built or kept."""
    if source.algebra is not target.algebra or source.side != target.side:
        raise AlgebraMismatchError("hom endpoints disagree on algebra or side")
    cells = target.dim * source.dim
    return cells and cells - la.rank(hom_system(source, target), source.p)


def hom_system(source: Module, target: Module) -> np.ndarray:
    """The intertwining system of ``hom_space``: the blocks
    I (x) src_i^T - tgt_i (x) I for every algebra basis element i, stacked
    in order, built in one array.

    vec(F @ src) = (I (x) src^T) vec F and vec(tgt @ F) = (tgt (x) I) vec F
    for the row-major vec of F: block i, entry ((a, b), (c, d)), is
    [a = c] src_i[d, b] - tgt_i[a, c] [b = d].  Both terms are written into
    diagonals of one zero array (writable ``einsum`` views), reduced in place.

    A system of more than ``HOM_SYSTEM_CAP`` entries is refused before
    anything is allocated (``BudgetExceededError``).
    """
    k, n, m = source.algebra.dim, target.dim, source.dim
    entries = k * (n * m) ** 2
    if entries > HOM_SYSTEM_CAP:
        raise BudgetExceededError(
            f"hom system of {_counted(source)} (dim {m}) -> "
            f"{_counted(target)} (dim {n}) has {entries} entries, above the "
            f"cap of {HOM_SYSTEM_CAP}")
    out = np.zeros((k, n, m, n, m), dtype=np.int64)
    np.einsum("iabad->iabd", out)[...] = source.actions.transpose(0, 2, 1)[:, None]
    np.einsum("iabcb->iabc", out)[...] -= target.actions[:, :, None]
    np.remainder(out, source.p, out=out)
    return out.reshape(k * n * m, n * m)


def _counted(module: Module) -> str:
    """``module.describe()`` for an error message, each run of equal terms
    of a sum written once with its count: ``(T + T + S)`` reads
    ``((T)×2 + S)``.  Nested sums and sums inside other names are shortened
    too, so that a description built from large sums stays short.  A
    description with unbalanced parentheses is left as it is."""
    text = module.describe()
    if not _balanced(text):
        return text
    pos = 0

    def terms() -> str:
        """The terms from ``pos`` to the closing parenthesis or the end."""
        nonlocal pos
        parts, current = [], ""
        while pos < len(text):
            char = text[pos]
            pos += 1
            if char == ")":
                break
            if char == "(":
                current += "(" + terms() + ")"
            elif text.startswith(" + ", pos - 1):
                parts.append(current)
                current, pos = "", pos + 2
            else:
                current += char
        parts.append(current)
        counted = []
        for term, run in groupby(parts):
            count = sum(1 for _ in run)
            if count > 1:
                grouped = term.startswith("(") and _balanced(term[1:-1])
                term = f"{term if grouped else f'({term})'}×{count}"
            counted.append(term)
        return " + ".join(counted)

    return terms()


def _balanced(text: str) -> bool:
    """Whether every parenthesis of ``text`` is closed, and in order."""
    depth = 0
    for char in text:
        depth += (char == "(") - (char == ")")
        if depth < 0:
            return False
    return depth == 0


@linked_dual
def dual_module(module: Module) -> Module:
    """GF(p)-linear dual with the opposite side; action matrices transpose.

    Transposing reverses products, which is exactly the action law of the
    other side, so the dual is not validated again.  It is built once and
    kept as ``module.dual``, with ``module`` as the dual's dual while it
    lives (``memo.linked_dual``)."""
    other = RIGHT if module.side == LEFT else LEFT
    return Module._derived(module.algebra, other, module.dim,
                           np.transpose(module.actions, (0, 2, 1)).copy(),
                           f"{module.describe()}^+")


def _conjugation_invariants(module: Module) -> tuple:
    p = module.p
    inv = []
    for i in range(module.algebra.dim):
        act = module.actions[i]
        ranks = tuple(la.rank((act - lam * la.eye(module.dim)) % p, p)
                      for lam in range(p))
        inv.append(ranks)
    return tuple(inv)


def find_invertible_combination(basis_vecs: list[np.ndarray], shapes, p: int,
                                between: tuple = ()):
    """Search the span of ``basis_vecs`` for an element whose blocks are invertible.

    ``shapes`` is a list of (rows, cols, offset) block descriptors into the
    coordinate vectors; an element qualifies when every square block is
    nonsingular.  Scans all p^h combinations in numeric order under
    ``scan_budget()``, so the first witness found is deterministic.
    ``between`` holds the two objects compared, if any; a budget failure
    names them.

    Returns the coefficient vector or None.
    """
    h = len(basis_vecs)
    for rows, cols, _ in shapes:
        if rows != cols:
            return None
    if all(rows == 0 for rows, _, _ in shapes):
        return np.zeros(h, dtype=np.int64)
    if h == 0:
        return None
    total = p ** h
    limit = scan_budget()
    if total > limit:
        named = (f" between {between[0].describe()} and {between[1].describe()}"
                 if between else "")
        raise BudgetExceededError(
            f"isomorphism scan of {total} combinations exceeds budget {limit}{named}")
    stacked = np.stack(basis_vecs, axis=0) % p      # (h, veclen)
    chunk = 1 << 14
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = la.digits(idx, p, h)
        combos = (digits @ stacked) % p             # (n, veclen)
        ok = np.ones(idx.size, dtype=bool)
        for rows, cols, offset in shapes:
            block = combos[:, offset:offset + rows * cols].reshape(idx.size, rows, cols)
            ok &= la.nonsingular_mask(block, p)
        hits = np.flatnonzero(ok)
        if hits.size:
            return digits[hits[0]]
    return None


def is_isomorphic(x: Module, y: Module) -> ModuleMap | None:
    """An isomorphism x -> y if one exists, else None.

    Solves the intertwiner space and scans it for an invertible element;
    cheap conjugation invariants prune most mismatches first.
    """
    if x.algebra is not y.algebra or x.side != y.side:
        return None
    if x.dim != y.dim:
        return None
    if x.dim == 0:
        return ModuleMap(x, y, la.zeros(0, 0))
    if x is y or np.array_equal(x.actions, y.actions):
        return ModuleMap(x, y, la.eye(x.dim))
    if _conjugation_invariants(x) != _conjugation_invariants(y):
        return None
    homs = hom_space(x, y)
    if not homs:
        return None
    mat = _invertible_in_span(homs, x.p, (x, y))
    return None if mat is None else ModuleMap(x, y, mat)


def _invertible_in_span(maps: list, p: int, between: tuple) -> np.ndarray | None:
    """The first invertible matrix in the span of the maps' matrices, in the
    scan order of ``find_invertible_combination``, or None.

    The isomorphism scan of modules and of tuples; a tuple map's matrix is
    block diagonal, so it is invertible exactly when both its blocks are.
    """
    mats = [phi.matrix for phi in maps]
    rows, cols = mats[0].shape
    coeffs = find_invertible_combination([la.vec(m) for m in mats],
                                         [(rows, cols, 0)], p, between=between)
    if coeffs is None:
        return None
    return np.tensordot(coeffs, np.stack(mats), axes=1) % p


def submodule(module: Module, basis_rows: np.ndarray) -> tuple[Module, ModuleMap]:
    """Submodule spanned by the given row vectors, with its inclusion.

    The rows must be linearly independent, and a span that is not
    action-invariant raises ValidationError.  Neither the submodule nor the
    inclusion is checked again (see ``Module._derived``).
    """
    p = module.p
    cols = la.reduce_mod(basis_rows, p).T
    acts = la.restrict(module.actions, cols, cols, p)
    if acts is None:
        raise ValidationError(f"span is not invariant in {module.describe()}")
    sub = Module._derived(module.algebra, module.side, cols.shape[1], acts,
                          f"sub[{module.describe()}]")
    return sub, ModuleMap._intertwining(sub, module, cols)


def quotient_module(module: Module, image_of: np.ndarray) -> tuple[Module, ModuleMap, np.ndarray]:
    """Quotient of ``module`` by the column space of ``image_of``.

    The column space must be a submodule, or this raises ValidationError.
    Returns (quotient, projection map, section matrix); the section
    satisfies projection @ section = identity.  Neither the quotient nor
    the projection is checked again (see ``Module._derived``).
    """
    p = module.p
    projection, section, q, _ = la.quotient_data(image_of, p)
    if np.any((projection @ module.actions @ image_of) % p):
        raise ValidationError(
            f"column space is not invariant in {module.describe()}")
    acts = (projection @ module.actions @ section) % p
    quot = Module._derived(module.algebra, module.side, q, acts,
                           f"quot[{module.describe()}]")
    return quot, ModuleMap._intertwining(module, quot, projection), section


def kernel_module(phi: ModuleMap) -> tuple[Module, ModuleMap]:
    """Kernel of a module map as a submodule with its inclusion."""
    rows = la.kernel_basis(phi.matrix, phi.p)
    return submodule(phi.source, rows)


def module_generators(module: Module) -> list[int]:
    """Indices of a column-reduced generating set of basis vectors.

    Greedy in basis order: a vector joins the set when it is outside the
    submodule generated by the vectors chosen so far.  Minimality is not
    required.  One elimination decides every vector: in the columns
    [e_0 | b e_0 | e_1 | b e_1 | ...], b running over the algebra basis,
    the columns before e_j span the submodule generated by e_0 .. e_(j-1),
    which is the one generated by the vectors chosen before j, so e_j is
    chosen exactly when its column is a pivot.
    """
    d, n = module.dim, module.algebra.dim
    orbits = np.concatenate([la.eye(d)[None], module.actions])
    _, pivots, _ = la.rref(orbits.transpose(1, 2, 0).reshape(d, d * (n + 1)),
                           module.p)
    return [c // (n + 1) for c in pivots if c % (n + 1) == 0]


@memo("module")
def free_cover(module: Module) -> tuple[Module, ModuleMap]:
    """A surjection from a free module onto ``module``, kept by it.

    One free summand per generator; the counit sends the basis element b of
    copy i to b acting on generator i.  It intertwines by construction (the
    image of a b is a b acting on the generator), so it is not checked.
    """
    alg = module.algebra
    gens = module_generators(module)
    if not gens:
        free = zero_module(alg, module.side)
        return free, ModuleMap._intertwining(free, module, la.zeros(module.dim, 0))
    free = module_sum([alg.regular_module(module.side)] * len(gens))
    eps = la.zeros(module.dim, free.dim)
    for i, g in enumerate(gens):
        for l in range(alg.dim):
            eps[:, i * alg.dim + l] = module.actions[l][:, g]
    return free, ModuleMap._intertwining(free, module, eps)


@dataclass(eq=False)
class Radical:
    """A nilpotent two-sided ideal J of an algebra, on an echelon basis.

    ``basis`` holds one element of J per row, in reduced row echelon form,
    so an element of J has its coordinates in the pivot columns.
    ``left[i]`` and ``right[i]`` are the matrices of j -> b_i j and
    j -> j b_i on J in those coordinates.  Construction checks that J is
    closed under both and that J^dim = 0, dim that of the algebra; only
    ``radical`` builds one, so a failure is an internal error.
    """

    algebra: Algebra
    basis: np.ndarray       # (dim J, algebra.dim)
    left: np.ndarray = field(init=False)    # (algebra.dim, dim J, dim J)
    right: np.ndarray = field(init=False)

    def __post_init__(self):
        alg, p = self.algebra, self.algebra.p
        reduced, pivots, rank = la.rref(self.basis, p)
        self.basis = reduced[:rank]
        self.left = self._restricted(alg.left_mult, pivots, LEFT)
        self.right = self._restricted(alg.right_mult, pivots, RIGHT)
        power = self.basis
        for _ in range(alg.dim - 1):
            products = np.einsum("ai,bj,ijk->abk", power, self.basis, alg.structure)
            reduced, _, rank = la.rref(products.reshape(-1, alg.dim), p)
            power = reduced[:rank]
        if power.any():
            raise InternalCheckError(
                f"radical of {alg.name or '<anon>'} is not nilpotent")

    def _restricted(self, mult: np.ndarray, pivots: list[int], side: str) -> np.ndarray:
        """The multiplications ``mult`` restricted to J, in J coordinates."""
        p, cols = self.algebra.p, self.basis.T
        images = (mult @ cols) % p
        coords = images[:, pivots, :]
        if ((cols @ coords - images) % p).any():
            raise InternalCheckError(
                f"radical of {self.algebra.name or '<anon>'} is not a {side} ideal")
        return coords

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _power_mod(mats: np.ndarray, exponent: int, modulus: int) -> np.ndarray:
    """Each matrix of an integer stack raised to ``exponent``, mod ``modulus``."""
    result = np.broadcast_to(la.eye(mats.shape[-1]), mats.shape).copy()
    base = mats % modulus
    while exponent:
        if exponent & 1:
            result = (result @ base) % modulus
        exponent >>= 1
        if exponent:
            base = (base @ base) % modulus
    return result


@memo("alg")
def radical(alg: Algebra) -> Radical:
    """The Jacobson radical J of ``alg``, exact in every characteristic.

    Cohen, Ivanyos and Wales, "Finding the radical of an algebra of linear
    transformations", J. Pure Appl. Algebra 117-118 (1997), applied to the
    left regular representation L, of degree n = dim.  Start from
    I_(-1) = the whole algebra; for i = 0 .. floor(log_p n) let

        I_i = {a in I_(i-1) : g_i(a b_k) = 0 for every basis element b_k},
        g_i(z) = Tr(L~_z^(p^i)) / p^i mod p,

    with L~_z the integer lift of L_z, powered mod p^(i+1).  Each g_i is
    linear on I_(i-1), so each step is one kernel, and the last I_i is J.
    Step 0 is the kernel of the trace form, which is J already when p > n
    (Dickson); the later steps are needed when p <= n, as for the 2 x 2
    matrices over GF(2), whose regular trace form vanishes.  Every trace of
    step i is divisible by p^i; one that is not, or a result that is not a
    nilpotent two-sided ideal (see ``Radical``), is an internal error.
    """
    p, n = alg.p, alg.dim
    ideal = la.eye(n)
    step = 1                                        # p^i
    while step <= n and ideal.shape[0]:
        modulus = step * p
        products = np.einsum("ja,akc->jkc", ideal, alg.structure) % p
        lifts = np.einsum("jkc,cxy->jkxy", products, alg.left_mult) % p
        traces = np.trace(_power_mod(lifts, step, modulus), axis1=2, axis2=3) % modulus
        if (traces % step).any():
            raise InternalCheckError(
                f"radical of {alg.name or '<anon>'}: a trace of step p^i = {step} "
                f"is not divisible by {step}")
        ideal = (la.kernel_basis((traces // step).T, p) @ ideal) % p
        step *= p
    return Radical(alg, ideal)


def endomorphism_algebra(module: Module) -> Algebra:
    """End(module) under composition, f * g = f after g, on the reduced
    echelon basis of the rows of ``_hom_rows(module, module)``.  An element
    of that span has its coordinates at the pivot columns, so each product
    of two basis maps, and the identity, is read off there."""
    p, n = module.p, module.dim
    rows, pivots, e = la.rref(_hom_rows(module, module), p)
    maps = rows[:e].reshape(e, n, n)
    products = np.einsum("iab,jbc->ijac", maps, maps) % p
    return Algebra(module.algebra.field, e,
                   products.reshape(e, e, n * n)[:, :, pivots],
                   la.eye(n).reshape(-1)[pivots],
                   name=f"End({module.describe()})")


def is_local(alg: Algebra) -> bool:
    """Whether alg/J is a field, J = ``radical(alg)``; for alg = End(M),
    whether M is indecomposable.

    alg/J is semisimple, so it is a field exactly when it is commutative,
    since a finite division ring is one (Wedderburn), and has one simple
    factor.  On a commutative alg/J, x -> x^p - x is GF(p)-linear modulo J,
    and its kernel there is J plus the elements of alg/J fixed by the
    Frobenius map: GF(p) in each field factor.  So alg/J is a field exactly
    when the commutators b_i b_j - b_j b_i lie in J and the images of
    b_i^p - b_i span a space of dimension dim alg - 1 together with J.
    """
    p, e = alg.p, alg.dim
    rad = radical(alg)
    commutators = (alg.structure - alg.structure.transpose(1, 0, 2)) % p
    if la.rank(np.concatenate([rad.basis, commutators.reshape(e * e, e)]),
               p) != rad.dim:
        return False
    frobenius = (_power_mod(alg.left_mult, p, p) @ alg.unit - la.eye(e)) % p
    return la.rank(np.concatenate([rad.basis, frobenius]), p) == e - 1


def is_indecomposable(module: Module) -> bool:
    """A nonzero module with a local endomorphism algebra (``is_local``).

    Two certificates are read off the hom basis of End(module) first: a
    one-dimensional End is the field, which is local, and a basis map e
    other than 0 and 1 with e e = e splits the module into the image and
    the kernel of e.  Only a module with neither builds its End algebra."""
    if not module.dim:
        return False
    p, n = module.p, module.dim
    maps = _hom_rows(module, module).reshape(-1, n, n)
    if len(maps) == 1:
        return True
    idempotent = ((maps @ maps - maps) % p == 0).all(axis=(1, 2))
    trivial = ~maps.any(axis=(1, 2)) | (maps == la.eye(n)).all(axis=(1, 2))
    if (idempotent & ~trivial).any():
        return False
    return is_local(endomorphism_algebra(module))


def is_projective(module: Module) -> bool:
    """Projectivity by a Tor-vanishing certificate over the radical J.

    For a left module M, tensoring 0 -> J -> A -> A/J -> 0 with M gives the
    exact sequence

        0 -> Tor_1(A/J, M) -> J (x)_A M -> M -> M/JM -> 0,

    in which the image of J (x)_A M is JM, so Tor_1(A/J, M) = 0 exactly
    when dim(J (x)_A M) = dim JM.  That holds exactly when M is projective.
    A projective M has no Tor.  Conversely, let 0 -> K -> P -> M -> 0 be a
    projective cover, so K lies in JP; tensoring it with A/J gives
    0 -> Tor_1(A/J, M) -> K/JK -> P/JP -> M/JM -> 0 with the last map an
    isomorphism, so Tor_1(A/J, M) = K/JK, which is 0 only when K = 0 by
    Nakayama's lemma.  A right module uses M (x)_A J in the same way.

    J (x)_A M is J (x) M modulo the relations jb (x) m - j (x) bm, the
    images of rho_J(b) (x) I - I (x) lambda_M(b) over the basis elements b,
    and JM is spanned by the images of the basis of J: two ranks, with no
    free cover and no hom space.  Past the zero cases the verdict is
    memoised by value (``_tor_vanishes``), so it is decided once for all
    modules with the same algebra, side and actions.
    """
    if radical(module.algebra).dim * module.dim == 0:
        return True
    return _tor_vanishes(module)


@memo("module", by_value=True)
def _tor_vanishes(module: Module) -> bool:
    """The rank comparison of ``is_projective`` on a nonzero module over an
    algebra with a nonzero radical."""
    rad = radical(module.algebra)
    r, d, p = rad.dim, module.dim, module.p
    on_rad = rad.right if module.side == LEFT else rad.left
    # The relation images are the columns of the blocks; their transposes,
    # stacked, have the same rank.
    relations = (np.einsum("bxy,uv->byvxu", on_rad, la.eye(d))
                 - np.einsum("xy,buv->byvxu", la.eye(r), module.actions))
    tensor_dim = r * d - la.rank(relations.reshape(-1, r * d), p)
    rad_actions = np.einsum("ki,iab->kba", rad.basis, module.actions)
    return tensor_dim == la.rank(rad_actions.reshape(-1, d), p)


def is_injective(module: Module) -> bool:
    """A module is injective exactly when its dual is projective on the other side."""
    return is_projective(module.dual)


def is_flat(module: Module) -> bool:
    """Over a finite-dimensional algebra flat and projective modules coincide."""
    return is_projective(module)
