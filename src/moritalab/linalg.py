"""Exact dense linear algebra over prime fields GF(p).

Matrices are numpy integer arrays with entries reduced mod p.  A linear map
from a space of dimension s to one of dimension t is a (t, s) array acting on
column vectors, so composition is plain matrix multiplication.  Vectorised
tensors follow the same convention: the pure tensor e_i (x) e_j of two spaces
of dimensions m and n sits at index i*n + j, matching ``numpy.kron``.

Pivots are always the first nonzero entry in column order, so every reduced
form, kernel basis, and quotient projection is deterministic.

Every elimination is one ``rref``, which works on packed rows.  A row
becomes one Python integer with one fixed-width digit per column, column 0
lowest.  A row operation x + (p - d) b leaves digits below p^2, and one
digit-wise reduction mod p,

    x - p * (((x * M) >> s) & low),   M = ceil(2^s / p),  2^s > p^3,

brings each digit back into 0..p-1.  The digit width w is the smallest of
8, 16, 32 and 64 bits that holds M times the largest digit, so the digits'
products with M do not overlap; since 2^s > p^3, (x * M) >> s holds the
quotient of each digit by p in that digit's low w - s bits, and ``low``
keeps exactly those.  A row operation is thus a few big-integer operations,
with no loop over entries, in every characteristic.

Fields are bounded: FieldSpec refuses p >= FIELD_BOUND = 2^15.  Below it
every product of two residues, and every dot product of up to 2^33 terms,
is exact in int64, and M times the largest digit takes at most 60 bits, so
every digit fits a 64-bit one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import MoritaLabError, ValidationError

FIELD_BOUND = 1 << 15


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(p), p < FIELD_BOUND; elements are canonical residues
    0..p-1."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValidationError(f"field order must be prime, got {self.p}")
        if self.p >= FIELD_BOUND:
            raise ValidationError(
                f"field order must be below 2^15 = {FIELD_BOUND}, where int64 "
                f"arithmetic over GF(p) is exact, got {self.p}")


def reduce_mod(a, p: int) -> np.ndarray:
    """Return ``a`` as an int64 array with entries reduced into 0..p-1."""
    return np.asarray(a, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form over GF(p), on packed rows.

    Each nonzero row, packed as in the module docstring, is inserted into a
    fully reduced echelon basis keyed by pivot column: it is cleared at
    every pivot of the basis, scaled to a leading 1 (its pivot is its lowest
    nonzero digit), and then cleared from every basis row.  The reduced
    echelon form of a row space is unique, so the basis sorted by pivot is
    the reduced matrix.

    Args:
        m: integer matrix, any shape including zero rows or columns.
        p: prime modulus below FIELD_BOUND.

    Returns:
        (reduced matrix, pivot column indices, rank).
    """
    if p >= FIELD_BOUND:
        raise ValidationError(f"rref: GF({p}) is beyond the field bound 2^15")
    r = reduce_mod(m, p)
    rows, cols = r.shape
    if not rows or not cols:
        return r, [], 0
    s = (p ** 3).bit_length()
    mult = -(-(1 << s) // p)
    top = (p * (p - 1) * mult).bit_length()   # bits of M times the largest digit
    nbytes = 1 if top <= 8 else 2 if top <= 16 else 4 if top <= 32 else 8
    w, width, dtype = 8 * nbytes, nbytes * cols, f"<u{nbytes}"
    digit = (1 << w) - 1
    low = ((1 << (w * cols)) - 1) // digit * ((1 << (w - s)) - 1)
    packed = r.astype(dtype).tobytes()
    basis: dict[int, int] = {}
    for i in range(rows):
        x = int.from_bytes(packed[i * width:(i + 1) * width], "little")
        if not x:
            continue
        for c, b in basis.items():
            d = (x >> (w * c)) & digit
            if d:
                x += (p - d) * b
                x -= p * (((x * mult) >> s) & low)
        if not x:
            continue
        c = ((x & -x).bit_length() - 1) // w
        d = (x >> (w * c)) & digit
        if d != 1:
            x *= pow(d, p - 2, p)
            x -= p * (((x * mult) >> s) & low)
        for k, b in basis.items():
            e = (b >> (w * c)) & digit
            if e:
                b += (p - e) * x
                basis[k] = b - p * (((b * mult) >> s) & low)
        basis[c] = x
    pivots = sorted(basis)
    out = b"".join(basis[c].to_bytes(width, "little") for c in pivots)
    out += bytes(width * (rows - len(pivots)))
    reduced = np.frombuffer(out, dtype=dtype).reshape(rows, cols).astype(np.int64)
    return reduced, pivots, len(pivots)


def rank(m: np.ndarray, p: int) -> int:
    return rref(m, p)[2]


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space, one vector per row.

    The basis is in the standard echelon parameterisation: one vector per
    free column, deterministic given the matrix.  Shape (nullity, cols).
    """
    r, pivots, rk = rref(m, p)
    cols = r.shape[1]
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    basis = zeros(cols - rk, cols)
    basis[:, free] = eye(cols - rk)
    basis[:, pivots] = (-r[:rk, free]).T % p
    return basis


def image_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the column space, one vector per row: the pivot columns of m.

    Shape (rank, rows(m)).
    """
    m = reduce_mod(m, p)
    _, pivots, _ = rref(m, p)
    return m[:, pivots].T.copy()


def solve(m: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """Solve m @ x = rhs over GF(p); None if inconsistent.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides; the
    particular solution sets all free variables to zero.
    """
    m = reduce_mod(m, p)
    rhs = reduce_mod(rhs, p)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs.reshape(-1, 1)
    rows, cols = m.shape
    if rhs.shape[0] != rows:
        raise MoritaLabError(
            f"solve: shape mismatch, matrix has {rows} rows, rhs has {rhs.shape[0]}")
    aug = np.hstack([m, rhs])
    r, pivots, _ = rref(aug, p)
    if any(pc >= cols for pc in pivots):
        return None
    x = zeros(cols, rhs.shape[1])
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx, cols:]
    return x[:, 0] if vector_rhs else x


def restrict(blocks: np.ndarray, source: np.ndarray, target: np.ndarray,
             p: int) -> np.ndarray | None:
    """The blocks C_i with target @ C_i = B_i @ source, one per block B_i of
    the (n, rows, cols) stack, or None when some B_i does not carry the
    column span of ``source`` into that of ``target`` (an empty span takes
    only zero images).  With source = target, it tests invariance.

    One solve takes every column of every B_i @ source as a right-hand side;
    the pivots of [target | rhs] depend only on target, so each block is the
    one a solve of its own would give.
    """
    n, s, (rows, t) = len(blocks), source.shape[1], target.shape
    images = (blocks @ source) % p
    coords = solve(target, images.transpose(1, 0, 2).reshape(rows, n * s), p)
    if coords is None:
        return None
    return coords.reshape(t, n, s).transpose(1, 0, 2).copy()


def inverse(m: np.ndarray, p: int) -> np.ndarray | None:
    m = reduce_mod(m, p)
    if m.shape[0] != m.shape[1]:
        return None
    return solve(m, eye(m.shape[0]), p)


def nonsingular_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of the invertible matrices in a (batch, n, n) stack.

    Gaussian elimination over GF(p) runs on every batch entry at once, one
    pivot column at a time; an entry is singular when some column has no
    pivot left.  Exact for every prime and every n.
    """
    a = reduce_mod(mats, p)
    batch, n = a.shape[0], a.shape[1]
    ok = np.ones(batch, dtype=bool)
    rows = np.arange(batch)
    for col in range(n):
        below = a[:, col:, col] != 0
        ok &= below.any(axis=1)
        pivot = col + np.argmax(below, axis=1)
        top = a[rows, pivot].copy()
        a[rows, pivot] = a[:, col]
        a[:, col] = (top * _inverses(top[:, col], p)[:, None]) % p
        a[:, col + 1:] = (a[:, col + 1:] - a[:, col + 1:, col, None]
                          * a[:, None, col]) % p
    return ok


def _inverses(values: np.ndarray, p: int) -> np.ndarray:
    """Elementwise values^(p-2) mod p: the inverse of each nonzero entry."""
    out = np.ones_like(values)
    base = values % p
    e = p - 2
    while e > 0:
        if e & 1:
            out = (out * base) % p
        base = (base * base) % p
        e >>= 1
    return out


def quotient_data(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Projection and section for the cokernel of ``m``, from one elimination.

    For m: k^s -> k^t this produces pi: k^t -> k^q with kernel exactly the
    column space of m, together with a section sigma (t, q) satisfying
    pi @ sigma = identity.  The section columns are standard basis vectors,
    chosen greedily in index order: e_j joins when it is outside the span of
    im(m) and the e_i chosen before it.

    All of it is read off R = rref([m | I_t]) = E [m | I_t]:

    * the pivots among the first s columns are the pivot columns of m, a
      basis of its image;
    * the pivots in the I_t part are exactly the greedy complement;
    * E is R[:, s:], and E B = I for B = [image basis | chosen e_j], because
      the pivot columns of R are its unit columns in order.  So the rows of
      E below the rank r, R[r:, s:], are the complement coordinates of
      B^-1: the projection.

    Returns:
        (projection (q, t), section (t, q), q, image (t, r) whose columns
        are the pivot columns of m).
    """
    m = reduce_mod(m, p)
    t, s = m.shape
    reduced, pivots, _ = rref(np.hstack([m, eye(t)]), p)
    image_cols = [c for c in pivots if c < s]
    chosen = [c - s for c in pivots if c >= s]
    r = len(image_cols)
    projection = reduced[r:, s:].copy()
    section = eye(t)[:, chosen]
    return projection, section, t - r, m[:, image_cols]


def kron(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Kronecker product reduced mod p; index (i, j) -> i * cols(b) + j.

    Entry [i * rows(b) + k, j * cols(b) + l] is a[i, j] * b[k, l], formed by
    one broadcast product, with the same entries as ``numpy.kron``.
    """
    a, b = reduce_mod(a, p), reduce_mod(b, p)
    (ra, ca), (rb, cb) = a.shape, b.shape
    return ((a[:, None, :, None] * b[None, :, None, :]) % p).reshape(ra * rb, ca * cb)


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of ``blocks`` in order, or the stack of them.

    Each block has shape (..., r, c) with one shared leading shape, such as
    a single matrix or a (count, r, c) stack; the result has shape
    (..., sum r, sum c) and puts block k at row and column offsets the sums
    of the r and c before it.  Blocks may be rectangular or empty.
    """
    lead = blocks[0].shape[:-2]
    rows = sum(b.shape[-2] for b in blocks)
    cols = sum(b.shape[-1] for b in blocks)
    out = np.zeros(lead + (rows, cols), dtype=np.int64)
    r = c = 0
    for b in blocks:
        dr, dc = b.shape[-2:]
        out[..., r:r + dr, c:c + dc] = b
        r += dr
        c += dc
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorisation."""
    return np.asarray(m, dtype=np.int64).reshape(-1)


def coords_in_span(basis: list[np.ndarray], target: np.ndarray, p: int) -> np.ndarray | None:
    """Coordinates of ``target`` in the span of ``basis`` matrices, or None.

    All matrices must share one shape; the stacked vec system is solved with
    the deterministic particular solution.
    """
    if not basis:
        return zeros(0, 1)[:, 0] if not np.any(reduce_mod(target, p)) else None
    stacked = np.stack([vec(b) for b in basis], axis=1) % p
    return solve(stacked, vec(target), p)


def digits(codes: np.ndarray, p: int, width: int) -> np.ndarray:
    """Base-p digits of each code, least significant first: shape (n, width).

    Code c stands for the coefficient vector (d_0, ..., d_{width-1}) with
    c = sum_k d_k p^k, the numbering every exhaustive scan here walks.
    """
    out = np.empty((codes.size, width), dtype=np.int64)
    rem = np.asarray(codes, dtype=np.int64).copy()
    for k in range(width):
        out[:, k] = rem % p
        rem //= p
    return out
