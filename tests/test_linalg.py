"""Exact Gaussian elimination over GF(p).

The rank-nullity scan over every 2x2 and 2x3 matrix on GF(2) is part of the
acceptance contract; the rest are property checks on random small matrices.
The packed-row ``rref`` is checked against the column-by-column elimination
it replaced, kept here as the reference.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moritalab import linalg as la
from moritalab.algebra import LEFT, RIGHT, Bimodule
from moritalab.report import ValidationError
from moritalab.tensor import tensor_over_algebra


def all_matrices(rows, cols, p):
    for entries in itertools.product(range(p), repeat=rows * cols):
        yield np.array(entries, dtype=np.int64).reshape(rows, cols)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_rank_nullity_exhaustive_gf2(shape):
    rows, cols = shape
    for m in all_matrices(rows, cols, 2):
        ker = la.kernel_basis(m, 2)
        assert la.rank(m, 2) + ker.shape[0] == cols
        if ker.shape[0]:
            assert not np.any((m @ ker.T) % 2)


def matrices(p, max_dim=4):
    dims = st.integers(0, max_dim)
    return dims.flatmap(lambda r: dims.flatmap(lambda c: st.lists(
        st.integers(0, p - 1), min_size=r * c, max_size=r * c).map(
        lambda entries: np.array(entries, dtype=np.int64).reshape(r, c))))


def column_rref(m, p):
    """Gauss-Jordan elimination one pivot column at a time, with numpy row
    operations: the reference for ``la.rref``."""
    r = la.reduce_mod(m, p).copy()
    rows, cols = r.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pivot_row = row + int(nz[0])
        if pivot_row != row:
            r[[row, pivot_row]] = r[[pivot_row, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other] = (r[other] - np.outer(r[other, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots, len(pivots)


LARGEST_PRIME = 32749


def test_the_field_bound_admits_primes_up_to_32749():
    la.FieldSpec(LARGEST_PRIME)
    for q in range(LARGEST_PRIME + 1, la.FIELD_BOUND + 4):
        with pytest.raises(ValidationError):
            la.FieldSpec(q)
    with pytest.raises(ValidationError, match=r"below 2\^15 = 32768"):
        la.FieldSpec(32771)
    with pytest.raises(ValidationError, match=r"beyond the field bound"):
        la.rref(la.eye(2), 32771)


@st.composite
def reduction_inputs(draw):
    """(p, m): a matrix of rank at most k over GF(p), tall, wide or square,
    with unreduced and negative entries and some rows zeroed."""
    p = draw(st.sampled_from([2, 3, 5, 7, 251, LARGEST_PRIME]))
    rows, cols = draw(st.sampled_from([(40, 8), (6, 40), (10, 10)]))
    rows, cols = draw(st.integers(0, rows)), draw(st.integers(0, cols))
    k = draw(st.integers(0, min(rows, cols)))

    def entries(r, c, lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=r * c,
                                      max_size=r * c)), dtype=np.int64).reshape(r, c)

    m = entries(rows, k, 0, p - 1) @ entries(k, cols, 0, p - 1)
    m += p * entries(rows, cols, -2, 2)
    zeroed = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    m[np.array(zeroed, dtype=bool)] = 0
    return p, m


@settings(max_examples=300, deadline=None)
@given(case=reduction_inputs())
def test_rref_matches_column_elimination(case):
    p, m = case
    reduced, pivots, rk = la.rref(m, p)
    want, want_pivots, want_rk = column_rref(m, p)
    assert (pivots, rk) == (want_pivots, want_rk)
    assert reduced.dtype == want.dtype == np.int64
    assert reduced.shape == want.shape == m.shape
    assert reduced.flags.writeable
    assert np.array_equal(reduced, want)


@settings(max_examples=60, deadline=None)
@given(m=matrices(2))
def test_rref_idempotent(m):
    reduced, pivots, rk = la.rref(m, 2)
    again, pivots2, rk2 = la.rref(reduced, 2)
    assert np.array_equal(again, reduced)
    assert (pivots, rk) == (pivots2, rk2)
    assert rk == la.rank(m, 2)


@settings(max_examples=60, deadline=None)
@given(m=matrices(3), data=st.data())
def test_solve_recovers_consistent_systems(m, data):
    x = np.array(data.draw(st.lists(st.integers(0, 2), min_size=m.shape[1],
                                    max_size=m.shape[1])), dtype=np.int64)
    rhs = (m @ x) % 3
    sol = la.solve(m, rhs, 3)
    assert sol is not None
    assert np.array_equal((m @ sol) % 3, rhs % 3)


def test_solve_reports_inconsistency():
    m = np.array([[1, 0], [0, 0]], dtype=np.int64)
    assert la.solve(m, np.array([0, 1], dtype=np.int64), 2) is None


@settings(max_examples=40, deadline=None)
@given(m=matrices(2))
def test_image_and_cokernel_dimensions(m):
    image = la.image_basis(m, 2)
    projection, _, q, _ = la.quotient_data(m, 2)
    assert image.shape[0] == la.rank(m, 2)
    assert q == m.shape[0] - la.rank(m, 2)
    assert projection.shape == (q, m.shape[0])
    if image.shape[0]:
        assert not np.any((projection @ image.T) % 2)


def test_inverse_round_trip():
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    inv = la.inverse(m, 2)
    assert np.array_equal((m @ inv) % 2, np.eye(2, dtype=np.int64))


def test_kron_shape_and_vec():
    a = np.arange(4, dtype=np.int64).reshape(2, 2) % 2
    b = np.arange(6, dtype=np.int64).reshape(2, 3) % 2
    k = la.kron(a, b, 2)
    assert k.shape == (4, 6)
    assert la.vec(b).shape == (6,)


def test_coords_in_span_finds_and_rejects():
    basis = [np.array([1, 0, 0], dtype=np.int64),
             np.array([0, 1, 0], dtype=np.int64)]
    inside = np.array([1, 1, 0], dtype=np.int64)
    outside = np.array([0, 0, 1], dtype=np.int64)
    coords = la.coords_in_span(basis, inside, 2)
    assert coords is not None and np.array_equal(coords, [1, 1])
    assert la.coords_in_span(basis, outside, 2) is None


@pytest.mark.parametrize("p, n", [(11, 16), (13, 14), (2, 17)])
def test_nonsingular_mask_is_exact(p, n):
    rng = np.random.default_rng(2203)
    mats = rng.integers(0, p, size=(200, n, n))
    expected = np.array([la.rank(m, p) == n for m in mats])
    assert np.array_equal(la.nonsingular_mask(mats, p), expected)
    if p > 2:
        # A float determinant misjudges some of these same matrices, which
        # is why invertibility is decided by elimination over GF(p).
        dets = np.round(np.linalg.det(mats.astype(np.float64))).astype(np.int64)
        assert np.any(((dets % p) != 0) != expected)


def test_nonsingular_mask_edge_shapes():
    assert la.nonsingular_mask(np.zeros((3, 0, 0), dtype=np.int64), 5).all()
    assert la.nonsingular_mask(np.zeros((0, 2, 2), dtype=np.int64), 5).size == 0
    mats = np.array([[[0, 1], [1, 0]], [[2, 4], [1, 2]], [[3, 0], [0, 0]]])
    assert la.nonsingular_mask(mats, 5).tolist() == [True, False, False]


def test_block_diagonal_places_rectangular_and_empty_blocks():
    rng = np.random.default_rng(7)
    shapes = [(2, 3), (0, 2), (1, 0), (3, 1), (0, 0)]
    blocks = [rng.integers(1, 5, shape) for shape in shapes]
    out = la.block_diagonal(blocks)
    assert out.shape == (6, 6) and out.dtype == np.int64
    r = c = 0
    for b in blocks:
        rows, cols = b.shape
        assert np.array_equal(out[r:r + rows, c:c + cols], b)
        out[r:r + rows, c:c + cols] = 0
        r, c = r + rows, c + cols
    assert not out.any()
    stacks = [rng.integers(1, 5, (4,) + shape) for shape in shapes]
    stacked = la.block_diagonal(stacks)
    assert stacked.shape == (4, 6, 6)
    for i in range(4):
        assert np.array_equal(stacked[i], la.block_diagonal([s[i] for s in stacks]))


def greedy_quotient_reference(m, p):
    """The cokernel data as a greedy complement: one rank test per candidate
    basis vector, then an inverse of the completed basis."""
    m = la.reduce_mod(m, p)
    t = m.shape[0]
    im = la.image_basis(m, p)
    r = im.shape[0]
    chosen, current = [], im.T
    for j in range(t):
        if current.shape[1] == t:
            break
        cand = np.hstack([current, np.eye(t, dtype=np.int64)[:, [j]]])
        if la.rank(cand, p) > current.shape[1]:
            chosen.append(j)
            current = cand
    section = np.eye(t, dtype=np.int64)[:, chosen]
    if t == 0:
        return la.zeros(0, 0), section, 0, im.T
    binv = la.inverse(current, p)
    return binv[r:, :], section, t - r, im.T


def low_rank(rng, rows, cols, rk, p):
    """A random rows x cols matrix over GF(p) of rank at most rk."""
    return (rng.integers(0, p, (rows, rk)) @ rng.integers(0, p, (rk, cols))) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quotient_data_is_the_greedy_complement(p):
    rng = np.random.default_rng(100 + p)
    cases = [la.zeros(0, 0), la.zeros(0, 3), la.zeros(4, 0), la.zeros(5, 5),
             np.eye(4, dtype=np.int64), low_rank(rng, 6, 6, 6, p)]
    for _ in range(40):
        rows, cols = rng.integers(1, 9, 2)
        m = low_rank(rng, rows, cols, int(rng.integers(0, min(rows, cols) + 1)), p)
        if rng.random() < 0.3:
            m[rng.integers(0, rows)] = 0
        if rng.random() < 0.3:
            m[:, rng.integers(0, cols)] = 0
        cases.append(m)
    for m in cases:
        got = la.quotient_data(m, p)
        want = greedy_quotient_reference(m, p)
        assert got[2] == want[2]
        for g, w in zip(got[:2] + got[3:], want[:2] + want[3:]):
            assert g.shape == w.shape
            assert np.array_equal(g, w)


@pytest.mark.parametrize("shape_a, shape_b", [((2, 3), (4, 1)), ((3, 3), (2, 2)),
                                              ((0, 3), (2, 2)), ((2, 0), (3, 1)),
                                              ((2, 2), (0, 0)), ((1, 1), (5, 4))])
def test_kron_matches_numpy(shape_a, shape_b):
    rng = np.random.default_rng(7)
    for p in (2, 3, 7):
        a = rng.integers(-20, 20, shape_a)
        b = rng.integers(-20, 20, shape_b)
        got = la.kron(a, b, p)
        want = np.kron(a % p, b % p) % p
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_tensor_relations_are_the_image_basis(ws_e1, ws_e2):
    def actions(obj, side):
        if isinstance(obj, Bimodule):
            return obj.right_actions if side == RIGHT else obj.left_actions
        return obj.actions

    for ws in (ws_e1, ws_e2):
        ctx = ws.single_context()
        p = ctx.p
        pairs = [(ctx.m, ctx.n), (ctx.n, ctx.m),
                 (ctx.m, ctx.algebra_a.regular_module(LEFT)),
                 (ctx.n, ctx.algebra_b.regular_module(LEFT)),
                 (ctx.algebra_b.regular_module(RIGHT), ctx.m),
                 (ctx.algebra_a.regular_module(RIGHT), ctx.n)]
        for first, second in pairs:
            rho, lam = actions(first, RIGHT), actions(second, LEFT)
            d1, d2 = rho.shape[1], lam.shape[1]
            rel = np.hstack([(np.kron(r, np.eye(d2, dtype=np.int64))
                              - np.kron(np.eye(d1, dtype=np.int64), l)) % p
                             for r, l in zip(rho, lam)]) if d1 * d2 else la.zeros(0, 0)
            relations = tensor_over_algebra(first, second).relations
            want = la.image_basis(rel, p).T
            assert relations.shape == want.shape
            assert np.array_equal(relations, want)
