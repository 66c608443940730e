"""The radical and the Tor-vanishing projectivity certificate built on it.

``radical`` is compared with the radical found by enumeration, and
``is_projective`` / ``is_injective`` with the free-cover splitting test they
replaced, kept here as the reference.
"""

import numpy as np
import pytest

from moritalab import algebra
from moritalab import linalg as la
from moritalab.algebra import (LEFT, RIGHT, Algebra, FieldSpec, Radical, dual_module,
                               free_cover, hom_space, is_injective, is_projective,
                               radical)
from moritalab.enumeration import enumerate_delta_modules, enumerate_modules
from moritalab.report import InternalCheckError


def splits(module):
    """The splitting test the certificate replaced, kept as the reference:
    does the canonical free cover of ``module`` admit a section?"""
    if module.dim == 0:
        return True
    free, eps = free_cover(module)
    sections = hom_space(module, free)
    if not sections:
        return False
    composed = [la.vec((eps.matrix @ s.matrix) % module.p) for s in sections]
    return la.solve(np.stack(composed, axis=1), la.vec(la.eye(module.dim)),
                    module.p) is not None


def brute_force_radical(alg):
    """Every x with x y nilpotent for all y, found by enumerating the algebra."""
    p, n = alg.p, alg.dim
    elements = la.digits(np.arange(p ** n), p, n)
    members = set()
    for x in elements:
        products = np.einsum("i,yj,ijk->yk", x, elements, alg.structure) % p
        power = np.einsum("yk,kab->yab", products, alg.left_mult) % p
        for _ in range(n.bit_length()):
            power = (power @ power) % p
        if not power.any():
            members.add(tuple(int(c) for c in x))
    return members


def span_elements(rows, p):
    coeffs = la.digits(np.arange(p ** rows.shape[0]), p, rows.shape[0])
    return {tuple(int(c) for c in v) for v in (coeffs @ rows) % p}


def matrix_algebra(n, p):
    """M_n(GF(p)) on the matrix units e_ij, numbered i * n + j."""
    structure = np.zeros((n * n,) * 3, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                structure[i * n + j, j * n + k, i * n + k] = 1
    unit = la.vec(la.eye(n))
    return Algebra(FieldSpec(p), n * n, structure, unit, name=f"M{n}(GF({p}))")


def truncated_polynomials(k, p):
    """GF(p)[x]/(x^k) on the basis 1, x, ..., x^(k-1)."""
    structure = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k - i):
            structure[i, j, i + j] = 1
    unit = np.eye(1, k, dtype=np.int64)[0]
    return Algebra(FieldSpec(p), k, structure, unit, name=f"GF({p})[x]/(x^{k})")


@pytest.mark.parametrize("p", [2, 3])
def test_radical_matches_the_brute_force_radical_on_the_fixtures(fixture_over, p):
    for name in ("E0", "E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for alg in (ctx.algebra_a, ctx.algebra_b, ctx.delta):
            assert span_elements(radical(alg).basis, p) == brute_force_radical(alg)


@pytest.mark.parametrize("alg, dim_rad", [
    (matrix_algebra(2, 2), 0),
    (matrix_algebra(2, 5), 0),
    (truncated_polynomials(4, 2), 3),
    (truncated_polynomials(4, 3), 3),
], ids=lambda v: getattr(v, "name", str(v)))
def test_radical_matches_the_brute_force_radical_on_small_algebras(alg, dim_rad):
    rad = radical(alg)
    assert rad.dim == dim_rad
    assert span_elements(rad.basis, alg.p) == brute_force_radical(alg)


def test_radical_of_m2_over_gf2_needs_the_higher_trace_steps():
    # The regular trace form of M_2(GF(2)) is identically 0, so step 0 keeps
    # the whole algebra; only g_1 cuts it down to the zero radical.
    alg = matrix_algebra(2, 2)
    assert not (np.trace(alg.left_mult, axis1=1, axis2=2) % 2).any()
    assert radical(alg).dim == 0


def test_radical_is_memoised_on_its_algebra(e2):
    assert radical(e2.delta) is radical(e2.delta)


def test_radical_construction_rejects_a_subspace_that_is_no_ideal():
    alg = matrix_algebra(2, 2)
    e12 = np.array([[0, 1, 0, 0]], dtype=np.int64)   # e21 e12 = e22 leaves it
    with pytest.raises(InternalCheckError, match="is not a left ideal"):
        Radical(alg, e12)


def test_radical_construction_rejects_an_ideal_that_is_not_nilpotent(e1):
    alg = truncated_polynomials(4, 3)
    with pytest.raises(InternalCheckError, match="is not nilpotent"):
        Radical(alg, la.eye(4))
    first = np.array([[1, 0]], dtype=np.int64)        # an idempotent ideal of k x k
    with pytest.raises(InternalCheckError, match="is not nilpotent"):
        Radical(e1.algebra_a, first)


def assert_certificate_matches_the_reference(modules):
    for module in modules:
        assert is_projective(module) == splits(module), module.describe()
        assert is_injective(module) == splits(dual_module(module)), module.describe()


@pytest.mark.parametrize("p", [2, 3])
def test_certificate_matches_the_splitting_test_at_bound_2(fixture_over, p):
    for name in ("E0", "E1", "E2"):
        ctx = fixture_over(name, p).single_context()
        for side in (LEFT, RIGHT):
            assert_certificate_matches_the_reference(
                enumerate_modules(ctx.algebra_a, side, 2)
                + enumerate_modules(ctx.algebra_b, side, 2)
                + [v.packed for v in enumerate_delta_modules(ctx, side, 2)])


@pytest.mark.parametrize("name, count", [("E1", 203), ("E2", 62)])
def test_certificate_matches_the_splitting_test_on_bound_3_tuples(fixture_over,
                                                                  name, count):
    tuples = enumerate_delta_modules(fixture_over(name, 2).single_context(), LEFT, 3)
    assert len(tuples) == count
    assert_certificate_matches_the_reference([v.packed for v in tuples])


def test_certificate_builds_no_free_cover_and_no_hom_space(e1, e2, monkeypatch):
    def refuse(*args):
        raise AssertionError("projectivity must be decided without it")

    modules = [v.packed for ctx in (e1, e2) for side in (LEFT, RIGHT)
               for v in enumerate_delta_modules(ctx, side, 2)]
    monkeypatch.setattr(algebra, "free_cover", refuse)
    monkeypatch.setattr(algebra, "hom_space", refuse)
    for module in modules:
        is_projective(module)
        is_injective(module)
