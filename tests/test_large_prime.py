"""Every GF(p) product is exact for the largest accepted primes.

Each kernel that forms a product mod p is compared with the same
contraction over Python ints (numpy object arrays), on seeded random
operands whose entries fill all of [0, p).  At p = 2^31 - 1 a single
product of two residues is close to 2^62, so any sum of a few of them
in int64 overflows.
"""

import numpy as np
import pytest

from c4lab import linalg
from c4lab.algebra import (
    FiniteAlgebra,
    field_algebra,
    jacobson_radical,
    poly_quotient_algebra,
    upper_triangular_algebra,
)
from c4lab.conditions import Decomposition
from c4lab.modules import (
    ModuleHom,
    RightModule,
    Submodule,
    quotient_module,
    regular_module,
)

PRIMES = [65521, 2 ** 31 - 1]


def ref(spec, *operands, p):
    """np.einsum over Python ints, reduced mod p, as an int64 array."""
    exact = np.einsum(spec, *(np.asarray(x).astype(object) for x in operands))
    return (exact % p).astype(np.int64)


def invertible(rng, n, p):
    while True:
        g = rng.integers(0, p, size=(n, n), dtype=np.int64)
        ginv = linalg.inv_mod(g, p)
        if ginv is not None:
            return g, ginv


def t3_random_basis(p, seed):
    """Upper triangular 3x3 matrices over GF(p) in a random basis, so
    that structure constants, identity and radical are dense residues."""
    rng = np.random.default_rng(seed)
    t3 = upper_triangular_algebra(p, 3)
    g, ginv = invertible(rng, t3.dim, p)
    # new basis vector i is row g[i] in the old coordinates
    sc = ref("ia,jb,abc,ck->ijk", g, g, t3.sc, ginv, p=p)
    one = ref("a,ak->k", t3.one, ginv, p=p)
    rad = ref("na,ak->nk", jacobson_radical(t3).basis, ginv, p=p)
    alg = FiniteAlgebra(p, t3.dim, t3.labels, sc, one, name=f"T3(F{p})'")
    assert np.array_equal(jacobson_radical(alg).basis, linalg.row_space(rad, p))
    return alg, rng


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_mod_and_combine_on_every_path(p):
    rng = np.random.default_rng(p % 97)
    # at 65521 the larger products take float64 BLAS and the small ones a
    # single int64 product; at 2^31 - 1 every product is chunked int64
    shapes = [((2, 2), (2, 2)), ((7,), (5, 7, 3)), ((20, 30), (30, 20)),
              ((40, 1), (1, 200)), ((6, 5, 8), (8, 9)), ((64, 64), (64, 64))]
    for sa, sb in shapes:
        a = rng.integers(0, p, size=sa, dtype=np.int64)
        b = rng.integers(0, p, size=sb, dtype=np.int64)
        a.reshape(-1)[::2] = p - 1
        got = linalg.matmul_mod(a, b, p)
        want = (np.matmul(a.astype(object), b.astype(object)) % p).astype(np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, want), (sa, sb)
    stack = rng.integers(0, p, size=(6, 4, 5), dtype=np.int64)
    coeffs = rng.integers(0, p, size=(3, 6), dtype=np.int64)
    assert np.array_equal(linalg.combine(coeffs, stack, p),
                          ref("nk,kab->nab", coeffs, stack, p=p))
    assert np.array_equal(linalg.combine(coeffs[0], stack, p),
                          ref("k,kab->ab", coeffs[0], stack, p=p))


@pytest.mark.parametrize("p", PRIMES)
def test_algebra_products_match_python_ints(p):
    alg, rng = t3_random_basis(p, seed=1)
    for _ in range(5):
        x, y = rng.integers(0, p, size=(2, alg.dim), dtype=np.int64)
        assert np.array_equal(alg.mul_coords(x, y), ref("i,j,ijk->k", x, y, alg.sc, p=p))
        assert np.array_equal(alg.left_mult_matrix(x), ref("i,ijk->jk", x, alg.sc, p=p))
        assert np.array_equal(alg.right_mult_matrix(x), ref("j,ijk->ik", x, alg.sc, p=p))


def test_poly_quotient_square_at_the_largest_prime():
    p = 2 ** 31 - 1
    alg = poly_quotient_algebra(p, [1, 0, 1])      # x^2 = -1
    minus_one_minus_x = np.array([p - 1, p - 1])
    # (-1 - x)^2 = 1 + 2x + x^2 = 2x
    assert np.array_equal(alg.mul_coords(minus_one_minus_x, minus_one_minus_x), [0, 2])


@pytest.mark.parametrize("p", PRIMES)
def test_module_actions_and_hom_check_match_python_ints(p):
    alg, rng = t3_random_basis(p, seed=2)
    reg = regular_module(alg)
    c = rng.integers(0, p, size=alg.dim, dtype=np.int64)
    rows = rng.integers(0, p, size=(4, alg.dim), dtype=np.int64)
    assert np.array_equal(reg.rho(c), ref("j,jab->ab", c, reg.action, p=p))
    assert np.array_equal(reg.act_rows(rows),
                          ref("ka,jab->kjb", rows, reg.action, p=p).reshape(-1, alg.dim))
    # (p-1)*id and left multiplication by c are endomorphisms of R_R
    ModuleHom(reg, reg, (p - 1) * linalg.eye(alg.dim))
    left_c = ref("i,ijk->jk", c, alg.sc, p=p)
    ModuleHom(reg, reg, left_c)
    broken = left_c.copy()
    broken[0, 0] = (broken[0, 0] + 1) % p
    with pytest.raises(ValueError, match="does not commute"):
        ModuleHom(reg, reg, broken)


@pytest.mark.parametrize("p", PRIMES)
def test_decomposition_idempotent_check(p):
    rng = np.random.default_rng(3)
    n = 8
    space = RightModule(field_algebra(p), linalg.eye(n)[None], name="F^8")
    g, ginv = invertible(rng, n, p)
    e = ref("ia,ab,bk->ik", ginv, np.diag([1, 1, 1, 0, 0, 0, 0, 0]), g, p=p)
    a = Submodule(space, linalg.row_space(e, p))
    b = Submodule(space, linalg.left_nullspace(e, p))
    Decomposition(space, a, b, ModuleHom(space, space, e))
    with pytest.raises(ValueError, match="not idempotent"):
        Decomposition(space, a, b, ModuleHom(space, space, 2 * e % p))


@pytest.mark.parametrize("p", PRIMES)
def test_intersect_rows(p):
    rng = np.random.default_rng(4)
    # 12-dimensional row spaces of GF(p)^20 meeting in the 4 common rows
    common = rng.integers(0, p, size=(4, 20), dtype=np.int64)
    extra_a, extra_b = rng.integers(0, p, size=(2, 8, 20), dtype=np.int64)
    mix_a, _ = invertible(rng, 12, p)
    mix_b, _ = invertible(rng, 12, p)
    a = ref("ij,jk->ik", mix_a, np.concatenate([common, extra_a]), p=p)
    b = ref("ij,jk->ik", mix_b, np.concatenate([common, extra_b]), p=p)
    assert np.array_equal(linalg.intersect_rows(a, b, p), linalg.row_space(common, p))


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_module_projection(p):
    alg, rng = t3_random_basis(p, seed=5)
    reg = regular_module(alg)
    rad = Submodule(reg, jacobson_radical(alg).basis)
    red, piv = linalg.rref(rad.basis, p)
    nonpiv = [c for c in range(alg.dim) if c not in piv]

    def reduce(rows):
        # subtract the pivot-column multiples of the RREF rows, over Python ints
        return (rows.astype(object)
                - ref("ni,ik->nk", rows[:, piv], red[:len(piv)], p=p))[:, nonpiv] % p

    rows = rng.integers(0, p, size=(5, alg.dim), dtype=np.int64)
    _, project = linalg.quotient_projection(rad.basis, p)
    assert np.array_equal(project(rows), reduce(rows))
    quot, proj = quotient_module(reg, rad)
    assert np.array_equal(proj.matrix, reduce(linalg.eye(alg.dim)))
    for j in range(alg.dim):
        assert np.array_equal(quot.action[j], reduce(reg.action[j][nonpiv]))
    # the projection commutes with the action it induces
    ModuleHom(reg, quot, proj.matrix)
