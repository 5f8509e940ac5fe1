import itertools

import numpy as np
import pytest

from c4lab.algebra import (
    FiniteAlgebra,
    PrimeField,
    corner_algebra,
    field_algebra,
    idempotents,
    is_full_idempotent,
    jacobson_radical,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    quotient_algebra,
    upper_triangular_algebra,
)


@pytest.fixture(scope="module")
def f2():
    return field_algebra(2)


@pytest.fixture(scope="module")
def r2():
    return poly_quotient_algebra(2, [0, 0, 1])


@pytest.fixture(scope="module")
def m2(f2):
    return matrix_algebra(f2, 2)


def test_prime_field_rejects_composites():
    PrimeField(7919)
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_field_algebra(f2):
    assert f2.dim == 1
    assert (f2.one_element() * f2.one_element()) == f2.one_element()


def test_poly_quotient_relation(r2):
    x = r2.element([0, 1])
    assert (x * x) == r2.zero()


def test_non_monic_rejected():
    with pytest.raises(ValueError):
        poly_quotient_algebra(2, [1, 1, 0])


def test_matrix_units_multiplication(m2):
    # oracle: direct 2x2 matrix arithmetic over GF(2)
    def unit(i, j):
        z = np.zeros((2, 2), dtype=np.int64)
        z[i, j] = 1
        return z

    labels = {lbl: idx for idx, lbl in enumerate(m2.labels)}
    for (i, j), (k, l) in itertools.product(
            itertools.product(range(2), repeat=2), repeat=2):
        prod = unit(i, j) @ unit(k, l) % 2
        a = m2.basis_element(labels[f"E{i+1}{j+1}"])
        b = m2.basis_element(labels[f"E{k+1}{l+1}"])
        got = (a * b).coords
        expect = np.zeros(4, dtype=np.int64)
        for r in range(2):
            for c in range(2):
                expect[labels[f"E{r+1}{c+1}"]] = prod[r, c]
        assert np.array_equal(got, expect)


def test_raw_constructor_rejects_non_associative():
    # u*u = v, u*v = 0 but v*u = v breaks (u*u)*u = u*(u*u)
    sc = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        sc[0, i, i] = 1
        sc[i, 0, i] = 1
    sc[1, 1, 2] = 1
    sc[2, 1, 2] = 1
    with pytest.raises(ValueError, match="associativity"):
        FiniteAlgebra(2, 3, ["1", "u", "v"], sc, [1, 0, 0])


def test_raw_constructor_rejects_bad_identity():
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0, 0] = 1  # b1 acts as zero on everything, so [1,0] is not an identity
    with pytest.raises(ValueError, match="identity"):
        FiniteAlgebra(2, 2, ["1", "u"], sc, [1, 0])


def test_unit_detection(r2):
    assert r2.element([1, 1]).is_unit()      # (1+x)^2 = 1 in char 2
    assert not r2.element([0, 1]).is_unit()  # x is nilpotent
    one_plus_x = r2.element([1, 1])
    assert (one_plus_x * one_plus_x) == r2.one_element()


def test_radical_examples(f2, r2, m2):
    assert jacobson_radical(f2).dim == 0
    rad = jacobson_radical(r2)
    assert rad.dim == 1 and np.array_equal(rad.basis, [[0, 1]])
    assert jacobson_radical(m2).dim == 0


def test_radical_matches_exhaustive_on_constructed_algebras():
    # constructor-propagated radicals agree with quasi-regularity
    for alg in (matrix_algebra(poly_quotient_algebra(2, [0, 0, 1]), 2),
                upper_triangular_algebra(2, 2),
                product_algebra(field_algebra(2), field_algebra(2))):
        attached = jacobson_radical(alg).basis
        fresh = FiniteAlgebra(alg.p, alg.dim, alg.labels, alg.sc, alg.one)
        computed = jacobson_radical(fresh).basis
        assert np.array_equal(attached, computed)


def test_radical_is_nilpotent_two_sided():
    for alg in (poly_quotient_algebra(2, [0, 0, 0, 1]),
                upper_triangular_algebra(2, 2),
                matrix_algebra(poly_quotient_algebra(2, [0, 0, 1]), 2)):
        ideal = jacobson_radical(alg)
        assert ideal.is_two_sided()
        assert ideal.nilpotency_index() <= alg.dim + 1


def test_matrix_radical_dimension():
    big = matrix_algebra(poly_quotient_algebra(2, [0, 0, 1]), 2)
    assert big.dim == 8
    assert jacobson_radical(big).dim == 4


def test_idempotents(r2, f2, m2):
    assert len(idempotents(r2)) == 2
    assert len(idempotents(f2)) == 2
    idems = idempotents(m2)
    # oracle: exhaustive scan over all 16 matrices in M2(F2)
    count = 0
    for bits in itertools.product(range(2), repeat=4):
        mat = np.array(bits, dtype=np.int64).reshape(2, 2)
        if np.array_equal(mat @ mat % 2, mat):
            count += 1
    assert len(idems) == count == 8
    coords = [tuple(e.coords) for e in idems]
    assert coords == sorted(coords)  # lexicographic order
    assert tuple([0, 0, 0, 0]) in coords and tuple(m2.one) in coords


def test_full_idempotents(m2):
    assert is_full_idempotent(m2, m2.one_element())
    e11 = m2.basis_element(0)
    assert is_full_idempotent(m2, e11)
    ff = product_algebra(field_algebra(2), field_algebra(2))
    e1 = ff.element([1, 0])
    assert not is_full_idempotent(ff, e1)
    with pytest.raises(ValueError, match="e\\^2"):
        is_full_idempotent(m2, m2.element([0, 1, 0, 0]))


def test_full_idempotent_conjugation_invariance(m2):
    # conjugating by units preserves fullness
    e11 = m2.basis_element(0)
    units = [m2.element(c) for c in itertools.product(range(2), repeat=4)
             if m2.element(c).is_unit()]
    for u in units:
        inv = next(v for v in units if (u * v) == m2.one_element())
        conj = u * e11 * inv
        assert is_full_idempotent(m2, conj)


def test_corner_examples(m2):
    corner = corner_algebra(m2, m2.basis_element(0))
    assert corner.algebra.dim == 1
    assert np.array_equal(corner.algebra.sc, np.ones((1, 1, 1)))
    ff = product_algebra(field_algebra(2), field_algebra(2))
    c2 = corner_algebra(ff, ff.element([1, 0]))
    assert c2.algebra.dim == 1
    with pytest.raises(ValueError, match="idempotent"):
        corner_algebra(m2, m2.element([0, 1, 0, 0]))
    with pytest.raises(ValueError, match="e = 0"):
        corner_algebra(m2, m2.zero())


def test_corner_at_identity_is_the_algebra(r2, m2):
    for alg in (r2, m2):
        corner = corner_algebra(alg, alg.one_element())
        assert corner.algebra.dim == alg.dim
        assert np.array_equal(corner.algebra.sc, alg.sc)
        assert np.array_equal(corner.embedding, np.eye(alg.dim, dtype=np.int64))


def test_corner_of_matrix_recovers_base():
    base = poly_quotient_algebra(2, [0, 0, 1])
    big = matrix_algebra(base, 2)
    e = np.zeros(big.dim, dtype=np.int64)
    e[: base.dim] = base.one
    corner = corner_algebra(big, big.element(e))
    assert corner.algebra.dim == base.dim
    assert np.array_equal(corner.algebra.sc, base.sc)


def test_upper_triangular():
    t2 = upper_triangular_algebra(2, 2)
    assert t2.dim == 3
    assert jacobson_radical(t2).dim == 1
    e11 = t2.basis_element(0)
    assert not is_full_idempotent(t2, e11)


def test_matrix_algebra_rank_one_is_base(r2):
    m1 = matrix_algebra(r2, 1)
    assert m1.dim == r2.dim
    assert np.array_equal(m1.sc, r2.sc)


def test_quotient_algebra_semisimple(r2):
    quot, project = quotient_algebra(r2, jacobson_radical(r2))
    assert quot.dim == 1
    assert jacobson_radical(quot).dim == 0
    assert np.array_equal(project(np.array([[1, 1]])), [[1]])


def test_product_identity():
    ff = product_algebra(field_algebra(2), field_algebra(3)) \
        if False else product_algebra(field_algebra(2), field_algebra(2))
    assert np.array_equal(ff.one, [1, 1])
    with pytest.raises(ValueError, match="prime"):
        product_algebra(field_algebra(2), field_algebra(3))
