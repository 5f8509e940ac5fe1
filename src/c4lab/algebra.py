"""
Finite-dimensional unital associative algebras over prime fields.

An algebra is stored by structure constants: basis b_0..b_{d-1} with
b_i * b_j = sum_k sc[i, j, k] b_k over GF(p).  Elements are coordinate
row vectors.  Constructors cover prime fields, polynomial quotients,
full matrix algebras, upper triangular algebras, direct products and
corner algebras e*A*e.

Constructor-built algebras carry their Jacobson radical, propagated
through the construction (e.g. the radical of a matrix algebra is the
matrix algebra of the base radical); raw algebras fall back to the
exhaustive quasi-regularity computation under a size guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .guards import memo


def is_prime(n: int) -> bool:
    """Primality by trial division; adequate for desk-scale moduli."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# The GF(p) kernels need (p-1)^2 + p < 2^63 in int64 (see linalg).
MAX_PRIME = 2 ** 31


@dataclass(frozen=True)
class PrimeField:
    """A prime modulus below MAX_PRIME, validated at construction."""

    p: int

    def __post_init__(self):
        if self.p >= MAX_PRIME:
            raise ValueError(f"prime {self.p} is too large: c4lab supports p < 2^31")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


class FiniteAlgebra:
    """Unital associative algebra over GF(p) given by structure constants.

    Validation is exhaustive: associativity on all basis triples and the
    two-sided identity law on all basis elements.
    """

    def __init__(self, p, dim, labels, structure_constants, one_coords,
                 name=None, known_radical=None):
        field = PrimeField(int(p))
        self.p = field.p
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("algebra dimension must be >= 1")
        labels = tuple(str(s) for s in labels)
        if len(labels) != self.dim:
            raise ValueError("label count does not match dimension")
        self.labels = labels
        sc = linalg.as_gf(structure_constants, self.p)
        if sc.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constants must be dim x dim x dim")
        one = linalg.as_gf(one_coords, self.p).reshape(-1)
        if one.shape != (self.dim,):
            raise ValueError("identity coordinates must have length dim")
        self.sc = sc
        self.one = one
        self.name = name or f"algebra(p={self.p},dim={self.dim})"
        self._validate()
        if known_radical is not None:
            known_radical = linalg.row_space(linalg.as_gf(known_radical, self.p), self.p)
        self._known_radical = known_radical
        self._cache: dict = {}
        self.sc.setflags(write=False)
        self.one.setflags(write=False)

    # -- validation ------------------------------------------------------

    def _validate(self):
        sc, p, d = self.sc, self.p, self.dim
        flat = sc.reshape(d * d, d)
        # left[i,j,k,l] = sum_m sc[i,j,m] sc[m,k,l]; right[i,j,k,l] = sum_m sc[j,k,m] sc[i,m,l]
        left = linalg.matmul_mod(flat, sc.reshape(d, d * d), p).reshape(d, d, d, d)
        right = linalg.matmul_mod(flat, sc, p).reshape(d, d, d, d)
        if not np.array_equal(left, right):
            i, j, k = np.argwhere(np.any(left != right, axis=3))[0]
            raise ValueError(
                f"associativity fails at basis triple (i,j,k)=({i},{j},{k})")
        ident = linalg.eye(self.dim)
        one_left = linalg.combine(self.one, sc, p)
        if not np.array_equal(one_left, ident):
            j = int(np.argwhere(np.any(one_left != ident, axis=1))[0, 0])
            raise ValueError(f"identity fails on the left at basis element {j}")
        one_right = linalg.combine(self.one, sc.transpose(1, 0, 2), p)
        if not np.array_equal(one_right, ident):
            i = int(np.argwhere(np.any(one_right != ident, axis=1))[0, 0])
            raise ValueError(f"identity fails on the right at basis element {i}")

    # -- elements --------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def zero(self) -> "AlgebraElement":
        return self.element(np.zeros(self.dim, dtype=np.int64))

    def one_element(self) -> "AlgebraElement":
        return self.element(self.one)

    def basis_element(self, i: int) -> "AlgebraElement":
        coords = np.zeros(self.dim, dtype=np.int64)
        coords[i] = 1
        return self.element(coords)

    def mul_coords(self, x, y) -> np.ndarray:
        """Coordinates of x*y, which is y @ left_mult_matrix(x)."""
        return linalg.matmul_mod(linalg.as_gf(y, self.p), self.left_mult_matrix(x), self.p)

    def left_mult_matrix(self, coords) -> np.ndarray:
        """Row-convention matrix of v -> a*v (row j is a*b_j)."""
        return linalg.combine(linalg.as_gf(coords, self.p), self.sc, self.p)

    def right_mult_matrix(self, coords) -> np.ndarray:
        """Row-convention matrix of v -> v*a (row i is b_i*a)."""
        return linalg.combine(linalg.as_gf(coords, self.p), self.right_regular_stack(),
                              self.p)

    def right_regular_stack(self) -> np.ndarray:
        """Action matrices of the regular module: stack[j] = rho(b_j)."""
        def stack():
            rho = np.ascontiguousarray(self.sc.transpose(1, 0, 2))
            rho.setflags(write=False)
            return rho
        return memo(self._cache, "rho", stack)

    # -- element enumeration ---------------------------------------------

    def element_count(self) -> int:
        return self.p ** self.dim

    def all_element_rows(self, guard: int = 2 ** 20) -> np.ndarray:
        """All coordinate vectors in lexicographic order, shape (p^dim, dim)."""
        n = self.element_count()
        return memo(self._cache, "elements",
                    lambda: linalg.decode_codes(np.arange(n, dtype=np.int64),
                                                self.dim, self.p),
                    guard=(f"element enumeration of {self.name}", n, guard))

    def unit_table(self, guard: int = 2 ** 20) -> np.ndarray:
        """Boolean table over element codes: True iff the element is a unit."""
        rows = self.all_element_rows(guard)

        def table():
            lmats = linalg.combine(rows, self.sc, self.p)
            units = np.zeros(rows.shape[0], dtype=bool)
            for idx in range(rows.shape[0]):
                units[idx] = linalg.rank(lmats[idx], self.p) == self.dim
            return units
        return memo(self._cache, "unit_table", table)

    def __repr__(self):
        return f"FiniteAlgebra({self.name}, p={self.p}, dim={self.dim})"


class AlgebraElement:
    """Element of a FiniteAlgebra as a coordinate row vector."""

    def __init__(self, parent: FiniteAlgebra, coords):
        self.parent = parent
        coords = linalg.as_gf(coords, parent.p).reshape(-1)
        if coords.shape != (parent.dim,):
            raise ValueError("coordinate length does not match algebra dimension")
        self.coords = coords
        self.coords.setflags(write=False)

    def _check(self, other: "AlgebraElement"):
        if other.parent is not self.parent:
            raise ValueError("elements belong to different parent algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.parent, (self.coords + other.coords) % self.parent.p)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.parent, (self.coords - other.coords) % self.parent.p)

    def __mul__(self, other):
        self._check(other)
        return AlgebraElement(self.parent, self.parent.mul_coords(self.coords, other.coords))

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and other.parent is self.parent
                and np.array_equal(other.coords, self.coords))

    def __hash__(self):
        return hash((id(self.parent), self.coords.tobytes()))

    def is_idempotent(self) -> bool:
        return np.array_equal(self.parent.mul_coords(self.coords, self.coords), self.coords)

    def is_unit(self) -> bool:
        """True iff left multiplication is invertible and a two-sided
        inverse exists (solved on both sides and compared)."""
        A = self.parent
        if not linalg.is_invertible(A.left_mult_matrix(self.coords), A.p):
            return False
        # a*x = 1 and y*a = 1, via the row-convention action matrices.
        x = linalg.solve_left_many(A.left_mult_matrix(self.coords).T,
                                   A.one.reshape(1, -1), A.p)
        y = linalg.solve_left_many(A.right_mult_matrix(self.coords).T,
                                   A.one.reshape(1, -1), A.p)
        if x is None or y is None:
            return False
        return bool(np.array_equal(x, y))

    def __repr__(self):
        terms = [f"{int(c)}*{lbl}" if c != 1 else lbl
                 for c, lbl in zip(self.coords, self.parent.labels) if c]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class IdealBasis:
    """Canonical basis of a two-sided ideal of a FiniteAlgebra."""

    parent: FiniteAlgebra
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_two_sided(self) -> bool:
        A, p = self.parent, self.parent.p
        if self.dim == 0:
            return True
        for i in range(A.dim):
            left = linalg.matmul_mod(self.basis, A.left_mult_matrix(linalg.eye(A.dim)[i]), p)
            right = linalg.matmul_mod(self.basis, A.right_mult_matrix(linalg.eye(A.dim)[i]), p)
            if not (linalg.in_row_space(left, self.basis, p)
                    and linalg.in_row_space(right, self.basis, p)):
                return False
        return True

    def nilpotency_index(self) -> int:
        """Least k with (ideal)^k = 0, or raises if not nilpotent."""
        A, p = self.parent, self.parent.p
        current = self.basis
        k = 1
        while current.shape[0] > 0:
            if k > A.dim + 1:
                raise ValueError("ideal is not nilpotent")
            # prods[u, v] = v @ left_mult(u) = u*v
            prods = linalg.matmul_mod(self.basis, A.left_mult_matrix(current), p)
            current = linalg.row_space(prods.reshape(-1, A.dim), p)
            k += 1
        return k - 1


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def field_algebra(p: int) -> FiniteAlgebra:
    """The prime field GF(p) as a one-dimensional algebra."""
    sc = np.ones((1, 1, 1), dtype=np.int64)
    return FiniteAlgebra(p, 1, ("1",), sc, [1], name=f"F{p}",
                         known_radical=linalg.zeros(0, 1))


def poly_quotient_algebra(p: int, f_coeffs) -> FiniteAlgebra:
    """GF(p)[x]/(f) for a monic polynomial f, basis 1, x, ..., x^(n-1).

    f_coeffs lists coefficients in ascending degree order.
    """
    p = PrimeField(p).p  # validated before any int64 arithmetic mod p
    f = [int(c) % p for c in f_coeffs]
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise ValueError("f must be monic of degree >= 1")
    # Reduction table: coords of x^m for m < 2n-1.
    reps = [np.eye(n, dtype=np.int64)[m] if m < n else None for m in range(max(2 * n - 1, n))]
    for m in range(n, 2 * n - 1):
        prev = reps[m - 1]
        shifted = np.zeros(n + 1, dtype=np.int64)
        shifted[1:] = prev
        # x^n = -(f_0 + f_1 x + ... + f_{n-1} x^{n-1}) since f is monic
        reduced = shifted[:n].copy()
        reduced = (reduced - shifted[n] * np.array(f[:n], dtype=np.int64)) % p
        reps[m] = reduced
    sc = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            sc[i, j] = reps[i + j]
    labels = tuple("1" if k == 0 else ("x" if k == 1 else f"x^{k}") for k in range(n))
    poly = "+".join(f"{c if c != 1 or d == 0 else ''}{'x' if d == 1 else f'x^{d}' if d else ''}"
                    for d, c in enumerate(f) if c) or "0"
    one = np.eye(n, dtype=np.int64)[0]
    return FiniteAlgebra(p, n, labels, sc, one, name=f"F{p}[x]/({poly})")


def matrix_algebra(base: FiniteAlgebra, n: int) -> FiniteAlgebra:
    """Full n x n matrix algebra over a base algebra.

    Basis E_ij (x) b_k with (E_ij b)(E_kl c) = delta_jk E_il (b c).
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    d = base.dim
    p = base.p
    D = n * n * d

    def idx(i, j, k):
        return (i * n + j) * d + k

    sc = np.zeros((D, D, D), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                sc[idx(i, j, 0): idx(i, j, 0) + d,
                   idx(j, l, 0): idx(j, l, 0) + d,
                   idx(i, l, 0): idx(i, l, 0) + d] = base.sc
    one = np.zeros(D, dtype=np.int64)
    for i in range(n):
        one[idx(i, i, 0): idx(i, i, 0) + d] = base.one
    if d == 1 and base.labels == ("1",):
        labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    else:
        labels = tuple(f"E{i + 1}{j + 1}*{base.labels[k]}"
                       for i in range(n) for j in range(n) for k in range(d))
    rad_base = jacobson_radical(base).basis
    rad_rows = []
    for v in rad_base:
        for i in range(n):
            for j in range(n):
                row = np.zeros(D, dtype=np.int64)
                row[idx(i, j, 0): idx(i, j, 0) + d] = v
                rad_rows.append(row)
    rad = np.array(rad_rows, dtype=np.int64).reshape(-1, D)
    return FiniteAlgebra(p, D, labels, sc, one,
                         name=f"M{n}({base.name})", known_radical=rad)


def upper_triangular_algebra(p: int, n: int) -> FiniteAlgebra:
    """Upper triangular n x n matrices over GF(p)."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pr: t for t, pr in enumerate(pairs)}
    d = len(pairs)
    sc = np.zeros((d, d, d), dtype=np.int64)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                sc[a, b, index[(i, l)]] = 1
    one = np.zeros(d, dtype=np.int64)
    for i in range(n):
        one[index[(i, i)]] = 1
    labels = tuple(f"E{i + 1}{j + 1}" for i, j in pairs)
    rad = linalg.eye(d)[[index[pr] for pr in pairs if pr[0] != pr[1]]]
    if rad.size == 0:
        rad = linalg.zeros(0, d)
    return FiniteAlgebra(p, d, labels, sc, one, name=f"T{n}(F{p})",
                         known_radical=rad)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product A x B with componentwise operations."""
    if a.p != b.p:
        raise ValueError("product factors must share the prime")
    d = a.dim + b.dim
    sc = np.zeros((d, d, d), dtype=np.int64)
    sc[: a.dim, : a.dim, : a.dim] = a.sc
    sc[a.dim:, a.dim:, a.dim:] = b.sc
    one = np.concatenate([a.one, b.one])
    labels = tuple(f"{s}@1" for s in a.labels) + tuple(f"{s}@2" for s in b.labels)
    ra = jacobson_radical(a).basis
    rb = jacobson_radical(b).basis
    rad = np.zeros((ra.shape[0] + rb.shape[0], d), dtype=np.int64)
    rad[: ra.shape[0], : a.dim] = ra
    rad[ra.shape[0]:, a.dim:] = rb
    return FiniteAlgebra(a.p, d, labels, sc, one,
                         name=f"{a.name}x{b.name}", known_radical=rad)


@dataclass(frozen=True)
class CornerAlgebra:
    """Corner e*A*e together with the coordinate embedding into A."""

    algebra: FiniteAlgebra
    embedding: np.ndarray  # rows: corner basis written in A-coordinates


def corner_algebra(a: FiniteAlgebra, e: AlgebraElement) -> CornerAlgebra:
    """The corner algebra e*A*e for an idempotent e, with identity e."""
    if e.parent is not a:
        raise ValueError("idempotent does not belong to the given algebra")
    if not e.is_idempotent():
        raise ValueError("e^2 != e: corner requires an idempotent")
    if not np.any(e.coords):
        raise ValueError("corner at e = 0 is not an algebra")
    p = a.p
    ebi = a.left_mult_matrix(e.coords)                                  # rows e*b_i
    ebie = linalg.matmul_mod(ebi, a.right_mult_matrix(e.coords), p)    # rows e*b_i*e
    basis = linalg.row_space(ebie, p)
    k = basis.shape[0]
    sc = np.zeros((k, k, k), dtype=np.int64)
    for r in range(k):
        prods = linalg.matmul_mod(basis, a.left_mult_matrix(basis[r]), p)
        coeffs = linalg.solve_left_many(basis, prods, p)
        if coeffs is None:
            raise ValueError("corner basis not multiplicatively closed")
        sc[r] = coeffs
    one = linalg.solve_left_many(basis, e.coords.reshape(1, -1), p)
    if one is None:
        raise ValueError("corner identity e not in corner span")
    rad_a = jacobson_radical(a).basis
    if rad_a.shape[0]:
        le = linalg.matmul_mod(rad_a, ebi, p)                          # rows e*r
        eje = linalg.matmul_mod(le, a.right_mult_matrix(e.coords), p)
        rad = linalg.solve_left_many(basis, linalg.row_space(eje, p), p)
    else:
        rad = linalg.zeros(0, k)
    labels = tuple(f"c{i}" for i in range(k))
    alg = FiniteAlgebra(p, k, labels, sc, one[0],
                        name=f"corner({a.name})", known_radical=rad)
    return CornerAlgebra(alg, basis)


def quotient_algebra(a: FiniteAlgebra, ideal: IdealBasis):
    """Quotient A/I with basis the non-pivot coordinates of I.

    Returns (quotient, projection) where projection maps A-coordinate
    rows, int64 with entries in [0, p), to quotient coordinates.
    """
    if ideal.parent is not a:
        raise ValueError("ideal does not belong to the given algebra")
    nonpiv, project = linalg.quotient_projection(ideal.basis, a.p)
    k = len(nonpiv)
    if k == 0:
        raise ValueError("quotient by the whole algebra is not unital")
    # the products of the lifted basis vectors b_i, b_j (i, j non-pivot)
    sc = project(a.sc[np.ix_(nonpiv, nonpiv)].reshape(k * k, a.dim)).reshape(k, k, k)
    one = project(a.one.reshape(1, -1))[0]
    labels = tuple(f"{a.labels[c]}~" for c in nonpiv)
    quot = FiniteAlgebra(a.p, k, labels, sc, one, name=f"{a.name}/rad")
    return quot, project


# ---------------------------------------------------------------------------
# radical, idempotents, corners
# ---------------------------------------------------------------------------

def jacobson_radical(a: FiniteAlgebra, guard: int = 2 ** 20) -> IdealBasis:
    """Basis of J(A) = {x : 1 - x*r is a unit for all r}.

    Constructor-derived algebras answer from their propagated radical;
    otherwise the quasi-regularity test runs over all p^dim elements.
    The guard counts those elements, but each non-unit is multiplied by
    every element: up to p^(2 dim) products, 2^40 at the default 2^20.
    """
    scan = a._known_radical is None
    return memo(a._cache, "radical", lambda: _radical(a, guard),
                guard=(f"element enumeration of {a.name}", a.element_count(), guard)
                if scan else None)


def _radical(a: FiniteAlgebra, guard: int) -> IdealBasis:
    if a._known_radical is not None:
        result = IdealBasis(a, a._known_radical)
    else:
        rows = a.all_element_rows(guard)
        units = a.unit_table(guard)
        members = []
        for idx in range(rows.shape[0]):
            if units[idx]:
                continue  # units are never quasi-regular absorbers
            x = rows[idx]
            prods = linalg.matmul_mod(rows, a.left_mult_matrix(x), a.p)   # all x*r
            codes = linalg.encode_codes((a.one - prods) % a.p, a.p)
            if bool(units[codes].all()):
                members.append(x)
        basis = linalg.row_space(np.array(members, dtype=np.int64).reshape(-1, a.dim), a.p) \
            if members else linalg.zeros(0, a.dim)
        result = IdealBasis(a, basis)
    result.basis.setflags(write=False)
    return result


def idempotents(a: FiniteAlgebra, guard: int = 2 ** 20) -> list[AlgebraElement]:
    """All e with e*e = e, in lexicographic coordinate order."""
    n = a.element_count()

    def scan():
        found = []
        for coeffs in linalg.coeff_blocks(n, a.dim, a.p):
            lmats = linalg.combine(coeffs, a.sc, a.p)
            sq = linalg.matmul_mod(coeffs[:, None, :], lmats, a.p)[:, 0, :]
            mask = np.all(sq == coeffs, axis=1)
            for row in coeffs[mask]:
                found.append(a.element(row))
        return found
    return memo(a._cache, "idempotents", scan,
                guard=(f"idempotent enumeration of {a.name}", n, guard))


def is_full_idempotent(a: FiniteAlgebra, e: AlgebraElement) -> bool:
    """True iff e is idempotent and A e A = A."""
    return idempotent_span_dim(a, e) == a.dim


def idempotent_span_dim(a: FiniteAlgebra, e: AlgebraElement) -> int:
    """Dimension of the two-sided span A e A of an idempotent e."""
    if e.parent is not a:
        raise ValueError("idempotent does not belong to the given algebra")
    if not e.is_idempotent():
        raise ValueError("e^2 != e")
    bie = a.right_mult_matrix(e.coords)                      # rows b_i*e
    span = linalg.combine(bie, a.sc, a.p)                    # (b_i*e)*b_j
    return linalg.rank(span.reshape(-1, a.dim), a.p)
