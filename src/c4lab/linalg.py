"""
Dense linear algebra over prime fields GF(p).

Precondition of every kernel: each array argument is a numpy int64
array with entries in [0, p).  Kernels neither check nor reduce their
input, and none writes into it.  Caller data is normalized once, by
``as_gf``, where it enters c4lab: the parser (``io``); the constructors
of ``FiniteAlgebra``, ``AlgebraElement``, ``RightModule``, ``Submodule``
and ``ModuleHom``; and the functions and methods that take caller
coordinates (``submodule_span``, ``cyclic_submodule_basis``,
``RightModule.rho`` and ``act_rows``, ``Submodule.to_parent`` and
``from_parent``, ``FiniteAlgebra.mul_coords``, ``left_mult_matrix`` and
``right_mult_matrix``, ``TransportedModule.hom_of_coords`` and
``build_progenerator``).  Row vectors are the primary convention:
subspaces are row spaces, kernels are left kernels ({x : x @ A = 0}), and
canonical bases are reduced row echelon forms, so basis equality is a
byte-level array comparison.

This module is the one place where a GF(p) product is formed and
reduced; the rest of the package calls ``matmul_mod`` or ``combine``.
Primes are limited to p < 2^31 (``algebra.PrimeField`` rejects larger
ones), and every kernel is exact for every accepted prime.

Kernels:

* ``rref`` over GF(2) packs each row into a Python-int bitset (one int64
  product with powers of two when n <= 62 columns, ``np.packbits``
  beyond) and eliminates with one XOR per row operation across the full
  width, augmented columns included.  It follows the same pivot order as
  the general path, so both return the same arrays.  For p > 2 it
  eliminates on int64 arrays, whose elementwise updates need
  (p-1)^2 + p < 2^63.
* ``matmul_mod`` is ``(a @ b) % p``, batched like ``np.matmul``.  With
  inner dimension k it takes one of two paths, chosen from the
  operands' shapes and p:

  - float64 BLAS while k*(p-1)^2 < 2^53, where every dot product is an
    exactly representable integer, and each matrix product has at least
    2^12 multiply-adds (below that numpy's int64 loop beats the float64
    conversions and the BLAS call);
  - otherwise exact int64 partial products over chunks of the inner
    dimension, each below 2^63, reduced and summed: a single int64
    product whenever k*(p-1)^2 < 2^63.
* ``combine`` sums a stack of matrices weighted by coefficient rows, as
  one ``matmul_mod`` on the flattened stack.
* ``row_spaces`` returns the canonical row-space basis of each matrix of
  a stack, the one stacked echelon: the cyclic submodules of a lattice
  scan, the images and kernels of an End scan, and the images of a hom
  scan, whose row counts are the maps' ranks.  Over GF(2) it packs the
  stack once and echelonizes each matrix on packed rows with a pivot
  table keyed by leading bit; for p > 2 it calls ``row_space`` on each.
"""

from __future__ import annotations

import math

import numpy as np


def as_gf(mat, p: int) -> np.ndarray:
    """Coerce to an int64 array with entries reduced mod p (the input
    boundary's normalization; the kernels below assume it)."""
    a = np.asarray(mat, dtype=np.int64)
    return np.mod(a, p)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def inv_scalar(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero scalar mod the prime p."""
    return pow(int(a) % p, p - 2, p)


def rref(mat, p: int, n_pivot_cols: int | None = None):
    """Reduced row echelon form over GF(p).

    Args:
        mat: matrix (m x n), int64 with entries in [0, p); not written.
        n_pivot_cols: only search for pivots in the first *n_pivot_cols*
            columns; row operations still apply across the full width.
            Used for augmented-system solving.  Defaults to all columns.

    Returns:
        (R, pivot_cols):
            R -- reduced echelon form, same shape, entries in [0, p).
            pivot_cols -- list of pivot column indices (length = rank).
    """
    a = mat     # every path below copies before it writes
    m, n = a.shape
    if n_pivot_cols is None:
        n_pivot_cols = n
    if m == 1:
        # A single row only needs scaling.  Such calls are 45% of the rref
        # calls on perfbench's analyze workload, where skipping the packed
        # and int64 paths raises ops_per_s by about 14%.
        nz = a[0, :n_pivot_cols].nonzero()[0]
        if not nz.size:
            return a.copy(), []
        c = int(nz[0])
        return (a.copy() if a[0, c] == 1 else a * inv_scalar(a[0, c], p) % p), [c]
    if p == 2:
        return _rref_gf2(a, n_pivot_cols)

    a = a.copy()
    pivots: list[int] = []
    r = 0
    for c in range(n_pivot_cols):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        if a[r, c] != 1:
            a[r] = (a[r] * inv_scalar(a[r, c], p)) % p
        col = a[:, c].copy()
        col[r] = 0
        rows_hit = np.nonzero(col)[0]
        if rows_hit.size:
            a[rows_hit] = (a[rows_hit] - np.outer(col[rows_hit], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


# Column c of an n-column row packed into an int64 sits at bit n-1-c, so the
# leading column is the most significant bit; wider rows use np.packbits.
_PACK_INT64 = 62
_SHIFTS = np.arange(_PACK_INT64 - 1, -1, -1, dtype=np.int64)
_WEIGHTS = np.left_shift(1, _SHIFTS)


def _pack_gf2(a: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix as Python ints, column c at bit n-1-c."""
    n = a.shape[1]
    if n <= _PACK_INT64:
        return (a @ _WEIGHTS[_PACK_INT64 - n:]).tolist()
    packed = np.packbits(a.astype(np.uint8), axis=1)
    pad = 8 * packed.shape[1] - n
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in packed]


def _unpack_gf2(rows: list[int], n: int) -> np.ndarray:
    """0/1 matrix of n columns from Python-int rows, column c at bit n-1-c."""
    if n <= _PACK_INT64:
        codes = np.array(rows, dtype=np.int64).reshape(-1, 1)
        return (codes >> _SHIFTS[_PACK_INT64 - n:]) & 1
    nbytes = (n + 7) // 8
    pad = 8 * nbytes - n
    buf = b"".join((x << pad).to_bytes(nbytes, "big") for x in rows)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes),
                         axis=1, count=n)
    return bits.astype(np.int64)


def _rref_gf2(a: np.ndarray, n_pivot_cols: int):
    """``rref`` over GF(2) on packed rows, with the general path's pivot order.

    Rows below the current pivot row are zero on every pivot-search column
    left of the next pivot, so the next pivot column is the leading bit of
    the largest remaining row (restricted to the search columns), and its
    pivot row is the first remaining row with that bit set.
    """
    m, n = a.shape
    rows = _pack_gf2(a)
    shift = n - n_pivot_cols
    pivots: list[int] = []
    r = 0
    while r < m:
        top = max(rows[r:]) >> shift
        if not top:
            break
        c = n_pivot_cols - top.bit_length()
        bit = 1 << (n - 1 - c)
        i = r
        while not rows[i] & bit:
            i += 1
        piv = rows[i]
        rows[i] = rows[r]
        rows = [x ^ piv if x & bit else x for x in rows]
        rows[r] = piv
        pivots.append(c)
        r += 1
    return _unpack_gf2(rows, n), pivots


# Below this many multiply-adds per matrix product numpy's int64 matmul beats
# float64 conversion plus BLAS (crossover near 16x16 by 16x16, OpenBLAS).
_FLOAT_WORK = 2 ** 12


def matmul_mod(a, b, p: int) -> np.ndarray:
    """(a @ b) % p for int64 operands with entries in [0, p), exactly.

    b is at least two-dimensional, a may be a vector, and leading axes
    broadcast like ``np.matmul``.  The shapes and p pick the path (float64
    BLAS or chunked int64); see the module docstring.  Neither path needs p
    prime, so it is equally exact for the prime-power modulus q <= p*n
    with which ``algebra.jacobson_radical`` raises n x n matrices to p-th
    powers.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    k = a.shape[-1]
    rows = a.shape[-2] if a.ndim > 1 else 1
    if k * (p - 1) ** 2 < 2 ** 53 and rows * k * b.shape[-1] >= _FLOAT_WORK:
        # float64 fmod is far slower than int64 remainder, so reduce after
        # the (exact) conversion back to int64
        return np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.int64) % p
    step = max(1, (2 ** 63 - 1) // (p - 1) ** 2)
    out = np.matmul(a[..., :step], b[..., :step, :]) % p
    for s in range(step, k, step):
        out += np.matmul(a[..., s:s + step], b[..., s:s + step, :]) % p
        out %= p
    return out


def combine(coeffs, stack, p: int) -> np.ndarray:
    """sum_k coeffs[..., k] * stack[k] mod p for a (k, r, c) matrix stack.

    coeffs is a (k,) vector or an (n, k) matrix of coefficient rows; the
    result is one (r, c) matrix or an (n, r, c) stack.
    """
    out = matmul_mod(coeffs, stack.reshape(stack.shape[0], math.prod(stack.shape[1:])), p)
    return out.reshape(coeffs.shape[:-1] + stack.shape[1:])


def quotient_projection(basis, p: int):
    """(nonpiv, project) for coordinates modulo rowspace(basis): the quotient
    keeps the non-pivot columns of basis, and project(rows) is
    rows - rows[:, piv] @ basis[:, nonpiv] on those columns.

    basis must be a canonical (RREF) basis with no zero rows, as
    ``row_space`` returns it, so its pivots are its rows' leading entries.
    """
    piv = (basis != 0).argmax(axis=1).tolist()
    nonpiv = [c for c in range(basis.shape[1]) if c not in piv]
    red = basis[:, nonpiv]

    def project(rows):
        return (rows[:, nonpiv] - matmul_mod(rows[:, piv], red, p)) % p
    return nonpiv, project


def rank(mat, p: int) -> int:
    a = np.asarray(mat)
    if a.size == 0:
        return 0
    _, piv = rref(a, p)
    return len(piv)


def row_space(mat, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the row space; shape (rank, n)."""
    if mat.shape[0] == 0:
        return mat.copy()
    r, piv = rref(mat, p)
    return r[: len(piv)].copy()


def row_spaces(stack, p: int) -> list[np.ndarray]:
    """``row_space`` of each matrix of an (n, r, c) stack, in order.

    Over GF(2) the stack is packed once, each matrix's packed rows are
    echelonized through a pivot table keyed by leading bit and then
    back-substituted, and all bases are unpacked at once; for p > 2, or
    r = 0, it calls ``row_space`` on each matrix."""
    n, r, c = np.shape(stack)
    if p != 2 or not r:
        return [row_space(mat, p) for mat in stack]
    packed = _pack_gf2(np.reshape(stack, (n * r, c)))
    ranks, rows = [], []
    for start in range(0, n * r, r):
        pivots: dict[int, int] = {}
        for x in packed[start:start + r]:
            while x:
                lead = x.bit_length() - 1
                if lead not in pivots:
                    pivots[lead] = x
                    break
                x ^= pivots[lead]
        order = sorted(pivots, reverse=True)
        for pos, lead in enumerate(order):
            for above in order[:pos]:
                if pivots[above] >> lead & 1:
                    pivots[above] ^= pivots[lead]
        ranks.append(len(order))
        rows.extend(pivots[lead] for lead in order)
    bases = _unpack_gf2(rows, c)
    ends = np.cumsum(ranks).tolist()
    # copies, so that a kept basis does not hold the whole stack's array
    return [bases[end - k:end].copy() for k, end in zip(ranks, ends)]


def left_nullspace(mat, p: int) -> np.ndarray:
    """Canonical basis of {x : x @ mat = 0}; shape (m - rank, m)."""
    m, n = mat.shape
    if m == 0:
        return zeros(0, 0)
    if n == 0:
        return eye(m)
    r, piv = rref(mat.T, p)
    pivset = set(piv)
    free = [c for c in range(m) if c not in pivset]
    basis = zeros(len(free), m)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = (-r[: len(piv), free].T) % p
    return row_space(basis, p)


def right_kernel_cols(mat, p: int) -> np.ndarray:
    """Columns spanning {q : mat @ q = 0}; shape (n, n - rank)."""
    return left_nullspace(mat.T, p).T.copy()


def solve_left_many(basis, rhs, p: int):
    """Solve X @ basis = rhs row-wise.

    basis is (k x n), rhs is (t x n).  Returns the (t x k) coefficient
    matrix with free variables set to zero, or None if any row of rhs
    lies outside the row space of basis.
    """
    k, n = basis.shape
    t = rhs.shape[0]
    if t == 0:
        return zeros(0, k)
    if k == 0:
        return None if np.any(rhs) else zeros(t, 0)
    aug = np.concatenate([basis.T, rhs.T], axis=1)
    red, piv = rref(aug, p, n_pivot_cols=k)
    # Rows with zero coefficient part but nonzero right-hand side part
    # witness inconsistency.
    lead = len(piv)
    if np.any(red[lead:, k:]):
        return None
    x = zeros(t, k)
    for j, pc in enumerate(piv):
        x[:, pc] = red[j, k:]
    return x


def in_row_space(rows, basis, p: int) -> bool:
    return solve_left_many(basis, rows, p) is not None


def sum_rows(a, b, p: int) -> np.ndarray:
    """Canonical basis of rowspace(a) + rowspace(b)."""
    return row_space(np.concatenate([a, b], axis=0), p)


def intersect_rows(a, b, p: int) -> np.ndarray:
    """Canonical basis of rowspace(a) ∩ rowspace(b)."""
    ka = a.shape[0]
    if ka == 0 or b.shape[0] == 0:
        return zeros(0, a.shape[1])
    stacked = np.concatenate([a, b], axis=0)
    w = left_nullspace(stacked, p)
    if w.shape[0] == 0:
        return zeros(0, a.shape[1])
    return row_space(matmul_mod(w[:, :ka], a, p), p)


def inv_mod(mat, p: int):
    """Inverse of a square matrix, or None when singular."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("inverse of a non-square matrix")
    if n == 0:
        return mat.copy()
    aug = np.concatenate([mat, eye(n)], axis=1)
    red, piv = rref(aug, p, n_pivot_cols=n)
    if len(piv) < n:
        return None
    return red[:, n:].copy()


def is_invertible(mat, p: int) -> bool:
    a = np.asarray(mat)
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def decode_codes(codes, width: int, p: int) -> np.ndarray:
    """Mixed-radix decode of integer codes into digit rows.

    Digit 0 is the most significant, so ascending codes enumerate the
    digit vectors in lexicographic order.
    """
    c = np.asarray(codes, dtype=np.int64).copy()
    out = np.empty((c.shape[0], width), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = c % p
        c //= p
    return out


def coeff_blocks(total: int, width: int, p: int, block: int = 4096):
    """Yield the digit rows of codes 0..total-1 in order, block rows at a time."""
    for start in range(0, total, block):
        yield decode_codes(np.arange(start, min(start + block, total), dtype=np.int64),
                           width, p)
