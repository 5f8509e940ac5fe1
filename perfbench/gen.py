"""Seeded input generation for the benchmark workloads.

Self-contained on purpose: rings are written out as raw structure
constants and modules as explicit action matrices, all computed here
with a small GF(p) eliminator.  Nothing from c4lab runs while inputs are
made, so the same seed gives byte-identical inputs on every commit of
the program, and the program only ever sees the finished JSON.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# GF(p) helpers (tiny matrices only)
# ---------------------------------------------------------------------------


def rref(mat, p):
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(mat, p):
    return len(rref(mat, p)[1]) if np.size(mat) else 0


def inverse(mat, p):
    n = mat.shape[0]
    red, piv = rref(np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1), p)
    if piv[:n] != list(range(n)):
        return None
    return red[:, n:]


def random_invertible(rng, n, p):
    while True:
        q = rng.integers(0, p, size=(n, n))
        inv = inverse(q, p)
        if inv is not None:
            return q, inv


# ---------------------------------------------------------------------------
# rings as structure constants: sc[i, j] = coordinates of b_i * b_j
# ---------------------------------------------------------------------------


class Ring:
    def __init__(self, key, p, sc, one, labels):
        self.key = key
        self.p = p
        self.sc = np.asarray(sc, dtype=np.int64) % p
        self.one = np.asarray(one, dtype=np.int64) % p
        self.dim = self.sc.shape[0]
        self.labels = list(labels)

    def right_action(self):
        """Right regular module: action[j][i, k] = sc[i, j, k]."""
        return np.transpose(self.sc, (1, 0, 2)).copy()

    def spec(self):
        """Raw inline ring description; zero products are omitted."""
        mul = [[i, j, [int(v) for v in self.sc[i, j]]]
               for i in range(self.dim) for j in range(self.dim)
               if self.sc[i, j].any()]
        return {"p": self.p, "dim": self.dim, "labels": self.labels,
                "one": [int(v) for v in self.one], "mul": mul,
                "name": self.key}


def field(p):
    return Ring(f"F{p}", p, np.ones((1, 1, 1)), [1], ["1"])


def truncated_poly(p, n):
    """GF(p)[x]/(x^n)."""
    sc = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n - i):
            sc[i, j, i + j] = 1
    labels = ["1"] + [f"x^{k}" for k in range(1, n)]
    return Ring(f"F{p}[x]/(x^{n})", p, sc, np.eye(n, dtype=np.int64)[0], labels)


def upper_triangular(p, n):
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    index = {c: t for t, c in enumerate(cells)}
    d = len(cells)
    sc = np.zeros((d, d, d), dtype=np.int64)
    for (i, j), s in index.items():
        for (k, l), t in index.items():
            if j == k:
                sc[s, t, index[(i, l)]] = 1
    one = np.zeros(d, dtype=np.int64)
    for i in range(n):
        one[index[(i, i)]] = 1
    return Ring(f"T{n}(F{p})", p, sc, one, [f"E{i}{j}" for i, j in cells])


def product(a, b):
    d = a.dim + b.dim
    sc = np.zeros((d, d, d), dtype=np.int64)
    sc[:a.dim, :a.dim, :a.dim] = a.sc
    sc[a.dim:, a.dim:, a.dim:] = b.sc
    labels = [f"({s},0)" for s in a.labels] + [f"(0,{s})" for s in b.labels]
    return Ring(f"{a.key}x{b.key}", a.p, sc, np.concatenate([a.one, b.one]), labels)


def matrix2(base):
    """M_2(base) with basis E_ij (x) b_k."""
    d = base.dim
    dim = 4 * d

    def idx(i, j, k):
        return (2 * i + j) * d + k

    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            for l in range(2):
                for s in range(d):
                    for t in range(d):
                        sc[idx(i, j, s), idx(j, l, t), i * 2 * d + l * d:
                           i * 2 * d + l * d + d] = base.sc[s, t]
    one = np.zeros(dim, dtype=np.int64)
    for i in range(2):
        one[idx(i, i, 0):idx(i, i, 0) + d] = base.one
    labels = [f"E{i}{j}*{s}" for i in range(2) for j in range(2) for s in base.labels]
    return Ring(f"M2({base.key})", base.p, sc, one, labels)


def local_square_zero(p, g):
    """F<x_1..x_g>/(all products of the x_i)."""
    d = g + 1
    sc = np.zeros((d, d, d), dtype=np.int64)
    sc[0, :, :] = np.eye(d, dtype=np.int64)
    sc[:, 0, :] = np.eye(d, dtype=np.int64)
    return Ring(f"L{g}(F{p})", p, sc, np.eye(d, dtype=np.int64)[0],
                ["1"] + [f"x{i + 1}" for i in range(g)])


def change_basis(ring, rng):
    """The same algebra in a random basis f_a = sum_i C[a, i] b_i."""
    p = ring.p
    c, c_inv = random_invertible(rng, ring.dim, p)
    prods = np.einsum("ai,bj,ijk->abk", c, c, ring.sc) % p
    sc = prods @ c_inv % p
    one = ring.one @ c_inv % p
    return Ring(ring.key, p, sc, one, [f"f{a}" for a in range(ring.dim)])


def analyze_rings():
    """The rings the analyze and transport workloads draw from."""
    f2 = field(2)
    rings = [
        f2, field(3), truncated_poly(2, 2), truncated_poly(2, 3),
        truncated_poly(3, 2), upper_triangular(2, 2), upper_triangular(2, 3),
        product(f2, f2), matrix2(f2), local_square_zero(2, 2),
    ]
    return {r.key: r for r in rings}


def ring_scan_bases():
    """Bases R of the ring-scan rings M_2(R): dim M_2(R) is 12 to 24."""
    f2 = field(2)
    rings = [
        truncated_poly(2, 3), upper_triangular(2, 2), local_square_zero(2, 2),
        product(f2, truncated_poly(2, 2)),
        truncated_poly(2, 4), local_square_zero(2, 3),
        product(f2, upper_triangular(2, 2)), matrix2(f2),
        truncated_poly(2, 5), local_square_zero(2, 4),
        product(f2, local_square_zero(2, 3)),
        truncated_poly(2, 6), upper_triangular(2, 3),
    ]
    return {r.key: r for r in rings}


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def cyclic_quotient(ring, rng):
    """R_R / I for the right ideal I generated by a random element.

    Returns the action matrices of the quotient in the coordinates of
    the non-pivot columns of I, or None when the quotient is zero.
    """
    p = ring.p
    act = ring.right_action()
    v = rng.integers(0, p, size=ring.dim)
    ideal, piv = rref(np.stack([v @ a % p for a in act]), p)
    keep = [c for c in range(ring.dim) if c not in piv]
    if not keep:
        return None
    lifts = np.eye(ring.dim, dtype=np.int64)[keep]

    def project(rows):
        rows = rows.copy()
        for r, c in enumerate(piv):
            rows = (rows - np.outer(rows[:, c], ideal[r])) % p
        return rows[:, keep]

    return np.stack([project(lifts @ a % p) for a in act])


def direct_sum(parts):
    d = sum(a.shape[1] for a in parts)
    out = np.zeros((parts[0].shape[0], d, d), dtype=np.int64)
    off = 0
    for a in parts:
        k = a.shape[1]
        out[:, off:off + k, off:off + k] = a
        off += k
    return out


def conjugate(action, rng, p):
    """Action in the basis w = v @ Q: rho'(b) = Q^-1 rho(b) Q."""
    q, q_inv = random_invertible(rng, action.shape[1], p)
    return np.einsum("ab,jbc,cd->jad", q_inv, action, q) % p


def end_dim(action, p):
    """dim End(M) from the commutation equations rho(b) F = F rho(b)."""
    d = action.shape[1]
    eye = np.eye(d, dtype=np.int64)
    blocks = [(np.einsum("rs,xc->sxrc", a, eye) - np.einsum("sr,xc->sxrc", eye, a))
              .reshape(d * d, d * d) for a in action]
    return d * d - rank(np.concatenate(blocks, axis=1) % p, p)


def module_spec(ring, action, name):
    return {"ring": ring.spec(), "dim": int(action.shape[1]),
            "action": [[[int(v) for v in row] for row in a] for a in action],
            "name": name}
