"""
Finite right modules over a FiniteAlgebra.

A module of GF(p)-dimension m is one m x m action matrix per ring basis
element, acting on row vectors: v * b_j = v @ rho(b_j).  Submodules are
canonical reduced-echelon row spaces, so equality of submodules is
equality of basis arrays.  Homomorphisms f carry the row convention
f(v) = v @ f.matrix and commute with the action.

Every per-module result is memoized on the module object, and a parent
holds one abstract module per distinct submodule action: submodules whose
actions agree in their own bases share one RightModule
(``Submodule.as_module``), so each scan runs once for all of them.

The submodule lattice is an index (``SubmoduleLattice``).  Every
submodule is the sum of the cyclic submodules it contains, so each
member X carries S(X), the set of the parent's nonzero cyclic submodules
inside X, as a Python-int bitset, and lattice questions are integer
operations with no elimination:

* X <= Y iff S(X) is a subset of S(Y);
* X ∩ Y = 0 iff S(X) & S(Y) == 0;
* X is semisimple iff S(X) is a subset of S(soc M).
"""

from __future__ import annotations

import weakref

import numpy as np

from . import linalg
from .algebra import FiniteAlgebra, jacobson_radical
from .guards import DEFAULT_GUARDS, check_guard, memo


class RightModule:
    """Right module over a FiniteAlgebra, given by action matrices."""

    def __init__(self, ring: FiniteAlgebra, action, name: str = "M", validate: bool = True):
        self.ring = ring
        self.p = ring.p
        act = linalg.as_gf(action, self.p)
        if act.ndim != 3 or act.shape[0] != ring.dim or act.shape[1] != act.shape[2]:
            raise ValueError("action must have shape (ring.dim, m, m)")
        self.action = act
        self.dim = act.shape[1]
        self.name = name
        if validate:
            self._validate()
        self.action.setflags(write=False)
        self._cache: dict = {}

    def _validate(self):
        p = self.p
        ident = linalg.eye(self.dim)
        rho_one = linalg.combine(self.ring.one, self.action, p)
        if not np.array_equal(rho_one, ident):
            raise ValueError("rho(1) is not the identity matrix")
        d, m = self.ring.dim, self.dim
        # prod[i,j] = rho(b_i) @ rho(b_j); expect[i,j] = sum_k sc[i,j,k] rho(b_k)
        prod = linalg.matmul_mod(self.action[:, None], self.action[None], p)
        expect = linalg.matmul_mod(self.ring.sc.reshape(d * d, d),
                                   self.action.reshape(d, m * m), p).reshape(d, d, m, m)
        if not np.array_equal(prod, expect):
            i, j = np.argwhere(np.any(prod != expect, axis=(2, 3)))[0]
            raise ValueError(
                f"action not multiplicative at ring basis pair (i,j)=({i},{j})")

    def rho(self, ring_coords) -> np.ndarray:
        """Action matrix of an arbitrary ring element."""
        return linalg.combine(linalg.as_gf(ring_coords, self.p), self.action, self.p)

    def act_rows(self, rows) -> np.ndarray:
        """All basis actions applied to each row: shape (k*ring.dim, m)."""
        out = linalg.matmul_mod(linalg.as_gf(rows, self.p), self.action, self.p)
        return out.transpose(1, 0, 2).reshape(out.shape[0] * out.shape[1], self.dim)

    def zero_submodule(self) -> "Submodule":
        return Submodule(self, linalg.zeros(0, self.dim))

    def full_submodule(self) -> "Submodule":
        return Submodule(self, linalg.eye(self.dim))

    def __repr__(self):
        return f"RightModule({self.name} over {self.ring.name}, dim={self.dim})"


def regular_module(ring: FiniteAlgebra) -> RightModule:
    """The regular module: the ring acting on itself by right multiplication."""
    # R_R's module axioms, rho(b_i) rho(b_j) = sum_k c_ijk rho(b_k) and
    # rho(1) = I, are associativity and the identity law on the same
    # structure constants, which FiniteAlgebra has already checked
    return memo(ring._cache, "regular_module",
                lambda: RightModule(ring, ring.right_regular_stack(),
                                    name=f"{ring.name}_reg", validate=False))


def direct_sum(*parts: RightModule, name: str | None = None):
    """Block-diagonal direct sum with canonical injections and projections.

    Returns (module, injections, projections).
    """
    if not parts:
        raise ValueError("direct sum of no parts")
    ring = parts[0].ring
    for m in parts:
        if m.ring is not ring:
            raise ValueError("direct sum parts must share the ring")
    dims = [m.dim for m in parts]
    total = sum(dims)
    action = np.zeros((ring.dim, total, total), dtype=np.int64)
    offset = 0
    for m in parts:
        action[:, offset: offset + m.dim, offset: offset + m.dim] = m.action
        offset += m.dim
    name = name or "(" + "+".join(m.name for m in parts) + ")"
    out = RightModule(ring, action, name=name)
    injections, projections = [], []
    offset = 0
    for m in parts:
        inj = linalg.zeros(m.dim, total)
        inj[:, offset: offset + m.dim] = linalg.eye(m.dim)
        proj = linalg.zeros(total, m.dim)
        proj[offset: offset + m.dim, :] = linalg.eye(m.dim)
        injections.append(ModuleHom(m, out, inj))
        projections.append(ModuleHom(out, m, proj))
        offset += m.dim
    return out, injections, projections


class Submodule:
    """Action-closed subspace in canonical reduced echelon form."""

    def __init__(self, parent: RightModule, basis, check: bool = True):
        self.parent = parent
        b = linalg.as_gf(basis, parent.p)
        b = linalg.row_space(b, parent.p) if b.size else linalg.zeros(0, parent.dim)
        if b.shape[1] != parent.dim:
            raise ValueError("basis width does not match module dimension")
        self.basis = b
        if check and b.shape[0]:
            acted = parent.act_rows(b)
            if not linalg.in_row_space(acted, b, parent.p):
                raise ValueError("span is not closed under the ring action")
        self.basis.setflags(write=False)
        self._cache: dict = {}

    @classmethod
    def _canonical(cls, parent: RightModule, basis: np.ndarray) -> "Submodule":
        """The Submodule with this basis, unchecked: an int64 RREF of parent.dim columns,
        no zero rows (``row_space``, ``left_nullspace``), spanning a submodule; callers say why."""
        sub = cls.__new__(cls)
        sub.parent, sub.basis, sub._cache = parent, basis, {}
        basis.setflags(write=False)
        return sub

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def key(self) -> bytes:
        return self.basis.tobytes()

    def __eq__(self, other):
        return (isinstance(other, Submodule)
                and other.parent is self.parent
                and np.array_equal(other.basis, self.basis))

    def __hash__(self):
        return hash((id(self.parent), self.key()))

    def contains(self, other: "Submodule") -> bool:
        if other.dim == 0:
            return True
        return linalg.in_row_space(other.basis, self.basis, self.parent.p)

    def contains_rows(self, rows) -> bool:
        return linalg.in_row_space(rows, self.basis, self.parent.p)

    def membership_cols(self) -> np.ndarray:
        """Matrix Q with v in this submodule iff v @ Q = 0."""
        return memo(self._cache, "memb",
                    lambda: linalg.eye(self.parent.dim) if self.dim == 0
                    else linalg.right_kernel_cols(self.basis, self.parent.p))

    def as_module(self) -> RightModule:
        """The submodule as an abstract module in its own basis.

        The parent interns these modules by action: every submodule of
        one parent whose action in its own basis is equal gets the same
        RightModule, and with it that module's caches (decompositions,
        lattice, verdicts, hom spaces, presentation, fingerprint).  The
        shared module is the one each would build, since its ring and
        action are equal and its name depends only on the parent and
        the dimension; the coordinates relative to the parent
        (``basis``, ``to_parent``) stay on each Submodule.  So a caller
        must not rename the returned module: it would rename it for every
        equal submodule.
        """
        return memo(self._cache, "abstract", self._abstract_module)

    def _abstract_module(self) -> RightModule:
        parent, p = self.parent, self.parent.p
        if self.dim == parent.dim:
            return parent
        # one solve gives the action of every ring basis element at once
        acted = linalg.matmul_mod(self.basis, parent.action, p)
        coeff = linalg.solve_left_many(self.basis, acted.reshape(-1, parent.dim), p)
        if coeff is None:
            raise ValueError("span is not closed under the ring action")
        action = coeff.reshape(parent.ring.dim, self.dim, self.dim)
        return memo(parent._cache, ("abstract", action.tobytes()),
                    lambda: RightModule(parent.ring, action,
                                        name=f"{parent.name}|sub{self.dim}", validate=False))

    def to_parent(self, abstract_rows) -> np.ndarray:
        rows = linalg.as_gf(abstract_rows, self.parent.p)
        if self.dim == self.parent.dim:
            return rows
        return linalg.matmul_mod(rows, self.basis, self.parent.p)

    def from_parent(self, parent_rows):
        rows = linalg.as_gf(parent_rows, self.parent.p)
        if self.dim == self.parent.dim:
            return rows
        return linalg.solve_left_many(self.basis, rows, self.parent.p)

    def __repr__(self):
        return f"Submodule(dim={self.dim} of {self.parent.name})"


class ModuleHom:
    """Action-commuting linear map, row convention f(v) = v @ matrix."""

    def __init__(self, source: RightModule, target: RightModule, matrix, check: bool = True):
        if source.ring is not target.ring:
            raise ValueError("hom between modules over different rings")
        self.source = source
        self.target = target
        self.p = source.p
        mat = linalg.as_gf(matrix, self.p)
        if mat.shape != (source.dim, target.dim):
            raise ValueError("hom matrix has wrong shape")
        self.matrix = mat
        if check and mat.size:
            left = linalg.matmul_mod(source.action, mat, self.p)
            right = linalg.matmul_mod(mat, target.action, self.p)
            if not np.array_equal(left, right):
                j = int(np.argwhere(np.any(left != right, axis=(1, 2)))[0, 0])
                raise ValueError(f"map does not commute with ring basis element {j}")
        self.matrix.setflags(write=False)

    def then(self, other: "ModuleHom") -> "ModuleHom":
        """Composite: self first, then other."""
        if other.source is not self.target:
            raise ValueError("composition mismatch")
        return ModuleHom(self.source, other.target,
                         linalg.matmul_mod(self.matrix, other.matrix, self.p), check=False)

    def rank(self) -> int:
        return linalg.rank(self.matrix, self.p)

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def kernel(self) -> Submodule:
        return Submodule._canonical(self.source, linalg.left_nullspace(self.matrix, self.p))

    def image(self) -> Submodule:
        return Submodule._canonical(self.target, linalg.row_space(self.matrix, self.p))

    def inverse(self) -> "ModuleHom":
        inv = linalg.inv_mod(self.matrix, self.p)
        if inv is None:
            raise ValueError("hom is not invertible")
        return ModuleHom(self.target, self.source, inv, check=False)

    def __repr__(self):
        return f"ModuleHom({self.source.name} -> {self.target.name})"


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

def hom_space_matrices(m: RightModule, n: RightModule) -> np.ndarray:
    """Canonical basis of Hom(M, N) as a (h, dim M, dim N) array.

    A hom F is fixed by the images y_i = g_i @ F of generators g_1..g_k
    of M, and a tuple y in N^k extends to a hom exactly when it respects
    the relations of the presentation phi: R^k -> M (``_presentation``):
    sum_{i,j} r_ij y_i rho_N(b_j) = 0 for every r in ker phi.  That system
    has k * dim N unknowns.  Each solution y gives F from the section of
    phi, and the basis is the RREF of the flattened maps.  The memo on m
    holds N weakly, so a long-lived M (a progenerator) does not keep
    alive every module it maps into.
    """
    homs = memo(m._cache, "homspace", weakref.WeakKeyDictionary)
    return memo(homs, n, lambda: _hom_from_presentation(m, n))


def _presentation(m: RightModule):
    """(gens, relations, rows, section) for a presentation phi: R^k -> M.

    Row (i, j) of Phi is g_i rho_M(b_j) for the generators g_i = e_gens[i],
    so phi(r) = r @ Phi.  One elimination of [spin^T | I], where spin
    stacks e_i rho_M(b_j) for every i, gives [E spin^T | E]; its pivots are
    the rows independent of all earlier ones.  gens (a greedy spin-up) are
    the i whose block holds a pivot, rows are the pivots within Phi, and
    section = E^T inverts Phi[rows].  Each other row t of Phi equals
    Phi[t] @ section @ Phi[rows]: one relation per row, a basis of ker phi.
    """
    p, a, d = m.p, m.dim, m.ring.dim
    spin = m.action.transpose(1, 0, 2).reshape(a * d, a)
    red, piv = linalg.rref(np.concatenate([spin.T, linalg.eye(a)], axis=1), p,
                           n_pivot_cols=a * d)
    gens = sorted({c // d for c in piv})
    phi = spin.reshape(a, d, a)[gens].reshape(-1, a)
    rows = [gens.index(c // d) * d + c % d for c in piv]
    section = red[:, a * d:].T.copy()
    others = np.ones(phi.shape[0], dtype=bool)
    others[rows] = False
    relations = linalg.eye(phi.shape[0])[others]
    relations[:, rows] = -linalg.matmul_mod(phi[others], section, p) % p
    return gens, relations, rows, section


def _hom_from_presentation(m: RightModule, n: RightModule) -> np.ndarray:
    if m.ring is not n.ring:
        raise ValueError("hom between modules over different rings")
    p, d = m.p, m.ring.dim
    a, b = m.dim, n.dim
    if a == 0 or b == 0:
        mats = np.zeros((0, a, b), dtype=np.int64)
    else:
        gens, relations, rows, section = memo(m._cache, "presentation",
                                              lambda: _presentation(m))
        k, r = len(gens), relations.shape[0]
        if r:
            # entry (i, s; rel, c) is the coefficient of y_i[s] in entry c
            # of relation rel: sum_j rel_ij rho_N(b_j)[s, c]
            coef = linalg.matmul_mod(relations.reshape(r * k, d),
                                     n.action.reshape(d, b * b), p)
            ys = linalg.left_nullspace(
                coef.reshape(r, k, b, b).transpose(1, 2, 0, 3).reshape(k * b, r * b), p)
        else:
            ys = linalg.eye(k * b)
        h = ys.shape[0]
        # images[j, t, i] = y_i rho_N(b_j) for solution t; F = section @ images[rows]
        images = linalg.matmul_mod(ys.reshape(h * k, b), n.action, p).reshape(d, h, k, b)
        gen_of, elt_of = np.divmod(rows, d)
        picked = images[elt_of, :, gen_of].transpose(1, 0, 2)
        maps = linalg.matmul_mod(section, picked, p)
        mats = linalg.row_space(maps.reshape(h, a * b), p).reshape(-1, a, b)
    mats.setflags(write=False)
    return mats


def hom_basis(m: RightModule, n: RightModule) -> list[ModuleHom]:
    """Basis of Hom(M, N) in deterministic echelon order."""
    return [ModuleHom(m, n, mat, check=False) for mat in hom_space_matrices(m, n)]


def hom_dim(m: RightModule, n: RightModule) -> int:
    return hom_space_matrices(m, n).shape[0]


def hom_vanishes(m: RightModule, n: RightModule) -> bool:
    return hom_dim(m, n) == 0


# ---------------------------------------------------------------------------
# submodules, lattice, socle
# ---------------------------------------------------------------------------

def submodule_span(m: RightModule, generators) -> Submodule:
    """Smallest action-closed subspace containing the generators."""
    gens = linalg.as_gf(generators, m.p).reshape(-1, m.dim)
    current = linalg.row_space(gens, m.p)
    # each return is a canonical span (row_space, sum_rows) that the action keeps
    while True:
        if current.shape[0] == 0:
            return Submodule._canonical(m, current)
        acted = m.act_rows(current)
        bigger = linalg.sum_rows(current, acted, m.p)
        if bigger.shape[0] == current.shape[0]:
            return Submodule._canonical(m, bigger)
        current = bigger


def cyclic_submodule_basis(m: RightModule, vector) -> np.ndarray:
    """Canonical basis of v*R (one action step suffices: rho is multiplicative
    and the identity lies in the span of the ring basis)."""
    v = linalg.as_gf(vector, m.p).reshape(m.dim)
    return linalg.row_space(linalg.matmul_mod(v, m.action, m.p), m.p)


class SubmoduleLattice:
    """Every submodule of a parent, indexed by cyclic-submodule bitsets.

    ``bits[i]`` is S(members[i]) as a Python int: bit c is set when the
    c-th nonzero cyclic submodule of the parent lies in members[i].  Every
    submodule is the sum of the cyclic submodules it contains, so X -> S(X)
    is an order embedding, and three facts are integer operations on it:

    * X <= Y iff S(X) is a subset of S(Y);
    * X ∩ Y = 0 iff S(X) & S(Y) == 0, as a nonzero intersection holds a
      nonzero cyclic submodule;
    * X is semisimple iff S(X) is a subset of S(soc M), as soc M is the
      largest semisimple submodule.

    Since soc A = A ∩ soc M, N <=e A iff S(N) is a subset of S(A) and
    S(A) & S(soc M) is a subset of S(N) (``essential``).
    """

    def __init__(self, parent: RightModule, members: list[Submodule], bits: list[int]):
        self.parent = parent
        self.members = tuple(members)
        self.bits = tuple(bits)
        self.index = {x.key(): i for i, x in enumerate(self.members)}
        self._cache: dict = {}

    def __len__(self):
        return len(self.members)

    def bits_of(self, basis: np.ndarray) -> int:
        """S(X) for the submodule X with this canonical (RREF) basis."""
        return self.bits[self.index[basis.tobytes()]]

    def socle_bits(self) -> int:
        return memo(self._cache, "socle", lambda: self.bits_of(socle(self.parent).basis))

    def essential(self, n: int, a: int) -> bool:
        """N <=e A for the members N and A with bits n and a."""
        return not n & ~a and not a & self.socle_bits() & ~n

    def contains_matrix(self) -> np.ndarray:
        """Boolean matrix C with C[i, j] true iff members[i] <= members[j]."""
        return memo(self._cache, "contains", lambda: np.array(
            [[not a & ~b for b in self.bits] for a in self.bits], dtype=bool))

    def minimal_members(self) -> list[Submodule]:
        """Nonzero members containing no smaller nonzero member: the ones
        holding a single nonzero cyclic submodule, themselves."""
        return [x for x, b in zip(self.members, self.bits) if b.bit_count() == 1]


def all_submodules(m: RightModule,
                   max_vectors: int = DEFAULT_GUARDS.max_lattice_vectors) -> SubmoduleLattice:
    """Every submodule: cyclic submodules closed under pairwise sums."""
    total = m.p ** m.dim
    return memo(m._cache, "lattice", lambda: _lattice(m, total),
                guard=(f"submodule lattice of {m.name}", total, max_vectors))


def _lattice(m: RightModule, total: int) -> SubmoduleLattice:
    p = m.p
    cyclics: dict[bytes, np.ndarray] = {}
    # 2048 codes a block bound each transient (block, dim R, dim M) acted stack
    for block in linalg.coeff_blocks(total, m.dim, p, block=2048):
        acted = m.act_rows(block).reshape(block.shape[0], m.ring.dim, m.dim)
        for basis in linalg.row_spaces(acted, p):
            cyclics.setdefault(basis.tobytes(), basis)
    zero = linalg.zeros(0, m.dim)
    cyclics.pop(zero.tobytes(), None)
    cyc = list(cyclics.values())
    rows = np.concatenate([zero, *cyc])
    starts = np.cumsum([0] + [b.shape[0] for b in cyc[:-1]])

    def bits_of(basis: np.ndarray) -> int:
        # cyclic c lies in X iff each row of its basis has a zero residual
        # against X's RREF basis, rows - rows[:, pivots] @ basis
        piv = (basis != 0).argmax(axis=1)
        out = np.any(rows != linalg.matmul_mod(rows[:, piv], basis, p), axis=1)
        inside = ~np.logical_or.reduceat(out, starts)
        return int.from_bytes(np.packbits(inside, bitorder="little").tobytes(), "little")

    bases = {zero.tobytes(): zero, **cyclics}
    bits = {key: bits_of(basis) if basis.shape[0] else 0 for key, basis in bases.items()}
    # close under sums with one cyclic at a time, breadth-first.  a + c is
    # the sum of the cyclics in S(a) | S(c), so a union already met, or one
    # equal to a member's bits, names a sum that is already a member
    known = set(bits.values())
    cyc_bits = [bits[key] for key in cyclics]
    frontier = list(cyclics)
    while frontier:
        fresh = []
        for key in frontier:
            a, sa = bases[key], bits[key]
            for basis, sc in zip(cyc, cyc_bits):
                union = sa | sc
                if union in known:
                    continue
                known.add(union)
                s = linalg.sum_rows(a, basis, p)
                ks = s.tobytes()
                if ks not in bases:
                    bases[ks] = s
                    bits[ks] = bits_of(s)
                    known.add(bits[ks])
                    fresh.append(ks)
        frontier = fresh
    order = sorted(bases, key=lambda key: (bases[key].shape[0], key))
    # members are zero, cyclic (row_spaces) or sums (sum_rows): canonical submodules
    return SubmoduleLattice(m, [Submodule._canonical(m, bases[key]) for key in order],
                            [bits[key] for key in order])


def radical_submodule(m: RightModule) -> Submodule:
    """rad(M) = M * J(ring)."""
    rad = jacobson_radical(m.ring).basis
    if rad.shape[0] == 0 or m.dim == 0:
        return m.zero_submodule()
    rows = np.concatenate([m.rho(j) for j in rad], axis=0)
    # a canonical span of M * J, a submodule
    return Submodule._canonical(m, linalg.row_space(rows, m.p))


def socle(m: RightModule) -> Submodule:
    """soc(M) = annihilator of J(ring) in M (artinian identity)."""
    return memo(m._cache, "socle", lambda: _socle(m))


def _socle(m: RightModule) -> Submodule:
    rad = jacobson_radical(m.ring).basis
    if rad.shape[0] == 0 or m.dim == 0:
        return m.full_submodule()
    stacked = np.concatenate([m.rho(j) for j in rad], axis=1)
    # a canonical basis of the annihilator of J, a submodule
    return Submodule._canonical(m, linalg.left_nullspace(stacked, m.p))


def radical_series_dims(m: RightModule) -> tuple[int, ...]:
    """Dims of M, M*J, M*J^2, ... down to zero."""
    dims = [m.dim]
    current = m
    while dims[-1] > 0:
        sub = radical_submodule(current)
        if sub.dim == dims[-1]:
            raise ValueError("radical series does not terminate (non-nilpotent radical)")
        dims.append(sub.dim)
        current = sub.as_module()
    return tuple(dims)


def socle_series_dims(m: RightModule) -> tuple[int, ...]:
    """Dims of soc(M) <= soc_2(M) <= ... up to M (annihilators of J^k)."""
    rad = jacobson_radical(m.ring).basis
    p = m.p
    dims = []
    power = rad
    while True:
        if power.shape[0] == 0 or m.dim == 0:
            dims.append(m.dim)
            break
        stacked = np.concatenate([m.rho(j) for j in power], axis=1)
        ann = linalg.left_nullspace(stacked, p)
        dims.append(ann.shape[0])
        if ann.shape[0] == m.dim:
            break
        prods = linalg.matmul_mod(rad, m.ring.left_mult_matrix(power), p)   # [u, v] = u*v
        power = linalg.row_space(prods.reshape(-1, m.ring.dim), p)
    return tuple(dims)


# ---------------------------------------------------------------------------
# essentiality, summands
# ---------------------------------------------------------------------------

def _check_sub(n: Submodule, m: RightModule):
    if n.parent is not m:
        raise ValueError("submodule does not belong to the given module")


def is_essential(n: Submodule, m: RightModule) -> bool:
    """N <=e M iff soc(M) <= N (valid for finite modules)."""
    _check_sub(n, m)
    return n.contains(socle(m))


def essential_oracle(n: Submodule, m: RightModule,
                     max_vectors: int = DEFAULT_GUARDS.max_lattice_vectors) -> bool:
    """Definitional test: every nonzero cyclic submodule meets N."""
    _check_sub(n, m)
    total = m.p ** m.dim
    check_guard(f"essentiality oracle on {m.name}", total, max_vectors)
    for block in linalg.coeff_blocks(total, m.dim, m.p):
        for v in block:
            if not np.any(v):
                continue
            cyc = cyclic_submodule_basis(m, v)
            joint = linalg.sum_rows(cyc, n.basis, m.p)
            if joint.shape[0] >= cyc.shape[0] + n.dim:
                return False  # intersection is zero
    return True


def essential_in(n: Submodule, a: Submodule) -> bool:
    """N <=e A for submodules N <= A of a shared parent."""
    if not a.contains(n):
        return False
    # soc(A) = A ∩ soc(M), which depends on A alone
    soc_a = memo(a._cache, "socle", lambda: linalg.intersect_rows(
        a.basis, socle(a.parent).basis, a.parent.p))
    return n.contains_rows(soc_a) if soc_a.shape[0] else True


def is_summand(n: Submodule, m: RightModule):
    """Search for a retraction h: M -> N restricting to the identity on N.

    Returns a complement Submodule when N is a direct summand, else None.
    """
    _check_sub(n, m)
    return memo(m._cache, ("summand", n.key()), lambda: _is_summand(n, m))


def _is_summand(n: Submodule, m: RightModule):
    p = m.p
    if n.dim == 0:
        return m.full_submodule()
    if n.dim == m.dim:
        return m.zero_submodule()
    n_mod = n.as_module()
    homs = hom_space_matrices(m, n_mod)
    if homs.shape[0] == 0:
        return None
    # h restricted to N equals the identity: (basis_N @ H) = I, linear in H.
    rows = linalg.matmul_mod(n.basis, homs, p).reshape(homs.shape[0], -1)
    target = linalg.eye(n.dim).reshape(1, -1)
    coeff = linalg.solve_left_many(rows, target, p)
    if coeff is None:
        return None
    h = linalg.combine(coeff[0], homs, p)
    # a canonical basis of the kernel of the module map h
    return Submodule._canonical(m, linalg.left_nullspace(h, p))


# ---------------------------------------------------------------------------
# structure predicates
# ---------------------------------------------------------------------------

def is_semisimple(m: RightModule) -> bool:
    return socle(m).dim == m.dim


def is_simple(m: RightModule, max_vectors: int = DEFAULT_GUARDS.max_lattice_vectors) -> bool:
    """Simple iff nonzero and every nonzero vector generates everything."""
    if m.dim == 0:
        return False
    total = m.p ** m.dim
    check_guard(f"simplicity scan of {m.name}", total, max_vectors)
    for block in linalg.coeff_blocks(total, m.dim, m.p):
        for v in block:
            if not np.any(v):
                continue
            if cyclic_submodule_basis(m, v).shape[0] != m.dim:
                return False
    return True


def quotient_module(m: RightModule, n: Submodule):
    """Quotient M/N with basis the non-pivot coordinates of N.

    Returns (quotient, projection hom).
    """
    _check_sub(n, m)
    nonpiv, project = linalg.quotient_projection(n.basis, m.p)
    k = len(nonpiv)
    # the lifts of the quotient basis are the unit rows at nonpiv
    action = project(m.action[:, nonpiv].reshape(-1, m.dim)).reshape(m.ring.dim, k, k)
    quot = RightModule(m.ring, action, name=f"{m.name}/sub{n.dim}", validate=False)
    proj = ModuleHom(m, quot, project(linalg.eye(m.dim)), check=False)
    return quot, proj


def _minimal_inside(m: RightModule, max_vectors: int) -> Submodule:
    """A minimal nonzero submodule, by descending through cyclic modules."""
    total = m.p ** m.dim
    check_guard(f"minimal submodule scan of {m.name}", total, max_vectors)
    current: np.ndarray | None = None
    for block in linalg.coeff_blocks(total, m.dim, m.p):
        for v in block:
            if np.any(v):
                current = cyclic_submodule_basis(m, v)
                break
        if current is not None:
            break
    assert current is not None, "nonzero module has a nonzero vector"
    while True:
        sub_total = m.p ** current.shape[0]
        descended = False
        for block in linalg.coeff_blocks(sub_total, current.shape[0], m.p):
            vs = linalg.matmul_mod(block, current, m.p)
            for v in vs:
                if not np.any(v):
                    continue
                cyc = cyclic_submodule_basis(m, v)
                if cyc.shape[0] < current.shape[0]:
                    current = cyc
                    descended = True
                    break
            if descended:
                break
        if not descended:
            # a cyclic submodule's canonical basis (cyclic_submodule_basis)
            return Submodule._canonical(m, current)


def _semisimple_length(m: RightModule, max_vectors: int) -> int:
    count = 0
    current = m
    while current.dim > 0:
        minimal = _minimal_inside(current, max_vectors)
        complement = is_summand(minimal, current)
        assert complement is not None, "semisimple layer must split"
        current = complement.as_module()
        count += 1
    return count


def composition_length(m: RightModule,
                       max_vectors: int = DEFAULT_GUARDS.max_lattice_vectors) -> int:
    """Length = sum of socle-layer lengths (Jordan-Hoelder count)."""
    # the minimal-submodule scans check max_vectors inside: key by it
    return memo(m._cache, ("length", max_vectors),
                lambda: _composition_length(m, max_vectors))


def _composition_length(m: RightModule, max_vectors: int) -> int:
    if m.dim == 0:
        return 0
    soc = socle(m)
    layer = _semisimple_length(soc.as_module(), max_vectors)
    if soc.dim == m.dim:
        return layer
    quot, _ = quotient_module(m, soc)
    return layer + composition_length(quot, max_vectors)


def fingerprint(m: RightModule) -> tuple:
    """Cheap isomorphism-invariant screen (no lattice needed)."""
    return memo(m._cache, "fingerprint", lambda: (
        m.dim,
        socle(m).dim,
        composition_length(m),
        hom_dim(m, m),
        radical_series_dims(m),
        socle_series_dims(m),
    ))


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def iso_test(m: RightModule, n: RightModule,
             max_end: int = DEFAULT_GUARDS.max_end_enumeration) -> bool:
    """Whether M and N are isomorphic, decided exactly by Krull-Schmidt.

    After the invariant screen both sides split into indecomposables
    through the End-idempotent scan (its guard raises GuardExceeded), and
    the two lists are matched greedily by the local test: for X
    indecomposable and dim X = dim Y, X ~ Y iff F_i G_j is invertible for
    some basis maps F_i of Hom(X, Y) and G_j of Hom(Y, X).
    Proof: End X is local, so its non-units form an ideal; an isomorphism
    F with inverse G gives 1 = FG as a sum of multiples of the F_i G_j, so
    one of them is a unit, and then F_i is injective between spaces of
    equal dimension.  The converse is immediate.
    """
    if m.ring is not n.ring:
        raise ValueError("iso test between modules over different rings")
    if m is n:
        return True
    if fingerprint(m) != fingerprint(n):
        return False
    unmatched = _indecomposables(n, max_end)
    for x in _indecomposables(m, max_end):
        match = next((i for i, y in enumerate(unmatched) if _local_iso(x, y)), None)
        if match is None:
            return False
        del unmatched[match]
    return not unmatched


def _indecomposables(m: RightModule, max_end: int) -> list[RightModule]:
    """The indecomposable summands of M, split at the first proper
    decomposition of each piece."""
    from .conditions import enumerate_decompositions  # cycle kept local
    if m.dim == 0:
        return []
    for dec in enumerate_decompositions(m, max_end):
        if 0 < dec.a.dim < m.dim:
            return (_indecomposables(dec.a.as_module(), max_end)
                    + _indecomposables(dec.b.as_module(), max_end))
    return [m]


def _local_iso(x: RightModule, y: RightModule) -> bool:
    """X ~ Y for X indecomposable: some basis product F_i G_j is a unit."""
    if x.dim != y.dim:
        return False
    prods = linalg.matmul_mod(hom_space_matrices(x, y)[:, None],
                              hom_space_matrices(y, x)[None], x.p)
    return any(linalg.rank(mat, x.p) == x.dim
               for mat in prods.reshape(-1, x.dim, x.dim))


def is_orthogonal(m: RightModule, n: RightModule,
                  max_vectors: int = DEFAULT_GUARDS.max_lattice_vectors) -> bool:
    """Hom(X, Y) = 0 for every pair of submodules X <= M, Y <= N."""
    lat_m = all_submodules(m, max_vectors)
    lat_n = all_submodules(n, max_vectors)
    for x in lat_m.members:
        for y in lat_n.members:
            if x.dim == 0 or y.dim == 0:
                continue
            if not hom_vanishes(x.as_module(), y.as_module()):
                return False
    return True


# ---------------------------------------------------------------------------
# square-freeness and the classical predicate block
# ---------------------------------------------------------------------------

def _has_isomorphic_halves(m: RightModule, max_end: int) -> bool:
    """True iff M = X + X' internally with X isomorphic to X', X nonzero."""
    from .conditions import enumerate_decompositions  # cycle kept local
    for dec in enumerate_decompositions(m, max_end):
        if dec.a.dim == 0 or dec.b.dim == 0:
            continue
        if dec.a.dim != dec.b.dim:
            continue
        if iso_test(dec.a.as_module(), dec.b.as_module(), max_end):
            return True
    return False


def is_summand_square_free(m: RightModule,
                           max_end: int = DEFAULT_GUARDS.max_end_enumeration) -> bool:
    """No nonzero direct summand of M has the form X + X with X ~ X."""
    from .conditions import summand_list
    for d in summand_list(m, max_end):
        if d.dim == 0:
            continue
        if _has_isomorphic_halves(d.as_module(), max_end):
            return False
    return True


def is_square_free(m: RightModule,
                   max_vectors: int = DEFAULT_GUARDS.max_lattice_vectors,
                   max_end: int = DEFAULT_GUARDS.max_end_enumeration) -> bool:
    """No nonzero submodule of M has the form X + X with X ~ X."""
    for sub in all_submodules(m, max_vectors).members:
        if sub.dim == 0:
            continue
        if _has_isomorphic_halves(sub.as_module(), max_end):
            return False
    return True


def is_closed(n: Submodule, m: RightModule,
              max_vectors: int = DEFAULT_GUARDS.max_lattice_vectors) -> bool:
    """No member strictly above N has N essential in it."""
    _check_sub(n, m)
    lat = all_submodules(m, max_vectors)
    s = lat.bits_of(n.basis)
    return not any(b != s and lat.essential(s, b) for b in lat.bits)


def classical_predicates(m: RightModule,
                         max_vectors: int = DEFAULT_GUARDS.max_lattice_vectors,
                         max_end: int = DEFAULT_GUARDS.max_end_enumeration) -> dict:
    """C2, C3, CS, weak CS, continuous and directly finite flags."""
    from .conditions import summand_list
    lat = all_submodules(m, max_vectors)
    summands = summand_list(m, max_end)
    summand_keys = {s.key() for s in summands}
    summand_bits = [lat.bits_of(s.basis) for s in summands]

    c2 = True
    for n in lat.members:
        if n.key() in summand_keys:
            continue
        for d in summands:
            if n.dim != d.dim:
                continue
            if iso_test(n.as_module(), d.as_module(), max_end):
                c2 = False
                break
        if not c2:
            break

    c3 = True
    for a in summand_bits:
        for b in summand_bits:
            if a & b:
                continue
            # A + B is the smallest member holding both, the first in (dim, key) order
            total = next(x for x, s in zip(lat.members, lat.bits) if not (a | b) & ~s)
            if total.key() not in summand_keys and is_summand(total, m) is None:
                c3 = False
                break
        if not c3:
            break

    def essentially_in_summand(n: int) -> bool:
        return any(lat.essential(n, d) for d in summand_bits)

    soc = lat.socle_bits()
    cs = all(essentially_in_summand(n) for n in lat.bits)
    weak_cs = all(essentially_in_summand(n) for n in lat.bits if not n & ~soc)

    # Finite-dimensional modules are directly finite: an isomorphism
    # M ~ M + N forces dim N = 0.
    directly_finite = True

    return {
        "C2": c2,
        "C3": c3,
        "CS": cs,
        "weak_CS": weak_cs,
        "continuous": cs and c2,
        "directly_finite": directly_finite,
    }
