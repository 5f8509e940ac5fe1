"""
Concrete progenerator functors Hom(P, -) and the transport checks.

P is either a free power R^n or eR for a full idempotent e.  The
endomorphism ring S = End(P) is materialized as a FiniteAlgebra whose
multiplication order is fixed so that precomposition is a right
S-action under the row-vector convention; the certified isomorphisms
onto the matrix algebra (for R^n) and the corner algebra (for eR) are
the regression tests for that choice.

Transported modules carry the hom-matrix basis, so submodules, homs and
witnesses can be pushed through the functor and re-evaluated natively
on the image side.  Verdict agreement is checked, not assumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    CornerAlgebra,
    FiniteAlgebra,
    IdealBasis,
    corner_algebra,
    idempotent_span_dim,
    matrix_algebra,
)
from .conditions import (
    CONDITION_NAMES,
    Decomposition,
    WitnessRecord,
    condition_label,
    def_c4,
    def_c4star,
    evaluate_condition,
    evaluate_witness,
    obs_swcs,
    obstruction_index,
    serialize_value,
    DEFAULT_RULE_ID,
)
from .guards import Guards, DEFAULT_GUARDS, TheoremViolation, memo
from .modules import (
    ModuleHom,
    RightModule,
    Submodule,
    all_submodules,
    hom_space_matrices,
    is_essential,
    is_semisimple,
    is_summand,
    regular_module,
    radical_submodule,
)


# ---------------------------------------------------------------------------
# progenerators
# ---------------------------------------------------------------------------

@dataclass
class Progenerator:
    """A certified finitely generated projective generator."""

    ring: FiniteAlgebra
    module: RightModule          # P in its own coordinates
    kind: str                    # "free-power" or "corner"
    detail: dict
    certificates: dict

    def name(self) -> str:
        if self.kind == "free-power":
            return f"{self.ring.name}^{self.detail['n']}"
        return f"e*{self.ring.name}"


def _generator_certificate(ring: FiniteAlgebra, p_mod: RightModule) -> bool:
    """Trace check: images of Hom(P, R_R) must span the regular module."""
    reg = regular_module(ring)
    homs = hom_space_matrices(p_mod, reg)
    if homs.shape[0] == 0:
        return p_mod.dim == 0 and ring.dim == 0
    stacked = homs.reshape(-1, ring.dim)
    return linalg.rank(stacked, ring.p) == ring.dim


def free_progenerator(ring: FiniteAlgebra, n: int) -> Progenerator:
    """P = R^n with the identity split embedding as projectivity proof."""
    if n < 1:
        raise ValueError("free power must have rank >= 1")
    reg = regular_module(ring)
    d = ring.dim
    action = np.zeros((d, n * d, n * d), dtype=np.int64)
    for block in range(n):
        action[:, block * d:(block + 1) * d, block * d:(block + 1) * d] = reg.action
    p_mod = RightModule(ring, action, name=f"{ring.name}^{n}")
    certs = {
        "generator": _generator_certificate(ring, p_mod),
        "projective_split": ("identity", n),
    }
    if not certs["generator"]:
        raise ValueError("free power failed the generator certificate")
    return Progenerator(ring, p_mod, "free-power", {"n": n}, certs)


def corner_progenerator(ring: FiniteAlgebra, e_coords) -> Progenerator:
    """P = eR for a full idempotent e, with retraction v -> e*v."""
    e = ring.element(e_coords)
    if not e.is_idempotent():
        raise ValueError("corner progenerator requires an idempotent")
    span_dim = idempotent_span_dim(ring, e)
    if span_dim < ring.dim:
        raise ValueError(
            f"idempotent is not full: span AeA has dimension {span_dim} "
            f"< {ring.dim}")
    reg = regular_module(ring)
    rows = ring.left_mult_matrix(e.coords)       # rows e * b_j
    sub = Submodule(reg, rows)
    p_mod = sub.as_module()
    # split embedding P -> R_R with retraction v -> e*v
    incl = sub.basis
    retr = linalg.solve_left_many(sub.basis, ring.left_mult_matrix(e.coords), ring.p)
    if retr is None or not np.array_equal(linalg.matmul_mod(incl, retr, ring.p),
                                          linalg.eye(sub.dim)):
        raise ValueError("corner retraction failed; e is not idempotent?")
    certs = {
        "generator": _generator_certificate(ring, p_mod),
        "projective_split": ("left-multiplication-retraction", 1),
    }
    if not certs["generator"]:
        raise ValueError("corner module failed the generator certificate")
    prog = Progenerator(ring, p_mod, "corner",
                        {"e": np.array(e.coords), "submodule": sub}, certs)
    return prog


# ---------------------------------------------------------------------------
# endomorphism algebra
# ---------------------------------------------------------------------------

@dataclass
class EndData:
    """End(P) as an algebra, with the hom-matrix basis and certificates."""

    algebra: FiniteAlgebra
    hom_mats: np.ndarray               # (k, q, q), row convention
    certified_iso: dict | None         # target algebra + basis bridge


def _compose_coords(hom_mats, flat_basis, p):
    """Structure constants for product(s, t) = (x -> s(t(x)))."""
    k = hom_mats.shape[0]
    sc = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        prods = linalg.matmul_mod(hom_mats, hom_mats[i], p)
        coeffs = linalg.solve_left_many(flat_basis, prods.reshape(k, -1), p)
        if coeffs is None:
            raise ValueError("endomorphism space not closed under composition")
        sc[i] = coeffs
    return sc


def end_algebra(p_mod: RightModule, projective: bool = False) -> EndData:
    """End(P) with composition ordered for right precomposition actions.

    The product of s and t is the map x -> s(t(x)); in row-matrix form
    mat(s*t) = mat(t) @ mat(s).  For projective P the radical is
    attached as {f : im f <= rad P}.
    """
    return memo(p_mod._cache, ("end_data", projective), lambda: _end_data(p_mod, projective))


def _end_data(p_mod: RightModule, projective: bool) -> EndData:
    p = p_mod.p
    homs = hom_space_matrices(p_mod, p_mod)
    k = homs.shape[0]
    flat = homs.reshape(k, -1)
    sc = _compose_coords(homs, flat, p)
    one = linalg.solve_left_many(flat, linalg.eye(p_mod.dim).reshape(1, -1), p)
    if one is None:
        raise ValueError("identity endomorphism missing from hom basis")
    rad = None
    if projective:
        rad_p = radical_submodule(p_mod)
        cols = rad_p.membership_cols()
        rows = linalg.matmul_mod(homs, cols, p).reshape(k, -1)
        rad = linalg.left_nullspace(rows, p)
    alg = FiniteAlgebra(p, k, tuple(f"s{i}" for i in range(k)), sc, one[0],
                        name=f"End({p_mod.name})", known_radical=rad)
    if rad is not None:
        ideal = IdealBasis(alg, alg._known_radical)
        if not ideal.is_two_sided():
            raise ValueError("attached End-radical is not a two-sided ideal")
        ideal.nilpotency_index()
    return EndData(alg, homs, None)


def _certify_bridge(end_data: EndData, target: FiniteAlgebra, phi_mats, p):
    """Verify t -> phi_mats[t] is an algebra isomorphism onto End(P)."""
    homs = end_data.hom_mats
    k = homs.shape[0]
    flat = homs.reshape(k, -1)
    coords = linalg.solve_left_many(
        flat, np.array(phi_mats).reshape(target.dim, -1), p)
    if coords is None or target.dim != k or linalg.rank(coords, p) != k:
        raise TheoremViolation("endomorphism bridge is not bijective")
    # multiplicativity: coords is an algebra map for the composition order
    # left[u, v] = coords[v] @ left_mult(coords[u]), the product of the images of t_u, t_v
    left = linalg.matmul_mod(coords, end_data.algebra.left_mult_matrix(coords), p)
    right = linalg.matmul_mod(target.sc, coords, p)
    if not np.array_equal(left, right):
        raise TheoremViolation("endomorphism bridge is not multiplicative")
    return {"target": target, "coords": coords}


def certified_matrix_iso(ring: FiniteAlgebra, n: int, prog: Progenerator) -> dict:
    """End(R^n) ~ M_n(R), realized by left matrix multiplication."""
    end_data = end_algebra(prog.module, projective=True)
    target = matrix_algebra(ring, n)
    d = ring.dim
    phi = []
    for i in range(n):
        for j in range(n):
            for t in range(d):
                mat = np.zeros((n * d, n * d), dtype=np.int64)
                mat[j * d:(j + 1) * d, i * d:(i + 1) * d] = \
                    ring.left_mult_matrix(linalg.eye(d)[t])
                phi.append(mat)
    bridge = _certify_bridge(end_data, target, phi, ring.p)
    end_data.certified_iso = bridge
    return bridge


def certified_corner_iso(ring: FiniteAlgebra, prog: Progenerator) -> dict:
    """End(eR) ~ eRe, realized by left multiplication by corner elements."""
    end_data = end_algebra(prog.module, projective=True)
    e = prog.detail["e"]
    sub: Submodule = prog.detail["submodule"]
    corner: CornerAlgebra = corner_algebra(ring, ring.element(e))
    phi = []
    for row in corner.embedding:
        lm = ring.left_mult_matrix(row)
        mat = linalg.solve_left_many(sub.basis, linalg.matmul_mod(sub.basis, lm, ring.p),
                                     ring.p)
        if mat is None:
            raise TheoremViolation("corner left multiplication leaves eR")
        phi.append(mat)
    bridge = _certify_bridge(end_data, corner.algebra, phi, ring.p)
    end_data.certified_iso = bridge
    return bridge


# ---------------------------------------------------------------------------
# the functor
# ---------------------------------------------------------------------------

@dataclass
class TransportedModule:
    """Hom(P, M) as a right End(P)-module, with transport helpers."""

    prog: Progenerator
    source: RightModule
    image: RightModule
    hom_mats: np.ndarray       # (t, dim P, dim M)

    def hom_of_coords(self, coords) -> np.ndarray:
        return linalg.combine(linalg.as_gf(coords, self.image.p), self.hom_mats, self.image.p)


def apply_functor(prog: Progenerator, m: RightModule) -> TransportedModule:
    """Hom(P, M) with right S-action by precomposition."""
    if m.ring is not prog.ring:
        raise ValueError("module is not over the progenerator's ring")
    # cached on m, so the progenerator does not keep every transported
    # module alive; the entry holds prog.module, so its id stays unique
    return memo(m._cache, ("transported", id(prog.module)), lambda: _transport(prog, m))


def _transport(prog: Progenerator, m: RightModule) -> TransportedModule:
    p = prog.ring.p
    end_data = end_algebra(prog.module, projective=True)
    s_alg = end_data.algebra
    mats = hom_space_matrices(prog.module, m)
    t = mats.shape[0]
    flat = mats.reshape(t, mats.shape[1] * mats.shape[2])
    action = np.zeros((s_alg.dim, t, t), dtype=np.int64)
    for j in range(s_alg.dim):
        precomposed = linalg.matmul_mod(end_data.hom_mats[j], mats, p)
        coeffs = linalg.solve_left_many(flat, precomposed.reshape(t, -1), p) \
            if t else linalg.zeros(0, 0)
        if coeffs is None:
            raise ValueError("hom space not closed under precomposition")
        action[j] = coeffs
    image = RightModule(s_alg, action, name=f"F({m.name})")
    return TransportedModule(prog, m, image, mats)


def transport_submodule(tr: TransportedModule, n: Submodule) -> Submodule:
    """F(N) = {phi : im phi <= N} as a submodule of the image module."""
    if n.parent is not tr.source:
        raise ValueError("submodule does not live in the functor source")
    p = tr.image.p
    t = tr.hom_mats.shape[0]
    if t == 0:
        return tr.image.zero_submodule()
    cols = n.membership_cols()
    rows = linalg.matmul_mod(tr.hom_mats, cols, p).reshape(t, -1)
    # a canonical basis of F(N), which is a submodule of F(M)
    return Submodule._canonical(tr.image, linalg.left_nullspace(rows, p))


def transport_hom(tr_src: TransportedModule, tr_tgt: TransportedModule,
                  f: ModuleHom) -> ModuleHom:
    """F(f): postcomposition phi -> f o phi."""
    if f.source is not tr_src.source or f.target is not tr_tgt.source:
        raise ValueError("hom endpoints do not match the transported modules")
    p = tr_src.image.p
    t = tr_src.hom_mats.shape[0]
    target_flat = tr_tgt.hom_mats.reshape(tr_tgt.hom_mats.shape[0], -1)
    pushed = linalg.matmul_mod(tr_src.hom_mats, f.matrix, p)
    coords = linalg.solve_left_many(target_flat, pushed.reshape(t, -1), p)
    if coords is None:
        raise ValueError("postcomposition left the target hom space")
    return ModuleHom(tr_src.image, tr_tgt.image, coords)


def transport_witness(tr: TransportedModule, w: WitnessRecord) -> WitnessRecord:
    """Push a test datum through the functor and re-evaluate it natively.

    Raises TheoremViolation if the recomputed verdict disagrees with the
    source verdict.
    """
    if w.decomposition.parent is not tr.source:
        raise ValueError("witness does not live on the functor source")
    p = tr.image.p
    a_t = transport_submodule(tr, w.decomposition.a)
    b_t = transport_submodule(tr, w.decomposition.b)
    idem_t = transport_hom(tr, tr, w.decomposition.idempotent)
    dec_t = Decomposition(tr.image, a_t, b_t, idem_t)

    a_abs_t = a_t.as_module()
    b_abs_t = b_t.as_module()
    src_a = w.decomposition.a
    src_b = w.decomposition.b
    rows = []
    for coords in a_t.basis:
        phi = tr.hom_of_coords(coords)
        inside = linalg.solve_left_many(src_a.basis, phi, p)
        if inside is None:
            raise TheoremViolation("transported summand leaked outside A")
        pushed = linalg.matmul_mod(linalg.matmul_mod(inside, w.f.matrix, p), src_b.basis, p)
        flat = tr.hom_mats.reshape(tr.hom_mats.shape[0], -1)
        image_coords = linalg.solve_left_many(flat, pushed.reshape(1, -1), p)
        if image_coords is None:
            raise TheoremViolation("pushed witness left the hom space")
        abs_coords = b_t.from_parent(image_coords)
        if abs_coords is None:
            raise TheoremViolation("pushed witness left the transported B")
        rows.append(abs_coords[0])
    mat = np.array(rows, dtype=np.int64).reshape(a_t.dim, b_t.dim)
    f_t = ModuleHom(a_abs_t, b_abs_t, mat)
    rec = evaluate_witness(tr.image, dec_t, f_t, w.rule_id)
    if rec.verdict != w.verdict:
        raise TheoremViolation(
            f"witness verdict changed under transport: {w.verdict} -> {rec.verdict}")
    return rec


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------

def build_progenerator(ring: FiniteAlgebra, realization) -> Progenerator:
    """realization = ("matrix", n) or ("corner", e_coords).

    Cached per ring so repeated checks share the certified endomorphism
    algebra and every transported module.
    """
    kind = realization[0]
    if kind == "matrix":
        n = int(realization[1])

        def certified():
            prog = free_progenerator(ring, n)
            certified_matrix_iso(ring, n, prog)
            return prog
        return memo(ring._cache, ("progenerator", "matrix", n), certified)
    if kind == "corner":
        e = linalg.as_gf(realization[1], ring.p)

        def certified():
            prog = corner_progenerator(ring, e)
            certified_corner_iso(ring, prog)
            return prog
        return memo(ring._cache, ("progenerator", "corner", e.tobytes()), certified)
    raise ValueError(f"unknown realization {realization!r}")


def morita_pair_check(ring: FiniteAlgebra, realization, m: RightModule,
                      conditions=CONDITION_NAMES,
                      rule_id: str = DEFAULT_RULE_ID,
                      guards: Guards = DEFAULT_GUARDS) -> dict:
    """Evaluate each condition on M and on Hom(P, M); report agreement."""
    if m.ring is not ring:
        raise ValueError("module is not over the given ring")
    prog = build_progenerator(ring, realization)
    tr = apply_functor(prog, m)
    rows = []
    violations = 0
    for condition in conditions:
        val_m = evaluate_condition(m, condition, rule_id, guards)
        val_f = evaluate_condition(tr.image, condition, rule_id, guards)
        agree = val_m == val_f
        if not agree:
            violations += 1
        rows.append({
            "condition": condition_label(condition),
            "value_on_M": serialize_value(val_m),
            "value_on_FM": serialize_value(val_f),
            "agreement": agree,
        })
    return {
        "ring": ring.name,
        "module": m.name,
        "progenerator": prog.name(),
        "rows": rows,
        "violations": violations,
    }


def _lifted_carriers(x: Submodule, w: WitnessRecord) -> tuple[Submodule, ...]:
    """A, B, ker f and im f of a witness on X's own module, as submodules
    of X's parent."""
    return tuple(Submodule(x.parent, x.to_parent(s.basis), check=False)
                 for s in (w.decomposition.a, w.decomposition.b, w.kernel, w.image))


def defect_bijection_check(prog: Progenerator, m: RightModule,
                           rule_id: str = DEFAULT_RULE_ID,
                           guards: Guards = DEFAULT_GUARDS) -> dict:
    """Compare the three defect classes of M and F(M).

    Emptiness must match exactly.  F maps lat(M) isomorphically onto
    lat(F M), so the classes must correspond as canonical bases, with no
    invariant involved: the transports of each witness's carriers (X for
    C4*, then A, B, ker f, im f) and of each obstruction pair's legs equal,
    as multisets, those computed natively on F(M).  The obstruction index
    must be equal on both sides.
    """
    tr = apply_functor(prog, m)
    fm = tr.image

    src_c4 = def_c4(m, rule_id, guards)
    dst_c4 = def_c4(fm, rule_id, guards)
    src_c4star = def_c4star(m, rule_id, guards)
    dst_c4star = def_c4star(fm, rule_id, guards)
    src_obs = obs_swcs(m, "submodule", guards)
    dst_obs = obs_swcs(fm, "submodule", guards)

    report = {
        "ring": prog.ring.name,
        "module": m.name,
        "progenerator": prog.name(),
        "emptiness": {
            "def_c4": (not src_c4) == (not dst_c4),
            "def_c4star": (not src_c4star) == (not dst_c4star),
            "obs_swcs": (not src_obs) == (not dst_obs),
        },
    }

    def mapped(subs):
        return tuple(transport_submodule(tr, s).key() for s in subs)

    def native(subs):
        return tuple(s.key() for s in subs)

    m_full, fm_full = m.full_submodule(), fm.full_submodule()
    report["multiset_def_c4"] = (
        Counter(mapped(_lifted_carriers(m_full, w)) for w in src_c4)
        == Counter(native(_lifted_carriers(fm_full, w)) for w in dst_c4))
    report["multiset_def_c4star"] = (
        Counter(mapped((x, *_lifted_carriers(x, w))) for x, w in src_c4star)
        == Counter(native((x, *_lifted_carriers(x, w))) for x, w in dst_c4star))
    report["multiset_obs_swcs"] = (
        Counter(frozenset(mapped((pair.x, pair.y))) for pair in src_obs)
        == Counter(frozenset(native((pair.x, pair.y))) for pair in dst_obs))

    report["iota_source"] = serialize_value(obstruction_index(m, "submodule", guards))
    report["iota_image"] = serialize_value(obstruction_index(fm, "submodule", guards))
    report["iota_agrees"] = report["iota_source"] == report["iota_image"]

    report["ok"] = (all(report["emptiness"].values())
                    and report["multiset_def_c4"]
                    and report["multiset_def_c4star"]
                    and report["multiset_obs_swcs"]
                    and report["iota_agrees"])
    return report


# ---------------------------------------------------------------------------
# transport property checks (used by the suite)
# ---------------------------------------------------------------------------

def transport_property_check(prog: Progenerator, m: RightModule,
                             guards: Guards = DEFAULT_GUARDS) -> dict:
    """Summandhood, semisimplicity and essentiality of every submodule
    must agree with their transports; the lattice map must be an order
    isomorphism onto the image lattice."""
    tr = apply_functor(prog, m)
    lat = all_submodules(m, guards.max_lattice_vectors)
    lat_image = all_submodules(tr.image, guards.max_lattice_vectors)

    transported = [transport_submodule(tr, n) for n in lat.members]
    keys = {s.key() for s in transported}
    bijective = (len(keys) == len(lat.members)
                 and keys == {s.key() for s in lat_image.members})

    order_ok = bijective
    if bijective:
        # the containments among the transports, read off the image lattice
        at = [lat_image.index[t.key()] for t in transported]
        order_ok = np.array_equal(lat.contains_matrix(),
                                  lat_image.contains_matrix()[np.ix_(at, at)])

    summand_ok = all(
        (is_summand(n, m) is not None) == (is_summand(tn, tr.image) is not None)
        for n, tn in zip(lat.members, transported))
    semisimple_ok = all(
        is_semisimple(n.as_module()) == is_semisimple(tn.as_module())
        for n, tn in zip(lat.members, transported))
    essential_ok = all(
        is_essential(n, m) == is_essential(tn, tr.image)
        for n, tn in zip(lat.members, transported))

    return {
        "module": m.name,
        "progenerator": prog.name(),
        "lattice_bijective": bijective,
        "order_isomorphism": order_ok,
        "summand_agreement": summand_ok,
        "semisimple_agreement": semisimple_ok,
        "essential_agreement": essential_ok,
        "ok": bijective and order_ok and summand_ok and semisimple_ok and essential_ok,
        "pairs": len(lat.members),
    }
