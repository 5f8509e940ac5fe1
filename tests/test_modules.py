import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4lab import linalg
from c4lab.algebra import (
    FiniteAlgebra,
    field_algebra,
    jacobson_radical,
    matrix_algebra,
    poly_quotient_algebra,
    upper_triangular_algebra,
)
from c4lab.corpus import corpus_builtin, local_square_zero_algebra, simple_modules
from c4lab.modules import (
    RightModule,
    Submodule,
    all_submodules,
    classical_predicates,
    composition_length,
    _presentation,
    direct_sum,
    essential_in,
    essential_oracle,
    hom_basis,
    hom_dim,
    hom_space_matrices,
    is_closed,
    is_essential,
    is_orthogonal,
    hom_vanishes,
    is_semisimple,
    is_simple,
    is_square_free,
    is_summand,
    is_summand_square_free,
    iso_test,
    quotient_module,
    radical_submodule,
    regular_module,
    socle,
    submodule_span,
)
from c4lab.morita import build_progenerator, defect_bijection_check


@pytest.fixture(scope="module")
def r2():
    return poly_quotient_algebra(2, [0, 0, 1])


@pytest.fixture(scope="module")
def reg(r2):
    return regular_module(r2)


@pytest.fixture(scope="module")
def s(r2):
    return simple_modules(r2)[0]


@pytest.fixture(scope="module")
def reg_plus_s(reg, s):
    out, _, _ = direct_sum(reg, s, name="R+S")
    return out


def brute_submodule_count(m):
    """Oracle: scan all subsets of vectors closed under + and the action."""
    p = m.p
    vectors = [np.array(v, dtype=np.int64)
               for v in itertools.product(range(p), repeat=m.dim)]
    count = 0
    for size_mask in range(1 << len(vectors)):
        if not size_mask & 1:
            continue  # must contain zero (vector index 0)
        subset = [v for i, v in enumerate(vectors) if size_mask >> i & 1]
        sset = {tuple(v) for v in subset}
        closed = all(tuple((u + v) % p) in sset for u in subset for v in subset)
        if not closed:
            continue
        acted = all(tuple(v @ m.action[j] % p) in sset
                    for v in subset for j in range(m.ring.dim))
        if acted:
            count += 1
    return count


def test_regular_module_action(reg):
    # right multiplication by x in basis {1, x}
    assert np.array_equal(reg.action[1], [[0, 1], [0, 0]])


def test_regular_modules_satisfy_the_module_axioms():
    """regular_module skips RightModule's check, which the algebra's own
    associativity and identity checks imply; run it here instead."""
    from c4lab.corpus import corpus_rings
    from c4lab.io import parse_ring

    raw = parse_ring({"p": 3, "dim": 3, "labels": ["1", "x", "y"], "one": [1, 0, 0],
                      "mul": [[0, 0, [1, 0, 0]], [0, 1, [0, 1, 0]], [0, 2, [0, 0, 1]],
                              [1, 0, [0, 1, 0]], [2, 0, [0, 0, 1]], [1, 1, [0, 0, 1]]]})
    for ring in [*corpus_rings().values(), raw]:
        regular_module(ring)._validate()


def test_invalid_action_rejected(r2):
    bad = np.zeros((2, 2, 2), dtype=np.int64)
    bad[0] = np.eye(2)
    bad[1] = np.eye(2)  # x would act as the identity: not multiplicative
    with pytest.raises(ValueError, match="multiplicative"):
        RightModule(r2, bad)


def test_direct_sum_homs(reg, s):
    total, injections, projections = direct_sum(reg, s)
    for inj, proj in zip(injections, projections):
        assert np.array_equal(inj.matrix @ proj.matrix % 2,
                              np.eye(inj.source.dim, dtype=np.int64))


def test_direct_sum_with_zero(reg, r2):
    zero = RightModule(r2, np.zeros((2, 0, 0), dtype=np.int64), name="0")
    total, injections, _ = direct_sum(reg, zero)
    assert total.dim == reg.dim
    assert np.array_equal(injections[0].matrix, np.eye(2, dtype=np.int64))
    assert iso_test(total, reg) is True


def test_hom_dims(reg, s, r2):
    assert hom_dim(s, s) == 1
    assert hom_dim(reg, reg) == 2
    assert hom_dim(s, reg) == 1
    # oracle: count all 2x2 matrices commuting with the explicit x-action
    x = np.array([[0, 1], [0, 0]], dtype=np.int64)
    count = sum(1 for bits in itertools.product(range(2), repeat=4)
                if np.array_equal(
                    (f := np.array(bits).reshape(2, 2)) @ x % 2, x @ f % 2))
    assert count == 2 ** hom_dim(reg, reg)


def test_hom_commutes(reg, s):
    for h in hom_basis(s, reg):
        for j in range(reg.ring.dim):
            left = s.action[j] @ h.matrix % 2
            right = h.matrix @ reg.action[j] % 2
            assert np.array_equal(left, right)


def commutation_solve(m, n):
    """Oracle: Hom(M, N) from rho_M(b) F = F rho_N(b) for every ring basis
    element b, over dim M * dim N unknowns, one element at a time."""
    p, a, b = m.p, m.dim, n.dim
    if a == 0 or b == 0:
        return np.zeros((0, a, b), dtype=np.int64)
    sols = linalg.eye(a * b)
    for j in range(m.ring.dim):
        # unknown x[(s, t)] = F[s, t]; column (r, c) is entry (r, c) of
        # rho_M(b_j) F - F rho_N(b_j)
        t1 = m.action[j].T[:, None, :, None] * linalg.eye(b)[None, :, None, :]
        t2 = linalg.eye(a)[:, None, :, None] * n.action[j][None, :, None, :]
        block = ((t1 - t2) % p).reshape(a * b, a * b)
        coeffs = linalg.left_nullspace(linalg.matmul_mod(sols, block, p), p)
        sols = linalg.matmul_mod(coeffs, sols, p)
    return linalg.row_space(sols, p).reshape(-1, a, b)


def brute_force_homs(m, n):
    """Oracle: how many a x b matrices commute with the action, and the
    canonical basis of their span."""
    p, a, b = m.p, m.dim, n.dim
    total = p ** (a * b)
    mats = linalg.decode_codes(np.arange(total), a * b, p).reshape(total, a, b)
    ok = np.ones(total, dtype=bool)
    for j in range(m.ring.dim):
        left = np.matmul(m.action[j], mats) % p
        right = np.matmul(mats, n.action[j]) % p
        ok &= np.all(left == right, axis=(1, 2))
    count = int(ok.sum())
    span = linalg.row_space(mats[ok].reshape(count, a * b), p)
    return count, span.reshape(span.shape[0], a, b)


def assert_same_homs(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def rebased(ring, seed):
    """The ring in a random basis, where 1 is not in general a basis element."""
    rng = np.random.default_rng(seed)
    p, d = ring.p, ring.dim
    while True:
        g = rng.integers(0, p, size=(d, d), dtype=np.int64)
        ginv = linalg.inv_mod(g, p)
        if ginv is not None:
            break
    # new basis vector i is row g[i] in the old coordinates; Python ints
    # keep the contraction exact at every prime
    obj = [x.astype(object) for x in (g, ring.sc, ginv)]
    sc = (np.einsum("ia,jb,abc,ck->ijk", obj[0], obj[0], obj[1], obj[2]) % p).astype(np.int64)
    one = (ring.one.astype(object) @ obj[2] % p).astype(np.int64)
    rad = (jacobson_radical(ring).basis.astype(object) @ obj[2] % p).astype(np.int64)
    return FiniteAlgebra(p, d, ring.labels, sc, one, name=f"{ring.name}'", known_radical=rad)


def radical_layers(ring):
    """R_R, its radical, its top R/J and R_R + R/J, built at any prime
    (no lattice, no element scan)."""
    reg = regular_module(ring)
    top, _ = quotient_module(reg, radical_submodule(reg))
    return [reg, radical_submodule(reg).as_module(), top, direct_sum(reg, top)[0]]


def distinct_members(modules):
    """Abstract modules of every lattice member, one per (ring, action)."""
    seen = {}
    for m in modules:
        for x in all_submodules(m).members:
            mod = x.as_module()
            seen.setdefault((id(mod.ring), mod.action.tobytes()), mod)
    return list(seen.values())


def test_hom_space_matches_the_commutation_solve_on_the_corpus_and_its_lattices():
    mods = distinct_members(entry.module for entry in corpus_builtin())
    pairs = 0
    for m in mods:
        for n in mods:
            if m.ring is n.ring:
                assert_same_homs(hom_space_matrices(m, n), commutation_solve(m, n))
                pairs += 1
    assert pairs > 300


MATRIX_RING_BASES = {
    "F2": lambda: field_algebra(2), "F3": lambda: field_algebra(3),
    "F65521": lambda: field_algebra(65521),
    "F2[x]/(x^2)": lambda: poly_quotient_algebra(2, [0, 0, 1]),
    "F3[x]/(x^2)": lambda: poly_quotient_algebra(3, [0, 0, 1]),
    "T2(F2)": lambda: upper_triangular_algebra(2, 2),
}


@pytest.mark.parametrize("base", sorted(MATRIX_RING_BASES))
def test_end_of_a_matrix_ring_matches_the_commutation_solve(base):
    # M2(R) in its own basis (1 is a sum of basis elements) and in a random one
    m2 = matrix_algebra(MATRIX_RING_BASES[base](), 2)
    for ring in (m2, rebased(m2, sorted(MATRIX_RING_BASES).index(base))):
        reg = regular_module(ring)
        assert hom_dim(reg, reg) == ring.dim
        mods = radical_layers(ring)
        for m in mods:
            for n in mods:
                assert_same_homs(hom_space_matrices(m, n), commutation_solve(m, n))
        # the presentation: phi(r) = r @ Phi is onto, the relations span
        # its kernel, and the section inverts the chosen rows
        gens, relations, rows, section = _presentation(reg)
        phi = reg.act_rows(linalg.eye(reg.dim)[gens])
        assert linalg.rank(phi, ring.p) == reg.dim
        assert relations.shape[0] == len(gens) * ring.dim - reg.dim
        assert linalg.rank(relations, ring.p) == relations.shape[0]
        assert not np.any(linalg.matmul_mod(relations, phi, ring.p))
        assert np.array_equal(linalg.matmul_mod(section, phi[rows], ring.p), linalg.eye(reg.dim))


def test_hom_space_matches_the_commutation_solve_at_large_primes():
    for p in (65521, 2 ** 31 - 1):
        # rings whose radical is known, so nothing enumerates elements
        rings = [local_square_zero_algebra(p, 2), upper_triangular_algebra(p, 2)]
        rings.append(rebased(rings[-1], p % 97))
        for ring in rings:
            mods = radical_layers(ring)
            for m in mods:
                for n in mods:
                    assert_same_homs(hom_space_matrices(m, n), commutation_solve(m, n))


def tiny_modules(p):
    """Lattice members of small modules over GF(p): regular modules of
    F_p[x]/(x^2), T2(F_p) and F_p[x]/(x^3), their simples, and a sum."""
    rings = [poly_quotient_algebra(p, [0, 0, 1]), upper_triangular_algebra(p, 2),
             poly_quotient_algebra(p, [0, 0, 0, 1])]
    tops = []
    for ring in rings:
        reg = regular_module(ring)
        tops.append(reg)
        tops.append(direct_sum(reg, simple_modules(ring)[0])[0])
    return distinct_members(tops)


@pytest.mark.parametrize("p", [2, 3])
def test_hom_space_matches_a_brute_force_scan_at_tiny_sizes(p):
    mods = tiny_modules(p)
    zero = RightModule(mods[0].ring, np.zeros((mods[0].ring.dim, 0, 0), dtype=np.int64), name="0")
    assert assert_homs_match_brute_force(mods + [zero]) > 50


def assert_homs_match_brute_force(mods):
    """`hom_space_matrices` against `brute_force_homs` on every ordered pair
    of modules over one ring with at most 2^12 candidate maps; returns the
    number of pairs checked."""
    pairs = 0
    for m in mods:
        for n in mods:
            p = m.p
            if m.ring is not n.ring or p ** (m.dim * n.dim) > 2 ** 12:
                continue
            count, span = brute_force_homs(m, n)
            got = hom_space_matrices(m, n)
            assert count == p ** got.shape[0], (m.name, n.name)
            assert_same_homs(got, span)
            pairs += 1
    return pairs


def test_hom_space_of_the_zero_module(reg, r2):
    zero = RightModule(r2, np.zeros((2, 0, 0), dtype=np.int64), name="0")
    for m, n, shape in ((zero, reg, (0, 0, 2)), (reg, zero, (0, 2, 0)), (zero, zero, (0, 0, 0))):
        got = hom_space_matrices(m, n)
        assert got.shape == shape and got.dtype == np.int64
        assert_same_homs(got, commutation_solve(m, n))


def test_submodule_span(reg):
    assert submodule_span(reg, np.zeros((0, 2))).dim == 0
    xspan = submodule_span(reg, [[0, 1]])
    assert xspan.dim == 1
    assert submodule_span(reg, [[1, 0]]).dim == 2


def test_lattice_counts(reg, reg_plus_s):
    f2 = field_algebra(2)
    plane, _, _ = direct_sum(regular_module(f2), regular_module(f2))
    assert len(all_submodules(plane)) == 5 == brute_submodule_count(plane)
    assert len(all_submodules(reg)) == 3 == brute_submodule_count(reg)
    assert len(all_submodules(reg_plus_s)) == brute_submodule_count(reg_plus_s)
    lat = all_submodules(reg_plus_s)
    # closed under intersection and sum
    from c4lab import linalg
    keys = {m.key() for m in lat.members}
    for a in lat.members:
        for b in lat.members:
            inter = Submodule(reg_plus_s, linalg.intersect_rows(a.basis, b.basis, 2),
                              check=False)
            total = Submodule(reg_plus_s, linalg.sum_rows(a.basis, b.basis, 2),
                              check=False)
            assert inter.key() in keys and total.key() in keys


def test_zero_module_lattice(r2):
    zero = RightModule(r2, np.zeros((2, 0, 0), dtype=np.int64), name="0")
    lat = all_submodules(zero)
    assert len(lat) == 1 and lat.members[0].dim == 0


def test_lattice_of_free_square_against_subspace_oracle(reg):
    # oracle: enumerate every subspace of F2^4 from spanning subsets of
    # size <= 4, then keep the action-closed ones
    from c4lab import linalg
    rr, _, _ = direct_sum(reg, reg, name="R+R")
    vectors = [np.array(v, dtype=np.int64)
               for v in itertools.product(range(2), repeat=4)]
    subspaces = {linalg.zeros(0, 4).tobytes(): linalg.zeros(0, 4)}
    for size in (1, 2, 3, 4):
        for combo in itertools.combinations(vectors, size):
            basis = linalg.row_space(np.array(combo), 2)
            subspaces.setdefault(basis.tobytes(), basis)
    closed = 0
    for basis in subspaces.values():
        acted = np.concatenate([basis @ rr.action[j] % 2 for j in range(2)]) \
            if basis.shape[0] else basis
        if basis.shape[0] == 0 or linalg.in_row_space(acted, basis, 2):
            closed += 1
    assert closed == 15
    assert len(all_submodules(rr)) == 15


def test_socle_examples(reg, reg_plus_s):
    assert np.array_equal(socle(reg).basis, [[0, 1]])
    assert np.array_equal(socle(reg_plus_s).basis, [[0, 1, 0], [0, 0, 1]])
    f2 = field_algebra(2)
    cube, _, _ = direct_sum(*([regular_module(f2)] * 3))
    assert socle(cube).dim == 3


def test_essentiality(reg, reg_plus_s, s):
    full = reg.full_submodule()
    assert is_essential(full, reg)
    xline = submodule_span(reg, [[0, 1]])
    assert is_essential(xline, reg)
    assert essential_oracle(xline, reg)
    s_comp = submodule_span(reg_plus_s, [[0, 0, 1]])
    assert not is_essential(s_comp, reg_plus_s)
    assert not essential_oracle(s_comp, reg_plus_s)


def test_essential_oracle_agreement_everywhere(reg_plus_s):
    for sub in all_submodules(reg_plus_s).members:
        assert is_essential(sub, reg_plus_s) == essential_oracle(sub, reg_plus_s)


def test_essential_in_matches_the_oracle_inside_every_member(reg_plus_s):
    members = all_submodules(reg_plus_s).members
    checked = 0
    for a in members:
        inner = a.as_module()
        for n in members:
            if not a.contains(n):
                assert essential_in(n, a) is False
                continue
            # A's socle is cached on A after its first use
            want = essential_oracle(Submodule(inner, a.from_parent(n.basis)), inner)
            assert essential_in(n, a) is want and essential_in(n, a) is want
            checked += 1
    assert checked > 20


def test_summands(reg, reg_plus_s):
    assert is_summand(reg.zero_submodule(), reg).dim == 2
    xline = submodule_span(reg, [[0, 1]])
    assert is_summand(xline, reg) is None
    diag = submodule_span(reg_plus_s, [[0, 1, 1]])
    comp = is_summand(diag, reg_plus_s)
    assert comp is not None and comp.dim == 2
    # complement is the R-component
    assert np.array_equal(comp.basis, [[1, 0, 0], [0, 1, 0]])


def test_summand_iff_idempotent_image(reg_plus_s):
    from c4lab.conditions import summand_list
    summands = {s.key() for s in summand_list(reg_plus_s)}
    for sub in all_submodules(reg_plus_s).members:
        assert (is_summand(sub, reg_plus_s) is not None) == (sub.key() in summands)


def test_simplicity_and_length(reg, s, reg_plus_s):
    assert is_simple(s)
    assert not is_simple(reg)
    assert composition_length(s) == 1
    assert composition_length(reg) == 2
    assert composition_length(reg_plus_s) == 3
    m2 = matrix_algebra(field_algebra(2), 2)
    assert is_semisimple(regular_module(m2))
    assert composition_length(regular_module(m2)) == 2


def test_length_additivity(reg, s, reg_plus_s):
    for parts in ((reg, reg), (reg, s), (reg_plus_s, s)):
        total, _, _ = direct_sum(*parts)
        assert composition_length(total) == sum(composition_length(x) for x in parts)


def test_quotient_module(reg_plus_s):
    soc = socle(reg_plus_s)
    quot, proj = quotient_module(reg_plus_s, soc)
    assert quot.dim == 1
    assert proj.rank() == 1


def test_iso_test(reg, s, reg_plus_s, r2):
    assert iso_test(reg, reg) is True
    diag = submodule_span(reg_plus_s, [[0, 1, 1]]).as_module()
    assert iso_test(diag, s) is True
    ss, _, _ = direct_sum(s, s)
    assert iso_test(reg, ss) is False  # socle dims differ (1 vs 2)
    assert iso_test(s, reg) is False   # dims differ
    with pytest.raises(ValueError, match="different rings"):
        iso_test(s, regular_module(field_algebra(2)))


def test_orthogonality(r2, s, reg):
    from c4lab.algebra import product_algebra, field_algebra
    ff = product_algebra(field_algebra(2), field_algebra(2))
    s1, s2 = simple_modules(ff)
    assert is_orthogonal(s1, s2)
    assert not hom_vanishes(s, reg)
    zero = RightModule(r2, np.zeros((2, 0, 0), dtype=np.int64), name="0")
    assert is_orthogonal(reg, zero)


def test_square_freeness(reg, s, reg_plus_s):
    assert is_summand_square_free(s)
    ss, _, _ = direct_sum(s, s)
    assert not is_summand_square_free(ss)
    assert is_summand_square_free(reg_plus_s)
    assert is_summand_square_free(reg)
    assert is_square_free(reg)
    assert not is_square_free(ss)
    rr, _, _ = direct_sum(reg, reg)
    # soc(R+R) = S+S is a square submodule, but no summand is a square
    assert not is_square_free(rr)
    assert not is_summand_square_free(rr)


def test_classical_predicates(reg, reg_plus_s):
    preds = classical_predicates(reg_plus_s)
    assert preds["C2"] is False
    assert preds["directly_finite"] is True
    preds_reg = classical_predicates(reg)
    assert preds_reg["CS"] is True
    m2 = matrix_algebra(field_algebra(2), 2)
    semis = classical_predicates(regular_module(m2))
    assert all(semis[k] for k in ("C2", "C3", "CS", "weak_CS", "continuous"))


def test_is_closed(reg, s, reg_plus_s):
    assert is_closed(reg.full_submodule(), reg)
    xline = submodule_span(reg, [[0, 1]])
    assert not is_closed(xline, reg)
    assert is_closed(s.zero_submodule(), s)
    s_comp = submodule_span(reg_plus_s, [[0, 0, 1]])
    assert is_closed(s_comp, reg_plus_s)


def _rref_projection(basis, p):
    """The quotient projection from an elimination of the basis: a
    reference for the pivots quotient_projection reads off the basis."""
    red, piv = linalg.rref(basis, p) if basis.shape[0] else (basis, [])
    nonpiv = [c for c in range(basis.shape[1]) if c not in piv]
    red = red[:len(piv), nonpiv]
    return nonpiv, lambda rows: (rows[:, nonpiv] - linalg.matmul_mod(rows[:, piv], red, p)) % p


def test_quotients_match_an_eliminated_basis_on_the_corpus():
    from c4lab.algebra import jacobson_radical, quotient_algebra
    from c4lab.corpus import corpus_builtin, corpus_rings

    # every lattice member of every corpus module; every corpus ring by its radical
    count = 0
    for entry in corpus_builtin():
        m = entry.module
        for n in all_submodules(m).members:
            quot, proj = quotient_module(m, n)
            nonpiv, project = _rref_projection(n.basis, m.p)
            k = len(nonpiv)
            action = project(m.action[:, nonpiv].reshape(-1, m.dim)).reshape(m.ring.dim, k, k)
            assert np.array_equal(quot.action, action)
            assert np.array_equal(proj.matrix, project(linalg.eye(m.dim)))
            count += 1
    assert count > 200
    for ring in corpus_rings().values():
        rad = jacobson_radical(ring)
        quot, project = quotient_algebra(ring, rad)
        nonpiv, ref = _rref_projection(rad.basis, ring.p)
        k = len(nonpiv)
        assert np.array_equal(quot.sc, ref(ring.sc[np.ix_(nonpiv, nonpiv)].reshape(k * k, ring.dim))
                              .reshape(k, k, k))
        assert np.array_equal(quot.one, ref(ring.one.reshape(1, -1))[0])
        assert np.array_equal(project(linalg.eye(ring.dim)), ref(linalg.eye(ring.dim)))


def test_a_hom_space_memo_keeps_its_target_only_weakly(reg, r2):
    import gc
    import weakref
    s = RightModule(r2, simple_modules(r2)[0].action, name="S")
    homs = hom_space_matrices(reg, s)
    assert hom_space_matrices(reg, s) is homs
    gone = weakref.ref(s)
    del s
    gc.collect()
    assert gone() is None


def path_module(ring, n, dims, arrows):
    """The representation V_1 -> V_2 -> ... -> V_n of the linear quiver as
    a right T_n-module: E_ij acts by the composite V_i -> V_j on block i
    and kills the other blocks.  Any tuple of arrow matrices is a module."""
    p = ring.p
    offsets = np.concatenate([[0], np.cumsum(dims)])
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    action = np.zeros((ring.dim, offsets[-1], offsets[-1]), dtype=np.int64)
    for t, (i, j) in enumerate(pairs):
        block = linalg.eye(dims[i])
        for k in range(i, j):
            block = linalg.matmul_mod(block, arrows[k], p)
        action[t, offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = block
    return RightModule(ring, action, name=f"T{n}{tuple(dims)}")


def tiny_oracle_modules():
    """Corpus modules and T_2, T_3 path-algebra modules of at most 2^6
    elements, each vertex of dimension at most 2."""
    rng = np.random.default_rng(5)
    mods = [e.module for e in corpus_builtin() if 0 < e.module.p ** e.module.dim <= 2 ** 6]
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        ring = upper_triangular_algebra(p, n)
        for dims in itertools.product(range(3), repeat=n):
            if not 0 < p ** sum(dims) <= 2 ** 6:
                continue
            zero = [np.zeros((dims[k], dims[k + 1]), dtype=np.int64) for k in range(n - 1)]
            rand = [rng.integers(0, p, size=(dims[k], dims[k + 1]), dtype=np.int64)
                    for k in range(n - 1)]
            mods += [path_module(ring, n, dims, zero), path_module(ring, n, dims, rand)]
    return mods


def _span_rank(*bases, p):
    return linalg.rank(np.concatenate(bases, axis=0), p)


def test_socle_length_and_summands_match_brute_force_at_tiny_sizes():
    """socle is the sum of the minimal lattice members, composition_length
    is the longest chain in the lattice, and is_summand finds a complement
    exactly when some lattice member is one."""
    checked = sum(assert_socle_length_and_summands_match_brute_force(m)
                  for m in tiny_oracle_modules())
    assert checked > 1000


def assert_socle_length_and_summands_match_brute_force(m):
    """The brute-force socle, length and summand oracles on one module;
    returns the number of lattice members checked."""
    checked = 0
    p, members = m.p, all_submodules(m).members
    inside = [[y.dim < x.dim and _span_rank(x.basis, y.basis, p=p) == x.dim
               for y in members] for x in members]
    minimal = [x for i, x in enumerate(members)
               if x.dim and not any(inside[i][j] and y.dim for j, y in enumerate(members))]
    soc = linalg.row_space(np.concatenate([x.basis for x in minimal] +
                                          [linalg.zeros(0, m.dim)]), p)
    assert np.array_equal(socle(m).basis, soc), m.name
    height = []
    for i in range(len(members)):   # members come in increasing dimension
        height.append(max([height[j] + 1 for j in range(i) if inside[i][j]], default=0))
    assert composition_length(m) == height[-1], m.name
    for x in members:
        found = is_summand(x, m)
        brute = any(y.dim == m.dim - x.dim and _span_rank(x.basis, y.basis, p=p) == m.dim
                    for y in members)
        assert (found is not None) == brute, (m.name, x.dim)
        if found is not None:
            assert found.dim == m.dim - x.dim
            assert _span_rank(x.basis, found.basis, p=p) == m.dim
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# the lattice bitsets against eliminations and brute force
# ---------------------------------------------------------------------------

def rref_subspaces(n, p):
    """Every subspace of GF(p)^n as its RREF basis, from its pivot columns
    and free entries: no elimination and no lattice involved."""
    for r in range(n + 1):
        for piv in itertools.combinations(range(n), r):
            slots = [(i, c) for i in range(r) for c in range(piv[i] + 1, n) if c not in piv]
            for values in itertools.product(range(p), repeat=len(slots)):
                basis = linalg.zeros(r, n)
                basis[range(r), piv] = 1
                for (i, c), v in zip(slots, values):
                    basis[i, c] = v
                yield basis


def brute_force_lattice(m):
    """The action-closed subspaces of m in (dim, key) order."""
    closed = [b for b in rref_subspaces(m.dim, m.p)
              if b.shape[0] == 0 or linalg.in_row_space(m.act_rows(b), b, m.p)]
    return sorted((b.tobytes() for b in closed), key=lambda key: (len(key), key))


def assert_bitsets_match_oracles(m):
    """Every ordered member pair: containment, disjointness and the
    essential hull from the bits against eliminations and the definitional
    oracle, and semisimplicity against the member's own socle.  Returns
    the number of pairs."""
    lat = all_submodules(m)
    soc, pairs = lat.socle_bits(), 0
    for x, bx in zip(lat.members, lat.bits):
        assert (not bx & ~soc) == is_semisimple(x.as_module()), (m.name, x.dim)
        for y, by in zip(lat.members, lat.bits):
            inside = not bx & ~by
            assert inside == y.contains(x), (m.name, x.dim, y.dim)
            assert (not bx & by) == (linalg.intersect_rows(x.basis, y.basis, m.p).shape[0] == 0)
            if inside:
                y_mod = y.as_module()
                want = essential_oracle(Submodule(y_mod, y.from_parent(x.basis)), y_mod)
            else:
                want = False
            assert lat.essential(bx, by) == want, (m.name, x.dim, y.dim)
            pairs += 1
    return pairs


def bitset_oracle_modules():
    """The corpus, the tiny oracle modules and the regular modules of
    F_p<x, y>/(x, y)^2 for p = 2, 3."""
    return ([e.module for e in corpus_builtin()] + tiny_oracle_modules()
            + [regular_module(local_square_zero_algebra(p, 2)) for p in (2, 3)])


def test_lattice_bitsets_match_eliminations_and_oracles():
    modules = bitset_oracle_modules()
    pairs = sum(assert_bitsets_match_oracles(m) for m in modules)
    assert len(modules) > 150 and pairs > 30000


def test_tiny_lattices_are_every_closed_subspace_in_order():
    for m in tiny_oracle_modules():
        assert [x.key() for x in all_submodules(m).members] == brute_force_lattice(m), m.name


@st.composite
def path_modules(draw):
    """A T_n-module of at most 2^6 elements from any tuple of arrow matrices."""
    p, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    dims = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                .filter(lambda d: 0 < p ** sum(d) <= 2 ** 6))
    arrows = [np.array(draw(st.lists(st.integers(0, p - 1), min_size=dims[k] * dims[k + 1],
                                     max_size=dims[k] * dims[k + 1])),
                       dtype=np.int64).reshape(dims[k], dims[k + 1]) for k in range(n - 1)]
    return path_module(upper_triangular_algebra(p, n), n, dims, arrows)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_lattice_bitsets_of_generated_path_modules(m):
    assert_bitsets_match_oracles(m)
    assert [x.key() for x in all_submodules(m).members] == brute_force_lattice(m)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_socle_length_and_summands_of_generated_path_modules(m):
    assert_socle_length_and_summands_match_brute_force(m)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_defect_classes_of_generated_path_modules_correspond_under_transport(m):
    assert defect_bijection_check(build_progenerator(m.ring, ("matrix", 2)), m)["ok"]


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_hom_spaces_of_generated_path_modules_match_both_oracles(m):
    """The brute-force scan and the commutation solve on the lattice
    members of a generated path module, pairwise."""
    mods = distinct_members([m])
    assert assert_homs_match_brute_force(mods) > 0
    for a in mods:
        for b in mods:
            assert_same_homs(hom_space_matrices(a, b), commutation_solve(a, b))


# ---------------------------------------------------------------------------
# lengths and summands read off the lattice
# ---------------------------------------------------------------------------

def assert_lattice_lengths_and_summands_match(m):
    """`SubmoduleLattice.lengths` against the brute-force height and
    `composition_length`, and `SubmoduleLattice.summands` against
    `is_summand` and a complement search by rank, on every member of m's
    lattice.  Returns the number of members checked."""
    p, lat = m.p, all_submodules(m)
    members, lengths, summands = lat.members, lat.lengths(), lat.summands()
    assert len(lengths) == len(summands) == len(members)
    height = []
    for i, x in enumerate(members):     # members come in increasing dimension
        below = [height[j] + 1 for j, y in enumerate(members[:i])
                 if y.dim < x.dim and _span_rank(x.basis, y.basis, p=p) == x.dim]
        height.append(max(below, default=0))
    for x, length, height_x, summand in zip(members, lengths, height, summands):
        assert length == height_x == composition_length(x.as_module()), (m.name, x.dim)
        brute = any(y.dim == m.dim - x.dim and _span_rank(x.basis, y.basis, p=p) == m.dim
                    for y in members)
        assert summand == brute == (is_summand(x, m) is not None), (m.name, x.dim)
    return len(members)


def test_lattice_lengths_and_summands_match_brute_force():
    """The corpus, the tiny oracle modules and F_p<x, y>/(x, y)^2 at
    p = 2, 3, each with at most 2^12 elements."""
    modules = [m for m in bitset_oracle_modules() if m.p ** m.dim <= 2 ** 12]
    checked = sum(assert_lattice_lengths_and_summands_match(m) for m in modules)
    assert len(modules) > 150 and checked > 1500


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_lattice_lengths_and_summands_of_generated_path_modules(m):
    assert_lattice_lengths_and_summands_match(m)


def test_lengths_and_summands_of_a_lattice_are_computed_once(reg_plus_s):
    lat = all_submodules(reg_plus_s)
    assert lat.lengths() is lat.lengths() and lat.summands() is lat.summands()
    assert lat.lengths()[0] == 0 and lat.lengths()[-1] == composition_length(reg_plus_s)
    assert lat.summands()[0] and lat.summands()[-1]
