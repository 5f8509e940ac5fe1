import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from c4lab.algebra import field_algebra, poly_quotient_algebra
from c4lab.conditions import (
    INFINITY,
    WitnessRule,
    check_extended,
    decompose_strong,
    def_c4,
    def_c4star,
    enumerate_decompositions,
    evaluate_witness,
    get_rule,
    is_c4,
    is_c4_m,
    is_c4star,
    is_semiweak_cs,
    is_strongly_c4star,
    obs_swcs,
    obstruction_index,
    register_rule,
    shape_classes,
    strong_defect,
    summand_list,
)
from c4lab.corpus import local_square_zero_algebra, simple_modules
from c4lab.guards import GuardExceeded
from c4lab.modules import (
    ModuleHom,
    RightModule,
    direct_sum,
    is_summand,
    regular_module,
    submodule_span,
)
from test_modules import path_modules


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
def ms(reg, s):
    out, _, _ = direct_sum(reg, s, name="R+S")
    return out


@pytest.fixture(scope="module")
def plane():
    f2 = field_algebra(2)
    out, _, _ = direct_sum(regular_module(f2), regular_module(f2))
    return out


@pytest.fixture(scope="module")
def k_alg():
    return local_square_zero_algebra(2, 2)


def test_decomposition_counts(reg, plane, r2):
    assert len(enumerate_decompositions(reg)) == 2
    assert len(enumerate_decompositions(plane)) == 8
    zero = RightModule(r2, np.zeros((2, 0, 0), dtype=np.int64), name="0")
    decs = enumerate_decompositions(zero)
    assert len(decs) == 1 and decs[0].a.dim == 0


def test_decomposition_complementarity(ms):
    from c4lab import linalg
    for dec in enumerate_decompositions(ms):
        assert dec.a.dim + dec.b.dim == ms.dim
        assert linalg.intersect_rows(dec.a.basis, dec.b.basis, 2).shape[0] == 0
        e = dec.idempotent.matrix
        assert np.array_equal(linalg.row_space(e, 2), dec.a.basis)


def test_evaluate_witness_zero_map(ms):
    dec = next(d for d in enumerate_decompositions(ms) if d.a.dim == ms.dim)
    f = ModuleHom(dec.a.as_module(), dec.b.as_module(),
                  np.zeros((3, 0), dtype=np.int64))
    rec = evaluate_witness(ms, dec, f)
    assert rec.verdict == "valid"


def test_evaluate_witness_defect(ms, reg, s):
    # A = the S component, B = the R component, f embeds S onto soc(R)
    a = submodule_span(ms, [[0, 0, 1]])
    dec = next(d for d in enumerate_decompositions(ms) if d.a == a and d.b.dim == 2)
    f = ModuleHom(dec.a.as_module(), dec.b.as_module(),
                  np.array([[0, 1]])[:, : dec.b.dim] if dec.b.dim == 2 else None)
    # image inside M is span{(x, 0)}
    coeff = np.array([[0, 1]], dtype=np.int64)
    f = ModuleHom(dec.a.as_module(), dec.b.as_module(), coeff)
    rec = evaluate_witness(ms, dec, f)
    assert rec.verdict == "defect"
    assert rec.detail == "injective-image-not-summand"
    assert np.array_equal(rec.image.basis, [[0, 1, 0]])
    # oracle: no 2-dim submodule complements span{(x,0)}
    from c4lab.modules import all_submodules
    from c4lab import linalg
    image = rec.image
    for cand in all_submodules(ms).members:
        if cand.dim != 2:
            continue
        disjoint = linalg.intersect_rows(cand.basis, image.basis, 2).shape[0] == 0
        spans = linalg.sum_rows(cand.basis, image.basis, 2).shape[0] == 3
        assert not (disjoint and spans)


def test_is_c4_examples(reg, ms, plane, s):
    assert is_c4(plane)            # semisimple
    assert is_c4(reg)              # only trivial decompositions
    assert not is_c4(ms)
    classes = shape_classes(def_c4(ms))
    assert len(classes) == 1       # one defect shape class
    assert is_c4(s)


def test_is_c4star_examples(reg, ms, s):
    assert is_c4star(reg)
    assert not is_c4star(ms)
    assert is_c4star(s)
    # the failing submodule list contains the full module itself
    failing = {sub.dim for sub, _ in def_c4star(ms)}
    assert 3 in failing


def test_c4_but_not_c4star(reg):
    rr, _, _ = direct_sum(reg, reg, name="R+R")
    assert is_c4(rr) and not is_c4star(rr)


def test_swcs_readings(ms, k_alg):
    assert is_semiweak_cs(ms, "submodule")
    assert obs_swcs(ms, "submodule") == ()
    # literal-summand reading is constant true (tripwire)
    assert is_semiweak_cs(ms, "literal-summand")
    assert is_semiweak_cs(regular_module(k_alg), "literal-summand")
    with pytest.raises(ValueError, match="reading"):
        is_semiweak_cs(ms, "bogus")


def test_obstruction_pairs_on_local_square_zero(k_alg):
    reg = regular_module(k_alg)
    assert is_c4star(reg)
    assert not is_semiweak_cs(reg)
    pairs = obs_swcs(reg)
    assert len(pairs) == 3          # three socle lines, all pairs obstructed
    assert all(p.minimal for p in pairs)
    assert all(p.lengths == (1, 1) for p in pairs)
    assert obstruction_index(reg) == 1
    assert not is_strongly_c4star(reg)
    tagged = strong_defect(reg)
    assert {t for t, _ in tagged} == {"swCS-layer"}


def test_obstruction_index_infinity(reg, ms, r2):
    assert obstruction_index(reg) == INFINITY
    assert obstruction_index(ms) == INFINITY
    zero = RightModule(r2, np.zeros((2, 0, 0), dtype=np.int64), name="0")
    assert obstruction_index(zero) == INFINITY


def test_strongly_c4star(reg, ms, plane):
    assert is_strongly_c4star(reg)
    assert is_strongly_c4star(plane)
    assert not is_strongly_c4star(ms)
    tags = {t for t, _ in strong_defect(ms)}
    assert tags == {"C4star-layer"}


def test_decompose_strong(reg, ms, s, plane):
    p_part, q_part = decompose_strong(reg)
    assert (p_part.dim, q_part.dim) == (0, 2)
    p_part, q_part = decompose_strong(plane)
    assert (p_part.dim, q_part.dim) == (2, 0)
    ss, _, _ = direct_sum(s, s)
    assert decompose_strong(ss)[0].dim == 2
    with pytest.raises(ValueError, match="strongly"):
        decompose_strong(ms)


def test_decompose_strong_clauses_reverified(reg):
    from c4lab.modules import (hom_vanishes, is_orthogonal, is_semisimple,
                               is_summand_square_free)
    p_part, q_part = decompose_strong(reg)
    assert is_semisimple(p_part.as_module())
    assert is_summand_square_free(q_part.as_module())
    assert is_orthogonal(p_part.as_module(), q_part.as_module())
    assert hom_vanishes(p_part.as_module(), q_part.as_module())


def test_arity_extension(reg, ms, plane):
    for m in (reg, ms, plane):
        assert is_c4_m(m, 2) == is_c4(m)
    assert is_c4_m(plane, 3)
    assert is_c4_m(reg, 3)
    assert not is_c4_m(ms, 3)
    with pytest.raises(ValueError):
        is_c4_m(reg, 1)


def test_depth_extension(reg, ms, s):
    for m in (reg, ms):
        for d in (1, 2, 3):
            cell = check_extended(m, 2, d, strict=False)
            assert cell["C4star_d"] == is_c4star(m)
    # strict chains over a length-3 module force X0 = 0
    assert check_extended(ms, 2, 3, strict=True)["C4star_d"]
    # no strict 2-chain below a simple module
    assert check_extended(s, 2, 2, strict=True)["C4star_d"]
    cell = check_extended(ms, 2, 1, strict=True)
    assert cell["strong_depth_d"] == (cell["C4star_d"] and cell["swcs_depth_d"])


def test_flag_consistency(reg, ms, k_alg):
    for m in (reg, ms, regular_module(k_alg)):
        assert is_c4(m) == (len(def_c4(m)) == 0)
        assert is_c4star(m) == (len(def_c4star(m)) == 0)
        assert is_semiweak_cs(m) == (len(obs_swcs(m)) == 0)
        assert is_strongly_c4star(m) == (len(strong_defect(m)) == 0)


def kernel_splits(parent, dec, f, kernel, image):
    """A stricter variant of the default rule: kernels must split too."""
    if is_summand(kernel, parent) is None:
        return "defect", "kernel-not-summand"
    if f.is_injective() and is_summand(image, parent) is None:
        return "defect", "injective-image-not-summand"
    return "valid", ""


def every_datum_a_defect(parent, dec, f, kernel, image):
    return "defect", "any"


KERNEL_SPLITS = "mono-image-splits+kernel-splits"
EVERY_DATUM = "every-datum-a-defect"


def registered(rule_id, evaluate, injective_only=False):
    """rule_id, registered once per session under the given evaluate."""
    try:
        get_rule(rule_id)
    except ValueError:
        register_rule(WitnessRule(rule_id, "test rule", evaluate, injective_only))
    return rule_id


def test_pluggable_rule(ms):
    rule_id = registered(KERNEL_SPLITS, kernel_splits)
    assert not is_c4(ms, rule_id=rule_id)
    with pytest.raises(ValueError, match="already registered"):
        register_rule(WitnessRule("mono-image-splits", "dup", kernel_splits))
    with pytest.raises(ValueError, match="unknown witness rule"):
        get_rule("no-such-rule")


def test_chain_condition_takes_only_the_default_rule(plane):
    # under a rule that calls every datum a defect, F2 + F2 fails C4 and
    # C4[2]; C4[m] for m >= 3 is only defined for the default rule, so it
    # refuses rather than answer with the default rule's verdict
    rule_id = registered(EVERY_DATUM, every_datum_a_defect)
    assert not is_c4(plane, rule_id=rule_id)
    assert not is_c4_m(plane, 2, rule_id=rule_id)
    for arity in (3, 4):
        with pytest.raises(ValueError, match="defined only for the rule 'mono-image-splits'"):
            is_c4_m(plane, arity, rule_id=rule_id)
        with pytest.raises(ValueError, match="defined only for the rule"):
            check_extended(plane, arity, 1, rule_id=rule_id)
    assert is_c4_m(plane, 3)


def test_summand_list_is_deduplicated(ms):
    summands = summand_list(ms)
    keys = [s.key() for s in summands]
    assert len(keys) == len(set(keys))
    dims = sorted(s.dim for s in summands)
    assert dims[0] == 0 and dims[-1] == ms.dim


def test_evaluate_witness_endpoint_mismatch(ms, reg):
    dec = enumerate_decompositions(ms)[0]
    stray = ModuleHom(reg, reg, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError, match="endpoints"):
        evaluate_witness(ms, dec, stray)
    other_dec = enumerate_decompositions(reg)[0]
    f0 = ModuleHom(other_dec.a.as_module(), other_dec.b.as_module(),
                   np.zeros((other_dec.a.dim, other_dec.b.dim), dtype=np.int64))
    with pytest.raises(ValueError, match="belong"):
        evaluate_witness(ms, other_dec, f0)


def test_zero_module_report(r2):
    from c4lab.conditions import build_defect_report
    zero = RightModule(r2, np.zeros((2, 0, 0), dtype=np.int64), name="0")
    report = build_defect_report(zero)
    assert report.flags == {"C4": True, "C4star": True, "swCS": True,
                            "strong": True}
    assert report.def_c4 == () and report.obs == ()
    assert report.obstruction_index == INFINITY
    assert report.decomposition is not None
    assert not report.partial


# ---------------------------------------------------------------------------
# the batched hom scan against the per-map scan
# ---------------------------------------------------------------------------

def fresh(m):
    """The same module with empty caches."""
    return RightModule(m.ring, m.action, name=m.name, validate=False)


def corpus_and_lattice_modules():
    """Every distinct corpus module and lattice member, with empty caches."""
    from c4lab.corpus import corpus_builtin
    from c4lab.modules import all_submodules

    distinct = {}
    for entry in corpus_builtin():
        for x in all_submodules(entry.module).members:
            x_mod = x.as_module()
            distinct.setdefault((id(x_mod.ring), x_mod.action.tobytes()), x_mod)
    return [fresh(m) for m in distinct.values()]


def per_map_scan(m, dec, rule_id):
    """The defects of one decomposition as `_dec_defects` found them before
    the batched injectivity filter: every map of Hom(A, B) is evaluated,
    with a kernel and an image built afresh for each."""
    from c4lab import linalg
    from c4lab.modules import Submodule, hom_space_matrices

    rule = get_rule(rule_id)
    a_mod, b_mod = dec.a.as_module(), dec.b.as_module()
    homs = hom_space_matrices(a_mod, b_mod)
    k = homs.shape[0]
    out = []
    for block in linalg.coeff_blocks(m.p ** k, k, m.p):
        mats = linalg.combine(block, homs, m.p)
        for t in range(mats.shape[0]):
            f = ModuleHom(a_mod, b_mod, mats[t], check=False)
            kernel = Submodule(m, dec.a.to_parent(linalg.left_nullspace(f.matrix, m.p)),
                               check=False)
            image = Submodule(m, dec.b.to_parent(f.matrix), check=False)
            verdict, detail = rule.evaluate(m, dec, f, kernel, image)
            if verdict == "defect":
                out.append((f.matrix.tolist(), kernel.basis.tolist(), image.basis.tolist(),
                            verdict, detail))
    return out


@pytest.mark.parametrize("rule", ["default", "kernel-splits", "every-datum"])
def test_batched_witness_scan_matches_the_per_map_scan(rule):
    from c4lab.conditions import DEFAULT_RULE_ID, _dec_defects

    rule_id = {
        "default": DEFAULT_RULE_ID,
        "kernel-splits": registered(KERNEL_SPLITS, kernel_splits),
        "every-datum": registered(EVERY_DATUM, every_datum_a_defect),
    }[rule]
    modules = corpus_and_lattice_modules()
    assert len(modules) >= 40
    total = 0
    for m in modules:
        for dec in enumerate_decompositions(m):
            want = per_map_scan(m, dec, rule_id)
            got = [(rec.f.matrix.tolist(), rec.kernel.basis.tolist(),
                    rec.image.basis.tolist(), rec.verdict, rec.detail)
                   for rec in _dec_defects(m, dec, rule_id)]
            assert got == want, (m.name, dec.a.dim, dec.b.dim)
            total += len(want)
    assert total > 0


def test_an_injective_only_rule_sees_only_injective_maps():
    from c4lab import linalg
    from c4lab.modules import hom_space_matrices

    seen = []

    def spy(parent, dec, f, kernel, image):
        seen.append((parent, dec, f.matrix.tobytes()))
        return "valid", ""

    rule_id = registered("spy-injective-only", spy, injective_only=True)
    for m in corpus_and_lattice_modules():
        seen.clear()
        assert is_c4(m, rule_id=rule_id)
        injective = []
        for dec in enumerate_decompositions(m):
            homs = hom_space_matrices(dec.a.as_module(), dec.b.as_module())
            k = homs.shape[0]
            for row in linalg.decode_codes(range(m.p ** k), k, m.p):
                mat = linalg.combine(row, homs, m.p)
                if linalg.rank(mat, m.p) == dec.a.dim:
                    injective.append((m, dec, mat.tobytes()))
        # exactly the injective maps, in scan order, and nothing else
        assert [(id(x), id(d), f) for x, d, f in seen] == \
            [(id(x), id(d), f) for x, d, f in injective], m.name


def test_equal_images_share_one_carrier_and_one_fingerprint(monkeypatch, reg):
    from c4lab import modules

    rr, _, _ = direct_sum(reg, reg, name="R+R")
    x = fresh(rr)
    # R + R is C4 but not C4*: its 3-dimensional submodules have defects
    defects = [rec for sub, rec in def_c4star(x) if sub.dim == 3]
    by_key = {}
    for rec in defects:
        by_key.setdefault(rec.image.key(), []).append(rec.image)
    repeated = [images for images in by_key.values() if len(images) > 1]
    assert repeated
    assert all(img is images[0] for images in repeated for img in images)

    calls = []
    real = modules.radical_series_dims
    monkeypatch.setattr(modules, "radical_series_dims",
                        lambda mod: calls.append(mod) or real(mod))
    shape_classes(defects)
    shape_classes(defects)
    # one fingerprint per distinct image, however often it recurs
    assert len(calls) == len(by_key)
    assert len({id(mod) for mod in calls}) == len(calls)


def sharing_parents():
    """Every corpus module and the regular module of F2[x, y]/(x, y)^2."""
    from c4lab.corpus import corpus_builtin
    return [entry.module for entry in corpus_builtin()] + \
        [regular_module(local_square_zero_algebra(2, 2))]


def member_action(x):
    """The action of a submodule in its own basis, read off its pivot
    columns: a row v of the span is v[pivots] @ basis, as basis is RREF."""
    from c4lab import linalg
    pivots = [int(np.flatnonzero(row)[0]) for row in x.basis]
    acted = linalg.matmul_mod(x.basis, x.parent.action, x.parent.p)
    return np.ascontiguousarray(acted[:, :, pivots])


def test_equal_member_actions_share_one_abstract_module():
    from c4lab.modules import all_submodules

    shared = 0
    for parent in sharing_parents():
        groups = {}
        for x in all_submodules(parent).members:
            mod = x.as_module()
            if x.dim == parent.dim:
                assert mod is parent
                continue
            action = member_action(x)
            assert mod.ring is parent.ring
            assert np.array_equal(mod.action, action), parent.name
            assert mod.name == f"{parent.name}|sub{x.dim}"
            groups.setdefault((x.dim, action.tobytes()), []).append(mod)
        for mods in groups.values():
            assert all(mod is mods[0] for mod in mods)
            shared += len(mods) > 1
        # unequal actions never share an object
        assert len({id(mods[0]) for mods in groups.values()}) == len(groups)
    assert shared > 20


def _member_results(m):
    """Everything the scans answer on m, as plain data, or the message of
    the guard a scan hit."""
    def decs():
        return [(d.a.key(), d.b.key(), d.idempotent.matrix.tobytes())
                for d in enumerate_decompositions(m)]

    def c4():
        return [(r.decomposition.a.key(), r.decomposition.b.key(), r.f.matrix.tobytes(),
                 r.kernel.key(), r.image.key(), r.verdict, r.detail) for r in def_c4(m)]

    def swcs():
        return [(pair.x.key(), pair.y.key(), pair.minimal, pair.lengths)
                for pair in obs_swcs(m)]

    def ext():
        return [check_extended(m, 2, 1), check_extended(m, 3, 1, strict=False)]

    out = []
    for scan in (decs, c4, swcs, ext):
        try:
            out.append(scan())
        except GuardExceeded as exc:
            out.append(str(exc))
    return out


def test_a_shared_member_module_answers_as_a_fresh_copy():
    """The shared abstract module of every lattice member, warmed by
    whichever member or scan reached it first, answers exactly as a fresh
    RightModule built from the same ring, action and name."""
    from c4lab.modules import all_submodules

    checked = 0
    for parent in sharing_parents():
        cold = {}
        for x in all_submodules(parent).members:
            mod = x.as_module()
            key = (id(mod.ring), mod.action.tobytes())
            if key not in cold:
                cold[key] = _member_results(
                    RightModule(mod.ring, mod.action, name=mod.name, validate=False))
            assert _member_results(mod) == cold[key], (parent.name, x.dim)
            checked += 1
    assert checked > 200


def test_reports_on_a_long_lived_ring_leave_no_module_alive():
    """A module built, analysed and dropped leaves nothing behind: the
    abstract modules interned on it die with it, and nothing holds them
    from the ring."""
    import gc

    from c4lab.conditions import build_defect_report
    from c4lab.corpus import corpus_rings
    from c4lab.modules import direct_sum

    ring = corpus_rings()["r3"]
    reg = regular_module(ring)
    simple = simple_modules(ring)[0]

    def live():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is RightModule)

    baseline = live()
    for _ in range(2):
        m = direct_sum(reg, simple, name="R+S")[0]
        report = build_defect_report(m, extension_grid=((2, 1), (3, 1)))
        assert report.flags
        del m, report
        assert live() == baseline


# ---------------------------------------------------------------------------
# chain-start swCS read off the parent's lattice
# ---------------------------------------------------------------------------

def test_chain_start_swcs_read_off_the_lattice_equals_a_fresh_search():
    """For every member X of every corpus module and T_n path module, the
    flag `check_extended` reads off M's lattice equals `is_semiweak_cs` on
    a fresh copy of X's own module, which builds X's own lattice."""
    from c4lab.conditions import _start_is_swcs
    from c4lab.corpus import corpus_builtin
    from c4lab.guards import DEFAULT_GUARDS
    from c4lab.modules import all_submodules
    from test_modules import tiny_oracle_modules

    members, flags = 0, set()
    for m in [e.module for e in corpus_builtin()] + tiny_oracle_modules() + \
            [regular_module(local_square_zero_algebra(p, 2)) for p in (2, 3)]:
        lat = all_submodules(m)
        for x in lat.members:
            mod = x.as_module()
            want = is_semiweak_cs(RightModule(mod.ring, mod.action, validate=False))
            assert _start_is_swcs(lat, x, DEFAULT_GUARDS) == want, (m.name, x.dim)
            flags.add(want)
            members += 1
    assert members > 1500 and flags == {True, False}


def test_a_tight_end_bound_leaves_the_chain_start_swcs_scan_partial():
    """T3(1, 2, 2) with arrows [1 1] and diag(1, 0) is not C4* at depth 1, so
    the C4 scan of the chain starts stops early; the swCS scan goes on to a
    4-dimensional start whose End scan needs 2^5 candidates, and names it
    as a search on the start's own module does.  The 3-dimensional start
    before it also needs 2^5, but it is semisimple, so its flag is read
    off the lattice with no End scan; a bound of 2^5 answers exactly."""
    from c4lab.algebra import upper_triangular_algebra
    from c4lab.guards import Guards
    from test_modules import path_module

    def module():
        return path_module(upper_triangular_algebra(2, 3), 3, (1, 2, 2),
                           [np.array([[1, 1]]), np.array([[1, 0], [0, 0]])])

    cell = check_extended(module(), 2, 1)
    assert (cell["C4star_d"], cell["swcs_depth_d"]) == (False, True)
    with pytest.raises(GuardExceeded) as exc:
        check_extended(module(), 2, 1, guards=Guards(max_end_enumeration=16))
    assert str(exc.value) == "endomorphism scan of T3(1, 2, 2)|sub4: needs 32 > bound 16"
    assert check_extended(module(), 2, 1, guards=Guards(max_end_enumeration=32)) == cell


# ---------------------------------------------------------------------------
# semisimple members decided by their bits; C4 from its definition
# ---------------------------------------------------------------------------

def test_members_the_bits_call_semisimple_pass_every_full_scan():
    """On every member X of every corpus module, tiny path module and
    F_p<x, y>/(x, y)^2 regular module, the bit test S(X) ⊆ S(soc M) is X's
    own semisimplicity, and where it holds the full scans find nothing:
    no C4 defect, no obstruction pair, and the chain-start flag is swCS.
    `def_c4star`, which skips those members, lists exactly the defects of
    `def_c4` on every member's own module."""
    from c4lab.conditions import _start_is_swcs
    from c4lab.guards import DEFAULT_GUARDS
    from c4lab.modules import all_submodules, is_semisimple
    from test_modules import bitset_oracle_modules

    def keys(x, rec):
        return (x.key(), rec.decomposition.a.key(), rec.decomposition.b.key(),
                rec.kernel.key(), rec.image.key())

    semisimple = 0
    for m in bitset_oracle_modules():
        lat = all_submodules(m)
        for x, bits in zip(lat.members, lat.bits):
            mod = x.as_module()
            by_bits = not bits & ~lat.socle_bits()
            assert by_bits == is_semisimple(mod), (m.name, x.dim)
            if by_bits:
                assert def_c4(mod) == () and obs_swcs(mod) == (), (m.name, x.dim)
                assert _start_is_swcs(lat, x, DEFAULT_GUARDS), (m.name, x.dim)
                semisimple += 1
        full = [keys(x, rec) for x in lat.members for rec in def_c4(x.as_module())]
        assert [keys(x, rec) for x, rec in def_c4star(m)] == full, m.name
    assert semisimple > 1000


def test_a_rule_that_does_not_call_summand_images_valid_scans_every_member(ms, plane, k_alg):
    """Only a rule that declares `summand_image_valid` lets `def_c4star`
    and `check_extended` skip semisimple members: under one that calls
    every datum a defect they list and count the defects of `def_c4` on
    every member's own module, semisimple members included."""
    from c4lab.modules import all_submodules, is_semisimple

    rule_id = registered(EVERY_DATUM, every_datum_a_defect)
    semisimple_defects = 0
    for m in (ms, plane, regular_module(k_alg)):
        members = all_submodules(m).members
        full = [(x, rec) for x in members for rec in def_c4(x.as_module(), rule_id)]
        assert def_c4star(m, rule_id) == tuple(full), m.name
        assert check_extended(m, 2, 0, False, rule_id)["C4star_d"] == (not full), m.name
        semisimple_defects += sum(is_semisimple(x.as_module()) for x, _ in full)
    assert semisimple_defects > 0


def _own_module(m, basis):
    """The submodule of m with this RREF basis as a module in that basis:
    a vector's coordinates are its entries at the pivot columns."""
    piv = [np.flatnonzero(row)[0] for row in basis]
    action = np.stack([(basis @ m.action[j] % m.p)[:, piv] for j in range(m.ring.dim)])
    return RightModule(m.ring, action, validate=False)


def definitional_c4_defects(m):
    """C4 from its definition, over the brute-force lattice: every ordered
    pair (A, B) of members with A ∩ B = 0 and A + B = M, and every
    f: A -> B from a brute-force hom scan; f is a defect when it is
    injective and no member is a complement of im f.  Returns the ordered
    complementary pairs and the sorted (A, B, ker f, im f) keys."""
    from c4lab import linalg
    from test_modules import brute_force_homs, brute_force_lattice

    p, n = m.p, m.dim
    members = [np.frombuffer(key, dtype=np.int64).reshape(len(key) // 8 // max(n, 1), n)
               for key in brute_force_lattice(m)]

    def complementary(x, y):
        return x.shape[0] + y.shape[0] == n and linalg.rank(np.concatenate([x, y]), p) == n

    own = [_own_module(m, x) for x in members]
    pairs, defects, summand = [], [], {}
    for (a, a_mod), (b, b_mod) in itertools.product(zip(members, own), repeat=2):
        if not complementary(a, b):
            continue
        pairs.append((a.tobytes(), b.tobytes()))
        _, span = brute_force_homs(a_mod, b_mod)
        k, da, db = span.shape
        coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
        maps = (coeffs.reshape(p ** k, k) @ span.reshape(k, da * db) % p).reshape(p ** k, da, db)
        # f is injective iff only the zero vector of A maps to zero
        vectors = np.array(list(itertools.product(range(p), repeat=da)), dtype=np.int64)
        zero_rows = np.all(np.einsum("va,fab->fvb", vectors.reshape(p ** da, da), maps) % p == 0,
                           axis=2)
        for f in maps[zero_rows.sum(axis=1) == 1]:
            image = linalg.row_space(f @ b % p, p)
            key = image.tobytes()
            if key not in summand:
                summand[key] = any(complementary(image, c) for c in members)
            if not summand[key]:
                defects.append((a.tobytes(), b.tobytes(), b"", key))
    return pairs, sorted(defects)


def test_c4_defects_match_the_definition_at_tiny_sizes():
    """`def_c4` and its End scan against `definitional_c4_defects`, which
    uses no End scan, hom solve, `is_summand`, batched rank or lattice
    bits, only GF(p) ranks: the decompositions are exactly the ordered
    complementary pairs of members, and the defect witnesses, as
    (A, B, ker f, im f) canonical bases, are the same multiset."""
    from test_modules import bitset_oracle_modules

    defects = 0
    for m in bitset_oracle_modules():
        if m.p ** m.dim > 2 ** 6:
            continue
        pairs, want = definitional_c4_defects(m)
        decs = enumerate_decompositions(m)
        assert len(decs) == len(pairs), m.name
        assert sorted((d.a.key(), d.b.key()) for d in decs) == sorted(pairs), m.name
        got = sorted((r.decomposition.a.key(), r.decomposition.b.key(), r.kernel.key(),
                      r.image.key()) for r in def_c4(m))
        assert got == want, m.name
        defects += len(want)
    assert defects >= 40


# ---------------------------------------------------------------------------
# semisimple modules decided by the socle; swCS from its definition
# ---------------------------------------------------------------------------

def _vector_sets(m, bases):
    """Each subspace, given by its RREF basis, as the bit set of the codes
    of its vectors (a vector v has the code sum v_i p^i; 0 is bit 1)."""
    p, n = m.p, m.dim
    weights = p ** np.arange(n, dtype=np.int64)
    sets = []
    for b in bases:
        k = b.shape[0]
        coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
        codes = (coeffs.reshape(p ** k, k) @ b % p) @ weights
        sets.append(sum(1 << int(c) for c in set(codes.tolist())))
    return sets


def _has_invertible_hom(x, y):
    """Whether some brute-force hom x -> y between equal dimensions is
    invertible: only the zero vector of x maps to zero."""
    from test_modules import brute_force_homs

    p, d = x.p, x.dim
    if d != y.dim:
        return False
    _, span = brute_force_homs(x, y)
    k = span.shape[0]
    coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
    maps = (coeffs.reshape(p ** k, k) @ span.reshape(k, d * d) % p).reshape(p ** k, d, d)
    vectors = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    zero_rows = np.all(np.einsum("va,fab->fvb", vectors.reshape(p ** d, d), maps) % p == 0,
                       axis=2)
    return bool(np.any(zero_rows.sum(axis=1) == 1))


def definitional_obstructions(m):
    """swCS under the submodule reading from its definition, over the
    brute-force lattice, each member taken as the set of its vectors.  A
    member is simple when it is nonzero with no nonzero member strictly
    inside, semisimple when the simple members inside it span it, and a
    summand when some member is a complement.  X is essential in A when
    X <= A and every nonzero member inside A meets X.  A pair of nonzero,
    disjoint, semisimple members isomorphic by a brute-force invertible
    hom is an obstruction unless each leg is essential in some summand;
    it is minimal when no other obstruction sits leg by leg inside it,
    and a leg's length is the longest chain of members below it.  Returns
    the sorted ((key, length), (key, length), minimal) triples."""
    from c4lab import linalg
    from test_modules import brute_force_lattice

    p, n = m.p, m.dim
    bases = [np.frombuffer(key, dtype=np.int64).reshape(len(key) // 8 // max(n, 1), n)
             for key in brute_force_lattice(m)]
    sets = _vector_sets(m, bases)
    dims = [b.shape[0] for b in bases]
    idx = range(len(bases))

    def inside(x, y):
        return not sets[x] & ~sets[y]

    below = [[j for j in idx if j != i and inside(j, i)] for i in idx]
    simple = [dims[i] > 0 and all(dims[j] == 0 for j in below[i]) for i in idx]

    def spanned_by_simples(i):
        inside = [bases[j] for j in below[i] + [i] if simple[j]]
        return bool(inside) and linalg.rank(np.concatenate(inside), p) == dims[i]

    semisimple = [spanned_by_simples(i) for i in idx]
    summands = [a for a in idx if any(sets[a] & sets[c] == 1 and dims[a] + dims[c] == n
                                      for c in idx)]
    length = [0] * len(bases)
    for i in idx:      # members come in increasing dimension
        length[i] = max((length[j] + 1 for j in below[i]), default=0)

    def essential(x, a):
        return inside(x, a) and all(sets[z] & sets[x] != 1 for z in below[a] if dims[z])

    legs = [i for i in idx if dims[i] and semisimple[i]]
    hull = {i: any(essential(i, a) for a in summands) for i in legs}
    own = {i: _own_module(m, bases[i]) for i in legs}
    found = [(i, j) for i, j in itertools.combinations(legs, 2)
             if sets[i] & sets[j] == 1 and not (hull[i] and hull[j])
             and _has_invertible_hom(own[i], own[j])]
    out = []
    for i, j in found:
        minimal = not any(inside(i2, i) and inside(j2, j) or inside(j2, i) and inside(i2, j)
                          for i2, j2 in found if (i2, j2) != (i, j))
        out.append((*sorted([(bases[i].tobytes(), length[i]), (bases[j].tobytes(), length[j])]),
                    minimal))
    return sorted(out)


def assert_obstructions_match_the_definition(m):
    """`obs_swcs` and `obstruction_index` on a fresh copy of m against
    `definitional_obstructions`; returns the number of pairs."""
    want = definitional_obstructions(m)
    m = fresh(m)
    got = sorted((*sorted([(pair.x.key(), pair.lengths[0]), (pair.y.key(), pair.lengths[1])]),
                  pair.minimal) for pair in obs_swcs(m))
    assert got == want, m.name
    assert obstruction_index(m) == min((leg[1] for leg, _, _ in want), default=INFINITY)
    return len(want)


def test_swcs_obstructions_match_the_definition_at_tiny_sizes():
    """On every tiny oracle module, the regular modules R of
    F_p<x, y>/(x, y)^2 for p = 2, 3 and R + R for p = 2 (whose socle S^4
    has obstruction pairs of lengths 1 and 2, most of them not minimal),
    `obs_swcs` lists exactly the obstruction pairs of the definition, with
    their minimality and lengths, and so the obstruction index.  The
    oracle uses no End scan, socle, `is_summand`, `iso_test` or lattice
    bits."""
    from test_modules import tiny_oracle_modules

    regs = {p: regular_module(local_square_zero_algebra(p, 2)) for p in (2, 3)}
    modules = tiny_oracle_modules() + list(regs.values()) + \
        [direct_sum(regs[2], regs[2], name="R+R")[0]]
    counts = []
    for m in modules:
        assert m.p ** m.dim <= 2 ** 6
        counts.append(assert_obstructions_match_the_definition(m))
    assert sum(counts) > 390 and sum(c > 0 for c in counts) >= 3


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_swcs_obstructions_of_generated_path_modules_match_the_definition(m):
    assert_obstructions_match_the_definition(m)


UNDECLARED = "mono-image-splits-undeclared"


def _witness_keys(records):
    """The sorted (A, B, ker f, im f) canonical bases of C4 witnesses."""
    return sorted((r.decomposition.a.key(), r.decomposition.b.key(), r.kernel.key(),
                   r.image.key()) for r in records)


def assert_the_socle_shortcut_agrees_with_the_full_scan(m):
    """`def_c4` under the default rule, which answers a semisimple module
    from its socle, against a copy of that rule that does not declare
    `summand_image_valid` and so scans every module in full: the same
    witnesses on every module.  On a semisimple module both find none,
    as do `definitional_c4_defects` at p^dim M <= 2^6, `obs_swcs` and
    the full obstruction search.  Returns whether m is semisimple."""
    from c4lab.conditions import DEFAULT_RULE_ID, _lattice_obstructions
    from c4lab.guards import DEFAULT_GUARDS
    from c4lab.modules import all_submodules, is_semisimple

    rule_id = registered(UNDECLARED, get_rule(DEFAULT_RULE_ID).evaluate, injective_only=True)
    assert not get_rule(rule_id).summand_image_valid
    m = fresh(m)
    shortcut, full = def_c4(m), def_c4(m, rule_id)
    assert _witness_keys(shortcut) == _witness_keys(full), m.name
    if not is_semisimple(m):
        return False
    assert shortcut == () and full == () and obs_swcs(m) == (), m.name
    lat = all_submodules(m)
    summand_bits = [lat.bits_of(a.basis) for a in summand_list(m)]
    assert _lattice_obstructions(lat, lat.bits[-1], summand_bits, DEFAULT_GUARDS) == []
    if m.p ** m.dim <= 2 ** 6:
        assert definitional_c4_defects(m)[1] == [], m.name
    return True


def test_the_socle_shortcut_agrees_with_the_full_scan():
    from c4lab.corpus import corpus_builtin
    from test_modules import tiny_oracle_modules

    modules = [e.module for e in corpus_builtin()] + tiny_oracle_modules()
    semisimple = sum(assert_the_socle_shortcut_agrees_with_the_full_scan(m) for m in modules)
    assert 10 <= semisimple < len(modules)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_the_socle_shortcut_agrees_with_the_full_scan_on_generated_path_modules(m):
    assert_the_socle_shortcut_agrees_with_the_full_scan(m)


def _raw_spec(ring, name):
    """A constructor-built ring as a raw structure-constant spec, which
    the parser reads with no known radical."""
    mul = [[i, j, ring.sc[i, j].tolist()] for i in range(ring.dim) for j in range(ring.dim)
           if ring.sc[i, j].any()]
    return {"name": name, "p": ring.p, "dim": ring.dim, "one": ring.one.tolist(), "mul": mul}


def test_a_ring_scan_report_never_asks_a_parsed_ring_for_its_radical(monkeypatch):
    """A parsed M_2(R) of dimension 12 or 16 has no known radical, so its
    radical would be an element scan of p^(2 dim R) products.  Under the
    ring-scan guards its regular module is over the lattice bound, so no
    section asks for its socle, semisimple or not: the radical is never
    called and every section goes partial on the End scan or the lattice."""
    import json
    import os
    from c4lab import algebra, modules
    from c4lab.algebra import matrix_algebra
    from c4lab.conditions import build_defect_report
    from c4lab.guards import Guards
    from c4lab.io import parse_ring

    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "ring_scan_guards.json")
    with open(path, "r", encoding="utf-8") as fh:
        guards = Guards.from_dict(json.load(fh))
    calls = []

    def refuse(ring, *args, **kwargs):
        calls.append(ring.name)
        raise AssertionError(f"the radical of {ring.name} was asked for")

    specs = [_raw_spec(matrix_algebra(base, 2), name) for name, base in (
        ("M2(F2[x]/(x^3))", poly_quotient_algebra(2, [0, 0, 0, 1])),
        ("M2(M2(F2))", matrix_algebra(field_algebra(2), 2)))]
    monkeypatch.setattr(algebra, "jacobson_radical", refuse)
    monkeypatch.setattr(modules, "jacobson_radical", refuse)
    for spec, total in zip(specs, (2 ** 12, 2 ** 16)):
        ring = parse_ring(spec)
        name = ring.name
        assert ring.p ** ring.dim == total
        report = build_defect_report(regular_module(ring), guards=guards, ring_mode=True)
        end = f"endomorphism scan of {name}_reg: needs {total} > bound 1024"
        lattice = f"submodule lattice of {name}_reg: needs {total} > bound 1024"
        assert report.partial == {"def_c4": end, "def_c4star": lattice, "obs_swcs": end,
                                  "extension(2,1)": lattice, "ring_scan": lattice}
    assert calls == []


def test_a_radical_over_its_guard_leaves_c4_to_the_full_scan(monkeypatch):
    """The C4 scan needs no radical.  So when the ring's radical is over
    its own guard, `def_c4` does not go partial on the socle test: it
    scans in full and lists the same witnesses as with the radical."""
    from c4lab import modules
    from c4lab.corpus import corpus_builtin

    corpus = [e.module for e in corpus_builtin()]
    want = [_witness_keys(def_c4(fresh(m))) for m in corpus]
    semisimple = [modules.is_semisimple(fresh(m)) for m in corpus]

    def over_guard(ring, *args, **kwargs):
        raise GuardExceeded(f"element enumeration of {ring.name}", 2 ** 21, 2 ** 20)

    monkeypatch.setattr(modules, "jacobson_radical", over_guard)
    with pytest.raises(GuardExceeded):
        modules.is_semisimple(fresh(corpus[0]))
    assert [_witness_keys(def_c4(fresh(m))) for m in corpus] == want
    assert any(semisimple) and not all(semisimple)


# ---------------------------------------------------------------------------
# C4 from its definition on generated modules
# ---------------------------------------------------------------------------

def assert_c4_defects_match_the_definition(m):
    """The body of `test_c4_defects_match_the_definition_at_tiny_sizes` on
    one module; returns the number of defects."""
    pairs, want = definitional_c4_defects(m)
    decs = enumerate_decompositions(m)
    assert len(decs) == len(pairs), m.name
    assert sorted((d.a.key(), d.b.key()) for d in decs) == sorted(pairs), m.name
    got = sorted((r.decomposition.a.key(), r.decomposition.b.key(), r.kernel.key(),
                  r.image.key()) for r in def_c4(m))
    assert got == want, m.name
    return len(want)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_c4_defects_of_generated_path_modules_match_the_definition(m):
    if m.p ** m.dim <= 2 ** 6:
        assert_c4_defects_match_the_definition(m)


# ---------------------------------------------------------------------------
# the trusted path: what the End scan and the canonical constructor skip
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def trusted_constructions():
    """Record every Submodule the trusted constructor builds and every
    decomposition `_end_scan` returns while the block runs."""
    from unittest import mock

    from c4lab import conditions
    from c4lab.modules import Submodule

    subs, decs = [], []
    canonical, end_scan = Submodule._canonical, conditions._end_scan

    def recording_canonical(cls, parent, basis):
        subs.append(canonical(parent, basis))
        return subs[-1]

    def recording_end_scan(*args):
        out = end_scan(*args)
        decs.extend(out)
        return out

    with mock.patch.object(Submodule, "_canonical", classmethod(recording_canonical)), \
            mock.patch.object(conditions, "_end_scan", recording_end_scan):
        yield subs, decs


def assert_the_trusted_path_is_sound(subs, decs):
    """What the trusted path skips, checked: each trusted basis is the
    basis the public constructor gives, which eliminates and checks
    closure under the action; each decomposition of the End scan has
    A = im e and B = ker e = im(1 - e) as canonical bases, and passes the
    validating constructor."""
    from c4lab import linalg
    from c4lab.conditions import Decomposition
    from c4lab.modules import Submodule

    assert subs and decs
    for sub in subs:
        checked = Submodule(sub.parent, sub.basis)
        assert sub.basis.dtype == np.int64 and sub.basis.shape == checked.basis.shape
        assert sub.key() == checked.key(), sub
    for dec in decs:
        m, e = dec.parent, dec.idempotent.matrix
        image = linalg.row_space(e, m.p)
        kernel = linalg.row_space((linalg.eye(m.dim) - e) % m.p, m.p)
        assert image.shape == dec.a.basis.shape and image.tobytes() == dec.a.key(), m.name
        assert kernel.shape == dec.b.basis.shape and kernel.tobytes() == dec.b.key(), m.name
        Decomposition(m, dec.a, dec.b, dec.idempotent)


def assert_a_report_takes_a_sound_trusted_path(m):
    from c4lab.conditions import build_defect_report

    with trusted_constructions() as (subs, decs):
        build_defect_report(fresh(m), extension_grid=((2, 1), (3, 1)))
    assert_the_trusted_path_is_sound(subs, decs)
    return len(decs)


def test_the_trusted_path_is_sound_on_the_corpus_and_its_lattices():
    from c4lab.corpus import corpus_builtin
    from test_modules import tiny_oracle_modules

    modules = ([e.module for e in corpus_builtin()] + corpus_and_lattice_modules()
               + tiny_oracle_modules())
    assert sum(assert_a_report_takes_a_sound_trusted_path(m) for m in modules) > 1000


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_the_trusted_path_is_sound_on_generated_path_modules(m):
    assert_a_report_takes_a_sound_trusted_path(m)


def test_the_trusted_path_is_sound_under_transport():
    """Transported carriers (`transport_submodule`) and the decompositions
    of the image modules, on every fourth corpus module."""
    from c4lab.corpus import corpus_builtin
    from c4lab.morita import (apply_functor, build_progenerator, defect_bijection_check,
                              transport_property_check, transport_witness)

    witnesses = 0
    with trusted_constructions() as (subs, decs):
        for entry in corpus_builtin()[::4]:
            prog = build_progenerator(entry.ring, ("matrix", 2))
            m = fresh(entry.module)
            assert transport_property_check(prog, m)["ok"]
            assert defect_bijection_check(prog, m)["ok"]
            tr = apply_functor(prog, m)
            for w in def_c4(m):
                assert transport_witness(tr, w).verdict == "defect"
                witnesses += 1
    assert witnesses > 0
    assert_the_trusted_path_is_sound(subs, decs)


# ---------------------------------------------------------------------------
# C4* from its definition
# ---------------------------------------------------------------------------

def definitional_c4star_defects(m):
    """C4* from its definition: `definitional_c4_defects` on every member
    X of the brute-force lattice, in X's own basis, with each witness's
    A, B, ker f and im f lifted into m.  Returns the sorted
    (X, A, B, ker f, im f) canonical bases.  The zero member is skipped:
    its one datum, the zero map, has the summand 0 as its image."""
    from c4lab import linalg
    from test_modules import brute_force_lattice

    out = []
    for key in brute_force_lattice(m):
        x = np.frombuffer(key, dtype=np.int64).reshape(-1, max(m.dim, 1))
        if not x.shape[0]:
            continue
        _, defects = definitional_c4_defects(_own_module(m, x))
        for carriers in defects:
            coords = [np.frombuffer(c, dtype=np.int64).reshape(-1, x.shape[0]) for c in carriers]
            out.append((key, *(linalg.row_space(c @ x % m.p, m.p).tobytes() for c in coords)))
    return sorted(out)


def c4star_oracle_modules():
    """The tiny oracle modules and the regular modules of F_p<x, y>/(x, y)^2
    for p = 2, 3, each with at most 2^6 elements."""
    from test_modules import tiny_oracle_modules

    return [m for m in tiny_oracle_modules()
            + [regular_module(local_square_zero_algebra(p, 2)) for p in (2, 3)]
            if m.p ** m.dim <= 2 ** 6]


def assert_c4star_defects_match_the_definition(m):
    """`def_c4star(m)`, each pair lifted by `morita._lifted_carriers`,
    against `definitional_c4star_defects`; returns the number of defects."""
    from c4lab.morita import _lifted_carriers

    got = sorted((x.key(), *(c.key() for c in _lifted_carriers(x, w))) for x, w in def_c4star(m))
    want = definitional_c4star_defects(m)
    assert got == want, m.name
    return len(want)


def test_c4star_defects_match_the_definition_at_tiny_sizes():
    """`def_c4star` against an oracle that uses no End scan, presentation,
    `is_summand`, stacked echelon or lattice bits, only GF(p) ranks on
    brute-force lattices: the (X, A, B, ker f, im f) witnesses agree as a
    multiset of canonical bases in M."""
    modules = c4star_oracle_modules()
    defects = sum(assert_c4star_defects_match_the_definition(m) for m in modules)
    assert len(modules) > 150 and defects >= 80


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(path_modules())
def test_c4star_defects_of_generated_path_modules_match_the_definition(m):
    if m.p ** m.dim <= 2 ** 6:
        assert_c4star_defects_match_the_definition(m)
