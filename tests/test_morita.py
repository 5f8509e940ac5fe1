import numpy as np
import pytest

from c4lab import morita
from c4lab.algebra import (
    field_algebra,
    jacobson_radical,
    matrix_algebra,
    poly_quotient_algebra,
)
from c4lab.conditions import def_c4, enumerate_decompositions, evaluate_witness, obs_swcs
from c4lab.corpus import corpus_builtin, local_square_zero_algebra, simple_modules
from c4lab.modules import (
    ModuleHom,
    SubmoduleLattice,
    all_submodules,
    direct_sum,
    fingerprint,
    iso_test,
    regular_module,
    socle,
)
from c4lab.morita import (
    apply_functor,
    build_progenerator,
    corner_progenerator,
    defect_bijection_check,
    end_algebra,
    free_progenerator,
    morita_pair_check,
    transport_hom,
    transport_property_check,
    transport_submodule,
    transport_witness,
)


@pytest.fixture(scope="module")
def r2():
    return poly_quotient_algebra(2, [0, 0, 1])


@pytest.fixture(scope="module")
def reg(r2):
    return regular_module(r2)


@pytest.fixture(scope="module")
def ms(r2, reg):
    out, _, _ = direct_sum(reg, simple_modules(r2)[0], name="R+S")
    return out


@pytest.fixture(scope="module")
def prog(r2):
    return build_progenerator(r2, ("matrix", 2))


def test_end_algebra_of_regular_is_base(r2, reg):
    p1 = free_progenerator(r2, 1)
    data = end_algebra(p1.module, projective=True)
    assert data.algebra.dim == 2
    # End(R_R) ~ R: same radical dimension and unit counts
    assert jacobson_radical(data.algebra).dim == jacobson_radical(r2).dim


def test_certified_matrix_iso(prog, r2):
    data = end_algebra(prog.module, projective=True)
    assert data.algebra.dim == 8
    assert data.certified_iso is not None
    assert data.certified_iso["target"].name.startswith("M2(")
    assert jacobson_radical(data.algebra).dim == 4


def test_certified_corner_iso():
    m2 = matrix_algebra(field_algebra(2), 2)
    e11 = np.array([1, 0, 0, 0])
    prog = build_progenerator(m2, ("corner", e11))
    data = end_algebra(prog.module, projective=True)
    assert data.algebra.dim == 1  # e11 M2(F2) e11 ~ F2
    assert data.certified_iso is not None


def test_corner_end_radical_matches_corner_algebra(r2):
    big = matrix_algebra(r2, 2)
    e = np.zeros(big.dim, dtype=np.int64)
    e[: r2.dim] = r2.one
    prog = build_progenerator(big, ("corner", e))
    data = end_algebra(prog.module, projective=True)
    assert data.algebra.dim == 2  # the corner is the base ring again
    # End radical (im f inside rad P) agrees with the corner radical e J e
    assert jacobson_radical(data.algebra).dim == \
        jacobson_radical(data.certified_iso["target"]).dim == 1


def test_corner_requires_full(r2):
    from c4lab.algebra import product_algebra
    ff = product_algebra(field_algebra(2), field_algebra(2))
    with pytest.raises(ValueError, match="not full"):
        corner_progenerator(ff, [1, 0])
    with pytest.raises(ValueError, match="idempotent"):
        corner_progenerator(r2, [0, 1])


def test_functor_dimensions(prog, reg, ms, r2):
    assert apply_functor(prog, reg).image.dim == 2 * reg.dim
    assert apply_functor(prog, ms).image.dim == 2 * ms.dim
    p1 = build_progenerator(r2, ("matrix", 1))
    tr = apply_functor(p1, ms)
    assert tr.image.dim == ms.dim
    assert iso_test(tr.image, tr.image) is True


def test_functor_on_simple_over_field():
    f2 = field_algebra(2)
    prog = build_progenerator(f2, ("matrix", 2))
    tr = apply_functor(prog, regular_module(f2))
    assert tr.image.dim == 2
    from c4lab.modules import is_simple
    assert is_simple(tr.image)  # the column space over M2(F2)


def test_functor_preserves_direct_sums(prog, reg, r2):
    s = simple_modules(r2)[0]
    total, _, _ = direct_sum(reg, s)
    left = apply_functor(prog, total)
    f_reg = apply_functor(prog, reg)
    f_s = apply_functor(prog, s)
    resum, _, _ = direct_sum(f_reg.image, f_s.image)
    assert iso_test(left.image, resum) is True


def test_transport_submodule_extremes(prog, ms):
    tr = apply_functor(prog, ms)
    assert transport_submodule(tr, ms.zero_submodule()).dim == 0
    assert transport_submodule(tr, ms.full_submodule()).dim == tr.image.dim


def test_transport_preserves_essentiality(prog, ms):
    from c4lab.modules import is_essential
    tr = apply_functor(prog, ms)
    for sub in all_submodules(ms).members:
        assert is_essential(sub, ms) == is_essential(
            transport_submodule(tr, sub), tr.image)


def test_transport_hom_functorial(prog, reg, ms, r2):
    s = simple_modules(r2)[0]
    tr_s = apply_functor(prog, s)
    tr_reg = apply_functor(prog, reg)
    tr_ms = apply_functor(prog, ms)
    from c4lab.modules import hom_basis
    f = hom_basis(s, reg)[0]
    g = hom_basis(reg, ms)[0]
    left = transport_hom(tr_s, tr_ms, f.then(g))
    right = transport_hom(tr_s, tr_reg, f).then(transport_hom(tr_reg, tr_ms, g))
    assert np.array_equal(left.matrix, right.matrix)
    ident = ModuleHom(reg, reg, np.eye(2, dtype=np.int64))
    t_ident = transport_hom(tr_reg, tr_reg, ident)
    assert np.array_equal(t_ident.matrix, np.eye(4, dtype=np.int64))


def test_transport_witness_verdicts(prog, ms):
    tr = apply_functor(prog, ms)
    for w in def_c4(ms):
        assert transport_witness(tr, w).verdict == "defect"
    trivial = next(d for d in enumerate_decompositions(ms) if d.a.dim == ms.dim)
    f0 = ModuleHom(trivial.a.as_module(), trivial.b.as_module(),
                   np.zeros((3, 0), dtype=np.int64))
    w0 = evaluate_witness(ms, trivial, f0)
    assert transport_witness(tr, w0).verdict == "valid"


def test_morita_pair_check_matrix(r2, ms):
    report = morita_pair_check(r2, ("matrix", 2), ms,
                               ("C4", "C4star", "swCS", "strong", "iota"))
    assert report["violations"] == 0
    values = {row["condition"]: row["value_on_M"] for row in report["rows"]}
    assert values["C4"] is False and values["swCS"] is True
    assert values["iota"] == "infinity"


def test_the_zero_module_transports_to_the_zero_module(r2, prog):
    from c4lab.modules import RightModule
    from c4lab.suite import block_idempotent_coords

    zero = RightModule(r2, np.zeros((2, 0, 0), dtype=np.int64), name="0")
    image = apply_functor(prog, zero).image
    assert image.dim == 0
    assert morita_pair_check(r2, ("matrix", 2), zero)["violations"] == 0
    corner = ("corner", block_idempotent_coords(r2, prog))
    assert morita_pair_check(image.ring, corner, image)["violations"] == 0


def test_morita_pair_check_corner():
    m2 = matrix_algebra(field_algebra(2), 2)
    report = morita_pair_check(m2, ("corner", [1, 0, 0, 0]),
                               regular_module(m2), ("strong",))
    assert report["violations"] == 0
    assert report["rows"][0]["value_on_M"] is True


def test_defect_bijection_check(prog, ms, r2):
    report = defect_bijection_check(prog, ms)
    assert report["ok"]
    assert report["emptiness"]["def_c4"]
    k = local_square_zero_algebra(2, 2)
    kprog = build_progenerator(k, ("matrix", 2))
    kreport = defect_bijection_check(kprog, regular_module(k))
    assert kreport["ok"]
    assert kreport["iota_source"] == 1 == kreport["iota_image"]


def _reroute_transport(monkeypatch, tr, source, target):
    """A broken functor: morita.transport_submodule sends the submodule of
    tr's source with source's basis to target, and every other one right."""
    real = morita.transport_submodule

    def rerouted(t, n):
        return target if t is tr and n.key() == source.key() else real(t, n)
    monkeypatch.setattr(morita, "transport_submodule", rerouted)


def test_defect_bijection_check_catches_an_image_sent_to_a_same_fingerprint_member(
        monkeypatch):
    """The first C4 defect's image goes to another member of lat(F M) with
    its dimension and fingerprint: a fingerprint key cannot tell them apart,
    a canonical basis can."""
    (entry,) = [e for e in corpus_builtin() if e.name == "t2.T2(F2)_reg"]
    m = entry.module
    prog = build_progenerator(m.ring, ("matrix", 2))
    tr = apply_functor(prog, m)
    defects = def_c4(m)
    assert len(defects) == 2
    image = transport_submodule(tr, defects[0].image)
    (twin, *_) = [x for x in all_submodules(tr.image).members
                  if x != image and x.dim == image.dim
                  and fingerprint(x.as_module()) == fingerprint(image.as_module())]
    _reroute_transport(monkeypatch, tr, defects[0].image, twin)
    report = defect_bijection_check(prog, m)
    assert report["multiset_def_c4"] is False
    assert report["ok"] is False


def test_defect_bijection_check_catches_an_obstruction_leg_sent_onto_its_partner(
        monkeypatch):
    k = local_square_zero_algebra(2, 2)
    m = regular_module(k)
    prog = build_progenerator(k, ("matrix", 2))
    tr = apply_functor(prog, m)
    pairs = obs_swcs(m)
    assert len(pairs) == 3
    _reroute_transport(monkeypatch, tr, pairs[0].x, transport_submodule(tr, pairs[0].y))
    assert defect_bijection_check(prog, m)["multiset_obs_swcs"] is False


def test_transport_property_check_catches_one_flipped_summand_flag(monkeypatch, prog, ms):
    """Summandhood on M comes from the retraction solve and on F(M) from
    the image lattice's complements: one wrong flag on the F(M) side, for
    any member, breaks the agreement."""
    tr = apply_functor(prog, ms)
    assert transport_property_check(prog, ms)["summand_agreement"] is True
    real = SubmoduleLattice.summands
    members = len(all_submodules(tr.image).members)
    assert members > 2
    for k in range(members):
        def flipped(lat, k=k):
            flags = real(lat)
            return flags[:k] + (not flags[k],) + flags[k + 1:] if lat.parent is tr.image else flags
        monkeypatch.setattr(SubmoduleLattice, "summands", flipped)
        report = transport_property_check(prog, ms)
        assert report["summand_agreement"] is False, k
        assert report["ok"] is False and report["semisimple_agreement"] is True
    monkeypatch.undo()
    assert transport_property_check(prog, ms)["ok"] is True


def test_generator_certificate_present(prog):
    assert prog.certificates["generator"] is True


def test_socle_transported_is_socle(prog, ms):
    tr = apply_functor(prog, ms)
    left = transport_submodule(tr, socle(ms))
    assert left == socle(tr.image)


def test_end_algebra_keys_its_cache_on_projective():
    m = regular_module(poly_quotient_algebra(2, [0, 0, 1]))
    plain = end_algebra(m)
    assert plain.algebra._known_radical is None
    projective = end_algebra(m, projective=True)
    assert projective.algebra._known_radical is not None
    assert jacobson_radical(projective.algebra).dim == 1
    assert end_algebra(m) is plain and end_algebra(m, projective=True) is projective


def test_a_progenerator_keeps_no_transported_module_alive(prog, r2):
    import gc
    import weakref
    m = direct_sum(regular_module(r2), simple_modules(r2)[0], name="R+S")[0]
    tr = apply_functor(prog, m)
    assert apply_functor(prog, m) is tr
    assert apply_functor(build_progenerator(r2, ("matrix", 1)), m) is not tr
    gone = [weakref.ref(m), weakref.ref(tr.image)]
    del m, tr
    gc.collect()
    assert all(ref() is None for ref in gone)
