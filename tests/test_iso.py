"""The exact isomorphism test against an exhaustive search of Hom(M, N).

The oracle is the search `iso_test` ran before it decided by
Krull-Schmidt: M ~ N iff some element of Hom(M, N) has full rank.  It
reads no fingerprint and no decomposition, so it is independent of the
path under test.  Every comparison is by identity with a bool, so a
leaked None fails.
"""

import itertools

import pytest

from c4lab import conditions, linalg
from c4lab.corpus import corpus_builtin, corpus_rings, local_square_zero_algebra
from c4lab.guards import DEFAULT_GUARDS, GuardExceeded, Guards
from c4lab.modules import (RightModule, Submodule, all_submodules, direct_sum,
                           fingerprint, hom_space_matrices, iso_test, regular_module)


def exhaustive_iso(m, n):
    """Oracle: search every element of Hom(M, N) for an invertible one."""
    if m.dim != n.dim:
        return False
    if m.dim == 0:
        return True
    homs = hom_space_matrices(m, n)
    k = homs.shape[0]
    for block in linalg.coeff_blocks(m.p ** k, k, m.p):
        cands = linalg.combine(block, homs, m.p)
        if any(linalg.rank(c, m.p) == m.dim for c in cands):
            return True
    return False


def _entry(name):
    (entry,) = [e for e in corpus_builtin() if e.name == name]
    return entry


def _members(entry):
    return [s.as_module() for s in all_submodules(entry.module).members]


def test_same_dimension_lattice_pairs_inside_corpus_modules():
    pairs = isomorphic = 0
    for entry in corpus_builtin():
        for x, y in itertools.combinations(_members(entry), 2):
            if x.dim != y.dim:
                continue
            expected = exhaustive_iso(x, y)
            assert iso_test(x, y) is expected, (entry.name, x.name, y.name)
            pairs += 1
            isomorphic += expected
    assert (pairs, isomorphic) == (357, 330)


def test_fingerprint_equal_pairs_across_corpus_modules_over_one_ring():
    pairs = isomorphic = 0
    for e1, e2 in itertools.combinations(corpus_builtin(), 2):
        if e1.ring is not e2.ring:
            continue
        for x, y in itertools.product(_members(e1), _members(e2)):
            if fingerprint(x) != fingerprint(y):
                continue
            expected = exhaustive_iso(x, y)
            assert iso_test(x, y) is expected, (e1.name, e2.name, x.name, y.name)
            pairs += 1
            isomorphic += expected
    assert (pairs, isomorphic) == (492, 453)


def test_the_simple_modules_of_f2xf2_share_a_fingerprint_but_are_not_isomorphic():
    lines = [s.as_module() for s in all_submodules(_entry("f2xf2.f2xf2_S1+S2").module).members
             if s.dim == 1]
    assert len(lines) == 2
    assert fingerprint(lines[0]) == fingerprint(lines[1]) == (1, 1, 1, 1, (1, 0), (1,))
    assert exhaustive_iso(*lines) is False
    assert iso_test(*lines) is False


@pytest.mark.parametrize("a, b", [
    ([[1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]]),
    ([[1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1]]),
    ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 1]]),
])
def test_decomposable_pairs_that_defeat_a_local_only_test(a, b):
    # isomorphic but decomposable, so End is not local: no basis product
    # F_i G_j of the whole modules is invertible, and only the split into
    # indecomposables finds the isomorphism
    m = _entry("f2xf2.f2xf2_reg+S1").module
    x, y = Submodule(m, a).as_module(), Submodule(m, b).as_module()
    products = linalg.matmul_mod(hom_space_matrices(x, y)[:, None],
                                 hom_space_matrices(y, x)[None], x.p)
    assert all(linalg.rank(f, x.p) < x.dim for f in products.reshape(-1, x.dim, x.dim))
    assert exhaustive_iso(x, y) is True
    assert iso_test(x, y) is True


def test_reg_cubed_against_a_renamed_copy():
    reg = regular_module(corpus_rings()["r2"])
    big, _, _ = direct_sum(reg, reg, reg)
    copy = RightModule(big.ring, big.action, name=big.name + "_copy")
    assert iso_test(big, copy) is True
    assert iso_test(big, copy) is exhaustive_iso(big, copy)


def test_an_end_scan_over_the_bound_raises():
    reg = regular_module(corpus_rings()["r2"])
    big, _, _ = direct_sum(reg, reg, reg)
    copy = RightModule(big.ring, big.action, name="copy")
    # End(R^3) = M_3(R) has 2^18 elements
    with pytest.raises(GuardExceeded, match="endomorphism scan of copy: needs 262144"):
        iso_test(big, copy, max_end=2 ** 17)


def test_a_cached_swcs_answer_reruns_its_isomorphism_guards(monkeypatch):
    # obs_swcs caches under its Guards: the same guards reuse the answer,
    # and a smaller End bound reruns the isomorphism tests under it
    ring = local_square_zero_algebra(2, 2)
    m = regular_module(ring)
    pairs = conditions.obs_swcs(m, guards=DEFAULT_GUARDS)
    assert len(pairs) == 3

    def over_the_bound(x, y, max_end):
        raise GuardExceeded("isomorphism test", 2, max_end)
    monkeypatch.setattr(conditions, "iso_test", over_the_bound)
    assert conditions.obs_swcs(m, guards=DEFAULT_GUARDS) is pairs
    smaller = Guards(max_end_enumeration=2 ** 10)
    with pytest.raises(GuardExceeded, match="isomorphism test: needs 2 > bound 1024"):
        conditions.obs_swcs(m, guards=smaller)
