"""Seeded randomized property checks over derived modules.

Modules are derived from corpus modules by random sums, submodules and
quotients, which keeps every instance valid by construction while
exercising shapes the fixed corpus does not contain.
"""

import numpy as np
import pytest

from c4lab.conditions import (
    def_c4,
    is_c4,
    is_c4_m,
    is_c4star,
    is_semiweak_cs,
    is_strongly_c4star,
    obs_swcs,
)
from c4lab.corpus import corpus_builtin
from c4lab.modules import (
    all_submodules,
    composition_length,
    direct_sum,
    essential_oracle,
    is_essential,
    quotient_module,
    socle,
    submodule_span,
)
from c4lab import linalg

RNG = np.random.default_rng(20240817)


def _derived_modules(count=24, max_dim=4):
    """Random submodules / quotients / double sums of corpus modules.

    Pure vector spaces over the field rings are excluded: their lattices
    are all subspaces, which blows up the member count without adding
    module-theoretic content.
    """
    pool = [e.module for e in corpus_builtin()
            if 0 < e.module.dim <= 4 and e.ring.dim >= 2]
    out = []
    while len(out) < count:
        base = pool[int(RNG.integers(0, len(pool)))]
        move = int(RNG.integers(0, 3))
        if move == 0 and 2 * base.dim <= max_dim:
            mod, _, _ = direct_sum(base, base)
        elif move == 1:
            gen = RNG.integers(0, base.p, size=base.dim)
            sub = submodule_span(base, gen.reshape(1, -1))
            if sub.dim in (0, base.dim):
                continue
            mod = sub.as_module()
        else:
            gen = RNG.integers(0, base.p, size=base.dim)
            sub = submodule_span(base, gen.reshape(1, -1))
            if sub.dim in (0, base.dim):
                continue
            mod, _ = quotient_module(base, sub)
        if 0 < mod.dim <= max_dim:
            out.append(mod)
    return out


DERIVED = _derived_modules()


@pytest.mark.parametrize("idx", range(len(DERIVED)))
def test_essentiality_tests_agree(idx):
    m = DERIVED[idx]
    for sub in all_submodules(m).members:
        assert is_essential(sub, m) == essential_oracle(sub, m)


@pytest.mark.parametrize("idx", range(len(DERIVED)))
def test_socle_is_sum_of_minimal_members(idx):
    m = DERIVED[idx]
    lat = all_submodules(m)
    minimal = lat.minimal_members()
    joined = linalg.zeros(0, m.dim)
    for piece in minimal:
        joined = linalg.sum_rows(joined, piece.basis, m.p)
    assert np.array_equal(socle(m).basis, joined)


@pytest.mark.parametrize("idx", range(len(DERIVED)))
def test_flag_consistency_and_arity_reduction(idx):
    m = DERIVED[idx]
    assert is_c4(m) == (len(def_c4(m)) == 0)
    assert is_semiweak_cs(m) == (len(obs_swcs(m)) == 0)
    for arity in (2, 3, 4):
        assert is_c4_m(m, arity) == is_c4(m)
    assert is_strongly_c4star(m) == (is_c4star(m) and is_semiweak_cs(m))


@pytest.mark.parametrize("idx", range(len(DERIVED)))
def test_length_is_monotone_and_additive(idx):
    m = DERIVED[idx]
    total = composition_length(m)
    for sub in all_submodules(m).members:
        if sub.dim in (0, m.dim):
            continue
        quot, _ = quotient_module(m, sub)
        assert composition_length(sub.as_module()) + composition_length(quot) == total
        break  # one split per module keeps the matrix of cases small
    doubled, _, _ = direct_sum(m, m)
    assert composition_length(doubled) == 2 * total
