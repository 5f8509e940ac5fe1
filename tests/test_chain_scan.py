"""C4[m] against the tuple enumeration that once decided it.

`tuple_scan` is the former arity >= 3 path of `is_c4_m`, kept here as an
independent oracle: it enumerates every tuple (f_1, ..., f_{m-1}) of the
p^(sum of hom dims) tuples of each chain, then re-forms and re-ranks
every consecutive run of every tuple.  C4[m] holds exactly when C4 does,
so `is_c4_m` answers with `is_c4`: under any guards its outcome is that
of `is_c4`, and every verdict is the oracle's under the default guards.
Every call runs on a fresh copy of its module.
"""

import pytest

from c4lab import linalg
from c4lab.algebra import poly_quotient_algebra
from c4lab.conditions import (
    build_defect_report,
    enumerate_decompositions,
    is_c4,
    is_c4_m,
)
from c4lab.corpus import corpus_builtin, simple_modules
from c4lab.guards import DEFAULT_GUARDS, GuardExceeded, Guards
from c4lab.modules import (
    RightModule,
    Submodule,
    all_submodules,
    direct_sum,
    hom_space_matrices,
    is_summand,
    regular_module,
)

# the oracle's budget per module: hom tuples summed over its chains
MAX_TUPLES = 2 ** 12


def chains_of(m, arity):
    """Every chain of summands with complementary neighbours, in scan order."""
    summand, comp = {}, {}
    for dec in enumerate_decompositions(m):
        summand.setdefault(dec.a.key(), dec.a)
        comp.setdefault(dec.a.key(), []).append(dec.b)
    chains = []

    def extend(chain):
        if len(chain) == arity:
            chains.append(list(chain))
            return
        for nxt in comp[chain[-1].key()]:
            chain.append(nxt)
            extend(chain)
            chain.pop()

    for key in sorted(summand):
        extend([summand[key]])
    return chains


def hom_stacks(chain):
    mods = [s.as_module() for s in chain]
    return [hom_space_matrices(mods[i], mods[i + 1]) for i in range(len(chain) - 1)]


def within_budget(m, arity):
    """Whether the oracle enumerates at most MAX_TUPLES hom tuples on m."""
    total = 0
    for chain in chains_of(m, arity):
        total += m.p ** sum(h.shape[0] for h in hom_stacks(chain))
        if total > MAX_TUPLES:
            return False
    return True


def tuple_scan(m, arity):
    """The C4[m] verdict by enumerating every hom tuple of every chain
    (unguarded: for small modules only)."""
    p = m.p
    for chain in chains_of(m, arity):
        stacks = hom_stacks(chain)
        dims = [h.shape[0] for h in stacks]
        total = p ** sum(dims)
        for row in linalg.decode_codes(range(total), sum(dims), p):
            mats, pos = [], 0
            for stack, k in zip(stacks, dims):
                mats.append(linalg.combine(row[pos:pos + k], stack, p))
                pos += k
            for i in range(len(mats)):
                run = mats[i]
                for j in range(i, len(mats)):
                    if j > i:
                        run = linalg.matmul_mod(run, mats[j], p)
                    if linalg.rank(run, p) != chain[i].dim:
                        continue
                    image = Submodule(m, chain[j + 1].to_parent(run), check=False)
                    if is_summand(image, m) is None:
                        return False
    return True


def fresh(m):
    """The same module with empty caches."""
    return RightModule(m.ring, m.action, name=m.name, validate=False)


def outcome(fn, m, *args, guards=DEFAULT_GUARDS):
    try:
        return fn(fresh(m), *args, guards=guards)
    except GuardExceeded as exc:
        return str(exc)


def agree(modules, arity):
    """Compare both scans on every module within the oracle's budget,
    under the default guards."""
    verdicts = []
    for m in map(fresh, modules):
        if not within_budget(m, arity):
            continue
        want = tuple_scan(m, arity)
        assert is_c4_m(m, arity) is want, m.name
        verdicts.append(want)
    return verdicts


def distinct_modules(modules):
    seen = {}
    for m in modules:
        seen.setdefault((id(m.ring), m.action.tobytes()), m)
    return list(seen.values())


@pytest.mark.parametrize("arity", [3, 4])
def test_c4_m_matches_tuple_scan_on_the_corpus_and_its_lattices(arity):
    # every corpus module is the top member of its own lattice
    members = [x.as_module() for entry in corpus_builtin()
               for x in all_submodules(entry.module).members]
    verdicts = agree(distinct_modules(members), arity)
    assert len(verdicts) >= 40 and {True, False} <= set(verdicts)


def test_chains_through_a_zero_summand():
    # the zero module has the one chain 0, 0, 0, ...; a simple module S has
    # the chains 0, S, 0, ... and S, 0, S, ...: runs from 0 and through 0
    s = simple_modules(poly_quotient_algebra(2, [0, 0, 1]))[0]
    zero = s.zero_submodule().as_module()
    for m in (zero, s):
        for arity in (3, 4):
            assert tuple_scan(fresh(m), arity) is True
            assert is_c4_m(fresh(m), arity) is True


def corpus_module(name):
    return next(e.module for e in corpus_builtin() if e.name == name)


def test_tight_hom_scan_guard_matches_tuple_scan():
    # 8 is below a 3-ary chain's 16 hom tuples but not below any one
    # decomposition's hom scan, so C4 and C4[3] answer exactly
    m = corpus_module("r2.r2_reg+reg")
    tight = Guards(max_hom_scan=8)
    assert outcome(is_c4_m, m, 3, guards=tight) is tuple_scan(fresh(m), 3)
    report = build_defect_report(fresh(m), guards=tight, extension_grid=((3, 1),))
    assert report.partial == {}
    assert report.extensions[0]["flags"]["C4_m"] is report.flags["C4"]


def test_a_sum_outside_the_corpus_answers_as_c4():
    # T2(F2)_reg + S2 fails C4; under tight hom-scan bounds each arity
    # answers, or raises, exactly as C4 does
    m, _, _ = direct_sum(corpus_module("t2.T2(F2)_reg"), corpus_module("t2.T2(F2)_S2"),
                         name="T2_reg+S2")
    assert outcome(is_c4_m, m, 3) is tuple_scan(fresh(m), 3) is False
    for guards in (Guards(max_hom_scan=2), Guards(max_hom_scan=1)):
        for arity in (3, 4):
            assert outcome(is_c4_m, m, arity, guards=guards) == outcome(
                is_c4, m, guards=guards)


def test_a_warm_verdict_still_checks_the_chain_guards():
    # a verdict computed under the default guards is not returned from a
    # cache under a bound it would exceed: the guards C4[3] checks are C4's
    m = fresh(corpus_module("r2.r2_reg+reg"))
    verdict = is_c4_m(m, 3)
    tight = Guards(max_hom_scan=2)
    message = "hom scan on a decomposition of r2_reg+reg: needs 4 > bound 2"
    with pytest.raises(GuardExceeded) as exc:
        is_c4_m(m, 3, guards=tight)
    assert str(exc.value) == outcome(is_c4_m, m, 3, guards=tight) == message
    assert is_c4_m(m, 3) is verdict is tuple_scan(fresh(m), 3)


SWEEP = [Guards(max_hom_scan=hom, max_end_enumeration=end)
         for hom in (1, 2, 4, 8, 16, DEFAULT_GUARDS.max_hom_scan)
         for end in (4, 16, DEFAULT_GUARDS.max_end_enumeration)]


@pytest.mark.parametrize("arity", [3, 4])
def test_guarded_outcomes_match_tuple_scan(arity):
    # the verdict or the exact GuardExceeded message of is_c4, cold, under
    # every combination of tight and default hom-scan and End-scan bounds;
    # every verdict is also the oracle's under the default guards
    modules = [m for m in distinct_modules(e.module for e in corpus_builtin())
               if within_budget(fresh(m), arity)]
    outcomes = set()
    for m in modules:
        oracle = tuple_scan(fresh(m), arity)
        for guards in SWEEP:
            got = outcome(is_c4_m, m, arity, guards=guards)
            assert got == outcome(is_c4, m, guards=guards), (m.name, guards)
            assert got is oracle or isinstance(got, str), (m.name, guards)
            outcomes.add(got if isinstance(got, bool) else got.split(" ")[0])
    assert len(modules) >= 15 and {True, False, "hom", "endomorphism"} <= outcomes


def test_an_arity_of_a_billion_costs_nothing():
    m = regular_module(poly_quotient_algebra(2, [0, 0, 1]))
    assert is_c4_m(m, 10 ** 9) is is_c4(m) is True
