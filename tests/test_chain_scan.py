"""The C4[m] chain scan against the tuple enumeration it replaced.

`tuple_scan` is the former arity >= 3 path of `is_c4_m`, kept here as an
independent oracle: it enumerates every tuple (f_1, ..., f_{m-1}) of the
p^(sum of hom dims) tuples of each chain, then re-forms and re-ranks
every consecutive run of every tuple.  `is_c4_m` walks the same chains
under the same guards but reads only each decomposition's C4 defects.
Both run on a fresh copy of each module unless a test says otherwise.
"""

import pytest

from c4lab import linalg
from c4lab.algebra import poly_quotient_algebra
from c4lab.conditions import (
    build_defect_report,
    enumerate_decompositions,
    is_c4_m,
)
from c4lab.corpus import corpus_builtin, simple_modules
from c4lab.guards import DEFAULT_GUARDS, GuardExceeded, Guards, check_guard
from c4lab.modules import (
    RightModule,
    Submodule,
    all_submodules,
    direct_sum,
    hom_space_matrices,
    is_summand,
)

# the oracle's budget per module: hom tuples summed over its chains
MAX_TUPLES = 2 ** 12


def chains_of(m, arity, guards=DEFAULT_GUARDS):
    """Every chain of summands with complementary neighbours, in scan order."""
    summand, comp = {}, {}
    for dec in enumerate_decompositions(m, guards.max_end_enumeration):
        summand.setdefault(dec.a.key(), dec.a)
        comp.setdefault(dec.a.key(), []).append(dec.b)
    chains = []

    def extend(chain):
        if len(chain) == arity:
            chains.append(list(chain))
            check_guard(f"{arity}-ary chain enumeration on {m.name}",
                        len(chains), guards.max_end_enumeration)
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


def tuple_scan(m, arity, guards=DEFAULT_GUARDS):
    """The C4[m] verdict by enumerating every hom tuple of every chain."""
    p = m.p
    for chain in chains_of(m, arity, guards):
        stacks = hom_stacks(chain)
        dims = [h.shape[0] for h in stacks]
        total = p ** sum(dims)
        check_guard(f"hom scan on an {arity}-ary chain of {m.name}", total,
                    guards.max_hom_scan)
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


def outcome(fn, m, arity, guards=DEFAULT_GUARDS):
    try:
        return fn(fresh(m), arity, guards=guards)
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
def test_frontier_matches_tuple_scan_on_the_corpus_and_its_lattices(arity):
    # named after the frontier scan it first checked; the name keeps the test's id
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
    # the messages and partial reasons are those of the tuple scan
    m = corpus_module("r2.r2_reg+reg")
    tight = Guards(max_hom_scan=8)
    message = "hom scan on an 3-ary chain of r2_reg+reg: needs 16 > bound 8"
    assert outcome(tuple_scan, m, 3, tight) == outcome(is_c4_m, m, 3, tight) == message
    report = build_defect_report(fresh(m), guards=tight, extension_grid=((3, 1),))
    assert report.partial == {"extension(3,1)": message}


def test_a_failing_chain_returns_before_a_later_chains_guard():
    # T2(F2)_reg + S2 fails on a chain scanned before the first chain
    # needing 4 > 2 tuples, so the bound 2 still gives an exact False
    m, _, _ = direct_sum(corpus_module("t2.T2(F2)_reg"), corpus_module("t2.T2(F2)_S2"),
                         name="T2_reg+S2")
    assert max(m.p ** sum(h.shape[0] for h in hom_stacks(chain))
               for chain in chains_of(fresh(m), 3)) == 4
    tight = Guards(max_hom_scan=2)
    assert outcome(tuple_scan, m, 3, tight) is outcome(is_c4_m, m, 3, tight) is False
    tighter = Guards(max_hom_scan=1)
    assert outcome(tuple_scan, m, 4, tighter) == outcome(is_c4_m, m, 4, tighter) == (
        "hom scan on an 4-ary chain of T2_reg+S2: needs 2 > bound 1")


SWEEP = [Guards(max_hom_scan=hom, max_end_enumeration=end)
         for hom in (1, 2, 4, 8, 16, DEFAULT_GUARDS.max_hom_scan)
         for end in (4, 16, DEFAULT_GUARDS.max_end_enumeration)]


@pytest.mark.parametrize("arity", [3, 4])
def test_guarded_outcomes_match_tuple_scan(arity):
    # the verdict or the exact GuardExceeded message, cold, under every
    # combination of tight and default hom-scan and End-scan bounds
    modules = [m for m in distinct_modules(e.module for e in corpus_builtin())
               if within_budget(fresh(m), arity)]
    outcomes = set()
    for m in modules:
        for guards in SWEEP:
            want = outcome(tuple_scan, m, arity, guards)
            assert outcome(is_c4_m, m, arity, guards) == want, (m.name, guards)
            outcomes.add(want if isinstance(want, bool) else want.split(" ")[0])
    # every guard trips somewhere; the chain count only trips at arity 4
    kinds = {True, False, "hom", "endomorphism"} | ({"4-ary"} if arity == 4 else set())
    assert len(modules) >= 15 and kinds <= outcomes


def test_a_warm_verdict_still_checks_the_chain_guards():
    # a verdict computed under the default guards is not returned from a
    # cache under a bound it would exceed
    m = fresh(corpus_module("r2.r2_reg+reg"))
    verdict = is_c4_m(m, 3)
    tight = Guards(max_hom_scan=8)
    message = "hom scan on an 3-ary chain of r2_reg+reg: needs 16 > bound 8"
    with pytest.raises(GuardExceeded) as exc:
        is_c4_m(m, 3, guards=tight)
    assert str(exc.value) == outcome(is_c4_m, m, 3, tight) == message
    assert is_c4_m(m, 3) is verdict is tuple_scan(fresh(m), 3)
