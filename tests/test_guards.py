import pytest

from c4lab.algebra import (
    field_algebra,
    idempotents,
    matrix_algebra,
    poly_quotient_algebra,
)
from c4lab.conditions import (
    check_extended,
    def_c4,
    def_c4star,
    enumerate_decompositions,
    is_c4_m,
    obs_swcs,
    summand_list,
)
from c4lab.corpus import corpus_builtin, local_square_zero_algebra, simple_modules
from c4lab.guards import DEFAULT_GUARDS, GuardExceeded, Guards, memo
from c4lab.modules import (
    RightModule,
    all_submodules,
    composition_length,
    direct_sum,
    regular_module,
)

TIGHT = Guards(1, 1, 1, 1, 1)


def test_memo_checks_the_guard_before_the_cache():
    cache = {}
    calls = []

    def compute():
        calls.append(1)
        return "value"
    assert memo(cache, "k", compute, guard=("scan", 4, 4)) == "value"
    assert memo(cache, "k", compute) == "value"
    assert len(calls) == 1
    with pytest.raises(GuardExceeded, match="scan: needs 4 > bound 3"):
        memo(cache, "k", compute, guard=("scan", 4, 3))


def _m2():
    return matrix_algebra(field_algebra(2), 2)


def _r2_plus_simple():
    r2 = poly_quotient_algebra(2, [0, 0, 1])
    out, _, _ = direct_sum(regular_module(r2), simple_modules(r2)[0], name="R+S")
    return out


# (object, call under the default guards, the same call with a bound of 1)
GUARDED = {
    "idempotents": (_m2, idempotents, lambda a: idempotents(a, guard=1)),
    "all_submodules": (_r2_plus_simple, all_submodules, lambda m: all_submodules(m, 1)),
    "enumerate_decompositions": (_r2_plus_simple, enumerate_decompositions,
                                 lambda m: enumerate_decompositions(m, 1)),
    "summand_list": (_r2_plus_simple, summand_list, lambda m: summand_list(m, 1)),
    "def_c4": (_r2_plus_simple, lambda m: def_c4(m, guards=DEFAULT_GUARDS),
               lambda m: def_c4(m, guards=TIGHT)),
    "composition_length": (_r2_plus_simple, composition_length,
                           lambda m: composition_length(m, 1)),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_cached_result_does_not_bypass_a_smaller_guard(name):
    make, warm, tight = GUARDED[name]
    obj = make()
    warm(obj)
    with pytest.raises(GuardExceeded):
        tight(obj)


# each guarded call, reduced to what a report shows of it
SWEPT = {
    "def_c4": lambda m, g: len(def_c4(m, guards=g)),
    "def_c4star": lambda m, g: len(def_c4star(m, guards=g)),
    "obs_swcs": lambda m, g: len(obs_swcs(m, guards=g)),
    "is_c4_m": lambda m, g: is_c4_m(m, 3, guards=g),
    "check_extended": lambda m, g: check_extended(m, 3, 1, guards=g),
    "composition_length": lambda m, g: composition_length(m, g.max_lattice_vectors),
}


def _outcome(call, m, guards):
    try:
        return call(m, guards)
    except GuardExceeded as exc:
        return str(exc)


def test_a_warm_answer_equals_a_cold_one():
    """Under tight lattice, End and hom-scan bounds, every guarded call on a
    module warmed under the default guards answers, or raises the same
    message, as it does on a fresh copy of the module."""
    distinct = {}
    for entry in corpus_builtin():
        distinct.setdefault((id(entry.ring), entry.module.action.tobytes()), entry.module)
    # the regular module of F2[x, y]/(x, y)^2 has obstruction pairs
    modules = [*distinct.values(), regular_module(local_square_zero_algebra(2, 2))]
    tight = [Guards(max_lattice_vectors=16, max_hom_scan=4),
             Guards(max_end_enumeration=16), TIGHT]
    mismatches, seen = [], set()
    for m in modules:
        warm = RightModule(m.ring, m.action, name=m.name, validate=False)
        for call in SWEPT.values():
            _outcome(call, warm, DEFAULT_GUARDS)
        for guards in tight:
            for name, call in SWEPT.items():
                fresh = RightModule(m.ring, m.action, name=m.name, validate=False)
                cold = _outcome(call, fresh, guards)
                if _outcome(call, warm, guards) != cold:
                    mismatches.append((m.name, name, guards))
                seen.add((name, cold.split(" of ")[0] if isinstance(cold, str) else "answer"))
    assert not mismatches
    # every call answers somewhere and raises somewhere, and every bound trips
    assert {(name, "answer") for name in SWEPT} <= seen
    assert {name for name, kind in seen if kind != "answer"} == set(SWEPT)
    assert {kind for _, kind in seen} >= {
        "submodule lattice", "endomorphism scan", "hom scan on a decomposition",
        "minimal submodule scan"}


def test_caches_live_in_guards():
    """No module but guards reads or writes a `_cache` dict itself: every
    cache goes through guards.memo."""
    import ast
    import pathlib

    from c4lab import guards

    found = []
    for path in sorted(pathlib.Path(guards.__file__).parent.glob("*.py")):
        if path.name == "guards.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Subscript, ast.Attribute)) and \
                    isinstance(node.value, ast.Attribute) and node.value.attr == "_cache":
                if isinstance(node, ast.Subscript) or node.attr == "get":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found
