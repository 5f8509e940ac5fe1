"""Fuzzing the input edge with hypothesis.

Malformed ring, module and guards files must end every subcommand with
an exit code of the table (0, 1 or 2) and no traceback.  A valid input
whose entries are shifted by multiples of p, however large, must write
the same report bytes as its reduced form.  Runs are derandomized, so
Tier-1 sees the same examples every time.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from c4lab.cli import main
from c4lab.corpus import corpus_builtin


def fuzz(examples):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


BEYOND_INT64 = st.integers(2 ** 63, 2 ** 66) | st.integers(-2 ** 66, -2 ** 63 - 1)
JUNK = (st.floats() | st.booleans() | st.none() | st.text(max_size=2)
        | st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))
ENTRY = st.integers(0, 2) | st.integers(-9, 9) | BEYOND_INT64 | JUNK
PRIME = st.sampled_from([2, 3, 0, 1, 4, -3, 2 ** 31 - 1, 2 ** 31 + 11, 2 ** 64 + 13]) | JUNK
DIM = st.integers(0, 3) | st.integers(-3, -1) | st.integers(2 ** 40, 2 ** 70) | JUNK
GUARD = st.integers(1, 2 ** 20) | st.integers(-5, 0) | st.integers(2 ** 62, 2 ** 80) | JUNK
GUARD_FIELDS = ("max_lattice_vectors", "max_end_enumeration", "max_hom_scan",
                "max_iso_search", "rng_seed")


def raw_ring(ring):
    """A FiniteAlgebra as a raw ring file."""
    d = ring.dim
    return {"p": ring.p, "dim": d, "labels": list(ring.labels),
            "one": [int(v) for v in ring.one],
            "mul": [[i, j, [int(v) for v in ring.sc[i, j]]]
                    for i in range(d) for j in range(d) if ring.sc[i, j].any()]}


def raw_module(entry):
    m = entry.module
    return {"ring": raw_ring(m.ring), "dim": m.dim, "name": entry.name,
            "action": [[[int(v) for v in row] for row in mat] for mat in m.action]}


# small corpus modules, whose full reports take milliseconds
VALID = [raw_module(e) for e in corpus_builtin() if e.module.dim <= 3 and e.ring.dim <= 4]
VALID_RINGS = [spec["ring"] for spec in VALID]


def vectors(n):
    """Lists of entries, mostly of length n."""
    return st.lists(ENTRY, min_size=n, max_size=n) | st.lists(ENTRY, max_size=4) | ENTRY


def matrices(n):
    """n x n matrices, flat or ragged lists, or junk."""
    return (st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
            | st.lists(st.lists(ENTRY, max_size=3), max_size=3) | vectors(n * n))


@st.composite
def drop_keys(draw, spec):
    """spec without a few of its keys, now and then."""
    gone = draw(st.sets(st.sampled_from(sorted(spec)), max_size=1) | st.just(set()))
    return {k: v for k, v in spec.items() if k not in gone}


def leaves(value, path=()):
    """Paths to the integer leaves of nested dicts and lists."""
    if isinstance(value, dict):
        return [q for k, v in value.items() for q in leaves(v, path + (k,))]
    if isinstance(value, list):
        return [q for i, v in enumerate(value) for q in leaves(v, path + (i,))]
    return [path] if type(value) is int else []


def replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: replaced(value[head], rest, new)}
    return [replaced(v, rest, new) if i == head else v for i, v in enumerate(value)]


@st.composite
def perturbed(draw, specs):
    """A valid spec with one integer (an entry, an index, p or a dim)
    replaced by a fuzzed value."""
    spec = draw(st.sampled_from(specs))
    return replaced(spec, draw(st.sampled_from(leaves(spec))), draw(ENTRY | PRIME | DIM))


@st.composite
def raw_rings(draw):
    dim = draw(DIM)
    n = dim if type(dim) is int and 0 <= dim <= 3 else draw(st.integers(1, 3))
    triple = (st.tuples(st.integers(-1, n), st.integers(-1, n), vectors(n)).map(list)
              | st.lists(ENTRY, max_size=4))
    spec = {"p": draw(PRIME), "dim": dim, "one": draw(vectors(n)),
            "mul": draw(st.lists(triple, max_size=n * n) | ENTRY),
            "labels": draw(st.none() | st.lists(st.text(max_size=1), max_size=4) | ENTRY)}
    return draw(drop_keys(spec))


@st.composite
def raw_modules(draw):
    ring = draw(raw_rings() | st.sampled_from(VALID_RINGS))
    dim = draw(DIM)
    n = dim if type(dim) is int and 0 <= dim <= 3 else draw(st.integers(0, 3))
    ring_dim = ring.get("dim") if type(ring.get("dim")) is int else 1
    count = draw(st.sampled_from([ring_dim, 0, ring_dim + 1])) if 0 < ring_dim <= 3 else 1
    action = draw(st.lists(matrices(n), min_size=count, max_size=count) | ENTRY)
    return draw(drop_keys({"ring": ring, "dim": dim, "action": action}))


def rings():
    return raw_rings() | perturbed(VALID_RINGS)


def modules():
    return raw_modules() | perturbed(VALID)


def assert_table_exit(result):
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert "Traceback" not in result.output


@pytest.fixture
def run(tmp_path):
    """run(spec, *args): write spec to a file and invoke the CLI on it,
    with default guards."""
    runner = CliRunner(env={"C4LAB_GUARDS": None})

    def invoke(spec, *args, name="input.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return runner.invoke(main, [args[0], str(path), *args[1:]])
    return invoke


@fuzz(100)
@given(spec=rings())
def test_malformed_rings_end_with_a_table_exit(run, spec):
    for args in (("analyze", "--ring"), ("analyze",), ("morita", "--corner", "0")):
        assert_table_exit(run(spec, *args))


@fuzz(100)
@given(spec=modules())
def test_malformed_modules_end_with_a_table_exit(run, spec):
    for args in (("analyze",), ("morita", "--matrix", "2")):
        assert_table_exit(run(spec, *args))


@fuzz(40)
@given(guards=st.dictionaries(st.sampled_from(GUARD_FIELDS + ("max_other",)), GUARD,
                              max_size=3) | JUNK,
       spec=st.sampled_from(VALID))
def test_malformed_guards_end_with_a_table_exit(run, tmp_path, guards, spec):
    guards_path = tmp_path / "guards.json"
    guards_path.write_text(json.dumps(guards))
    assert_table_exit(run(spec, "analyze", "--guards", str(guards_path)))
    assert_table_exit(run(spec, "morita", "--matrix", "2", "--guards", str(guards_path)))
    # the cheapest family: the suite reads its guards before any check runs
    assert_table_exit(CliRunner().invoke(main, ["suite", "--filter", "ring-level",
                                                "--guards", str(guards_path)]))


def shifted(value, p, shifts):
    """value with each integer entry moved by the next multiple of p."""
    if isinstance(value, list):
        return [shifted(v, p, shifts) for v in value]
    return value + p * next(shifts)


@fuzz(25)
@given(spec=st.sampled_from(VALID), ks=st.lists(st.integers(-2 ** 70, 2 ** 70),
                                                min_size=1, max_size=5),
       ring_mode=st.booleans())
def test_shifted_entries_write_the_reduced_report(run, tmp_path, spec, ks, ring_mode):
    p = spec["ring"]["p"]
    shifts = iter(ks * 10 ** 4)
    if ring_mode:
        spec = spec["ring"]
        moved = {**spec, "one": shifted(spec["one"], p, shifts),
                 "mul": [[i, j, shifted(c, p, shifts)] for i, j, c in spec["mul"]]}
    else:
        moved = {**spec, "action": shifted(spec["action"], p, shifts)}
    args = ("--ring",) if ring_mode else ()
    reduced = run(spec, "analyze", *args, "--out", str(tmp_path / "reduced.out"))
    result = run(moved, "analyze", *args, "--out", str(tmp_path / "moved.out"),
                 name="moved.json")
    assert reduced.exit_code == 0, reduced.output
    assert result.exit_code == 0, result.output
    assert (tmp_path / "moved.out").read_bytes() == (tmp_path / "reduced.out").read_bytes()
    assert result.output == reduced.output
