import json

import numpy as np
import pytest

from c4lab.guards import Guards
from c4lab.io import InputError, load_guards, parse_inputs, parse_module, parse_ring


def test_parse_field():
    ring = parse_ring({"construct": "field", "p": 2})
    assert ring.dim == 1 and ring.p == 2


def test_parse_raw_ring_f2x2():
    spec = {
        "p": 2, "dim": 2, "labels": ["1", "x"], "one": [1, 0],
        "mul": [[0, 0, [1, 0]], [0, 1, [0, 1]], [1, 0, [0, 1]]],
    }
    ring = parse_ring(spec)
    assert ring.dim == 2
    x = ring.element([0, 1])
    assert (x * x) == ring.zero()


def test_parse_constructors_nest():
    ring = parse_ring({"construct": "matrix",
                       "base": {"construct": "poly_quotient", "p": 2, "f": [0, 0, 1]},
                       "n": 2})
    assert ring.dim == 8
    prod = parse_ring({"construct": "product",
                       "parts": [{"construct": "field", "p": 2},
                                 {"construct": "field", "p": 2}]})
    assert prod.dim == 2
    tri = parse_ring({"construct": "upper_triangular", "p": 2, "n": 2})
    assert tri.dim == 3
    corner = parse_ring({"construct": "corner",
                         "base": {"construct": "matrix",
                                  "base": {"construct": "field", "p": 2}, "n": 2},
                         "e": [1, 0, 0, 0]})
    assert corner.dim == 1


def test_malformed_mul_triple_names_location():
    spec = {"p": 2, "dim": 2, "one": [1, 0], "mul": [[0, 7, [0, 1]]]}
    with pytest.raises(InputError, match=r"mul\[0\].*\(0,7\)"):
        parse_ring(spec)


def test_corner_with_non_idempotent_rejected():
    spec = {"construct": "corner",
            "base": {"construct": "poly_quotient", "p": 2, "f": [0, 0, 1]},
            "e": [0, 1]}
    with pytest.raises(InputError, match="e\\^2 != e"):
        parse_ring(spec)


def test_non_prime_rejected():
    with pytest.raises(InputError, match="prime"):
        parse_ring({"construct": "field", "p": 6})


def test_non_associative_rejected_with_triple():
    spec = {"p": 2, "dim": 3, "one": [1, 0, 0],
            "mul": [[0, 0, [1, 0, 0]], [0, 1, [0, 1, 0]], [0, 2, [0, 0, 1]],
                    [1, 0, [0, 1, 0]], [2, 0, [0, 0, 1]],
                    [1, 1, [0, 0, 1]], [2, 1, [0, 0, 1]]]}
    with pytest.raises(InputError, match="associativity.*basis triple"):
        parse_ring(spec)


def test_parse_module_regular_and_raw():
    ring_spec = {"construct": "poly_quotient", "p": 2, "f": [0, 0, 1]}
    mod = parse_module({"ring": ring_spec, "construct": "regular"})
    assert mod.dim == 2
    raw = parse_module({
        "ring": ring_spec, "dim": 1,
        "action": [[[1]], [[0]]],
    })
    assert raw.dim == 1


def test_parse_module_direct_sum():
    ring_spec = {"construct": "poly_quotient", "p": 2, "f": [0, 0, 1]}
    mod = parse_module({
        "ring": ring_spec,
        "construct": "direct_sum",
        "parts": [{"construct": "regular"},
                  {"dim": 1, "action": [[[1]], [[0]]]}],
    })
    assert mod.dim == 3


def test_parse_module_bad_action_shape():
    ring_spec = {"construct": "field", "p": 2}
    with pytest.raises(InputError, match="matrix must be"):
        parse_module({"ring": ring_spec, "dim": 2, "action": [[[1]]]})


def test_parse_module_invariant_violation():
    ring_spec = {"construct": "poly_quotient", "p": 2, "f": [0, 0, 1]}
    with pytest.raises(InputError, match="multiplicative|identity"):
        parse_module({"ring": ring_spec, "dim": 1, "action": [[[1]], [[1]]]})


def test_ring_file_reference(tmp_path):
    ring_path = tmp_path / "ring.json"
    ring_path.write_text(json.dumps({"construct": "field", "p": 3}))
    mod_path = tmp_path / "mod.json"
    mod_path.write_text(json.dumps({"ring": "ring.json", "construct": "regular"}))
    parsed = parse_inputs([str(mod_path)])
    assert len(parsed) == 1
    ring, mod = parsed[0]
    assert ring.p == 3 and mod.dim == 1


def test_parse_inputs_ring_only(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"construct": "upper_triangular", "p": 2, "n": 2}))
    ring, mod = parse_inputs([str(path)])[0]
    assert ring.dim == 3 and mod is None


def test_load_guards(tmp_path, monkeypatch):
    monkeypatch.delenv("C4LAB_GUARDS", raising=False)
    assert load_guards(None) == Guards()
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"max_lattice_vectors": 1024, "rng_seed": 7}))
    g = load_guards(str(path))
    assert g.max_lattice_vectors == 1024 and g.rng_seed == 7
    monkeypatch.setenv("C4LAB_GUARDS", str(path))
    assert load_guards(None).rng_seed == 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"max_lattice_vectors": -5}))
    with pytest.raises(InputError):
        load_guards(str(bad))
    flag = tmp_path / "flag.json"
    flag.write_text(json.dumps({"max_hom_scan": True}))
    with pytest.raises(InputError, match="max_hom_scan must be a positive integer"):
        load_guards(str(flag))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"nope": 3}))
    with pytest.raises(InputError, match="unknown guard"):
        load_guards(str(unknown))
