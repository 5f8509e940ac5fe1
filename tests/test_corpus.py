import pytest

from c4lab.corpus import (
    Expectation,
    corpus_builtin,
    corpus_rings,
    local_square_zero_algebra,
    simple_modules,
)
from c4lab.modules import all_submodules, is_simple, iso_test, regular_module


def test_required_rings_present():
    rings = corpus_rings()
    assert {"f2", "f3", "r2", "r3", "t2", "m2", "f2xf2", "m2r2"} <= set(rings)
    assert rings["m2r2"].dim == 8
    assert rings["t2"].dim == 3


def test_required_module_shapes():
    names = {e.name for e in corpus_builtin()}
    # regular modules, simples, the mixed sum, socle pieces and squares
    assert any(name.endswith("_reg") for name in names)
    assert "r2.r2_reg+S" in names
    assert "r2.r2_S+S" in names
    assert "m2r2.m2r2_soc" in names


def test_expectations_are_tagged():
    for entry in corpus_builtin():
        for flag, expectation in entry.expected.items():
            assert expectation.provenance in ("PAPER", "TRIVIAL", "DERIVED")
            if expectation.provenance == "DERIVED":
                assert expectation.oracle


def test_expectation_validation():
    with pytest.raises(ValueError, match="provenance"):
        Expectation(True, "GUESSED")
    with pytest.raises(ValueError, match="oracle"):
        Expectation(True, "DERIVED")


def test_simple_modules_are_simple_and_distinct():
    for key in ("r2", "t2", "m2", "f2xf2"):
        ring = corpus_rings()[key]
        simples = simple_modules(ring)
        assert simples
        for s in simples:
            assert is_simple(s)
        for i in range(len(simples)):
            for j in range(i + 1, len(simples)):
                assert iso_test(simples[i], simples[j]) is False
    assert len(simple_modules(corpus_rings()["t2"])) == 2
    assert len(simple_modules(corpus_rings()["m2"])) == 1


def test_corpus_is_cached_and_deterministic():
    assert corpus_builtin() is corpus_builtin()
    names = [e.name for e in corpus_builtin()]
    assert len(names) == len(set(names))


def test_corpus_lattice_budget():
    # every corpus module stays inside the default lattice guard
    for entry in corpus_builtin():
        assert entry.module.p ** entry.module.dim <= 2 ** 16


def test_local_square_zero_separates_layers():
    k = local_square_zero_algebra(2, 2)
    reg = regular_module(k)
    assert len(all_submodules(reg)) == 6
    # socle is two-dimensional: the module is summand-square-free but
    # carries pair obstructions, so it stays out of corpus_builtin
    from c4lab.conditions import is_c4star, is_semiweak_cs
    from c4lab.modules import is_summand_square_free
    assert is_summand_square_free(reg)
    assert is_c4star(reg)
    assert not is_semiweak_cs(reg)
    assert not any(e.ring.name == k.name for e in corpus_builtin())
