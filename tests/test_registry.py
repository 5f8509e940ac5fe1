import pytest

from c4lab.conditions import (
    CONDITIONS,
    DEFAULT_RULE_ID,
    condition_label,
    evaluate_condition,
    is_c4,
    is_c4star,
    is_semiweak_cs,
    is_strongly_c4star,
    obstruction_index,
    parse_condition,
    serialize_value,
)
from c4lab.corpus import corpus_builtin
from c4lab.guards import DEFAULT_GUARDS
from c4lab.modules import is_semisimple, is_summand_square_free

EXT_CELLS = [("ext", m, d, strict)
             for m, d in ((2, 1), (3, 2), (2, 2)) for strict in (True, False)]


@pytest.mark.parametrize("condition", sorted(CONDITIONS) + EXT_CELLS, ids=str)
def test_parse_condition_inverts_condition_label(condition):
    assert parse_condition(condition_label(condition)) == condition


def test_extension_cell_defaults_to_strict():
    assert parse_condition("ext:3:1") == ("ext", 3, 1, True)


@pytest.mark.parametrize("text", ["", "c4", "ext", "ext:3", "ext:x:1", "ext:3:1:loose",
                                  "ext:3:1:strict:extra", "ext:1:1"])
def test_parse_condition_rejects_malformed_names(text):
    with pytest.raises(ValueError):
        parse_condition(text)


def _direct(m, name):
    g = DEFAULT_GUARDS
    return {
        "C4": lambda: is_c4(m, DEFAULT_RULE_ID, g),
        "C4star": lambda: is_c4star(m, DEFAULT_RULE_ID, g),
        "swCS": lambda: is_semiweak_cs(m, "submodule", g),
        "strong": lambda: is_strongly_c4star(m, DEFAULT_RULE_ID, g),
        "iota": lambda: obstruction_index(m, "submodule", g),
        "semisimple": lambda: is_semisimple(m),
        "summand_square_free": lambda: is_summand_square_free(m, g.max_end_enumeration),
    }[name]()


@pytest.mark.parametrize("entry_name", ["r2.r2_reg+S", "t2.T2(F2)_reg", "m2.m2_S+S"])
def test_registry_matches_direct_predicates(entry_name):
    (entry,) = [e for e in corpus_builtin() if e.name == entry_name]
    for name in CONDITIONS:
        assert (evaluate_condition(entry.module, name, DEFAULT_RULE_ID, DEFAULT_GUARDS)
                == _direct(entry.module, name)), name


def test_serialize_value_spells_infinity():
    assert serialize_value(float("inf")) == "infinity"
    assert serialize_value(3) == 3
    assert serialize_value(None) is None
    assert serialize_value(True) is True
