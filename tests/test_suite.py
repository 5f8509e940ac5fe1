import json

import pytest

from c4lab.corpus import CorpusEntry, Expectation, corpus_rings, local_square_zero_algebra
from c4lab.guards import DEFAULT_GUARDS, GuardExceeded, Guards, TheoremViolation
from c4lab.modules import regular_module
from c4lab.reports import render_suite_report, suite_report_dict, write_structured
from c4lab.suite import FAMILIES, corpus_expectation_checks, run_check, run_suite


def test_family_names_are_distinct():
    names = [name for name, _ in FAMILIES]
    assert len(names) == len(set(names))


def test_filter_selects_single_family():
    results = run_suite(DEFAULT_GUARDS, "ring-level")
    assert results
    assert all(r["name"].startswith("ring-level") for r in results)
    assert all(r["status"] == "pass" for r in results)


def test_results_are_name_sorted():
    results = run_suite(DEFAULT_GUARDS, "essentiality")
    names = [r["name"] for r in results]
    assert names == sorted(names)


def test_corrupted_expectation_is_a_fixture_failure():
    # a wrong expected value fails as a corpus check, not as a theorem
    ring = corpus_rings()["r2"]
    bad = CorpusEntry("r2.fixture", ring, regular_module(ring), {
        "C4": Expectation(False, "TRIVIAL"),  # wrong on purpose
    })
    results = corpus_expectation_checks(DEFAULT_GUARDS, entries=[bad])
    assert len(results) == 1
    record = results[0]
    assert record["status"] == "fail"
    assert record["name"].startswith("corpus:")
    assert "expected False" in record["detail"]


def test_partial_status_on_tiny_guards():
    tiny = Guards(max_lattice_vectors=1, max_end_enumeration=1,
                  max_hom_scan=1, max_iso_search=1, rng_seed=1)
    ring = corpus_rings()["r2"]
    entry = CorpusEntry("r2.guarded", ring, regular_module(ring), {
        "C4": Expectation(True, "TRIVIAL"),
    })
    results = corpus_expectation_checks(tiny, entries=[entry])
    assert results[0]["status"] == "partial"
    assert "bound" in results[0]["detail"]


def test_suite_report_round_trip(tmp_path):
    results = run_suite(DEFAULT_GUARDS, "ring-level")
    summary = suite_report_dict(results, DEFAULT_GUARDS)
    assert summary["failures"] == 0
    assert summary["total"] == len(results)
    text = render_suite_report(summary)
    assert "0 failures" in text
    path = tmp_path / "suite.json"
    write_structured(str(path), summary)
    loaded = json.loads(path.read_text())
    assert loaded == summary
    # byte-identical on rewrite
    path2 = tmp_path / "suite2.json"
    write_structured(str(path2), suite_report_dict(
        run_suite(DEFAULT_GUARDS, "ring-level"), DEFAULT_GUARDS))
    assert path.read_bytes() == path2.read_bytes()


def test_tiny_guards_leave_every_family_partial_not_raising():
    results = run_suite(Guards(1, 1, 1, 1, 1))
    prefixes = {r["name"].split(":")[0] for r in results}
    assert prefixes == {
        "essential-oracle", "corpus", "invariant", "transport", "c4-invariance",
        "defect-classes", "flag-invariance", "iota", "strong-decomposition",
        "example-schemes", "extension", "ring-level"}
    negative = [r for r in results if r["name"] == "c4-invariance:negative-instance"]
    assert [r["status"] for r in negative] == ["partial"]
    assert "bound 1" in negative[0]["detail"]


@pytest.mark.parametrize("exc, status", [
    (GuardExceeded("scan", 2, 1), "partial"),
    # an isomorphism test whose End scan is over its bound
    (GuardExceeded("endomorphism scan of X", 2 ** 18, 2 ** 17), "partial"),
    (TheoremViolation("bridge is not bijective"), "fail"),
])
def test_run_check_records_each_failure_kind(exc, status):
    def check():
        yield {"name": "first", "status": "pass", "detail": ""}
        raise exc
    assert run_check("check", check) == [
        {"name": "first", "status": "pass", "detail": ""},
        {"name": "check", "status": status, "detail": str(exc)},
    ]


def test_swcs_under_a_tiny_iso_search_bound_records_its_verdict():
    # F2[x,y]/(x,y)^2: the swCS scan compares its three socle lines, and
    # the exact isomorphism test reads no max_iso_search
    ring = local_square_zero_algebra(2, 2)
    entry = CorpusEntry("k.reg", ring, regular_module(ring), {
        "swCS": Expectation(False, "DERIVED", "three pairwise disjoint socle lines, "
                                              "none essential in a proper summand"),
    })
    (record,) = corpus_expectation_checks(Guards(max_iso_search=1), entries=[entry])
    assert record["name"] == "corpus:k.reg:swCS"
    assert record["status"] == "pass", record["detail"]


def test_run_check_records_any_other_exception_as_an_error():
    def check():
        yield {"name": "first", "status": "pass", "detail": ""}
        raise KeyError("x")
    assert run_check("check", check) == [
        {"name": "first", "status": "pass", "detail": ""},
        {"name": "check", "status": "error", "detail": "KeyError: 'x'"},
    ]
