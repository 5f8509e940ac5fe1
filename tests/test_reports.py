import json

import numpy as np

from c4lab.algebra import poly_quotient_algebra
from c4lab.conditions import build_defect_report
from c4lab.corpus import simple_modules
from c4lab.guards import Guards, DEFAULT_GUARDS
from c4lab.modules import direct_sum, regular_module
from c4lab.reports import (
    defect_report_dict,
    render_defect_report,
    write_structured,
)


def _mixed():
    r2 = poly_quotient_algebra(2, [0, 0, 1])
    out, _, _ = direct_sum(regular_module(r2), simple_modules(r2)[0], name="R+S")
    return out


def test_defect_report_dict_shape():
    m = _mixed()
    report = build_defect_report(m, module_id="R+S")
    payload = defect_report_dict(report, DEFAULT_GUARDS, "mono-image-splits")
    assert list(payload)[:6] == ["tool", "kind", "module", "rule", "guards", "flags"]
    assert payload["flags"]["C4"] is False
    assert payload["def_c4"]["count"] == 4
    sample = payload["def_c4"]["shape_classes"][0]["sample"]
    assert sample["verdict"] == "defect"
    assert sample["detail"] == "injective-image-not-summand"
    assert payload["obstruction_index"] == "infinity"
    assert payload["partial_sections"] == {}
    json.dumps(payload)  # fully serializable


def test_infinity_serialization_and_certificate():
    r2 = poly_quotient_algebra(2, [0, 0, 1])
    reg = regular_module(r2)
    report = build_defect_report(reg)
    payload = defect_report_dict(report, DEFAULT_GUARDS, "mono-image-splits")
    assert payload["obstruction_index"] == "infinity"
    cert = payload["decomposition_certificate"]
    assert cert == {"P_basis": [], "Q_basis": [[1, 0], [0, 1]]}


def test_finite_obstruction_index_in_report():
    from c4lab.corpus import local_square_zero_algebra
    reg = regular_module(local_square_zero_algebra(2, 2))
    report = build_defect_report(reg)
    payload = defect_report_dict(report, DEFAULT_GUARDS, "mono-image-splits")
    assert payload["obstruction_index"] == 1
    assert payload["obs_swcs"]["count"] == 3
    assert all(pair["minimal"] for pair in payload["obs_swcs"]["pairs"])
    assert all(pair["lengths"] == [1, 1] for pair in payload["obs_swcs"]["pairs"])


def test_partial_sections_marked_under_tiny_guards():
    m = _mixed()
    tiny = Guards(max_lattice_vectors=2, max_end_enumeration=2,
                  max_hom_scan=2, max_iso_search=2, rng_seed=1)
    report = build_defect_report(m, guards=tiny)
    assert report.partial  # at least one exhausted section
    assert report.flags["C4"] is None
    text = render_defect_report(report)
    assert "PARTIAL" in text and "unresolved(guard)" in text
    payload = defect_report_dict(report, tiny, "mono-image-splits")
    assert payload["partial_sections"]


def test_render_is_deterministic(tmp_path):
    m = _mixed()
    report = build_defect_report(m, module_id="R+S")
    payload = defect_report_dict(report, DEFAULT_GUARDS, "mono-image-splits")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_structured(str(a), payload)
    write_structured(str(b), defect_report_dict(
        build_defect_report(m, module_id="R+S"), DEFAULT_GUARDS,
        "mono-image-splits"))
    assert a.read_bytes() == b.read_bytes()
    assert render_defect_report(report) == render_defect_report(
        build_defect_report(m, module_id="R+S"))


def test_every_record_status_fits_the_suite_status_column():
    from c4lab.guards import FAILURE_STATUS
    from c4lab.reports import render_suite_report, suite_report_dict

    statuses = ["pass", *FAILURE_STATUS.values()]
    checks = [{"name": "check", "status": s, "detail": ""} for s in statuses]
    lines = render_suite_report(suite_report_dict(checks, DEFAULT_GUARDS)).splitlines()
    assert [line[:9] for line in lines[:-1]] == [f"[{s.upper():7s}]" for s in statuses]


def test_the_suite_summary_counts_partial_records():
    from c4lab.reports import render_suite_report, suite_report_dict

    checks = [{"name": f"check{i}", "status": s, "detail": ""}
              for i, s in enumerate(["pass", "partial", "fail", "partial"])]
    summary = suite_report_dict(checks, DEFAULT_GUARDS)
    assert (summary["total"], summary["failures"], summary["partial"]) == (4, 1, 2)
    assert render_suite_report(summary).splitlines()[-1] == "4 checks, 1 failures, 2 partial"
