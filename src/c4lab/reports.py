"""
Report rendering: human text for stdout, ordered JSON for --out files.

Key order is fixed everywhere and no floats appear (the infinite
obstruction index serializes as the string "infinity"), so reports are
byte-identical across runs with equal inputs and guards.
"""

from __future__ import annotations

import json

import numpy as np

from .conditions import DefectReport, serialize_value
from .guards import Guards


def _rows(arr) -> list:
    a = np.asarray(arr)
    return [[int(v) for v in row] for row in a]


def _witness_sample(rec) -> dict:
    return {
        "A_basis": _rows(rec.decomposition.a.basis),
        "B_basis": _rows(rec.decomposition.b.basis),
        "f_matrix": _rows(rec.f.matrix),
        "kernel_dim": rec.kernel.dim,
        "image_basis": _rows(rec.image.basis),
        "verdict": rec.verdict,
        "detail": rec.detail,
    }


def _shape_table(classes: dict) -> list:
    table = []
    for key, (count, sample) in classes.items():
        rec = sample[1] if isinstance(sample, tuple) else sample
        table.append({
            "key": repr(key),
            "count": count,
            "sample": _witness_sample(rec),
        })
    return table


def defect_report_dict(report: DefectReport, guards: Guards,
                       rule_id: str) -> dict:
    out = {
        "tool": "c4lab",
        "kind": "defect-report",
        "module": report.module_id,
        "rule": rule_id,
        "guards": guards.to_dict(),
        "flags": report.flags,
        "def_c4": {
            "count": len(report.def_c4),
            "shape_classes": _shape_table(report.def_c4_classes),
        },
        "def_c4star": {
            "count": len(report.def_c4star),
            "shape_classes": _shape_table(report.def_c4star_classes),
        },
        "obs_swcs": {
            "count": len(report.obs),
            "pairs": [{
                "X_basis": _rows(pair.x.basis),
                "Y_basis": _rows(pair.y.basis),
                "lengths": list(pair.lengths),
                "minimal": pair.minimal,
            } for pair in report.obs],
        },
        "obstruction_index": serialize_value(report.obstruction_index),
        "extensions": [{
            "m": cell["m"], "d": cell["d"], "strict": cell["strict"],
            "flags": cell["flags"],
        } for cell in report.extensions],
        "decomposition_certificate": None,
        "partial_sections": report.partial,
    }
    if report.decomposition is not None:
        p_part, q_part = report.decomposition
        out["decomposition_certificate"] = {
            "P_basis": _rows(p_part.basis),
            "Q_basis": _rows(q_part.basis),
        }
    if report.ring_scan is not None:
        out["ring_scan"] = report.ring_scan
    return out


def render_defect_report(report: DefectReport) -> str:
    lines = [f"module {report.module_id}"]
    for key, value in report.flags.items():
        shown = "unresolved(guard)" if value is None else str(value).lower()
        lines.append(f"  {key:7s} {shown}")
    lines.append(f"  def_C4 defects      {len(report.def_c4)} "
                 f"in {len(report.def_c4_classes)} shape classes")
    lines.append(f"  def_C4* defects     {len(report.def_c4star)} "
                 f"in {len(report.def_c4star_classes)} shape classes")
    lines.append(f"  swCS obstructions   {len(report.obs)}")
    lines.append(f"  obstruction index   {serialize_value(report.obstruction_index)}")
    for cell in report.extensions:
        flags = cell["flags"]
        shown = "unresolved(guard)" if flags is None else \
            " ".join(f"{k}={str(v).lower()}" for k, v in flags.items())
        lines.append(f"  extension m={cell['m']} d={cell['d']} "
                     f"{'strict' if cell['strict'] else 'non-strict'}: {shown}")
    if report.decomposition is not None:
        p_part, q_part = report.decomposition
        lines.append(f"  strong decomposition: dim P = {p_part.dim}, "
                     f"dim Q = {q_part.dim}")
    if report.ring_scan is not None:
        scan = report.ring_scan
        lines.append(f"  ring scan: {scan['right_ideals']} right ideals, "
                     f"all C4 = {str(scan['all_ideals_c4']).lower()}")
    for section, reason in report.partial.items():
        lines.append(f"  PARTIAL {section}: {reason}")
    return "\n".join(lines)


def morita_report_dict(result: dict, guards: Guards) -> dict:
    return {
        "tool": "c4lab",
        "kind": "morita-comparison",
        "ring": result["ring"],
        "module": result["module"],
        "progenerator": result["progenerator"],
        "guards": guards.to_dict(),
        "rows": result["rows"],
        "violations": result["violations"],
    }


def render_morita_report(result: dict) -> str:
    lines = [f"ring {result['ring']}, module {result['module']}, "
             f"progenerator {result['progenerator']}"]
    for row in result["rows"]:
        mark = "ok " if row["agreement"] else "THEOREM VIOLATION"
        lines.append(f"  {row['condition']:24s} M={row['value_on_M']} "
                     f"F(M)={row['value_on_FM']}  {mark}")
    lines.append(f"  violations: {result['violations']}")
    return "\n".join(lines)


def suite_report_dict(results: list, guards: Guards) -> dict:
    return {
        "tool": "c4lab",
        "kind": "suite-summary",
        "guards": guards.to_dict(),
        "checks": results,
        "total": len(results),
        "failures": sum(1 for r in results if r["status"] in ("fail", "error")),
        "partial": sum(1 for r in results if r["status"] == "partial"),
    }


def render_suite_report(summary: dict) -> str:
    lines = []
    for check in summary["checks"]:
        lines.append(f"[{check['status'].upper():7s}] {check['name']}"
                     + (f"  ({check['detail']})" if check.get("detail") else ""))
    lines.append(f"{summary['total']} checks, {summary['failures']} failures, "
                 f"{summary['partial']} partial")
    return "\n".join(lines)


def write_structured(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
