"""Golden bytes of the defect report: `build_defect_report` with the
extension grid (2,1),(3,1), as `defect_report_dict` JSON and as the
rendered text, over 55 modules.  They are the 34 corpus modules and
R + S^k, for k = 1, 2, 3, for the regular module R and each simple S of
the corpus rings f2xf2, m2, r2, r3 and t2.

`tests/defect_reports.sha256` holds the digest under default guards.
Run from the root of a checkout:

    PYTHONPATH=src python tests/defect_reports.py [--guards FILE]

It prints the digest, then the count of modules and of partial sections.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from c4lab.conditions import DEFAULT_RULE_ID, build_defect_report
from c4lab.corpus import corpus_builtin, corpus_rings, simple_modules
from c4lab.guards import DEFAULT_GUARDS, Guards
from c4lab.modules import RightModule, direct_sum, regular_module
from c4lab.reports import defect_report_dict, render_defect_report

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "defect_reports.sha256")
SUM_RINGS = ("f2xf2", "m2", "r2", "r3", "t2")
EXTENSION_GRID = ((2, 1), (3, 1))


def report_modules() -> list[tuple[str, RightModule]]:
    """(module id, module) for the 55 modules, each a fresh copy, so
    nothing another caller cached reaches the reports."""
    out = [(e.name, RightModule(e.ring, e.module.action, name=e.module.name, validate=False))
           for e in corpus_builtin()]
    rings = corpus_rings()
    for key in SUM_RINGS:
        reg = regular_module(rings[key])
        for simple in simple_modules(rings[key]):
            for k in (1, 2, 3):
                name = f"{reg.name}+{simple.name}^{k}"
                out.append((name, direct_sum(reg, *[simple] * k, name=name)[0]))
    return out


def report_bytes(guards: Guards = DEFAULT_GUARDS, modules=None) -> tuple[bytes, int]:
    """The reports' JSON and text over `modules` (default
    `report_modules()`), concatenated, and the number of partial sections
    among them."""
    chunks, partial = [], 0
    for module_id, m in modules or report_modules():
        report = build_defect_report(m, module_id, DEFAULT_RULE_ID, guards, EXTENSION_GRID)
        chunks.append(json.dumps(defect_report_dict(report, guards, DEFAULT_RULE_ID), indent=2))
        chunks.append(render_defect_report(report))
        partial += len(report.partial)
    return "\n".join(chunks).encode() + b"\n", partial


def digest(guards: Guards = DEFAULT_GUARDS) -> tuple[str, int]:
    data, partial = report_bytes(guards)
    return hashlib.sha256(data).hexdigest(), partial


def committed_digest() -> str:
    with open(DIGEST_FILE, "r", encoding="utf-8") as fh:
        return fh.read().split()[0]


def main(argv: list[str]) -> int:
    guards = DEFAULT_GUARDS
    if argv[:1] == ["--guards"] and len(argv) == 2:
        with open(argv[1], "r", encoding="utf-8") as fh:
            guards = Guards.from_dict(json.load(fh))
    elif argv:
        print("usage: defect_reports.py [--guards FILE]", file=sys.stderr)
        return 2
    value, partial = digest(guards)
    print(value)
    print(f"{len(report_modules())} modules, {partial} partial sections")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
