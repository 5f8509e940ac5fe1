"""Opt-in criteria and LOC report (not a workload, not gated).

    python3 perfbench/criteria.py

Times each suite family cold (a fresh process per family) and warm (one
process, in ``c4lab.suite.FAMILIES`` order), the Tier-1 test run, and
counts source lines under ``src/c4lab``.  Runs from the root of a source
checkout with one BLAS/OpenMP thread; prints one JSON object and writes
it to ``.perfbench/criteria.json``.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 1800

# Run inside a child process: time the named families after the imports.
FAMILY_RUNNER = """
import json, sys, time
sys.path.insert(0, {src!r})
from c4lab.guards import Guards
from c4lab.suite import FAMILIES
wanted = {names!r}
out = []
for name, family in FAMILIES:
    if name not in wanted:
        continue
    start = time.perf_counter()
    checks = family(Guards())
    out.append({{"family": name, "seconds": time.perf_counter() - start,
                "checks": len(checks),
                "failures": sum(1 for c in checks if c["status"] == "fail"),
                "partial": sum(1 for c in checks if c["status"] == "partial")}})
print(json.dumps(out))
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_families(names: list[str]) -> list[dict]:
    code = FAMILY_RUNNER.format(src=SRC, names=names)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=ROOT, env=child_env(), timeout=TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def family_names() -> list[str]:
    sys.path.insert(0, SRC)
    from c4lab.suite import FAMILIES
    return [name for name, _ in FAMILIES]


def tier1() -> dict:
    env = child_env()
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"],
                         capture_output=True, text=True, cwd=ROOT, env=env,
                         timeout=TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    return {"seconds": time.perf_counter() - start, "exit_code": out.returncode,
            "summary": lines[-1] if lines else ""}


def source_loc() -> dict:
    files = sorted(glob.glob(os.path.join(SRC, "c4lab", "*.py")))
    per_file = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            per_file[os.path.basename(path)] = sum(1 for _ in fh)
    return {"total": sum(per_file.values()), "files": per_file}


def main() -> None:
    names = family_names()
    report = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "families": names,
              "cold": [run_families([name])[0] for name in names],
              "warm": run_families(names),
              "tier1": tier1(),
              "loc": source_loc()}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "criteria.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
