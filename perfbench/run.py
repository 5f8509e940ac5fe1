"""c4lab benchmark: one workload, one seed, closed loop with one client.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports c4lab from ./src.
Each op starts when the previous one returns.  With ``--trace 0`` the
run prints the end-to-end metrics; with ``--trace 1`` it runs one round
of the workload untraced and then the same round with wrappers on every
layer's public functions, and prints the per-layer metrics.  The last
line of stdout is the JSON result; the lines before it record the
environment.  Spans and a full result record go to ``.perfbench/``.

Other modes: ``--dump DIR`` writes each op's input as files that
``c4lab analyze`` / ``c4lab morita`` accept, with a manifest of commands;
``--write-digests`` records the per-op report digests for the default
seed in ``perfbench/digests.json``.
"""

from __future__ import annotations

import os

# One process, one BLAS/OpenMP thread: set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 1
SETUP_PROBES = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_c4lab():
    """c4lab from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "c4lab", "__init__.py")):
        fail(f"no c4lab sources under {SRC}")
    sys.path.insert(0, SRC)
    import c4lab
    if os.path.dirname(os.path.dirname(os.path.abspath(c4lab.__file__))) != SRC:
        fail(f"c4lab imported from {c4lab.__file__}, not from {SRC}")
    # Load every module that binds a traced name before any wrapper is
    # installed, so no namespace is imported with an unwrapped copy.
    import c4lab.cli  # noqa: F401
    import c4lab.suite  # noqa: F401
    return c4lab


def make_workload(name: str, seed: int):
    sys.path.insert(0, HERE)
    import workloads
    return workloads, workloads.WORKLOADS[name](seed)


def environment(args, workload) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "guards": workload.guards_dict(),
        "ops_in_list": len(workload.ops),
        "round_size": workload.round_size,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(args):
    """Imports, seeded input generation and ring-level set-up.

    Everything set-up leaves behind is moved out of the collector's
    reach, so collections during the ops scan only what the ops make, as
    in a process that runs one command.
    """
    import_c4lab()
    workloads, workload = make_workload(args.workload, args.seed)
    workload.setup()
    gc.collect()
    gc.freeze()
    return workloads, workload


def measure_setup(args) -> list[float]:
    """Wall time from process start to the first op, in fresh processes.

    Each probe runs this script with --setup-only, which prints one line
    once set-up is done; the probe time ends when that line arrives.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            fail(f"set-up probe exited with {code}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.partial_ops = 0
        self.partial_sections = 0
        self.report_bytes = 0
        self.failures: list[str] = []
        self.per_op: list[tuple[str, str, float]] = []

    def slowest(self, n=10) -> list:
        return sorted(self.per_op, key=lambda r: -r[2])[:n]


def run_op(workloads, workload, op, tally: Tally, expected: list | None, tracer=None):
    """One op, timed alone; the output check runs after the clock stops.

    An op that ends in GuardExceeded is partial, not failed, only on a
    workload whose program lets guard exhaustion escape by design, and
    only where no report digest is expected.  Any other escape, any
    other exception or a failed check counts as a failed op and never
    stops the run.
    """
    from c4lab.guards import GuardExceeded
    tally.attempted += 1
    result = error = None
    partial_sections = 0
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(op)
        else:
            with tracer.tracing(op["index"]):
                result = workload.run(op)
    except GuardExceeded as exc:
        if workload.guard_escape_is_partial and expected is None:
            partial_sections = 1
        else:
            error = f"GuardExceeded: {exc}"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    tally.latencies.append(elapsed)
    tally.per_op.append((op["name"], op["ring"], elapsed))

    if result is not None:
        try:
            outcome = workload.check(op, result)
        except Exception as exc:
            outcome = workloads.Outcome(False, f"check raised {type(exc).__name__}: {exc}")
        if outcome.ok and expected is not None and outcome.digest != expected[op["index"]]:
            outcome.ok = False
            outcome.reason = f"report digest {outcome.digest} != {expected[op['index']]}"
        if not outcome.ok:
            error = outcome.reason
        partial_sections = outcome.partial_sections
        tally.report_bytes += outcome.report_bytes
    tally.partial_sections += partial_sections
    tally.partial_ops += partial_sections > 0
    if error is not None:
        tally.failed += 1
        tally.failures.append(f"{op['name']} ({op['ring']}): {error}")
        print(f"perfbench: op {op['name']} failed: {error}", file=sys.stderr)
    # Ops are independent: free this op's reference cycles now, so the
    # next op neither pays for them nor inherits their memory.
    result = None
    gc.collect()


def expected_digests(workloads, args):
    if args.seed != DEFAULT_SEED:
        return None
    with open(workloads.DIGEST_FILE, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    return table[args.workload]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_phase(workloads, workload, args) -> tuple[Tally, float, float]:
    """Run ops in list order until --seconds have passed.

    Returns the tally, the wall time, and the peak RSS at the end of the
    first round: warm caches keep growing with every op, so a peak taken
    after a fixed amount of work does not rise just because a faster
    program got through more ops.
    """
    expected = expected_digests(workloads, args)
    tally = Tally()
    ops = workload.ops
    rss = None
    start = time.perf_counter()
    i = 0
    while True:
        run_op(workloads, workload, ops[i % len(ops)], tally, expected)
        i += 1
        if i == workload.round_size:
            rss = peak_rss_mb()
        wall = time.perf_counter() - start
        if wall >= args.seconds:
            return tally, wall, rss if rss is not None else peak_rss_mb()


def quantile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(args) -> dict:
    setup_times = measure_setup(args)
    workloads, workload = setup(args)
    env = environment(args, workload)
    tally, wall, rss = timed_phase(workloads, workload, args)
    # throughput over the time spent inside ops: the output checks and
    # the collection between ops are the benchmark's own bookkeeping
    busy = sum(tally.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(tally.latencies) / busy, "ops/s"),
        "op_p50_s": (quantile(tally.latencies, 0.5), "s"),
        "op_p90_s": (quantile(tally.latencies, 0.9), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"setup_probes_s": setup_times, "timed_wall_s": wall, "op_busy_s": busy,
              "failed_frac": tally.failed / tally.attempted,
              "partial_frac": tally.partial_ops / tally.attempted,
              "samples_beyond_p90": sum(1 for x in tally.latencies
                                        if x > metrics["op_p90_s"][0])}
    return finish(args, env, tally, metrics, detail)


def traced(args) -> dict:
    import tracer
    tr = tracer.Tracer()
    import_c4lab()
    tr.install(tracer.c4lab_targets(tr))
    with tr.tracing(-1, "bench.setup"):
        workloads, workload = make_workload(args.workload, args.seed)
        workload.setup()
    tr.uninstall()
    gc.collect()
    gc.freeze()
    env = environment(args, workload)
    expected = expected_digests(workloads, args)
    round_ops = workload.ops[:workload.round_size]

    plain = Tally()
    start = time.perf_counter()
    for op in round_ops:
        run_op(workloads, workload, op, plain, expected)
    plain_wall = time.perf_counter() - start

    tally = Tally()
    tr.install(tracer.c4lab_targets(tr))
    start = time.perf_counter()
    for op in round_ops:
        run_op(workloads, workload, op, tally, expected, tr)
    traced_wall = time.perf_counter() - start
    tr.uninstall()

    metrics = {k: (v, _unit(k)) for k, v in tracer.layer_metrics(tr).items()}
    metrics["guards.partial_sections"] = (tally.partial_sections, "count")
    metrics["guards.partial_frac"] = (tally.partial_ops / tally.attempted, "ratio")
    metrics["reports.bytes"] = (tally.report_bytes, "bytes")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.npz"))
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": len(tr.start), "untraced_failed": plain.failed}
    tally.failed += plain.failed
    tally.attempted += plain.attempted
    tally.failures += plain.failures
    return finish(args, env, tally, metrics, detail)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "headroom_max")):
        return "ratio"
    return "count"


def finish(args, env, tally: Tally, metrics: dict, detail: dict) -> dict:
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"environment": env, "result": result, "detail": detail,
              "failures": tally.failures, "slowest_ops": tally.slowest(),
              "ops": tally.per_op}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps(result))
    return result


# ---------------------------------------------------------------------------
# replay and digests
# ---------------------------------------------------------------------------


def dump_inputs(args) -> None:
    workloads, workload = setup(args)
    os.makedirs(args.dump, exist_ok=True)
    manifest = []
    for op in workload.ops:
        files, command = workload.replay_files(op)
        for name, payload in files.items():
            with open(os.path.join(args.dump, name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        manifest.append({"op": op["name"], "ring": op["ring"],
                         "files": sorted(files), "command": command})
    with open(os.path.join(args.dump, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "ops": manifest}, fh, indent=1)
    print(f"wrote {len(manifest)} ops to {args.dump}")


def write_digests(args) -> None:
    """Record the per-op report digests of the default seed."""
    table = {}
    for name in ("analyze", "transport", "ring-scan"):
        args.workload = name
        workloads, workload = setup(args)
        digests = []
        for op in workload.ops:
            outcome = workload.check(op, workload.run(op))
            if not outcome.ok:
                fail(f"{op['name']}: {outcome.reason}")
            digests.append(outcome.digest)
        table[name] = digests
        print(f"{name}: {len(digests)} digests", flush=True)
    with open(workloads.DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("analyze", "transport", "ring-scan"),
                        default="analyze")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", metavar="DIR", default=None,
                        help="write every op's input files and a manifest, then exit")
    parser.add_argument("--write-digests", action="store_true",
                        help="record report digests for the default seed, then exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_only:
        setup(args)
        print("ready", flush=True)
        return
    if args.dump:
        dump_inputs(args)
        return
    if args.write_digests:
        args.seed = DEFAULT_SEED
        write_digests(args)
        return
    if args.trace:
        traced(args)
    else:
        end_to_end(args)


if __name__ == "__main__":
    main()
