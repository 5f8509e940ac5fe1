"""Outside-in tracing of c4lab's public functions.

The wrappers live here, not in the program: `Tracer.install` replaces a
target function in every loaded ``c4lab`` namespace that binds it
(modules copy names with ``from .modules import hom_space_matrices``, so
patching only the defining module would miss calls) and `uninstall`
puts the originals back.  Each call records one span (name, start, end,
parent, op) in flat arrays; the spans are written out once the run ends
and reduced to per-layer metrics by `layer_metrics`.

Work counts (lattice members, scan candidates, witnesses) are added on
the first successful call per module object: the program caches those
results per object, so later calls on the same object do no such work.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import weakref
from array import array

import numpy as np

_COUNT_KEYS = (
    "linalg.rref.cells", "modules.hom_space.unknowns_max",
    "modules.lattice.members", "conditions.end_scan.candidates",
    "conditions.end_scan.idempotents", "conditions.hom_scan.maps",
    "conditions.hom_scan.defects", "conditions.swcs.obstructions",
    "guards.headroom_max",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.guard_error = array("b")
        self.counts = dict.fromkeys(_COUNT_KEYS, 0)
        self._stack: list[int] = []
        self._guard_needed: dict[int, int] = {}
        self._pair_source: dict[int, object] = {}
        self._seen: dict[str, weakref.WeakKeyDictionary] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.current_op = -1
        self.active = False

    # -- spans -------------------------------------------------------------

    def name_index(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def tracing(self, op: int, name: str = "bench.op"):
        """Trace the with-block as one span of the given op."""
        self.current_op = op
        idx = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(-1)
        self.op.append(op)
        self.end.append(0.0)
        self.guard_error.append(0)
        self._stack.append(idx)
        self.active = True
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.active = False
            self._stack.pop()
            self._guard_needed.clear()
            self._pair_source.clear()

    def first_time(self, key: str, obj) -> bool:
        seen = self._seen.setdefault(key, weakref.WeakKeyDictionary())
        if obj in seen:
            return False
        seen[obj] = True
        return True

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """Record a span around each call of fn while the tracer is active.

        name is a span name, or a function of (args, kwargs) giving the
        name or None for no span; after(span, args, kwargs, result) adds
        counts once the span has closed.
        """
        tracer = self
        stack, name_id, parent, op = self._stack, self.name_id, self.parent, self.op
        starts, ends, guard_error = self.start, self.end, self.guard_error
        clock = time.perf_counter
        fixed = self.name_index(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = fixed
            if nid is None:
                label = name(args, kwargs)
                if label is None:
                    return fn(*args, **kwargs)
                nid = tracer.name_index(label)
            idx = len(starts)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            ends.append(0.0)
            guard_error.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if type(exc).__name__ == "GuardExceeded":
                    guard_error[idx] = 1
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets) -> None:
        """targets: (module name, attribute, wrapper factory) triples.

        A dotted attribute ("FiniteAlgebra.__init__") patches a method on
        the class, which every namespace shares.
        """
        for mod_name, attr, factory in targets:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, factory(original))
                continue
            original = getattr(owner, attr)
            wrapped = factory(original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "c4lab" or name.startswith("c4lab.")):
                    continue
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "guard_error": np.frombuffer(self.guard_error, dtype=np.int8),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


# ---------------------------------------------------------------------------
# the c4lab targets
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def c4lab_targets(tracer: Tracer):
    """Wrapper factories for every layer the benchmark reports."""
    c = tracer.counts

    def named(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    def rref_after(idx, args, kwargs, result):
        shape = np.shape(args[0])
        if len(shape) == 2:
            c["linalg.rref.cells"] += shape[0] * shape[1]

    def hom_after(idx, args, kwargs, result):
        c["modules.hom_space.unknowns_max"] = max(
            c["modules.hom_space.unknowns_max"], args[0].dim * args[1].dim)

    def lattice_after(idx, args, kwargs, result):
        if tracer.first_time("lattice", args[0]):
            c["modules.lattice.members"] += len(result.members)

    def end_scan_after(idx, args, kwargs, result):
        if tracer.first_time("end_scan", args[0]):
            c["conditions.end_scan.candidates"] += tracer._guard_needed.pop(idx, 0)
            c["conditions.end_scan.idempotents"] += len(result)

    def hom_scan_after(idx, args, kwargs, result):
        rule = _arg(args, kwargs, 1, "rule_id", "")
        if tracer.first_time(f"hom_scan:{rule}", args[0]):
            c["conditions.hom_scan.maps"] += tracer._guard_needed.pop(idx, 0)
            c["conditions.hom_scan.defects"] += len(result)

    def swcs_after(idx, args, kwargs, result):
        reading = _arg(args, kwargs, 1, "reading", "submodule")
        if tracer.first_time(f"swcs:{reading}", args[0]):
            c["conditions.swcs.obstructions"] += len(result)

    def chain_name(args, kwargs):
        return "conditions.chain_scan" if _arg(args, kwargs, 1, "arity") >= 3 else None

    def pair_check(fn):
        def after_open(args, kwargs):
            tracer._pair_source[len(tracer.start)] = _arg(args, kwargs, 2, "m")
            return "morita.pair_check"
        return tracer.wrap(fn, after_open)

    def evaluate_name(args, kwargs):
        parent = tracer._stack[-1] if tracer._stack else -1
        source = tracer._pair_source.get(parent)
        return "morita.source_side" if args[0] is source else "morita.image_side"

    # scans whose own guard checks count the objects they enumerate
    scans = {tracer.name_index("conditions.end_scan"),
             tracer.name_index("conditions.hom_scan")}

    def check_guard(fn):
        @functools.wraps(fn)
        def wrapper(what, needed, bound):
            if tracer.active:
                c["guards.headroom_max"] = max(c["guards.headroom_max"],
                                               needed / bound)
                top = tracer._stack[-1] if tracer._stack else -1
                if top >= 0 and tracer.name_id[top] in scans:
                    tracer._guard_needed[top] = tracer._guard_needed.get(top, 0) + needed
            return fn(what, needed, bound)
        return wrapper

    return [
        ("c4lab.linalg", "rref", named("linalg.rref", rref_after)),
        ("c4lab.linalg", "solve_left_many", named("linalg.solve")),
        ("c4lab.linalg", "left_nullspace", named("linalg.nullspace")),
        ("c4lab.guards", "check_guard", check_guard),
        ("c4lab.algebra", "FiniteAlgebra.__init__", named("algebra.construct")),
        ("c4lab.algebra", "jacobson_radical", named("algebra.radical")),
        ("c4lab.modules", "hom_space_matrices", named("modules.hom_space", hom_after)),
        ("c4lab.modules", "all_submodules", named("modules.lattice", lattice_after)),
        ("c4lab.modules", "is_summand", named("modules.is_summand")),
        ("c4lab.modules", "iso_test", named("modules.iso_test")),
        ("c4lab.modules", "fingerprint", named("modules.fingerprint")),
        ("c4lab.modules", "composition_length", named("modules.composition_length")),
        ("c4lab.conditions", "enumerate_decompositions",
         named("conditions.end_scan", end_scan_after)),
        ("c4lab.conditions", "def_c4", named("conditions.hom_scan", hom_scan_after)),
        ("c4lab.conditions", "def_c4star", named("conditions.c4star")),
        ("c4lab.conditions", "obs_swcs", named("conditions.swcs", swcs_after)),
        ("c4lab.conditions", "decompose_strong", named("conditions.decompose")),
        ("c4lab.conditions", "is_c4_m", lambda fn: tracer.wrap(fn, chain_name)),
        ("c4lab.conditions", "build_defect_report", named("conditions.report")),
        ("c4lab.morita", "build_progenerator", named("morita.progenerator")),
        ("c4lab.morita", "end_algebra", named("morita.end_algebra")),
        ("c4lab.morita", "apply_functor", named("morita.apply_functor")),
        ("c4lab.morita", "transport_submodule", named("morita.transport_submodule")),
        ("c4lab.morita", "morita_pair_check", pair_check),
        ("c4lab.morita", "evaluate_condition", lambda fn: tracer.wrap(fn, evaluate_name)),
        ("c4lab.io", "parse_ring", named("io.parse")),
        ("c4lab.io", "parse_module", named("io.parse")),
        ("c4lab.reports", "defect_report_dict", named("reports.serialize")),
        ("c4lab.reports", "render_defect_report", named("reports.serialize")),
        ("c4lab.reports", "morita_report_dict", named("reports.serialize")),
        ("c4lab.reports", "render_morita_report", named("reports.serialize")),
    ]


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIME_LAYERS = (
    "linalg.rref", "modules.hom_space", "modules.lattice", "modules.is_summand",
    "modules.iso_test", "modules.fingerprint", "modules.composition_length",
    "conditions.end_scan", "conditions.hom_scan", "conditions.c4star",
    "conditions.swcs", "conditions.decompose", "conditions.chain_scan",
    "morita.progenerator", "morita.end_algebra", "morita.apply_functor",
    "morita.transport_submodule", "io.parse", "algebra.construct",
    "algebra.radical", "reports.serialize",
)

CALL_COUNT_LAYERS = (
    "linalg.rref", "linalg.solve", "linalg.nullspace", "modules.hom_space",
    "modules.lattice", "modules.is_summand", "modules.iso_test",
    "conditions.chain_scan", "morita.apply_functor", "morita.transport_submodule",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals from the recorded spans and counters."""
    arr = tracer.arrays()
    names = list(arr["names"])
    nid, parent = arr["name_id"], arr["parent"]
    dur = arr["end"] - arr["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur)) if len(dur) else np.zeros(0)
    self_time = dur - child
    by_name_self = np.bincount(nid, weights=self_time, minlength=len(names))
    by_name_total = np.bincount(nid, weights=dur, minlength=len(names))
    by_name_calls = np.bincount(nid, minlength=len(names))

    def of(table, name):
        return float(table[names.index(name)]) if name in names else 0.0

    out = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = of(by_name_self, layer)
    for layer in CALL_COUNT_LAYERS:
        out[f"{layer}.calls"] = int(of(by_name_calls, layer))
    out["morita.source_side_s"] = of(by_name_total, "morita.source_side")
    out["morita.image_side_s"] = of(by_name_total, "morita.image_side")

    # a guard-partial section: a span that ended in GuardExceeded while
    # its caller went on (the exception was caught there)
    err = arr["guard_error"].astype(bool)
    caught = err & has_parent
    caught[caught] &= ~err[parent[caught]]
    out["guards.partial_wasted_s"] = float(dur[caught].sum())

    c = dict(tracer.counts)
    out["linalg.rref.cells"] = int(c["linalg.rref.cells"])
    out["modules.hom_space.unknowns_max"] = int(c["modules.hom_space.unknowns_max"])
    out["modules.lattice.members"] = int(c["modules.lattice.members"])
    out["conditions.end_scan.candidates"] = int(c["conditions.end_scan.candidates"])
    out["conditions.end_scan.idempotents"] = int(c["conditions.end_scan.idempotents"])
    out["conditions.end_scan.useful_ratio"] = _ratio(
        c["conditions.end_scan.idempotents"], c["conditions.end_scan.candidates"])
    out["conditions.hom_scan.maps"] = int(c["conditions.hom_scan.maps"])
    out["conditions.hom_scan.defects"] = int(c["conditions.hom_scan.defects"])
    out["conditions.hom_scan.useful_ratio"] = _ratio(
        c["conditions.hom_scan.defects"], c["conditions.hom_scan.maps"])
    out["conditions.swcs.obstructions"] = int(c["conditions.swcs.obstructions"])
    out["guards.headroom_max"] = float(c["guards.headroom_max"])
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
