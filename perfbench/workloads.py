"""The three benchmark workloads: inputs, one op each, and output checks.

Every workload is a fixed catalog of input shapes with a count per
shape.  A seed instantiates each shape with random cyclic quotients and
a random change of basis (`gen`), so every seed runs the same mix of
costs while the program never sees the same matrices twice across
seeds.  The op list holds several independently instantiated rounds of
the catalog, interleaved by shape so that any prefix of the list has the
catalog's proportions; a timed phase that stops part-way through a round
still measures the whole mix.

Why these workloads:

* ``analyze`` is ``c4lab analyze`` run cold: small GF(p) kernels and the
  condition scans (End idempotents, per-decomposition hom scans, the
  arity-3 chain scan) do the work and no guard trips.
* ``transport`` is ``c4lab morita`` and the suite's transport families
  run warm: the same scans on image modules 2-4 times larger over rings
  of dimension 4 dim R, with ring-level progenerators certified once in
  set-up.
* ``ring-scan`` is ``c4lab analyze --ring`` on regular modules of
  M_2(R) under a tight guards file: one large dense hom-space solve per
  op, after which every section goes partial.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass

import numpy as np

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
RING_SCAN_GUARDS_FILE = os.path.join(HERE, "ring_scan_guards.json")
DIGEST_FILE = os.path.join(HERE, "digests.json")
RULE_ID = "mono-image-splits"
CONDITIONS = ("C4", "C4star", "swCS", "strong", "iota")

# Pinned here rather than taken from c4lab's defaults, so that a change
# of the program's default guards cannot change what the benchmark runs.
DEFAULT_GUARDS = {"max_lattice_vectors": 2 ** 16, "max_end_enumeration": 2 ** 20,
                  "max_hom_scan": 2 ** 20, "max_iso_search": 2 ** 16, "rng_seed": 1}

# (ring, cyclic-quotient dimensions, dim End(M)): count per round.
# On a 2-CPU machine ops take 4 ms to 1.3 s; the End scan sizes
# p^dim End run from 2^2 to 2^11.  Counts are set so that the median
# and the p90 op fall inside groups of shapes with similar cost, not in
# a gap between two groups, where they would jump from run to run.
ANALYZE_CATALOG = {
    ("L2(F2)", (2,), 2): 4,
    ("F2[x]/(x^2)", (2,), 2): 3,
    ("F2[x]/(x^3)", (3,), 3): 4,
    ("F2", (1, 1), 4): 4,
    ("T2(F2)", (1, 1), 4): 4,
    ("L2(F2)", (3,), 3): 4,
    ("M2(F2)", (2, 2), 4): 3,
    ("F2[x]/(x^3)", (1, 1), 4): 3,
    ("F2[x]/(x^2)", (1, 2), 5): 3,
    ("F3", (1, 1), 4): 3,
    ("F2xF2", (1, 2), 5): 3,
    ("F3[x]/(x^2)", (1, 2), 5): 3,
    ("L2(F2)", (2, 2), 6): 3,
    ("T3(F2)", (5,), 4): 3,
    ("T2(F2)", (1, 3), 7): 3,
    ("F2[x]/(x^3)", (2, 3), 9): 2,
    ("F2", (1, 1, 1), 9): 2,
    ("F2[x]/(x^2)", (1, 1, 2), 10): 2,
    ("F2[x]/(x^3)", (1, 1, 3), 11): 1,
    ("T3(F2)", (6,), 6): 1,
}

TRANSPORT_CATALOG = {
    ("T2(F2)", (1,), 1): 4,
    ("F3", (1,), 1): 4,
    ("F2", (1,), 1): 3,
    ("M2(F2)", (2,), 1): 4,
    ("L2(F2)", (2,), 2): 4,
    ("F2[x]/(x^3)", (2,), 2): 3,
    ("T2(F2)", (2,), 2): 3,
    ("F2[x]/(x^3)", (1, 1), 4): 3,
    ("F3", (1, 1), 4): 3,
    ("T2(F2)", (1, 1), 4): 3,
    ("F3[x]/(x^2)", (1, 1), 4): 3,
    ("L2(F2)", (3,), 3): 3,
    ("F2xF2", (1, 2), 5): 3,
    ("F2[x]/(x^2)", (1, 2), 5): 3,
    ("T3(F2)", (3,), 3): 3,
    ("T2(F2)", (2, 2), 4): 2,
    ("F2[x]/(x^2)", (2, 2), 8): 2,
    ("F2[x]/(x^3)", (1, 1, 1), 9): 2,
    ("F2[x]/(x^3)", (2, 2), 8): 2,
    ("F2xF2", (2, 2), 8): 1,
    ("T2(F2)", (1, 1, 2), 7): 1,
}

# base ring R of M_2(R): count per round (dim M_2(R) = 4 dim R).
RING_SCAN_CATALOG = {
    "F2[x]/(x^3)": 3, "T2(F2)": 3, "L2(F2)": 3, "F2xF2[x]/(x^2)": 3,
    "F2[x]/(x^4)": 4, "L3(F2)": 4, "F2xT2(F2)": 3, "M2(F2)": 3,
    "F2[x]/(x^5)": 4, "L4(F2)": 4, "F2xL3(F2)": 4,
    "F2[x]/(x^6)": 1, "T3(F2)": 1,
}

ROUNDS = 3


def interleave(items, rng):
    """Order (shape, payload) pairs so every prefix keeps the shape mix.

    The k-th of n copies of a shape sits at position (k + u) / n with a
    random u in [0, 1); sorting by position spreads each shape evenly.
    """
    counts: dict = {}
    for shape, _ in items:
        counts[shape] = counts.get(shape, 0) + 1
    seen: dict = {}
    keyed = []
    for t, (shape, payload) in enumerate(items):
        k = seen.get(shape, 0)
        seen[shape] = k + 1
        keyed.append(((k + rng.random()) / counts[shape], t, payload))
    keyed.sort(key=lambda x: (x[0], x[1]))
    return [payload for _, _, payload in keyed]


def _module_instance(ring, dims, end_dim, rng, tries=2000):
    """A direct sum of cyclic quotients with the given dimensions and
    End dimension, in a random basis."""
    for _ in range(tries):
        parts = []
        for k in dims:
            for _ in range(200):
                q = gen.cyclic_quotient(ring, rng)
                if q is not None and q.shape[1] == k:
                    parts.append(q)
                    break
        if len(parts) != len(dims):
            continue
        action = gen.conjugate(gen.direct_sum(parts), rng, ring.p)
        if gen.end_dim(action, ring.p) == end_dim:
            return action
    raise RuntimeError(f"no module of shape {dims} with dim End {end_dim} "
                       f"over {ring.key}")


def _module_ops(catalog, rng, prefix):
    rings = gen.analyze_rings()
    ops = []
    for rnd in range(ROUNDS):
        items = []
        for (ring_key, dims, end_dim), count in catalog.items():
            for _ in range(count):
                action = _module_instance(rings[ring_key], dims, end_dim, rng)
                items.append(((ring_key, dims, end_dim),
                              (ring_key, dims, end_dim, action)))
        ops.extend(interleave(items, rng))
    out = []
    for i, (ring_key, dims, end_dim, action) in enumerate(ops):
        name = f"{prefix}{i:03d}"
        out.append({"index": i, "ring": ring_key, "dims": list(dims),
                    "end_dim": end_dim, "name": name,
                    "spec": gen.module_spec(rings[ring_key], action, name)})
    return out


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def _report_digest(payload: dict, text: str) -> str:
    # guards are an input of the run and recorded separately; leaving
    # them out keeps the digest about the verdicts
    body = {k: v for k, v in payload.items() if k != "guards"}
    return digest(json.dumps(body, sort_keys=True), text)


_PARTIAL = re.compile(r"needs (\d+) > bound (\d+)")


@dataclass
class Outcome:
    """What a check decided about one op."""

    ok: bool
    reason: str = ""
    partial_sections: int = 0
    digest: str = ""
    report_bytes: int = 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


class Analyze:
    name = "analyze"
    # build_defect_report ends a guarded section as partial itself, so a
    # GuardExceeded that escapes the op is a fault of the program
    guard_escape_is_partial = False
    extension_grid = ((2, 1), (3, 1))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.ops = _module_ops(ANALYZE_CATALOG, rng, "a")
        self.round_size = sum(ANALYZE_CATALOG.values())
        for op in self.ops:
            op["text"] = json.dumps(op["spec"])

    def guards_dict(self):
        return DEFAULT_GUARDS

    def setup(self):
        from c4lab.guards import Guards
        self.guards = Guards.from_dict(DEFAULT_GUARDS)

    def run(self, op):
        # c4lab names are looked up per op, so a traced run calls the
        # wrapped functions
        from c4lab.conditions import build_defect_report
        from c4lab.io import parse_module
        from c4lab.reports import defect_report_dict, render_defect_report
        module = parse_module(json.loads(op["text"]), where=op["name"])
        report = build_defect_report(module, module_id=module.name,
                                     guards=self.guards,
                                     extension_grid=self.extension_grid)
        payload = defect_report_dict(report, self.guards, RULE_ID)
        text = render_defect_report(report)
        return report, payload, json.dumps(payload, indent=2), text

    def check(self, op, result) -> Outcome:
        report, payload, serialized, text = result
        f = report.flags
        errors = []

        def known(*keys):
            return all(f[k] is not None for k in keys)

        if known("C4star", "C4") and f["C4star"] and not f["C4"]:
            errors.append("C4* without C4")
        if known("strong", "C4star", "swCS") and f["strong"] != (f["C4star"] and f["swCS"]):
            errors.append("strong != C4* and swCS")
        if f["strong"] and "decompose_strong" not in report.partial \
                and report.decomposition is None:
            errors.append("strong without a decomposition")
        if known("swCS") and report.obstruction_index is not None:
            if (report.obstruction_index == float("inf")) != f["swCS"]:
                errors.append("iota = infinity disagrees with swCS")
        cell = next(c for c in report.extensions if (c["m"], c["d"]) == (2, 1))
        if cell["flags"] is not None and known("C4") and cell["flags"]["C4_m"] != f["C4"]:
            errors.append("C4_2 != C4")
        return Outcome(not errors, "; ".join(errors), len(report.partial),
                       _report_digest(payload, text), len(serialized) + len(text))

    def replay_files(self, op):
        return {f"{op['name']}.json": op["spec"]}, \
            f"c4lab analyze {op['name']}.json --extensions '2,1;3,1'"


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


class Transport:
    name = "transport"
    # morita_pair_check lets GuardExceeded escape by design
    guard_escape_is_partial = True

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.ops = _module_ops(TRANSPORT_CATALOG, rng, "t")
        self.round_size = sum(TRANSPORT_CATALOG.values())

    def guards_dict(self):
        return DEFAULT_GUARDS

    def setup(self):
        """Certify both realizations once per ring: P = R^2, and the
        block-idempotent corner of S = End(R^2)."""
        from c4lab.guards import Guards
        from c4lab.io import parse_ring
        from c4lab.morita import build_progenerator, end_algebra
        from c4lab.suite import block_idempotent_coords
        self.guards = Guards.from_dict(DEFAULT_GUARDS)
        self.rings = {}
        for key, ring_def in gen.analyze_rings().items():
            if not any(op["ring"] == key for op in self.ops):
                continue
            ring = parse_ring(ring_def.spec(), where=key)
            prog = build_progenerator(ring, ("matrix", 2))
            s_alg = end_algebra(prog.module, projective=True).algebra
            e = block_idempotent_coords(ring, prog)
            build_progenerator(s_alg, ("corner", e))
            self.rings[key] = (ring, prog, s_alg, e)

    def run(self, op):
        from c4lab.modules import RightModule
        from c4lab.morita import (apply_functor, defect_bijection_check,
                                  morita_pair_check, transport_property_check)
        from c4lab.reports import morita_report_dict, render_morita_report
        ring, prog, s_alg, e = self.rings[op["ring"]]
        module = RightModule(ring, op["spec"]["action"], name=op["name"])
        matrix_side = morita_pair_check(ring, ("matrix", 2), module, CONDITIONS,
                                        guards=self.guards)
        middle = apply_functor(prog, module)
        corner_side = morita_pair_check(s_alg, ("corner", e), middle.image,
                                        CONDITIONS, guards=self.guards)
        props = transport_property_check(prog, module, self.guards)
        classes = defect_bijection_check(prog, module, guards=self.guards)
        reports = []
        for side in (matrix_side, corner_side):
            payload = morita_report_dict(side, self.guards)
            reports.append((payload, json.dumps(payload, indent=2),
                            render_morita_report(side)))
        return matrix_side, corner_side, props, classes, reports

    def check(self, op, result) -> Outcome:
        matrix_side, corner_side, props, classes, reports = result
        errors = []
        if matrix_side["violations"]:
            errors.append(f"{matrix_side['violations']} matrix-side violations")
        if corner_side["violations"]:
            errors.append(f"{corner_side['violations']} corner-side violations")
        if not props["ok"]:
            errors.append("transport property check failed")
        if not classes["ok"]:
            errors.append("defect-class check failed")
        body = json.dumps([matrix_side, corner_side, props, classes],
                          sort_keys=True, default=str)
        report_digests = [_report_digest(payload, text) for payload, _, text in reports]
        size = sum(len(serialized) + len(text) for _, serialized, text in reports)
        return Outcome(not errors, "; ".join(errors), 0,
                       digest(body, *report_digests), size)

    def replay_files(self, op):
        """The module for `c4lab morita --matrix 2`, and its matrix-side
        image over S = End(R^2) for `c4lab morita --corner`."""
        from c4lab.modules import RightModule
        from c4lab.morita import apply_functor
        ring, prog, s_alg, e = self.rings[op["ring"]]
        image = apply_functor(prog, RightModule(ring, op["spec"]["action"],
                                                name=op["name"])).image
        s_ring = gen.Ring(s_alg.name, s_alg.p, s_alg.sc, s_alg.one, s_alg.labels)
        files = {f"{op['name']}.json": op["spec"],
                 f"{op['name']}-image.json": gen.module_spec(
                     s_ring, image.action, f"F({op['name']})")}
        coords = ",".join(str(int(v)) for v in e)
        return files, (f"c4lab morita {op['name']}.json --matrix 2 && "
                       f"c4lab morita {op['name']}-image.json --corner {coords}")


# ---------------------------------------------------------------------------
# ring-scan
# ---------------------------------------------------------------------------


class RingScan:
    name = "ring-scan"
    # build_defect_report ends a guarded section as partial itself, so a
    # GuardExceeded that escapes the op is a fault of the program
    guard_escape_is_partial = False
    extension_grid = ((2, 1),)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        bases = gen.ring_scan_bases()
        ops = []
        for _ in range(ROUNDS):
            items = []
            for key, count in RING_SCAN_CATALOG.items():
                for _ in range(count):
                    ring = gen.change_basis(gen.matrix2(bases[key]), rng)
                    items.append((key, ring))
            ops.extend(interleave(items, rng))
        self.ops = []
        for i, ring in enumerate(ops):
            name = f"r{i:03d}"
            spec = ring.spec()
            spec["name"] = name
            self.ops.append({"index": i, "ring": ring.key, "dim": ring.dim,
                             "name": name, "spec": spec, "text": json.dumps(spec)})
        self.round_size = sum(RING_SCAN_CATALOG.values())
        with open(RING_SCAN_GUARDS_FILE, "r", encoding="utf-8") as fh:
            self._guards = json.load(fh)

    def guards_dict(self):
        return self._guards

    def setup(self):
        from c4lab.guards import Guards
        self.guards = Guards.from_dict(self._guards)

    def run(self, op):
        from c4lab.conditions import build_defect_report
        from c4lab.io import parse_ring
        from c4lab.modules import regular_module
        from c4lab.reports import defect_report_dict, render_defect_report
        module = regular_module(parse_ring(json.loads(op["text"]), where=op["name"]))
        report = build_defect_report(module, module_id=module.name,
                                     guards=self.guards,
                                     extension_grid=self.extension_grid,
                                     ring_mode=True)
        payload = defect_report_dict(report, self.guards, RULE_ID)
        text = render_defect_report(report)
        return module, report, payload, json.dumps(payload, indent=2), text

    def check(self, op, result) -> Outcome:
        module, report, payload, serialized, text = result
        ring = module.ring
        errors = []
        end_scan = None
        for section, reason in report.partial.items():
            m = _PARTIAL.search(reason)
            if m is None or int(m.group(1)) <= int(m.group(2)):
                errors.append(f"partial {section} without needed > bound")
            elif "endomorphism scan" in reason:
                end_scan = int(m.group(1))
        # dim End(R_R) = dim R: read off the End scan size p^dim End the
        # report gives, else ask for the hom space (untimed here)
        if end_scan is None:
            from c4lab.modules import hom_space_matrices
            end_scan = ring.p ** hom_space_matrices(module, module).shape[0]
        if end_scan != ring.p ** ring.dim:
            errors.append(f"End(R_R) scan size {end_scan} != p^dim R = {ring.p ** ring.dim}")
        return Outcome(not errors, "; ".join(errors), len(report.partial),
                       _report_digest(payload, text), len(serialized) + len(text))

    def replay_files(self, op):
        return {f"{op['name']}.json": op["spec"], "guards.json": self._guards}, \
            f"c4lab analyze {op['name']}.json --ring --guards guards.json"


WORKLOADS = {w.name: w for w in (Analyze, Transport, RingScan)}
