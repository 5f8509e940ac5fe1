"""
The verification suite: corpus expectations, structural invariants and
the transport theorems, evaluated exhaustively at desk scale.

Each family returns a list of {"name", "status", "detail"} records with
status "pass", "fail" or "partial" (guard exhaustion: excluded from
theorem assertions rather than silently truncated).  run_suite stitches
the families together for the CLI; the acceptance tests call the
criterion functions directly.
"""

from __future__ import annotations

import numpy as np

from .algebra import corner_algebra, matrix_algebra
from .conditions import (
    DEFAULT_RULE_ID,
    check_extended,
    decompose_strong,
    evaluate_condition,
    is_c4,
    is_c4_m,
    is_c4star,
    is_semiweak_cs,
    is_strongly_c4star,
    obstruction_index,
    serialize_value,
)
from .corpus import corpus_builtin, corpus_rings
from .guards import Guards, DEFAULT_GUARDS, FAILURE_STATUS, failure_status
from .modules import (
    all_submodules,
    classical_predicates,
    composition_length,
    direct_sum,
    essential_oracle,
    hom_vanishes,
    is_essential,
    is_orthogonal,
    is_semisimple,
    is_summand_square_free,
    regular_module,
    socle,
)
from .morita import (
    apply_functor,
    build_progenerator,
    defect_bijection_check,
    end_algebra,
    morita_pair_check,
    transport_property_check,
)
from . import linalg


def _record(name, ok, detail=""):
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def run_check(name, check) -> list:
    """The records check() yields; an exception ends them with one record
    under the given name, of the status and detail `failure_status` gives
    it."""
    records = []
    try:
        for record in check():
            records.append(record)
    except tuple(FAILURE_STATUS) as exc:
        status, detail = failure_status(exc)
        records.append({"name": name, "status": status, "detail": detail})
    return records


# ---------------------------------------------------------------------------
# realizations shared by the transport criteria
# ---------------------------------------------------------------------------

def block_idempotent_coords(ring, mat_prog):
    """Coordinates of E11 (x) 1 inside End(R^2), via the certified bridge."""
    bridge = end_algebra(mat_prog.module, projective=True).certified_iso
    rows = bridge["coords"][0:ring.dim]
    return linalg.matmul_mod(ring.one, rows, ring.p)


SIDES = ("matrix", "corner")


def transport_side(entry, kind):
    """(realization, the module it transports) for one side of a corpus
    module: P = R^2 on the module itself, or the full corner, which moves
    the module to the matrix side first and then applies the corner
    progenerator at the block idempotent."""
    if kind == "matrix":
        return ("matrix", 2), entry.module
    mat_prog = build_progenerator(entry.ring, ("matrix", 2))
    middle = apply_functor(mat_prog, entry.module).image
    return ("corner", block_idempotent_coords(entry.ring, mat_prog)), middle


def _each_entry(tag, records):
    """records(entry) for every corpus module, each one check named
    tag:module."""
    results = []
    for entry in corpus_builtin():
        results.extend(run_check(f"{tag}:{entry.name}", lambda: records(entry)))
    return results


def _each_side(tag, records):
    """records(name, realization, module) on both sides of every corpus
    module, each side one check named tag:side:module."""
    results = []
    for entry in corpus_builtin():
        for kind in SIDES:
            name = f"{tag}:{kind}:{entry.name}"
            results.extend(run_check(
                name, lambda: records(name, *transport_side(entry, kind))))
    return results


# ---------------------------------------------------------------------------
# criterion 1: essentiality oracle equivalence
# ---------------------------------------------------------------------------

def criterion_essentiality(guards: Guards = DEFAULT_GUARDS) -> list:
    pairs = 0

    def records(entry):
        nonlocal pairs
        m = entry.module
        ok = True
        for sub in all_submodules(m, guards.max_lattice_vectors).members:
            pairs += 1
            if is_essential(sub, m) != essential_oracle(sub, m, guards.max_lattice_vectors):
                ok = False
                break
        return [_record(f"essential-oracle:{entry.name}", ok)]
    results = _each_entry("essential-oracle", records)
    results.append(_record("essential-oracle:coverage", pairs >= 200,
                           f"{pairs} (N <= M) pairs"))
    return results


# ---------------------------------------------------------------------------
# criterion 2: transport lemmas (summand / semisimple / essential)
# ---------------------------------------------------------------------------

def criterion_transport_lemmas(guards: Guards = DEFAULT_GUARDS) -> list:
    def records(name, realization, m):
        prog = build_progenerator(m.ring, realization)
        report = transport_property_check(prog, m, guards)
        return [_record(name, report["ok"], f"{report['pairs']} submodules")]
    return _each_side("transport", records)


# ---------------------------------------------------------------------------
# criteria 3 and 5: flag invariance under both realizations
# ---------------------------------------------------------------------------

def _flag_conditions(conditions, tag, guards):
    def records(name, realization, m):
        report = morita_pair_check(m.ring, realization, m, conditions, guards=guards)
        return [_record(f"{name}:{row['condition']}", row["agreement"],
                        f"M={row['value_on_M']} F(M)={row['value_on_FM']}")
                for row in report["rows"]]
    return _each_side(tag, records)


def criterion_c4_invariance(guards: Guards = DEFAULT_GUARDS) -> list:
    results = _flag_conditions(("C4",), "c4-invariance", guards)
    negative = [e for e in corpus_builtin() if e.name == "r2.r2_reg+S"]
    for entry in negative:
        def check():
            both_false = (not is_c4(entry.module, guards=guards)
                          and not is_c4(apply_functor(
                              build_progenerator(entry.ring, ("matrix", 2)),
                              entry.module).image, guards=guards))
            yield _record("c4-invariance:negative-instance", both_false,
                          "R+R/(x) non-C4 on both sides")
        results.extend(run_check("c4-invariance:negative-instance", check))
    results.append(_record("c4-invariance:negative-instance-present",
                           len(negative) == 1))
    return results


def criterion_condition_invariance(guards: Guards = DEFAULT_GUARDS) -> list:
    return _flag_conditions(("C4star", "swCS", "strong"), "flag-invariance", guards)


# ---------------------------------------------------------------------------
# criterion 4: defect-class correspondence
# ---------------------------------------------------------------------------

def criterion_defect_classes(guards: Guards = DEFAULT_GUARDS) -> list:
    def records(name, realization, m):
        prog = build_progenerator(m.ring, realization)
        return [_record(name, defect_bijection_check(prog, m, guards=guards)["ok"])]
    return _each_side("defect-classes", records)


# ---------------------------------------------------------------------------
# criterion 6: obstruction index invariance
# ---------------------------------------------------------------------------

def criterion_obstruction_index(guards: Guards = DEFAULT_GUARDS) -> list:
    def records(entry):
        for kind in SIDES:
            realization, m = transport_side(entry, kind)
            image = apply_functor(build_progenerator(m.ring, realization), m).image
            same = (obstruction_index(m, guards=guards)
                    == obstruction_index(image, guards=guards))
            yield _record(f"iota:{kind}:{entry.name}", same)
    results = _each_entry("iota", records)
    # regular modules of R, of M2(R), and of the block corner of M2(R)
    for key, ring in corpus_rings().items():
        def check():
            reg = regular_module(ring)
            iota_r = obstruction_index(reg, guards=guards)
            target = matrix_algebra(ring, 2)
            e_coords = np.zeros(target.dim, dtype=np.int64)
            e_coords[: ring.dim] = ring.one
            corner = corner_algebra(target, target.element(e_coords))
            iota_c = obstruction_index(regular_module(corner.algebra), guards=guards)
            yield _record(f"iota:ring-corner:{key}", iota_r == iota_c,
                          f"R:{iota_r} corner:{iota_c}")
            iota_m = obstruction_index(regular_module(target), guards=guards)
            yield _record(f"iota:ring-matrix:{key}", iota_r == iota_m,
                          f"R:{iota_r} M2(R):{iota_m}")
        results.extend(run_check(f"iota:ring:{key}", check))
    return results


# ---------------------------------------------------------------------------
# criterion 7: strong decomposition
# ---------------------------------------------------------------------------

def criterion_strong_decomposition(guards: Guards = DEFAULT_GUARDS) -> list:
    def records(entry):
        m = entry.module
        if not is_strongly_c4star(m, guards=guards):
            return []
        p_part, q_part = decompose_strong(m, guards=guards)
        p_mod, q_mod = p_part.as_module(), q_part.as_module()
        clauses = (
            is_semisimple(p_mod),
            is_summand_square_free(q_mod, guards.max_end_enumeration),
            is_orthogonal(p_mod, q_mod, guards.max_lattice_vectors),
            hom_vanishes(p_mod, q_mod),
        )
        return [_record(f"strong-decomposition:{entry.name}", all(clauses),
                        f"dims ({p_part.dim},{q_part.dim}), clauses {clauses}")]
    return _each_entry("strong-decomposition", records)


# ---------------------------------------------------------------------------
# criterion 8: example schemes and the literal-summand tripwire
# ---------------------------------------------------------------------------

def criterion_example_schemes(guards: Guards = DEFAULT_GUARDS) -> list:
    ssf_ok, weak_ok, trip_ok = True, True, True

    def records(entry):
        nonlocal ssf_ok, weak_ok, trip_ok
        m = entry.module
        if is_summand_square_free(m, guards.max_end_enumeration):
            if not is_semiweak_cs(m, "submodule", guards):
                ssf_ok = False
        if classical_predicates(m, guards.max_lattice_vectors,
                                guards.max_end_enumeration)["weak_CS"]:
            if not is_semiweak_cs(m, "submodule", guards):
                weak_ok = False
        if not is_semiweak_cs(m, "literal-summand", guards):
            trip_ok = False
        return []
    results = _each_entry("example-schemes", records)
    results.append(_record("example-schemes:ssf-implies-swcs", ssf_ok))
    results.append(_record("example-schemes:weakcs-implies-swcs", weak_ok))
    results.append(_record("example-schemes:literal-summand-tripwire", trip_ok))
    return results


# ---------------------------------------------------------------------------
# criterion 9: extension coherence and transfer
# ---------------------------------------------------------------------------

def criterion_extension_coherence(guards: Guards = DEFAULT_GUARDS) -> list:
    def coherence(entry):
        m = entry.module
        yield _record(
            f"extension:arity2-reduces:{entry.name}",
            is_c4_m(m, 2, guards=guards) == is_c4(m, guards=guards))
        agree = all(
            check_extended(m, 2, d, strict=False, guards=guards)["C4star_d"]
            == is_c4star(m, guards=guards)
            for d in (1, 2, 3))
        yield _record(f"extension:nonstrict-depth-reduces:{entry.name}", agree)

    def transfer(entry):
        prog = build_progenerator(entry.ring, ("matrix", 2))
        tr = apply_functor(prog, entry.module)
        for arity, depth in ((2, 1), (2, 2), (3, 1), (3, 2)):
            src = check_extended(entry.module, arity, depth, strict=True,
                                 guards=guards)
            dst = check_extended(tr.image, arity, depth, strict=True,
                                 guards=guards)
            yield _record(f"extension:transfer:{entry.name}:m{arity}d{depth}",
                          src == dst)
    return (_each_entry("extension:coherence", coherence)
            + _each_entry("extension:transfer", transfer))


# ---------------------------------------------------------------------------
# criterion 10: ring-level characterization
# ---------------------------------------------------------------------------

def criterion_ring_level(guards: Guards = DEFAULT_GUARDS) -> list:
    results = []
    for key in ("f2", "r2", "t2", "m2"):
        def check():
            reg = regular_module(corpus_rings()[key])
            lat = all_submodules(reg, guards.max_lattice_vectors)
            scan = all(is_c4(sub.as_module(), guards=guards) for sub in lat.members)
            star = is_c4star(reg, guards=guards)
            yield _record(f"ring-level:{key}", scan == star,
                          f"ideal-scan {scan}, def_C4star verdict {star}")
        results.extend(run_check(f"ring-level:{key}", check))
    return results


# ---------------------------------------------------------------------------
# corpus expectations and local invariants
# ---------------------------------------------------------------------------

def corpus_expectation_checks(guards: Guards = DEFAULT_GUARDS,
                              entries=None) -> list:
    results = []
    if entries is None:
        entries = corpus_builtin()
    for entry in entries:
        for flag, expectation in entry.expected.items():
            name = f"corpus:{entry.name}:{flag}"

            def check():
                actual = serialize_value(evaluate_condition(
                    entry.module, flag, DEFAULT_RULE_ID, guards))
                yield _record(name, actual == expectation.value,
                              f"expected {expectation.value} "
                              f"[{expectation.provenance}], got {actual}")
            results.extend(run_check(name, check))
    return results


def structural_invariant_checks(guards: Guards = DEFAULT_GUARDS) -> list:
    def records(entry):
        m = entry.module
        name = entry.name
        lat = all_submodules(m, guards.max_lattice_vectors)
        # socle = sum of the minimal lattice members
        minimal = lat.minimal_members()
        if minimal:
            joined = minimal[0].basis
            for piece in minimal[1:]:
                joined = linalg.sum_rows(joined, piece.basis, m.p)
            soc_ok = np.array_equal(socle(m).basis, joined)
        else:
            soc_ok = socle(m).dim == 0
        yield _record(f"invariant:socle-minimal-sum:{name}", soc_ok)
        # length additivity over a direct sum with itself
        doubled, _, _ = direct_sum(m, m)
        yield _record(
            f"invariant:length-additive:{name}",
            composition_length(doubled) == 2 * composition_length(m))
        # semisimple modules satisfy the whole classical block
        if is_semisimple(m):
            preds = classical_predicates(m, guards.max_lattice_vectors,
                                         guards.max_end_enumeration)
            yield _record(
                f"invariant:semisimple-classical:{name}",
                all(preds[k] for k in ("C2", "C3", "CS", "weak_CS")))
    return _each_entry("invariant", records)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

FAMILIES = (
    ("essentiality", criterion_essentiality),
    ("corpus-expectations", corpus_expectation_checks),
    ("structural-invariants", structural_invariant_checks),
    ("transport-lemmas", criterion_transport_lemmas),
    ("c4-invariance", criterion_c4_invariance),
    ("defect-classes", criterion_defect_classes),
    ("condition-invariance", criterion_condition_invariance),
    ("obstruction-index", criterion_obstruction_index),
    ("strong-decomposition", criterion_strong_decomposition),
    ("example-schemes", criterion_example_schemes),
    ("extension-coherence", criterion_extension_coherence),
    ("ring-level", criterion_ring_level),
)


def run_suite(guards: Guards = DEFAULT_GUARDS, name_filter: str = "") -> list:
    """Run the suite; a filter selects matching families, falling back to
    filtering individual check names when no family name matches.  A
    family that raises ends with one record under its name (`run_check`),
    kept whatever the filter, and the other families still run."""
    selected = [(name, fn) for name, fn in FAMILIES
                if not name_filter or name_filter in name]
    results = []
    for name, family in selected or FAMILIES:
        records = run_check(name, lambda: family(guards))
        results.extend(r for r in records if selected or name_filter in r["name"]
                       or r["name"] == name)
    results.sort(key=lambda r: r["name"])
    return results
