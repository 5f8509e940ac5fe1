"""
Built-in verification corpus: small rings and modules with expected
flags, each expectation tagged with its provenance.

TRIVIAL expectations follow immediately from definitions, DERIVED ones
name the independent computation that produced them.  The corpus is
deliberately desk-scale: every lattice, endomorphism scan and transport
stays inside the default guards.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import (
    FiniteAlgebra,
    field_algebra,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    upper_triangular_algebra,
)
from .guards import memo
from .modules import (
    RightModule,
    all_submodules,
    direct_sum,
    iso_test,
    quotient_module,
    radical_submodule,
    regular_module,
    socle,
    submodule_span,
)


@dataclass(frozen=True)
class Expectation:
    value: object
    provenance: str          # "PAPER" | "TRIVIAL" | "DERIVED"
    oracle: str = ""         # DERIVED entries name their oracle

    def __post_init__(self):
        if self.provenance not in ("PAPER", "TRIVIAL", "DERIVED"):
            raise ValueError(f"bad provenance tag {self.provenance!r}")
        if self.provenance == "DERIVED" and not self.oracle:
            raise ValueError("DERIVED expectations must name their oracle")


@dataclass
class CorpusEntry:
    name: str
    ring: FiniteAlgebra
    module: RightModule
    expected: dict = field(default_factory=dict)


def simple_modules(ring: FiniteAlgebra) -> list[RightModule]:
    """Representatives of the simple right modules, via minimal submodules
    of the semisimple quotient acting through the ring."""
    return memo(ring._cache, "simple_modules", lambda: _simple_modules(ring))


def _simple_modules(ring: FiniteAlgebra) -> list[RightModule]:
    reg = regular_module(ring)
    top, _ = quotient_module(reg, radical_submodule(reg))     # R/J, as R*J = J
    found: list[RightModule] = []
    for sub in all_submodules(top).minimal_members():
        cand = sub.as_module()
        if not any(iso_test(cand, other) for other in found):
            found.append(cand)
    found.sort(key=lambda m: (m.dim, m.action.tobytes()))
    return [_named(mod, f"{ring.name}_S{idx + 1}" if len(found) > 1 else f"{ring.name}_S")
            for idx, mod in enumerate(found)]


def _named(mod: RightModule, name: str) -> RightModule:
    """A copy of mod, with empty caches, under a corpus name.

    An abstract submodule module is shared by every equal submodule of its
    parent, and its caches hold modules named after it, so it keeps the
    name it was built with."""
    return RightModule(mod.ring, mod.action, name=name, validate=False)


def _sum(name, *parts):
    out, _, _ = direct_sum(*parts, name=name)
    return out


@functools.cache
def corpus_rings() -> dict[str, FiniteAlgebra]:
    f2 = field_algebra(2)
    f3 = field_algebra(3)
    r2 = poly_quotient_algebra(2, [0, 0, 1])        # F2[x]/(x^2)
    r3 = poly_quotient_algebra(2, [0, 0, 0, 1])     # F2[x]/(x^3)
    t2 = upper_triangular_algebra(2, 2)
    m2 = matrix_algebra(f2, 2)
    f2xf2 = product_algebra(f2, f2)
    m2r2 = matrix_algebra(r2, 2)
    return {
        "f2": f2, "f3": f3, "r2": r2, "r3": r3,
        "t2": t2, "m2": m2, "f2xf2": f2xf2, "m2r2": m2r2,
    }


def _exp_semisimple_strong() -> dict:
    return {
        "C4": Expectation(True, "DERIVED",
                          "semisimple: every submodule splits, so every image splits"),
        "C4star": Expectation(True, "DERIVED",
                              "submodules of semisimple modules are semisimple"),
        "swCS": Expectation(True, "DERIVED",
                            "weak CS holds, every semisimple submodule is a summand"),
        "strong": Expectation(True, "DERIVED", "conjunction of the two layers"),
        "semisimple": Expectation(True, "TRIVIAL"),
        "iota": Expectation("infinity", "DERIVED", "no obstruction pair exists"),
    }


@functools.cache
def corpus_builtin() -> tuple[CorpusEntry, ...]:
    rings = corpus_rings()
    entries: list[CorpusEntry] = []

    def add(key, module, expected=None):
        entries.append(CorpusEntry(f"{key}.{module.name}", rings[key], module,
                                   expected or {}))

    # --- fields -----------------------------------------------------------
    f2, f3 = rings["f2"], rings["f3"]
    s_f2 = regular_module(f2)
    add("f2", s_f2, _exp_semisimple_strong())
    add("f2", _sum("f2_square", s_f2, s_f2), {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "TRIVIAL"),
    })
    add("f2", _sum("f2_cube", s_f2, s_f2, s_f2), _exp_semisimple_strong())
    s_f3 = regular_module(f3)
    add("f3", s_f3, _exp_semisimple_strong())
    add("f3", _sum("f3_square", s_f3, s_f3), {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "TRIVIAL"),
    })
    add("f3", _sum("f3_cube", s_f3, s_f3, s_f3), _exp_semisimple_strong())

    # --- F2[x]/(x^2) -------------------------------------------------------
    r2 = rings["r2"]
    reg2 = regular_module(r2)
    s2 = simple_modules(r2)[0]
    add("r2", reg2, {
        "C4": Expectation(True, "DERIVED", "only trivial decompositions (local End)"),
        "C4star": Expectation(True, "DERIVED", "ideal chain 0 < (x) < R, each C4"),
        "swCS": Expectation(True, "DERIVED", "simple socle admits no disjoint pair"),
        "strong": Expectation(True, "DERIVED", "conjunction"),
        "semisimple": Expectation(False, "TRIVIAL"),
        "summand_square_free": Expectation(True, "DERIVED", "indecomposable"),
        "iota": Expectation("infinity", "DERIVED", "no admissible pair"),
    })
    add("r2", s2, {
        "C4": Expectation(True, "TRIVIAL"),
        "strong": Expectation(True, "TRIVIAL"),
        "summand_square_free": Expectation(True, "TRIVIAL"),
    })
    add("r2", _sum("r2_reg+S", reg2, s2), {
        "C4": Expectation(False, "DERIVED",
                          "defect witness: embed the simple onto soc(R); its image "
                          "span{(x,0)} admits no complement (verified exhaustively)"),
        "C4star": Expectation(False, "DERIVED", "the module itself is a non-C4 submodule"),
        "swCS": Expectation(True, "DERIVED",
                            "each socle line is essential in one of the summands "
                            "R, S or span{(x,1)}"),
        "strong": Expectation(False, "DERIVED", "C4 already fails"),
        "summand_square_free": Expectation(True, "DERIVED",
                                           "proper summands are R- or S-copies, "
                                           "pairwise non-isomorphic"),
    })
    add("r2", _sum("r2_S+S", s2, s2), {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "TRIVIAL"),
    })
    add("r2", _sum("r2_reg+reg", reg2, reg2), {
        "C4": Expectation(True, "DERIVED",
                          "injective maps between complementary free summands are "
                          "isomorphisms onto summands"),
        "C4star": Expectation(False, "DERIVED",
                              "the submodule (1,0)R + soc is a copy of R+S, not C4"),
        "swCS": Expectation(True, "DERIVED",
                            "all three socle lines are socles of cyclic free summands"),
        "strong": Expectation(False, "DERIVED", "C4star fails"),
        "summand_square_free": Expectation(False, "TRIVIAL"),
    })

    # --- F2[x]/(x^3) -------------------------------------------------------
    r3 = rings["r3"]
    reg3 = regular_module(r3)
    s3 = simple_modules(r3)[0]
    add("r3", reg3, {
        "C4": Expectation(True, "DERIVED", "local End, trivial decompositions"),
        "C4star": Expectation(True, "DERIVED", "uniserial: chain members are C4"),
        "strong": Expectation(True, "DERIVED", "simple socle, swCS vacuous"),
        "summand_square_free": Expectation(True, "DERIVED", "indecomposable"),
    })
    add("r3", s3, {"strong": Expectation(True, "TRIVIAL")})
    # R/(x^2) as the quotient of the regular module by its socle
    quot_mod, _ = quotient_module(reg3, socle(reg3))
    quot_mod.name = "r3_len2"
    add("r3", quot_mod, {
        "strong": Expectation(True, "DERIVED", "uniserial length 2, local End"),
    })
    add("r3", _sum("r3_reg+S", reg3, s3), {
        "C4": Expectation(False, "DERIVED",
                          "embed the simple onto soc(R); image is not a summand"),
        "strong": Expectation(False, "DERIVED", "C4 fails"),
    })
    add("r3", _sum("r3_S+S", s3, s3), {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "TRIVIAL"),
    })

    # --- T2(F2) -------------------------------------------------------------
    t2 = rings["t2"]
    regt = regular_module(t2)
    simples_t = simple_modules(t2)
    add("t2", regt, {
        "C4": Expectation(False, "DERIVED",
                          "the map e2T -> e1T onto span{E12} is injective with "
                          "non-summand image (all 2-dim right ideals contain E12)"),
        "C4star": Expectation(False, "DERIVED", "the module itself fails C4"),
        "swCS": Expectation(True, "DERIVED",
                            "socle lines are essential in the summands e1T, "
                            "span{E22}, span{E12+E22}"),
        "strong": Expectation(False, "DERIVED", "C4 fails"),
        "summand_square_free": Expectation(True, "DERIVED",
                                           "e1T and e2T are non-isomorphic"),
    })
    for s in simples_t:
        add("t2", s, {"strong": Expectation(True, "TRIVIAL")})
    add("t2", _sum("t2_S1+S1", simples_t[0], simples_t[0]), {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "TRIVIAL"),
    })
    # the length-2 projective indecomposable e1*T2
    proj1 = _named(submodule_span(regt, linalg.eye(3)[0:1]).as_module(), "t2_proj1")
    add("t2", proj1, {
        "strong": Expectation(True, "DERIVED",
                              "uniserial with local End; the simple socle "
                              "admits no disjoint pair"),
    })

    # --- M2(F2) --------------------------------------------------------------
    m2 = rings["m2"]
    regm = regular_module(m2)
    sm = simple_modules(m2)[0]
    add("m2", regm, {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "DERIVED",
                                           "the regular module is S+S"),
    })
    add("m2", sm, {"strong": Expectation(True, "TRIVIAL")})
    add("m2", _sum("m2_S+S", sm, sm), {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "TRIVIAL"),
    })
    add("m2", _sum("m2_reg+S", regm, sm), _exp_semisimple_strong())

    # --- F2 x F2 --------------------------------------------------------------
    ff = rings["f2xf2"]
    regff = regular_module(ff)
    simples_ff = simple_modules(ff)
    add("f2xf2", regff, {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(True, "DERIVED",
                                           "the two simple factors are orthogonal"),
    })
    add("f2xf2", simples_ff[0], {"strong": Expectation(True, "TRIVIAL")})
    add("f2xf2", simples_ff[1], {"strong": Expectation(True, "TRIVIAL")})
    add("f2xf2", _sum("f2xf2_S1+S1", simples_ff[0], simples_ff[0]), {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "TRIVIAL"),
    })
    add("f2xf2", _sum("f2xf2_S1+S2", simples_ff[0], simples_ff[1]),
        _exp_semisimple_strong())
    add("f2xf2", _sum("f2xf2_reg+S1", regff, simples_ff[0]),
        _exp_semisimple_strong())

    # --- M2(F2[x]/(x^2)) -------------------------------------------------------
    big = rings["m2r2"]
    regbig = regular_module(big)
    sbig = simple_modules(big)[0]
    add("m2r2", regbig, {
        "C4": Expectation(True, "DERIVED",
                          "Morita image of r2_reg+reg, which is C4 (checked on "
                          "both sides)"),
        "C4star": Expectation(False, "DERIVED",
                              "Morita image of r2_reg+reg, which has a non-C4 "
                              "submodule"),
        "swCS": Expectation(True, "DERIVED", "Morita image of a swCS module"),
        "strong": Expectation(False, "DERIVED", "C4star fails"),
    })
    add("m2r2", sbig, {"strong": Expectation(True, "TRIVIAL")})
    soc_big = _named(socle(regbig).as_module(), "m2r2_soc")
    add("m2r2", soc_big, {
        **_exp_semisimple_strong(),
        "summand_square_free": Expectation(False, "DERIVED",
                                           "the socle is two copies of the simple"),
    })

    return tuple(entries)


def local_square_zero_algebra(p: int = 2, generators: int = 2) -> FiniteAlgebra:
    """Local algebra F<x_1..x_g>/(all products) with socle of length g.

    Not part of the built-in corpus: its regular module is summand-
    square-free yet carries semisimple-pair obstructions, so it anchors
    the obstruction-index and minimal-pair tests instead.
    """
    d = generators + 1
    sc = np.zeros((d, d, d), dtype=np.int64)
    sc[0, :, :] = linalg.eye(d)
    sc[:, 0, :] = linalg.eye(d)
    one = linalg.eye(d)[0]
    labels = ("1",) + tuple(f"x{i + 1}" for i in range(generators))
    return FiniteAlgebra(p, d, labels, sc, one, name=f"F{p}<{generators} nil gens>")
