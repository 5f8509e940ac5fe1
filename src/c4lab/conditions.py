"""
Decision procedures for the C4-type summand conditions.

The binary condition is evaluated on test data (M = A + B, f: A -> B)
under a pluggable witness rule; the default rule flags a defect when f
is injective but its image is not a direct summand of M.  On top of
that sit the submodule-level closure (every submodule passes), the
semisimple-pair essentiality condition with its obstruction pairs and
index, the combined strong condition with its decomposition search, and
the arity/depth extensions.

The End scan echelonizes a block of idempotents at a time, with one
`linalg.row_spaces` call for their images and one for their kernels, the
images of 1 - e.  The unit of the C4 scan is one decomposition's list of
defect witnesses, cached per summand pair: `def_c4` concatenates them,
echelonizing the images of a block of maps in one call too.  Those image
bases decide injectivity, as rank f = dim im f.  A rule declared
`injective_only` (the default one is) calls every non-injective datum
valid, so for it the scan drops a map whose image has fewer than dim A
rows before building anything for it; other rules see every map.
Kernels, images and summands are Submodules shared per canonical basis
(`_carrier`), so equal ones share their cached data.  Distinct
Submodules of one parent with equal actions in their own bases share one
abstract module, so lattice members, summands and chain starts that are
the same module are scanned once.  Under the default rule C4[m] holds
exactly when C4 does, so `is_c4_m` answers with `is_c4` (see its proof).
The lattice-level questions (containment, disjointness, semisimplicity,
essential hulls) are bit operations on the lattice's cyclic-submodule
bitsets (`modules.SubmoduleLattice`), and a chain start's swCS flag is
read off the parent's lattice (`check_extended`).  Chain starts, obstruction
legs (submodule reading) and, with p^dim M in the lattice bound, shape keys
read lengths as heights in M's lattice, elsewhere `composition_length`.
`def_c4star`, `obs_swcs` and the chain-start flags check guards inside
their computations, so their caches are keyed by the Guards.

A semisimple module is decided with no scan: all its submodules are
summands, so it is swCS, and C4 under a rule that declares
`summand_image_valid`.  Lattice members and chain starts are tested by
their bits, a top-level module by its socle (`_socle_decides`).  A guard
bounds work that runs, so the skipped scans' guards are not checked, nor
is `composition_length`'s fixed 2^16 one for a length read as a height,
and a run can be exact where a full scan would be partial, never the reverse.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import linalg
from .guards import Guards, DEFAULT_GUARDS, GuardExceeded, TheoremViolation, check_guard, memo
from .modules import (
    ModuleHom,
    RightModule,
    Submodule,
    SubmoduleLattice,
    all_submodules,
    composition_length,
    essential_in,
    fingerprint,
    hom_space_matrices,
    hom_vanishes,
    is_orthogonal,
    is_semisimple,
    is_summand,
    is_summand_square_free,
    iso_test,
)

INFINITY = math.inf


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Internal direct-sum decomposition M = A + B with its projection.
    validate=False checks nothing and needs an idempotent e with the canonical
    bases of a = im e and b = ker e = im(1 - e), as `_end_scan` builds it."""

    parent: RightModule
    a: Submodule
    b: Submodule
    idempotent: ModuleHom
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if not validate:
            return
        p, e = self.parent.p, self.idempotent.matrix
        if (linalg.intersect_rows(self.a.basis, self.b.basis, p).shape[0]
                or self.a.dim + self.b.dim != self.parent.dim):
            raise ValueError("summands are not complementary")
        if not np.array_equal(linalg.matmul_mod(e, e, p), e):
            raise ValueError("projection is not idempotent")


def enumerate_decompositions(
        m: RightModule, max_end: int = DEFAULT_GUARDS.max_end_enumeration,
) -> tuple[Decomposition, ...]:
    """One decomposition per idempotent of End(M), in deterministic order."""
    homs = hom_space_matrices(m, m)
    k = homs.shape[0]
    total = m.p ** k
    return memo(m._cache, "decompositions", lambda: _end_scan(m, homs, total),
                guard=(f"endomorphism scan of {m.name}", total, max_end))


def _end_scan(m: RightModule, homs: np.ndarray, total: int) -> tuple[Decomposition, ...]:
    k = homs.shape[0]
    out = []
    for block in linalg.coeff_blocks(total, k, m.p):
        cands = linalg.combine(block, homs, m.p)
        es = cands[np.all(linalg.matmul_mod(cands, cands, m.p) == cands, axis=(1, 2))]
        images = linalg.row_spaces(es, m.p)
        kernels = linalg.row_spaces((linalg.eye(m.dim) - es) % m.p, m.p)  # ker e = im(1 - e)
        out.extend(Decomposition(m, _carrier(m, a), _carrier(m, b),
                                 ModuleHom(m, m, e, check=False), validate=False)
                   for e, a, b in zip(es, images, kernels))
    return tuple(out)


def _carrier(m: RightModule, basis: np.ndarray) -> Submodule:
    """The one Submodule of m with this canonical (RREF) basis, the
    `row_space(s)` or `left_nullspace` output of a module map's image or kernel.

    Sharing the object across decompositions and witnesses shares what
    it caches: its membership test, its socle and the solve for its
    action.  The abstract module itself is shared more widely, since m
    holds one per distinct action (`Submodule.as_module`): carriers with
    unequal bases but equal actions share that module's hom spaces and
    fingerprint too."""
    return memo(m._cache, ("carrier", basis.tobytes()),
                lambda: Submodule._canonical(m, basis))


def summand_list(
        m: RightModule, max_end: int = DEFAULT_GUARDS.max_end_enumeration,
) -> tuple[Submodule, ...]:
    """Distinct direct summands of M (images of End idempotents)."""
    decs = enumerate_decompositions(m, max_end)

    def distinct():
        seen: dict[bytes, Submodule] = {}
        for dec in decs:
            seen.setdefault(dec.a.key(), dec.a)
        return tuple(sorted(seen.values(), key=lambda s: (s.dim, s.key())))
    return memo(m._cache, "summands", distinct)


# ---------------------------------------------------------------------------
# witness rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRule:
    """A pluggable splitting requirement on a test datum.

    evaluate(parent, dec, f, kernel, image) returns (verdict, detail)
    with verdict in {"valid", "defect"}; detail names the failed clause.

    injective_only is a fact the rule states about itself, not a setting:
    it promises that evaluate calls every datum with a non-injective f
    valid, so the C4 scan may skip those maps without evaluating them.
    summand_image_valid is another: evaluate calls every datum whose image
    is a direct summand of the parent valid.  In a semisimple module every
    submodule is a summand, so such a rule finds no defect there, and
    semisimple lattice members and modules are not scanned.
    """

    rule_id: str
    description: str
    evaluate: callable
    injective_only: bool = False
    summand_image_valid: bool = False


def _mono_image_splits(parent, dec, f, kernel, image):
    if kernel.dim == 0 and is_summand(image, parent) is None:
        return "defect", "injective-image-not-summand"
    return "valid", ""


_RULES: dict[str, WitnessRule] = {}
DEFAULT_RULE_ID = "mono-image-splits"


def register_rule(rule: WitnessRule) -> None:
    if rule.rule_id in _RULES:
        raise ValueError(f"rule {rule.rule_id!r} already registered")
    _RULES[rule.rule_id] = rule


def get_rule(rule_id: str) -> WitnessRule:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ValueError(f"unknown witness rule {rule_id!r}") from None


register_rule(WitnessRule(
    rule_id=DEFAULT_RULE_ID,
    description="every injective map between complementary summands has "
                "a direct-summand image",
    evaluate=_mono_image_splits,
    injective_only=True,
    summand_image_valid=True,
))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRecord:
    """One evaluated test datum (decomposition, morphism A -> B)."""

    decomposition: Decomposition
    f: ModuleHom            # between the abstract summand modules
    kernel: Submodule       # inside the parent
    image: Submodule        # inside the parent
    rule_id: str
    verdict: str
    detail: str

    def shape_key(self, image_length: int | None = None) -> tuple:
        """Dimension vector plus an iso-invariant screen of the image (`fingerprint`)."""
        return (
            self.decomposition.a.dim,
            self.decomposition.b.dim,
            self.kernel.dim,
            self.image.dim,
            fingerprint(self.image.as_module(), image_length),
        )


def evaluate_witness(m: RightModule, dec: Decomposition, f: ModuleHom,
                     rule_id: str = DEFAULT_RULE_ID) -> WitnessRecord:
    """Evaluate one test datum under the given rule."""
    if dec.parent is not m:
        raise ValueError("decomposition does not belong to the module")
    if f.source is not dec.a.as_module() or f.target is not dec.b.as_module():
        raise ValueError("morphism endpoints do not match the decomposition")
    return next(_evaluate_maps(m, dec, f.matrix[None], rule_id, injective_only=False))


def _evaluate_maps(m: RightModule, dec: Decomposition, mats: np.ndarray, rule_id: str,
                   injective_only: bool):
    """The WitnessRecords of the maps A -> B of an (n, dim A, dim B) stack, in
    order, with all n images echelonized in one `row_spaces` call; with
    injective_only, those of the injective maps alone."""
    rule = get_rule(rule_id)
    a_mod, b_mod = dec.a.as_module(), dec.b.as_module()
    images = linalg.row_spaces(linalg.matmul_mod(mats, dec.b.basis, m.p), m.p)
    zero = _carrier(m, linalg.zeros(0, m.dim))
    for mat, basis in zip(mats, images):
        # B's basis rows are independent, so rank f = dim im f, and an
        # injective f has the zero kernel with no nullspace to compute
        injective = basis.shape[0] == dec.a.dim
        if injective_only and not injective:
            continue
        f = ModuleHom(a_mod, b_mod, mat, check=False)
        kernel = zero if injective else _carrier(m, linalg.row_space(
            dec.a.to_parent(linalg.left_nullspace(f.matrix, m.p)), m.p))
        image = _carrier(m, basis)
        yield WitnessRecord(dec, f, kernel, image, rule_id,
                            *rule.evaluate(m, dec, f, kernel, image))


def _socle_decides(m: RightModule, guards: Guards) -> bool:
    """Whether m is semisimple, asked only when p^dim M is within the
    lattice bound, where `def_c4star` and `obs_swcs` read m's socle anyway:
    for a ring with no known radical the socle costs a p^(2 dim R) element
    scan.  A radical over its own guard leaves m to the full scan."""
    try:
        return m.p ** m.dim <= guards.max_lattice_vectors and is_semisimple(m)
    except GuardExceeded:
        return False


def def_c4(m: RightModule, rule_id: str = DEFAULT_RULE_ID,
           guards: Guards = DEFAULT_GUARDS) -> tuple[WitnessRecord, ...]:
    """All defect witnesses, over every (decomposition, morphism) pair;
    none, with no scan, for a semisimple m under a summand_image_valid rule."""
    if get_rule(rule_id).summand_image_valid and _socle_decides(m, guards):
        return ()
    decs = enumerate_decompositions(m, guards.max_end_enumeration)
    for dec in decs:
        homs = hom_space_matrices(dec.a.as_module(), dec.b.as_module())
        check_guard(f"hom scan on a decomposition of {m.name}",
                    m.p ** homs.shape[0], guards.max_hom_scan)
    return tuple(rec for dec in decs for rec in _dec_defects(m, dec, rule_id))


def _dec_defects(m: RightModule, dec: Decomposition,
                 rule_id: str) -> tuple[WitnessRecord, ...]:
    """The defect witnesses f: A -> B of one decomposition M = A + B;
    `def_c4` checks its hom-scan guard p^(dim Hom(A, B)) first.  Under an
    `injective_only` rule only the maps whose image has dim A rows, the
    injective ones, are evaluated."""
    def scan():
        injective_only = get_rule(rule_id).injective_only
        if injective_only and dec.a.dim > dec.b.dim:
            return ()       # rank f <= dim B < dim A: no f is injective
        a_mod = dec.a.as_module()
        b_mod = dec.b.as_module()
        homs = hom_space_matrices(a_mod, b_mod)
        k = homs.shape[0]
        defects = []
        for block in linalg.coeff_blocks(m.p ** k, k, m.p):
            mats = linalg.combine(block, homs, m.p)
            defects.extend(rec for rec in _evaluate_maps(m, dec, mats, rule_id, injective_only)
                           if rec.verdict == "defect")
        return tuple(defects)
    return memo(m._cache, ("defects", rule_id, dec.a.key(), dec.b.key()), scan)


def is_c4(m: RightModule, rule_id: str = DEFAULT_RULE_ID,
          guards: Guards = DEFAULT_GUARDS) -> bool:
    return len(def_c4(m, rule_id, guards)) == 0


def shape_classes(items, lat: SubmoduleLattice | None = None) -> dict:
    """Group defects by shape key; values are (count, sample).

    Items are witnesses on M, or (submodule, witness) pairs keyed by the
    submodule's fingerprint and the witness's shape key.  Given M's
    lattice, the lengths in the keys are heights there: a witness's image,
    X, and the image of X's witness lifted into M are members.
    """
    def length(sub, x=None):    # of sub, or of sub lifted from x into M; None with no lat
        if lat is not None:
            rows = sub.basis if x is None else linalg.row_space(x.to_parent(sub.basis), x.parent.p)
            return lat.lengths()[lat.index[rows.tobytes()]]

    out: dict[tuple, list] = {}
    for item in items:
        if isinstance(item, tuple):
            x, rec = item
            key = (fingerprint(x.as_module(), length(x)), rec.shape_key(length(rec.image, x)))
        else:
            key = item.shape_key(length(item.image))
        out.setdefault(key, []).append(item)
    return {k: (len(v), v[0]) for k, v in sorted(out.items(), key=lambda kv: repr(kv[0]))}


# ---------------------------------------------------------------------------
# the submodule-level closure
# ---------------------------------------------------------------------------

def _member_defects(lat: SubmoduleLattice, x: Submodule, rule_id: str,
                    guards: Guards) -> tuple[WitnessRecord, ...]:
    """`def_c4` on the lattice member x's own module, with no scan when
    the rule calls summand images valid and x is semisimple: S(x) lies in
    S(soc M), and every submodule of x is then a summand of x."""
    if get_rule(rule_id).summand_image_valid and not lat.bits_of(x.basis) & ~lat.socle_bits():
        return ()
    return def_c4(x.as_module(), rule_id, guards)


def def_c4star(m: RightModule, rule_id: str = DEFAULT_RULE_ID,
               guards: Guards = DEFAULT_GUARDS) -> tuple:
    """Pairs (X, witness) over every lattice member X failing the rule."""
    def scan():
        lat = all_submodules(m, guards.max_lattice_vectors)
        return tuple((sub, rec) for sub in lat.members
                     for rec in _member_defects(lat, sub, rule_id, guards))
    # scan() checks every member's guards, so the answer is per Guards
    return memo(m._cache, ("def_c4star", rule_id, guards), scan)


def is_c4star(m: RightModule, rule_id: str = DEFAULT_RULE_ID,
              guards: Guards = DEFAULT_GUARDS) -> bool:
    return len(def_c4star(m, rule_id, guards)) == 0


# ---------------------------------------------------------------------------
# the semisimple-pair condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionPair:
    """An admissible semisimple pair with no essential-summand realization."""

    x: Submodule
    y: Submodule
    minimal: bool
    lengths: tuple[int, int]


READINGS = ("submodule", "literal-summand")


def obs_swcs(m: RightModule, reading: str = "submodule",
             guards: Guards = DEFAULT_GUARDS) -> tuple[ObstructionPair, ...]:
    if reading not in READINGS:
        raise ValueError(f"unknown reading {reading!r}")
    # the isomorphism tests check End-scan guards inside: key by Guards
    return memo(m._cache, ("swcs", reading, guards),
                lambda: _obstruction_pairs(m, reading, guards))


def _obstruction_pairs(m: RightModule, reading: str,
                       guards: Guards) -> tuple[ObstructionPair, ...]:
    if _socle_decides(m, guards):
        return ()       # each candidate of a semisimple m is a summand, essential in itself
    summands = summand_list(m, guards.max_end_enumeration)
    if reading == "literal-summand":
        # no lattice: the candidates are the semisimple summands themselves
        legs = [s for s in summands if s.dim > 0 and is_semisimple(s.as_module())]
        hull = [any(essential_in(x, a) for a in summands) for x in legs]
        found = [(legs[i], legs[j]) for i, j in itertools.combinations(range(len(legs)), 2)
                 if not (hull[i] and hull[j])
                 and not linalg.intersect_rows(legs[i].basis, legs[j].basis, m.p).shape[0]
                 and iso_test(legs[i].as_module(), legs[j].as_module(),
                              guards.max_end_enumeration)]

        def below(x, y):
            return y.contains(x)

        def length(x):
            return composition_length(x.as_module())
    else:
        lat = all_submodules(m, guards.max_lattice_vectors)
        found = [(lat.members[i], lat.members[j]) for i, j in _lattice_obstructions(
            lat, lat.bits[-1], [lat.bits_of(a.basis) for a in summands], guards)]

        def below(x, y):
            return not lat.bits_of(x.basis) & ~lat.bits_of(y.basis)

        def length(x):
            return lat.lengths()[lat.index[x.key()]]

    pairs = []
    for x, y in found:
        # minimal: no other obstruction pair sits leg by leg inside (x, y)
        minimal = not any(below(x2, x) and below(y2, y) or below(y2, x) and below(x2, y)
                          for x2, y2 in found if (x2, y2) != (x, y))
        pairs.append(ObstructionPair(x, y, minimal, (length(x), length(y))))
    return tuple(pairs)


def _lattice_obstructions(lat: SubmoduleLattice, top: int, summand_bits: list[int],
                          guards: Guards) -> list[tuple[int, int]]:
    """The obstruction pairs of the member X with bits top, under the
    submodule reading, as index pairs i < j into lat.members; summand_bits
    are the bits of X's direct summands.

    The candidates are the nonzero members below soc X = X ∩ soc M.  A
    candidate has a realization iff it sits essentially inside some
    summand, and a pair is realized iff both legs are (the two searches
    are independent existentials).  Realized pairs are never
    obstructions, so the isomorphism test only runs on the rest."""
    soc = top & lat.socle_bits()
    chosen = [i for i, b in enumerate(lat.bits) if b and not b & ~soc]
    hull = {i: any(lat.essential(lat.bits[i], a) for a in summand_bits) for i in chosen}
    return [(i, j) for i, j in itertools.combinations(chosen, 2)
            if not (hull[i] and hull[j]) and not lat.bits[i] & lat.bits[j]
            and iso_test(lat.members[i].as_module(), lat.members[j].as_module(),
                         guards.max_end_enumeration)]


def _start_is_swcs(lat: SubmoduleLattice, x: Submodule, guards: Guards) -> bool:
    """Whether the chain start x, a member of M's lattice lat, is swCS
    under the submodule reading, read off lat (see `check_extended`)."""
    top = lat.bits_of(x.basis)
    if not top & ~lat.socle_bits():
        return True     # each leg of a semisimple x is a summand, essential in itself

    def search():
        summands = summand_list(x.as_module(), guards.max_end_enumeration)
        # X's summands, lifted into M, are members too
        lifted = [lat.bits_of(linalg.row_space(x.to_parent(a.basis), x.parent.p))
                  for a in summands]
        return not _lattice_obstructions(lat, top, lifted, guards)
    return memo(lat.parent._cache, ("start swcs", x.key(), guards), search)


def is_semiweak_cs(m: RightModule, reading: str = "submodule",
                   guards: Guards = DEFAULT_GUARDS) -> bool:
    return len(obs_swcs(m, reading, guards)) == 0


def obstruction_index(m: RightModule, reading: str = "submodule",
                      guards: Guards = DEFAULT_GUARDS):
    """Least common length over obstruction pairs; INFINITY when none."""
    pairs = obs_swcs(m, reading, guards)
    if not pairs:
        return INFINITY
    return min(p.lengths[0] for p in pairs)


# ---------------------------------------------------------------------------
# the strong condition
# ---------------------------------------------------------------------------

def is_strongly_c4star(m: RightModule, rule_id: str = DEFAULT_RULE_ID,
                       guards: Guards = DEFAULT_GUARDS) -> bool:
    return is_c4star(m, rule_id, guards) and is_semiweak_cs(m, "submodule", guards)


def strong_defect(m: RightModule, rule_id: str = DEFAULT_RULE_ID,
                  guards: Guards = DEFAULT_GUARDS) -> tuple:
    """Tagged disjoint union of the submodule-level and pair defects."""
    out = [("C4star-layer", item) for item in def_c4star(m, rule_id, guards)]
    out.extend(("swCS-layer", pair) for pair in obs_swcs(m, "submodule", guards))
    return tuple(out)


def decompose_strong(m: RightModule, rule_id: str = DEFAULT_RULE_ID,
                     guards: Guards = DEFAULT_GUARDS):
    """Split a strongly-C4* module as semisimple + summand-square-free.

    Candidates are scanned with the semisimple part maximal first; the
    four clauses (P semisimple, Q summand-square-free, P orthogonal to
    Q, Hom(P, Q) = 0) are re-verified independently on each candidate.
    Refuses modules that are not strongly C4*; raises TheoremViolation
    when the module qualifies, guards hold, and no candidate passes.
    """
    if not is_strongly_c4star(m, rule_id, guards):
        raise ValueError(f"{m.name} is not strongly C4*; decomposition "
                         "is only guaranteed under the strong hypothesis")
    decs = sorted(enumerate_decompositions(m, guards.max_end_enumeration),
                  key=lambda d: (-d.a.dim, d.a.key(), d.b.key()))
    for dec in decs:
        part_p = dec.a.as_module()
        part_q = dec.b.as_module()
        if not is_semisimple(part_p):
            continue
        if not is_summand_square_free(part_q, guards.max_end_enumeration):
            continue
        if not is_orthogonal(part_p, part_q, guards.max_lattice_vectors):
            continue
        if not hom_vanishes(part_p, part_q):
            continue
        return dec.a, dec.b
    raise TheoremViolation(
        f"{m.name} is strongly C4* but no semisimple/summand-square-free "
        "decomposition was found within guards")


# ---------------------------------------------------------------------------
# arity extension
# ---------------------------------------------------------------------------

def is_c4_m(m: RightModule, arity: int, rule_id: str = DEFAULT_RULE_ID,
            guards: Guards = DEFAULT_GUARDS) -> bool:
    """Chain version: for chains A_1,...,A_arity of summands in which each
    consecutive pair is complementary, every injective consecutive run
    f_j o ... o f_i must have a direct-summand image.  At arity 2 this
    is literally the binary condition under the given rule; at arity >= 3
    the chain condition is defined for the default rule only.

    A chain passes exactly when none of its arity - 1 decompositions
    M = A_i + A_{i+1} has a C4 defect.  A_i and A_{i+2} are complements of
    the same A_{i+1}, so they have the same dimension, and an injective
    two-map run f_{i+1} o f_i is a bijection onto A_{i+2}.  So an injective
    run of even length has the image A_{j+1}, and one of odd length is a
    bijection onto A_j followed by an injective f_j, with the image of f_j:
    every run has a summand image once every injective one-map run has.
    Those are C4's own test data, so C4[m] holds exactly when C4 does (as
    also follows from C4 itself: if X = im f_1 is a summand inside
    A_2 = X + Y, then f_2 restricted to X is an injective map from X into
    its complement Y + A_3, so C4 makes im(f_2 o f_1) a summand; induct on
    the run length).  So after validating the arity and the rule, this
    answers with `is_c4` under the same guards and enumerates no chain."""
    if arity < 2:
        raise ValueError("arity must be >= 2")
    if arity > 2 and rule_id != DEFAULT_RULE_ID:
        raise ValueError(f"the {arity}-ary chain condition is defined only for "
                         f"the rule {DEFAULT_RULE_ID!r}, not {rule_id!r}")
    return is_c4(m, rule_id, guards)


# ---------------------------------------------------------------------------
# depth extensions
# ---------------------------------------------------------------------------

def _chain_starts(lat: SubmoduleLattice, depth: int, strict: bool):
    """Lattice members that begin a depth-d subobject chain.

    Strict chains need d proper inclusions X_0 < ... < X_d <= M, and the
    longest has length M - length X_0 steps (Jordan-Hoelder on M/X_0).
    Non-strict chains allow repeats, so every member qualifies.
    """
    lengths = lat.lengths()
    return [x for x, n in zip(lat.members, lengths) if not strict or lengths[-1] - n >= depth]


def check_extended(m: RightModule, arity: int = 2, depth: int = 1,
                   strict: bool = True, rule_id: str = DEFAULT_RULE_ID,
                   guards: Guards = DEFAULT_GUARDS) -> dict:
    """Flags for the arity/depth extension grid at one (m, d) cell.

    The swCS flag of a chain start X is `is_semiweak_cs` on X's own module
    under the submodule reading, read off M's lattice without building
    X's: X's submodules are the members below X, its socle is
    soc X = X ∩ soc M, and its summands, from X's own End scan, lift into
    M as members.  Every unrealized disjoint pair still goes through
    `iso_test`.  Its legs lie below X, so each is a chain start before X
    whose own End scan has passed under these guards: testing the legs as
    members of M raises nothing that testing them inside X would.

    A semisimple start (S(X) inside S(soc M)) is swCS, and under a rule
    that calls summand images valid it is C4, with no scan: its End and
    hom-scan guards are then not checked, so a start over a guard's bound
    leaves the cell partial only when it is not semisimple."""
    lat = all_submodules(m, guards.max_lattice_vectors)
    starts = _chain_starts(lat, depth, strict)
    c4star_d = all(not _member_defects(lat, x, rule_id, guards) for x in starts)
    # is_c4_m validates the arity and the rule; C4[m] is C4, so C4star_m_d is C4star_d
    c4_m = is_c4_m(m, arity, rule_id, guards)
    swcs_d = all(_start_is_swcs(lat, x, guards) for x in starts)
    return {
        "C4star_d": c4star_d,
        "C4_m": c4_m,
        "C4star_m_d": c4star_d,
        "swcs_depth_d": swcs_d,
        "strong_depth_d": c4star_d and swcs_d,
    }


# ---------------------------------------------------------------------------
# the condition registry
# ---------------------------------------------------------------------------

# name -> predicate (m, rule_id, guards); extension cells, spelled
# ext:m:d[:strict|nonstrict], evaluate check_extended at that cell
CONDITIONS = {
    "C4": is_c4,
    "C4star": is_c4star,
    "swCS": lambda m, rule_id, guards: is_semiweak_cs(m, "submodule", guards),
    "strong": is_strongly_c4star,
    "iota": lambda m, rule_id, guards: obstruction_index(m, "submodule", guards),
    "semisimple": lambda m, rule_id, guards: is_semisimple(m),
    "summand_square_free": lambda m, rule_id, guards: is_summand_square_free(
        m, guards.max_end_enumeration),
}

# the conditions transport must preserve: the default comparison list
CONDITION_NAMES = ("C4", "C4star", "swCS", "strong", "iota")

_EXT_CELL = re.compile(r"ext:([^:]*):([^:]*)(?::(strict|nonstrict))?")


def evaluate_condition(m: RightModule, condition, rule_id: str, guards: Guards):
    """Value of a registered name or an ("ext", m, d, strict) cell on m."""
    if isinstance(condition, tuple):
        _, arity, depth, strict = condition
        return check_extended(m, arity, depth, strict, rule_id, guards)
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    return CONDITIONS[condition](m, rule_id, guards)


def condition_label(condition) -> str:
    if isinstance(condition, tuple):
        _, arity, depth, strict = condition
        return f"ext:{arity}:{depth}:{'strict' if strict else 'nonstrict'}"
    return condition


def ext_cell(arity: str, depth: str, strict: bool = True) -> tuple:
    """The extension cell ("ext", m, d, strict) from the decimal strings m
    and d: the one rule for cells named in --conditions and --extensions."""
    if not (arity.isdecimal() and depth.isdecimal()):
        raise ValueError("arity and depth must be non-negative integers")
    if int(arity) < 2:
        raise ValueError("arity must be >= 2")
    return ("ext", int(arity), int(depth), strict)


def parse_condition(text: str):
    """Inverse of condition_label; an extension cell is strict by default."""
    if text in CONDITIONS:
        return text
    cell = _EXT_CELL.fullmatch(text)
    if cell is None:
        raise ValueError(f"unknown condition {text!r}: expected one of "
                         f"{', '.join(CONDITIONS)} or ext:m:d[:strict|nonstrict]")
    try:
        return ext_cell(cell[1], cell[2], cell[3] != "nonstrict")
    except ValueError as exc:
        raise ValueError(f"condition {text!r}: {exc}") from None


def serialize_value(value):
    """A condition value for a report: the infinite index is "infinity"."""
    if isinstance(value, float) and value == INFINITY:
        return "infinity"
    return value


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class DefectReport:
    """Everything the analyzer knows about one module."""

    module_id: str
    flags: dict
    def_c4: tuple
    def_c4_classes: dict
    def_c4star: tuple
    def_c4star_classes: dict
    obs: tuple
    obstruction_index: float
    extensions: list
    decomposition: tuple | None
    ring_scan: dict | None = None
    partial: dict = field(default_factory=dict)


def build_defect_report(m: RightModule, module_id: str | None = None,
                        rule_id: str = DEFAULT_RULE_ID,
                        guards: Guards = DEFAULT_GUARDS,
                        extension_grid=((2, 1),),
                        strict_chains: bool = True,
                        ring_mode: bool = False) -> DefectReport:
    """Run the full battery on one module, tolerating guard exhaustion.

    Sections that exceed a guard are recorded in report.partial and left
    empty rather than silently truncated.
    """
    partial: dict = {}

    def attempt(name, fn, default):
        try:
            return fn()
        except GuardExceeded as exc:
            partial[name] = str(exc)
            return default

    c4_defects = attempt("def_c4", lambda: def_c4(m, rule_id, guards), None)
    c4star_defects = attempt("def_c4star", lambda: def_c4star(m, rule_id, guards), None)
    pairs = attempt("obs_swcs", lambda: obs_swcs(m, "submodule", guards), None)

    flags = {
        "C4": None if c4_defects is None else not c4_defects,
        "C4star": None if c4star_defects is None else not c4star_defects,
        "swCS": None if pairs is None else not pairs,
    }
    flags["strong"] = (None if None in (flags["C4star"], flags["swCS"])
                       else flags["C4star"] and flags["swCS"])

    iota = None
    if pairs is not None:
        iota = min((p.lengths[0] for p in pairs), default=INFINITY)

    extensions = []
    for am, dd in extension_grid:
        cell = attempt(
            f"extension({am},{dd})",
            lambda am=am, dd=dd: check_extended(m, am, dd, strict_chains, rule_id, guards),
            None)
        extensions.append({"m": am, "d": dd, "strict": strict_chains, "flags": cell})

    decomposition = None
    if flags["strong"]:
        decomposition = attempt("decompose_strong",
                                lambda: decompose_strong(m, rule_id, guards), None)

    ring_scan = None
    if ring_mode:
        def run_scan():
            lat = all_submodules(m, guards.max_lattice_vectors)
            verdicts = [(sub.dim, not _member_defects(lat, sub, rule_id, guards))
                        for sub in lat.members]
            return {
                "right_ideals": len(verdicts),
                "all_ideals_c4": all(v for _, v in verdicts),
                "failing_ideal_dims": sorted(d for d, v in verdicts if not v),
            }
        ring_scan = attempt("ring_scan", run_scan, None)

    # def_c4star builds M's lattice exactly when p^dim M is within its bound
    lat = (all_submodules(m, guards.max_lattice_vectors)
           if m.p ** m.dim <= guards.max_lattice_vectors else None)
    return DefectReport(
        module_id=module_id or m.name,
        flags=flags,
        def_c4=c4_defects if c4_defects is not None else (),
        def_c4_classes=shape_classes(c4_defects, lat) if c4_defects else {},
        def_c4star=c4star_defects if c4star_defects is not None else (),
        def_c4star_classes=shape_classes(c4star_defects, lat) if c4star_defects else {},
        obs=pairs if pairs is not None else (),
        obstruction_index=iota,
        extensions=extensions,
        decomposition=decomposition,
        ring_scan=ring_scan,
        partial=partial,
    )
