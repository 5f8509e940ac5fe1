"""Resource guards and tool-level error types.

Every enumeration (lattices, endomorphism scans, hom-space scans) is
bounded; exceeding a bound raises GuardExceeded naming the offending
count and the bound, never a silent truncation.

Every per-object cache goes through `memo`, under one rule that keeps a
warm answer equal to a cold one: a guard is checked where its
enumeration runs.  `memo` checks a guard it is given even on a hit, and
an entry whose computation checks bounds itself is keyed by those bounds.

`FAILURE_STATUS` is the one table from failure kinds to the status a
check records: a guard hit leaves it partial, a transport contradiction
fails it, and any other exception is an error.  The suite records checks
and the CLI picks exit codes from it.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict


class GuardExceeded(RuntimeError):
    """An enumeration would exceed its configured resource bound."""

    def __init__(self, what: str, needed: int, bound: int):
        self.what = what
        self.needed = needed
        self.bound = bound
        super().__init__(f"{what}: needs {needed} > bound {bound}")


class TheoremViolation(RuntimeError):
    """A computation contradicts a transport guarantee.

    Raised when both sides of an equivalence were computed within guards
    and disagree where agreement is guaranteed.
    """


FAILURE_STATUS = {
    GuardExceeded: "partial",
    TheoremViolation: "fail",
    Exception: "error",
}


def failure_status(exc: Exception) -> tuple[str, str]:
    """(status, detail) for an exception: the status FAILURE_STATUS gives
    the most specific kind of exc, and its message, led by its type name
    for an error."""
    status = next(FAILURE_STATUS[kind] for kind in type(exc).__mro__ if kind in FAILURE_STATUS)
    return status, f"{type(exc).__name__}: {exc}" if status == "error" else str(exc)


@dataclass(frozen=True)
class Guards:
    """Enumeration bounds, serialized into every report so runs are
    reproducible.

    No computation reads max_iso_search or rng_seed: isomorphism is
    decided exactly under max_end_enumeration.  Both are still accepted,
    validated and serialized, so guards files and report bytes keep them.
    """

    max_lattice_vectors: int = 2 ** 16
    max_end_enumeration: int = 2 ** 20
    max_hom_scan: int = 2 ** 20
    max_iso_search: int = 2 ** 16
    rng_seed: int = 1

    def __post_init__(self):
        for field_name, value in asdict(self).items():
            if type(value) is not int or value <= 0:     # a bool is not a bound
                raise ValueError(f"guard {field_name} must be a positive integer")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Guards":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown guard fields: {sorted(unknown)}")
        return cls(**known)


DEFAULT_GUARDS = Guards()


def check_guard(what: str, needed: int, bound: int) -> None:
    if needed > bound:
        raise GuardExceeded(what, needed, bound)


def memo(cache: dict, key, compute, guard=None):
    """cache[key], computed by compute() and stored on a miss.

    guard, a (what, needed, bound) triple, is checked first, even on a
    hit.  Bounds that compute() checks itself belong in key.
    """
    if guard is not None:
        check_guard(*guard)
    if key not in cache:
        cache[key] = compute()
    return cache[key]
