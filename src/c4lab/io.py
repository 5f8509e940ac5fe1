"""
File ingestion: ring and module description files, guard overrides.

Ring files are JSON objects, either raw structure constants

    {"p": 2, "dim": 2, "labels": ["1", "x"], "one": [1, 0],
     "mul": [[0, 0, [1, 0]], [0, 1, [0, 1]], [1, 0, [0, 1]]]}

with omitted (i, j) triples meaning a zero product, or constructor
shorthand such as {"construct": "matrix", "base": {...}, "n": 2}.
Module files name a ring (inline object or a file path) plus either
explicit action matrices or the shorthands "regular" / "direct_sum".
Every validation failure is reported with the offending location.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .algebra import (
    FiniteAlgebra,
    PrimeField,
    corner_algebra,
    field_algebra,
    idempotents,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    upper_triangular_algebra,
)
from .guards import Guards
from .modules import RightModule, direct_sum, regular_module


class InputError(ValueError):
    """Schema or invariant failure in an input file, with its location."""


def _fail(where: str, message: str):
    raise InputError(f"{where}: {message}")


def parse_ring(spec, where: str = "ring", base_dir: str = ".") -> FiniteAlgebra:
    if isinstance(spec, str):
        path = os.path.join(base_dir, spec)
        with open(path, "r", encoding="utf-8") as fh:
            return parse_ring(json.load(fh), where=path, base_dir=os.path.dirname(path) or ".")
    if not isinstance(spec, dict):
        _fail(where, "ring description must be an object or a file path")

    if "construct" in spec:
        kind = spec["construct"]
        try:
            if kind == "field":
                return field_algebra(int(spec["p"]))
            if kind == "poly_quotient":
                return poly_quotient_algebra(int(spec["p"]), spec["f"])
            if kind == "matrix":
                base = parse_ring(spec["base"], f"{where}.base", base_dir)
                return matrix_algebra(base, int(spec["n"]))
            if kind == "upper_triangular":
                return upper_triangular_algebra(int(spec["p"]), int(spec["n"]))
            if kind == "product":
                parts = spec.get("parts")
                if not isinstance(parts, list) or len(parts) != 2:
                    _fail(where, "product needs exactly two parts")
                a = parse_ring(parts[0], f"{where}.parts[0]", base_dir)
                b = parse_ring(parts[1], f"{where}.parts[1]", base_dir)
                return product_algebra(a, b)
            if kind == "corner":
                base = parse_ring(spec["base"], f"{where}.base", base_dir)
                e = _corner_idempotent(base, spec, where)
                return corner_algebra(base, e).algebra
            if kind == "raw":
                return _parse_raw_ring({k: v for k, v in spec.items() if k != "construct"},
                                       where)
        except InputError:
            raise
        except (KeyError, TypeError) as exc:
            _fail(where, f"constructor {kind!r} is missing a field: {exc}")
        except ValueError as exc:
            _fail(where, str(exc))
        _fail(where, f"unknown constructor {kind!r}")
    return _parse_raw_ring(spec, where)


def _corner_idempotent(base, spec, where):
    if "e" in spec:
        e = base.element(spec["e"])
    elif "e_index" in spec:
        idems = idempotents(base)
        idx = int(spec["e_index"])
        if not 0 <= idx < len(idems):
            _fail(where, f"e_index {idx} out of range (found {len(idems)} idempotents)")
        e = idems[idx]
    else:
        _fail(where, "corner needs 'e' coordinates or an 'e_index'")
    if not e.is_idempotent():
        _fail(where, "e^2 != e")
    return e


def _parse_raw_ring(spec: dict, where: str) -> FiniteAlgebra:
    for required in ("p", "dim", "one"):
        if required not in spec:
            _fail(where, f"missing required key {required!r}")
    p = int(spec["p"])
    try:
        PrimeField(p)
    except ValueError as exc:
        _fail(where, str(exc))
    dim = int(spec["dim"])
    labels = spec.get("labels") or [f"b{i}" for i in range(dim)]
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for t, triple in enumerate(spec.get("mul", [])):
        loc = f"{where}.mul[{t}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            _fail(loc, "each mul entry must be [i, j, [coeff per k]]")
        i, j, coeffs = triple
        if not (isinstance(i, int) and 0 <= i < dim and isinstance(j, int) and 0 <= j < dim):
            _fail(loc, f"basis index out of range at (i, j)=({i},{j})")
        if len(coeffs) != dim:
            _fail(loc, f"coefficient vector must have length {dim}")
        sc[i, j] = np.asarray(coeffs, dtype=np.int64) % p
    try:
        return FiniteAlgebra(p, dim, labels, sc, spec["one"],
                             name=spec.get("name") or f"ring(p={p},dim={dim})")
    except ValueError as exc:
        _fail(where, str(exc))


def parse_module(spec, where: str = "module", base_dir: str = ".",
                 ring: FiniteAlgebra | None = None) -> RightModule:
    if isinstance(spec, str):
        path = os.path.join(base_dir, spec)
        with open(path, "r", encoding="utf-8") as fh:
            return parse_module(json.load(fh), where=path,
                                base_dir=os.path.dirname(path) or ".", ring=ring)
    if not isinstance(spec, dict):
        _fail(where, "module description must be an object or a file path")

    if ring is None and "ring" in spec:
        ring = parse_ring(spec["ring"], f"{where}.ring", base_dir)

    construct = spec.get("construct")
    if construct == "regular":
        if ring is None:
            _fail(where, "regular module needs a ring")
        return regular_module(ring)
    if construct == "direct_sum":
        parts = spec.get("parts")
        if not isinstance(parts, list) or not parts:
            _fail(where, "direct_sum needs a nonempty parts list")
        mods = [parse_module(part, f"{where}.parts[{t}]", base_dir, ring)
                for t, part in enumerate(parts)]
        out, _, _ = direct_sum(*mods, name=spec.get("name"))
        return out
    if construct is not None:
        _fail(where, f"unknown module constructor {construct!r}")

    if ring is None:
        _fail(where, "module needs a ring")
    for required in ("dim", "action"):
        if required not in spec:
            _fail(where, f"missing required key {required!r}")
    dim = int(spec["dim"])
    action = spec["action"]
    if len(action) != ring.dim:
        _fail(where, f"need one action matrix per ring basis element "
                     f"({ring.dim}), got {len(action)}")
    arr = np.zeros((ring.dim, dim, dim), dtype=np.int64)
    for j, mat in enumerate(action):
        m = np.asarray(mat, dtype=np.int64).reshape(-1)
        if m.shape[0] != dim * dim:
            _fail(f"{where}.action[{j}]", f"matrix must be {dim}x{dim}")
        arr[j] = m.reshape(dim, dim) % ring.p
    try:
        return RightModule(ring, arr, name=spec.get("name", "module"))
    except ValueError as exc:
        _fail(where, str(exc))


def parse_inputs(paths: list[str]):
    """Parse a list of files; ring files yield (ring, None), module files
    yield (ring, module)."""
    out = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        base_dir = os.path.dirname(path) or "."
        if isinstance(data, dict) and ("action" in data or data.get("construct")
                                       in ("regular", "direct_sum")):
            mod = parse_module(data, where=path, base_dir=base_dir)
            out.append((mod.ring, mod))
        else:
            out.append((parse_ring(data, where=path, base_dir=base_dir), None))
    return out


def load_guards(path: str | None) -> Guards:
    """Guards from an explicit file, the C4LAB_GUARDS env fallback, or defaults."""
    if path is None:
        path = os.environ.get("C4LAB_GUARDS")
    if path is None:
        return Guards()
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return Guards.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None
