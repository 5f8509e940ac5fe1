"""
File ingestion: ring and module description files, guard overrides.

Ring files are JSON objects, either raw structure constants

    {"p": 2, "dim": 2, "labels": ["1", "x"], "one": [1, 0],
     "mul": [[0, 0, [1, 0]], [0, 1, [0, 1]], [1, 0, [0, 1]]]}

with omitted (i, j) triples meaning a zero product, or constructor
shorthand such as {"construct": "matrix", "base": {...}, "n": 2}.
Module files name a ring (inline object or a file path) plus either
explicit action matrices or the shorthands "regular" / "direct_sum".
Entries ("one", "mul" coefficients, action matrices) may be any JSON
integers: each is reduced mod p as a Python int before it becomes int64,
so this is where input data is normalized for the GF(p) kernels.  Every
validation failure is reported with the offending location.
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


def read_json(path: str):
    """The JSON value in a file; an unreadable or malformed file is an
    InputError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        _fail(path, f"cannot read file: {exc.strerror}")
    except (ValueError, RecursionError) as exc:
        _fail(path, f"not valid JSON: {exc}")


def _integer(value, where: str) -> int:
    if type(value) is not int:      # a JSON true or 2.0 is not an integer
        _fail(where, f"{value!r} is not an integer")
    return value


def _residues(entries, p: int, where: str) -> np.ndarray:
    """A list of JSON integers as an int64 array reduced mod p.

    Each entry is reduced as a Python int first, so any integer is
    accepted, negative or beyond int64.
    """
    if not isinstance(entries, list):
        _fail(where, "expected a list of integers")
    for x in entries:
        if type(x) is not int:
            _fail(where, f"{x!r} is not an integer")
    return np.array([x % p for x in entries], dtype=np.int64)


def parse_ring(spec, where: str = "ring", base_dir: str = ".") -> FiniteAlgebra:
    if isinstance(spec, str):
        path = os.path.join(base_dir, spec)
        return parse_ring(read_json(path), where=path, base_dir=os.path.dirname(path) or ".")
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
        except (ValueError, OverflowError) as exc:
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
    p = _integer(spec["p"], f"{where}.p")
    try:
        PrimeField(p)
    except ValueError as exc:
        _fail(where, str(exc))
    dim = _integer(spec["dim"], f"{where}.dim")
    if dim < 1:
        _fail(where, "algebra dimension must be >= 1")
    # checked before dim sizes any array
    one = _residues(spec["one"], p, f"{where}.one")
    if one.shape != (dim,):
        _fail(where, f"identity coordinates must have length dim ({dim})")
    labels = spec.get("labels") or [f"b{i}" for i in range(dim)]
    if not isinstance(labels, list):
        _fail(where, "labels must be a list")
    mul = spec.get("mul", [])
    if not isinstance(mul, list):
        _fail(where, "mul must be a list of [i, j, [coeff per k]] entries")
    for t, triple in enumerate(mul):
        loc = f"{where}.mul[{t}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            _fail(loc, "each mul entry must be [i, j, [coeff per k]]")
        i, j, coeffs = triple
        if not (type(i) is int and 0 <= i < dim and type(j) is int and 0 <= j < dim):
            _fail(loc, f"basis index out of range at (i, j)=({i},{j})")
        if not (isinstance(coeffs, list) and len(coeffs) == dim):
            _fail(loc, f"coefficient vector must have length {dim}")
    # one conversion for all coefficients; a later (i, j) triple wins
    coeffs = _residues([x for triple in mul for x in triple[2]], p, f"{where}.mul")
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j, _), row in zip(mul, coeffs.reshape(-1, dim)):
        sc[i, j] = row
    try:
        return FiniteAlgebra(p, dim, labels, sc, one,
                             name=spec.get("name") or f"ring(p={p},dim={dim})")
    except ValueError as exc:
        _fail(where, str(exc))


def parse_module(spec, where: str = "module", base_dir: str = ".",
                 ring: FiniteAlgebra | None = None) -> RightModule:
    if isinstance(spec, str):
        path = os.path.join(base_dir, spec)
        return parse_module(read_json(path), where=path,
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
    dim = _integer(spec["dim"], f"{where}.dim")
    if dim < 0:
        _fail(where, "module dimension must be >= 0")
    action = spec["action"]
    if not isinstance(action, list) or len(action) != ring.dim:
        _fail(where, f"need a list of one action matrix per ring basis element "
                     f"({ring.dim})")
    mats = []
    for j, mat in enumerate(action):
        loc = f"{where}.action[{j}]"
        # a matrix is a flat list or a list of rows
        if isinstance(mat, list) and mat and all(isinstance(row, list) for row in mat):
            if len(mat) != dim or any(len(row) != dim for row in mat):
                _fail(loc, f"matrix must be {dim}x{dim}")
            mat = [x for row in mat for x in row]
        m = _residues(mat, ring.p, loc)
        if m.shape != (dim * dim,):
            _fail(loc, f"matrix must be {dim}x{dim}")
        mats.append(m)
    arr = np.array(mats, dtype=np.int64).reshape(ring.dim, dim, dim)
    try:
        return RightModule(ring, arr, name=spec.get("name", "module"))
    except ValueError as exc:
        _fail(where, str(exc))


def is_module_spec(data) -> bool:
    """Whether a parsed file holds a module (action matrices or a constructor), not a ring."""
    return isinstance(data, dict) and ("action" in data or data.get("construct")
                                       in ("regular", "direct_sum"))


def parse_inputs(paths: list[str]):
    """Parse a list of files; ring files yield (ring, None), module files
    yield (ring, module)."""
    out = []
    for path in paths:
        data = read_json(path)
        base_dir = os.path.dirname(path) or "."
        if is_module_spec(data):
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
    data = read_json(path)
    if not isinstance(data, dict):
        _fail(path, "guards file must hold a JSON object")
    try:
        return Guards.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None
