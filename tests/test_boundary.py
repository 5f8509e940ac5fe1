"""The input boundary reduces, so the kernels behind it need not.

Every entry point that takes caller data (the parser, the constructors
and the coordinate-taking functions and methods) is given entries that
are negative or at least p, and must return the same arrays as for the
reduced input.
"""

import numpy as np
import pytest

from c4lab.algebra import AlgebraElement, FiniteAlgebra, poly_quotient_algebra
from c4lab.io import parse_module, parse_ring
from c4lab.modules import (
    ModuleHom,
    RightModule,
    Submodule,
    cyclic_submodule_basis,
    hom_space_matrices,
    radical_submodule,
    regular_module,
    submodule_span,
)
from c4lab.morita import apply_functor, build_progenerator

RNG = np.random.default_rng(13)


def shifted(a, p):
    """a with every entry moved by a multiple of p, negative or positive."""
    a = np.asarray(a, dtype=np.int64)
    return a + p * RNG.integers(-2 ** 20, 2 ** 20, size=a.shape, dtype=np.int64)


def entry_points(ring):
    """name -> f(t), which calls the entry point on inputs passed through t."""
    p = ring.p
    reg = regular_module(ring)
    rad = radical_submodule(reg)
    endo = hom_space_matrices(reg, reg)[-1]
    tr = apply_functor(build_progenerator(ring, ("matrix", 2)), reg)
    x, y = np.array([1, 1]), np.array([p - 1, 1])
    return {
        "FiniteAlgebra": lambda t: (lambda a: (a.sc, a.one, a._known_radical))(
            FiniteAlgebra(p, ring.dim, ring.labels, t(ring.sc), t(ring.one),
                          known_radical=t(rad.basis))),
        "AlgebraElement": lambda t: AlgebraElement(ring, t(y)).coords,
        "RightModule": lambda t: RightModule(ring, t(reg.action)).action,
        "Submodule": lambda t: Submodule(reg, t(np.array([[0, 1], [0, p - 1]]))).basis,
        "ModuleHom": lambda t: ModuleHom(reg, reg, t(endo)).matrix,
        "submodule_span": lambda t: submodule_span(reg, t(y)).basis,
        "cyclic_submodule_basis": lambda t: cyclic_submodule_basis(reg, t(y)),
        "rho": lambda t: reg.rho(t(y)),
        "act_rows": lambda t: reg.act_rows(t(np.array([x, y]))),
        "to_parent": lambda t: rad.to_parent(t(np.array([[p - 1]]))),
        "from_parent": lambda t: rad.from_parent(t(np.array([[0, p - 1]]))),
        "mul_coords": lambda t: ring.mul_coords(t(x), t(y)),
        "left_mult_matrix": lambda t: ring.left_mult_matrix(t(y)),
        "right_mult_matrix": lambda t: ring.right_mult_matrix(t(y)),
        "hom_of_coords": lambda t: tr.hom_of_coords(t(np.arange(tr.image.dim) + p - 2)),
        "build_progenerator": lambda t: build_progenerator(ring, ("corner", t(ring.one))),
    }


@pytest.mark.parametrize("p", [3, 2 ** 31 - 1])
def test_entry_points_reduce_their_input(p):
    # F_p[x]/(x^2), with its radical given, so no guard stops a large p
    base = poly_quotient_algebra(p, [0, 0, 1])
    ring = FiniteAlgebra(p, 2, base.labels, base.sc, base.one, known_radical=[[0, 1]])
    for name, call in entry_points(ring).items():
        reduced = call(lambda a: np.asarray(a, dtype=np.int64) % p)
        moved = call(lambda a: shifted(a, p))
        if name == "build_progenerator":
            assert moved is reduced, name       # one cached progenerator
            continue
        for want, got in zip(*(r if isinstance(r, tuple) else (r,) for r in (reduced, moved))):
            assert np.array_equal(got, want), name
            assert got.dtype == np.int64 and 0 <= got.min() and got.max() < p, name


def test_the_parser_reduces_any_integer():
    ring = {"p": 5, "dim": 2, "labels": ["1", "x"], "one": [1, 0],
            "mul": [[0, 0, [1, 0]], [0, 1, [0, 1]], [1, 0, [0, 1]]]}
    moved = {**ring, "one": [6 + 5 * 2 ** 70, -5 * 2 ** 64],
             "mul": [[0, 0, [2 ** 64 * 5 + 1, -10]], [0, 1, [0, 5 * 2 ** 63 + 1]],
                     [1, 0, [-5, -4]]]}
    a, b = parse_ring(ring), parse_ring(moved)
    assert np.array_equal(a.sc, b.sc) and np.array_equal(a.one, b.one)
    module = {"ring": ring, "dim": 1, "action": [[[1]], [[0]]]}
    m = parse_module({**module, "action": [[[1 - 5 * 2 ** 66]], [[5 * 2 ** 63]]]})
    assert np.array_equal(m.action, parse_module(module).action)
