"""The GF(p) kernels' precondition, checked at every call.

The public kernels of ``linalg`` take int64 arrays with entries in [0, p)
and write into none of them; only the input boundary (the parser, the
constructors and the coordinate-taking methods) reduces.  Each kernel is
wrapped so that every array argument must be canonical and reaches the
kernel read-only.  Under the wrappers the corpus is built from scratch,
the defect report and the literal-summand obstructions of every corpus
module are computed cold, and the transport check runs on both sides of
a sample of them.  Every other public function of ``linalg`` is named
exempt.
"""

import collections
import functools
import inspect

import numpy as np
import pytest

from c4lab import corpus, linalg
from c4lab.conditions import build_defect_report, obs_swcs
from c4lab.modules import regular_module, socle
from c4lab.morita import apply_functor, build_progenerator, morita_pair_check, transport_submodule
from c4lab.suite import SIDES, transport_side

KERNELS = ("rref", "row_space", "left_nullspace", "right_kernel_cols", "solve_left_many",
           "in_row_space", "sum_rows", "intersect_rows", "inv_mod", "rank", "is_invertible",
           "row_spaces", "quotient_projection", "matmul_mod", "combine")
# the public functions of linalg that take no GF(p) array: input normalization,
# constructors, a scalar inverse and the coefficient enumerators
EXEMPT = ("as_gf", "zeros", "eye", "inv_scalar", "decode_codes", "coeff_blocks")
NOT_ARRAYS = ("p", "n_pivot_cols")


def read_only(name, value, p):
    """value as a read-only view; AssertionError unless it is canonical."""
    assert isinstance(value, np.ndarray), f"{name}: {type(value).__name__}, not an ndarray"
    assert value.dtype == np.int64, f"{name}: dtype {value.dtype}"
    assert not value.size or 0 <= value.min() <= value.max() < p, \
        f"{name}: entries outside [0, {p})"
    view = value.view()
    view.setflags(write=False)
    return view


def checked(fn, calls):
    """fn with its array arguments checked and made read-only."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[fn.__name__] += 1
        bound = sig.bind(*args, **kwargs)
        p = bound.arguments["p"]
        for arg, value in bound.arguments.items():
            if arg not in NOT_ARRAYS:
                bound.arguments[arg] = read_only(f"{fn.__name__}({arg})", value, p)
        result = fn(*bound.args, **bound.kwargs)
        if fn.__name__ == "quotient_projection":
            nonpiv, project = result
            return nonpiv, lambda rows: project(read_only("project(rows)", rows, p))
        return result
    return wrapper


@pytest.fixture
def calls(monkeypatch):
    """Every kernel checked, over a corpus built after the wrapping, so no
    answer comes from a cache filled before it.  Counts calls per kernel."""
    counts = collections.Counter()
    for name in KERNELS:
        monkeypatch.setattr(linalg, name, checked(getattr(linalg, name), counts))
    rings = corpus.corpus_rings.__wrapped__()
    monkeypatch.setattr(corpus, "corpus_rings", lambda: rings)
    return counts


def test_kernels_see_only_canonical_read_only_arrays(calls):
    entries = corpus.corpus_builtin.__wrapped__()
    for entry in entries:
        build_defect_report(entry.module, module_id=entry.name)
        # the literal-summand reading intersects pairs of summands
        obs_swcs(entry.module, "literal-summand")
    for ring in corpus.corpus_rings().values():
        if ring.dim <= 4:
            build_defect_report(regular_module(ring), module_id=ring.name, ring_mode=True)
    for entry in entries[::5]:
        for kind in SIDES:
            realization, module = transport_side(entry, kind)
            result = morita_pair_check(module.ring, realization, module)
            assert result["violations"] == 0
            # a transported submodule reads its membership columns
            tr = apply_functor(build_progenerator(module.ring, realization), module)
            transport_submodule(tr, socle(module))
    # the wrappers saw the work: every kernel ran but two that no report
    # or transport check calls
    assert set(KERNELS) - set(calls) <= {"inv_mod", "is_invertible"}


def test_every_public_linalg_function_is_a_checked_kernel_or_exempt():
    """A new public function of linalg joins KERNELS, and so the checks
    above, or is named in EXEMPT."""
    public = {name for name, fn in inspect.getmembers(linalg, inspect.isfunction)
              if fn.__module__ == linalg.__name__ and not name.startswith("_")}
    assert not set(KERNELS) & set(EXEMPT)
    assert public == set(KERNELS) | set(EXEMPT)


def test_the_wrapper_rejects_unreduced_and_written_arguments():
    counts = collections.Counter()
    with pytest.raises(AssertionError, match=r"rref\(mat\): entries outside \[0, 3\)"):
        checked(linalg.rref, counts)(np.array([[1, 4], [0, 1]], dtype=np.int64), 3)
    with pytest.raises(AssertionError, match=r"row_space\(mat\): dtype int32"):
        checked(linalg.row_space, counts)(np.array([[1, 0]], dtype=np.int32), 3)
    with pytest.raises(AssertionError, match="list, not an ndarray"):
        checked(linalg.sum_rows, counts)([[1, 0]], linalg.eye(2), 3)
    with pytest.raises(ValueError, match="read-only"):
        checked(_writes_into_its_input, counts)(linalg.eye(2), 3)


def _writes_into_its_input(mat, p):
    mat[0, 0] = 0
    return mat
