import numpy as np
import pytest

from c4lab import linalg


def random_mats(p, count=60, seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = rng.integers(1, 6)
        n = rng.integers(1, 6)
        yield rng.integers(0, p, size=(m, n)).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_is_canonical_and_idempotent(p):
    for a in random_mats(p, seed=p):
        r, piv = linalg.rref(a, p)
        r2, piv2 = linalg.rref(r, p)
        assert np.array_equal(r, r2) and piv == piv2
        # pivot entries are 1 and their columns are cleared
        for row, col in enumerate(piv):
            assert r[row, col] == 1
            assert np.count_nonzero(r[:, col]) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_rref_preserves_row_space(p):
    # brute-force row spans as vector sets
    def span_set(mat):
        rows = [tuple(v) for v in mat]
        out = {tuple([0] * mat.shape[1])}
        for coeffs in np.ndindex(*([p] * len(rows))):
            v = np.zeros(mat.shape[1], dtype=np.int64)
            for c, row in zip(coeffs, mat):
                v = (v + c * row) % p
            out.add(tuple(v))
        return out

    for a in random_mats(p, count=25, seed=p + 10):
        if a.shape[0] > 4:
            continue
        b = linalg.row_space(a, p)
        assert span_set(a) == span_set(b) if b.shape[0] <= 4 else True


@pytest.mark.parametrize("p", [2, 3, 5])
def test_left_nullspace_annihilates(p):
    for a in random_mats(p, seed=p + 20):
        ns = linalg.left_nullspace(a, p)
        assert not np.any(ns @ a % p)
        assert ns.shape[0] == a.shape[0] - linalg.rank(a, p)


@pytest.mark.parametrize("p", [2, 3])
def test_solve_left_many_round_trip(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        k, n, t = rng.integers(1, 5, size=3)
        basis = rng.integers(0, p, size=(k, n)).astype(np.int64)
        x = rng.integers(0, p, size=(t, k)).astype(np.int64)
        rhs = x @ basis % p
        sol = linalg.solve_left_many(basis, rhs, p)
        assert sol is not None
        assert np.array_equal(sol @ basis % p, rhs)


def test_solve_left_many_detects_inconsistency():
    basis = np.array([[1, 0]], dtype=np.int64)
    rhs = np.array([[0, 1]], dtype=np.int64)
    assert linalg.solve_left_many(basis, rhs, 2) is None


@pytest.mark.parametrize("p", [2, 3])
def test_intersection_against_brute_force(p):
    rng = np.random.default_rng(p + 3)
    for _ in range(30):
        n = 4
        a = rng.integers(0, p, size=(2, n)).astype(np.int64)
        b = rng.integers(0, p, size=(2, n)).astype(np.int64)

        def span(mat):
            vecs = set()
            for coeffs in np.ndindex(*([p] * mat.shape[0])):
                v = np.zeros(n, dtype=np.int64)
                for c, row in zip(coeffs, mat):
                    v = (v + c * row) % p
                vecs.add(tuple(v))
            return vecs

        inter = span(a) & span(b)
        got = linalg.intersect_rows(a, b, p)
        assert span(got) == inter


def test_inverse_and_rank():
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    inv = linalg.inv_mod(a, 2)
    assert np.array_equal(a @ inv % 2, np.eye(2, dtype=np.int64))
    assert linalg.inv_mod(np.array([[1, 1], [1, 1]]), 2) is None


def test_decode_codes_is_lexicographic():
    rows = linalg.decode_codes(np.arange(9), 2, 3)
    listed = [tuple(r) for r in rows]
    assert listed == sorted(listed)
    assert listed[0] == (0, 0) and listed[-1] == (2, 2)


def test_empty_shapes():
    assert linalg.left_nullspace(linalg.zeros(0, 3), 2).shape == (0, 0)
    assert linalg.left_nullspace(linalg.zeros(3, 0), 2).shape == (3, 3)
    assert linalg.row_space(linalg.zeros(0, 4), 2).shape == (0, 4)


# ---------------------------------------------------------------------------
# oracles for the packed GF(2) elimination and the modular products
# ---------------------------------------------------------------------------

def reference_rref(mat, p, n_pivot_cols=None):
    """Textbook Gauss-Jordan on Python ints, pivoting on the first nonzero
    entry of each column: the order every rref caller relies on."""
    a = [[int(v) % p for v in row] for row in np.asarray(mat).tolist()]
    m = len(a)
    n = np.shape(mat)[1]
    pivots = []
    r = 0
    for c in range(n if n_pivot_cols is None else n_pivot_cols):
        if r == m:
            break
        hit = [i for i in range(r, m) if a[i][c]]
        if not hit:
            continue
        a[r], a[hit[0]] = a[hit[0]], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return np.array(a, dtype=np.int64).reshape(m, n), pivots


def gf2_cases(seed=11):
    """Random 0/1 matrices around the 62/63/64-column packing boundary,
    with zero rows, repeated rows, single rows and wide augmented
    systems (n_pivot_cols < n)."""
    rng = np.random.default_rng(seed)
    widths = [0, 1, 2, 7, 8, 9, 61, 62, 63, 64, 65, 127, 128, 130]
    for n in widths:
        for m in (0, 1, 2, 5, 17, 70):
            density = rng.choice([0.05, 0.5, 0.9])
            a = (rng.random((m, n)) < density).astype(np.int64)
            if m >= 3:
                a[rng.integers(0, m)] = 0
                a[rng.integers(0, m)] = a[0]
            yield a, None
            if n:
                yield a, int(rng.integers(0, n + 1))


def test_gf2_rref_matches_reference_elimination():
    count = 0
    for a, k in gf2_cases():
        got, piv = linalg.rref(a, 2, n_pivot_cols=k)
        want, want_piv = reference_rref(a, 2, k)
        assert got.dtype == np.int64 and got.shape == a.shape
        assert piv == want_piv, (a.shape, k)
        assert np.array_equal(got, want), (a.shape, k)
        count += 1
    assert count > 150


@pytest.mark.parametrize("p", [3, 5])
def test_general_rref_matches_reference_elimination(p):
    rng = np.random.default_rng(p)
    for _ in range(60):
        m, n = rng.integers(1, 9, size=2)
        a = rng.integers(0, p, size=(m, n))
        k = int(rng.integers(0, n + 1))
        for cols in (None, k):
            got, piv = linalg.rref(a, p, n_pivot_cols=cols)
            want, want_piv = reference_rref(a, p, cols)
            assert piv == want_piv and np.array_equal(got, want)


def test_gf2_solve_and_inverse_on_wide_systems():
    rng = np.random.default_rng(5)
    for k, n, t in [(3, 70, 4), (60, 64, 8), (70, 130, 20), (64, 64, 64)]:
        basis = rng.integers(0, 2, size=(k, n))
        x = rng.integers(0, 2, size=(t, k))
        rhs = x @ basis % 2
        sol = linalg.solve_left_many(basis, rhs, 2)
        assert sol is not None and np.array_equal(sol @ basis % 2, rhs)
    for n in (5, 63, 64, 65):
        # unit upper triangular, hence invertible
        a = np.triu(rng.integers(0, 2, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        a = a[rng.permutation(n)]
        inv = linalg.inv_mod(a, 2)
        assert np.array_equal(a @ inv % 2, np.eye(n, dtype=np.int64))


def matmul_reference(a, b, p):
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, batch + a.shape[-2:])
    b = np.broadcast_to(b, batch + b.shape[-2:])
    rows, k, cols = a.shape[-2], a.shape[-1], b.shape[-1]
    out = np.zeros(batch + (rows, cols), dtype=np.int64)
    for idx in np.ndindex(*batch):
        x, y = a[idx].tolist(), b[idx].tolist()
        for i in range(rows):
            for j in range(cols):
                out[idx + (i, j)] = sum(x[i][t] * y[t][j] for t in range(k)) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 65521, 2147483647])
def test_matmul_mod_matches_python_ints(p):
    rng = np.random.default_rng(p % 1000)
    shapes = [((3, 4), (4, 5)), ((1, 1), (1, 1)), ((2, 0), (0, 3)),
              ((6, 9), (9, 2)), ((4, 3, 5), (5, 2)), ((2, 1, 3, 4), (1, 5, 4, 3)),
              ((3, 1, 2, 2), (3, 2, 2))]
    for sa, sb in shapes:
        a = rng.integers(0, p, size=sa, dtype=np.int64)
        b = rng.integers(0, p, size=sb, dtype=np.int64)
        # the largest residues maximise every partial sum
        a.reshape(-1)[::2] = p - 1
        b.reshape(-1)[::3] = p - 1
        got = linalg.matmul_mod(a, b, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, matmul_reference(a, b, p)), (sa, sb)


def test_left_nullspace_on_large_gf2_matrices():
    rng = np.random.default_rng(9)
    for m, n in [(100, 100), (100, 40), (40, 100), (64, 63), (63, 64), (100, 1)]:
        a = (rng.random((m, n)) < 0.5).astype(np.int64)
        # force a rank deficit: tie some rows to others
        a[m // 2:m // 2 + 5] = (a[:5] + a[5:10]) % 2
        ns = linalg.left_nullspace(a, 2)
        rank = len(reference_rref(a, 2)[1])
        assert ns.shape == (m - rank, m)
        assert not np.any(ns @ a % 2)
        assert len(reference_rref(ns, 2)[1]) == m - rank


def test_prime_field_bound():
    from c4lab.algebra import PrimeField, field_algebra
    with pytest.raises(ValueError, match=r"p < 2\^31"):
        PrimeField(4294967311)
    with pytest.raises(ValueError, match=r"p < 2\^31"):
        field_algebra(4294967311)
    p = 2147483647
    assert PrimeField(p).p == p
    sq = linalg.matmul_mod(np.array([[p - 1]]), np.array([[p - 1]]), p)
    assert sq.tolist() == [[1]]
    f = field_algebra(p)
    assert f.mul_coords([p - 1], [p - 1]).tolist() == [1]


def test_gf_products_live_in_linalg():
    """No module but linalg forms a matrix product itself: every mod-p
    product goes through linalg.matmul_mod or linalg.combine."""
    import ast
    import pathlib

    src = pathlib.Path(linalg.__file__).parent
    products = {"einsum", "matmul", "dot", "tensordot", "inner", "vdot"}
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in products:
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.Name) and node.id in products:
                found.append(f"{path.name}:{node.lineno}: {node.id}")
    assert not found, found


def test_gf2_elimination_lives_in_linalg():
    """No module but linalg XORs packed rows: every elimination, the
    packed GF(2) ones included, is a linalg kernel."""
    import ast
    import pathlib

    found = []
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.BitXor):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


@pytest.mark.parametrize("p, rows, cols", [(2, 3, 4), (2, 2, 70), (3, 3, 3), (5, 2, 4)])
def test_row_spaces_on_stacks_of_repeated_spaces(p, rows, cols):
    rng = np.random.default_rng(p * cols)
    # few distinct entries, so row spaces repeat across the stack
    stack = rng.integers(0, p, size=(300, rows, cols)) * rng.integers(0, 2, size=(300, rows, 1))
    stack = np.concatenate([np.zeros((1, rows, cols), dtype=np.int64), stack % p])
    assert_row_spaces_match_row_space(stack, p)


def assert_row_spaces_match_row_space(stack, p):
    got = linalg.row_spaces(stack, p)
    want = [linalg.row_space(mat, p) for mat in stack]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("cols", [1, 5, 62, 63, 70])
def test_row_spaces_matches_row_space(p, cols):
    """Byte for byte the bases `row_space` gives, matrix by matrix, on
    both GF(2) packings (one int64 up to 62 columns, packbits beyond)."""
    rng = np.random.default_rng(cols)
    for rows in (1, 2, 3, 8):
        stack = rng.integers(0, p, size=(40, rows, cols)) * rng.integers(0, 2, size=(40, rows, 1))
        # repeated rows and zero rows, so that the ranks vary
        stack[::3, -1] = stack[::3, 0]
        stack[::5] = 0
        assert_row_spaces_match_row_space(stack, p)


@pytest.mark.parametrize("p", [2, 3])
def test_row_spaces_of_empty_stacks_and_empty_matrices(p):
    for shape in [(0, 3, 4), (0, 0, 4), (0, 3, 70), (4, 0, 5), (4, 0, 70), (4, 0, 0),
                  (4, 3, 0), (1, 3, 0)]:
        assert_row_spaces_match_row_space(np.zeros(shape, dtype=np.int64), p)
    assert linalg.row_spaces(np.zeros((0, 3, 4), dtype=np.int64), p) == []
    # the images of the maps of a decomposition with A = 0: an (n, 0, dim M) stack
    assert [b.shape for b in linalg.row_spaces(np.zeros((3, 0, 6), dtype=np.int64), p)] \
        == [(0, 6)] * 3


def test_row_spaces_on_every_corpus_lattice_scan():
    """On the acted stacks of the lattice scan of every corpus module and
    lattice member, the bases are those of a `row_space` per matrix, byte
    for byte and in order."""
    from c4lab.corpus import corpus_builtin
    from c4lab.modules import all_submodules

    modules = {}
    for entry in corpus_builtin():
        for x in all_submodules(entry.module).members:
            x_mod = x.as_module()
            modules.setdefault((id(x_mod.ring), x_mod.action.tobytes()), x_mod)
    stacks = 0
    for m in modules.values():
        for block in linalg.coeff_blocks(m.p ** m.dim, m.dim, m.p, block=2048):
            acted = m.act_rows(block).reshape(block.shape[0], m.ring.dim, m.dim)
            assert_row_spaces_match_row_space(acted, m.p)
            stacks += 1
    assert stacks >= 40


def test_answers_are_deterministic_and_iso_verdicts_are_bools():
    """No module of c4lab draws random numbers, and no file compares an
    iso_test call with None: it returns a bool, and `False is not None`
    would read a negative verdict as a positive one."""
    import ast
    import pathlib

    src = pathlib.Path(linalg.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if any("random" in name.split(".") or name == "default_rng" for name in names):
                    found.append(f"{path.name}:{node.lineno}: imports {names}")
            elif isinstance(node, ast.Attribute) and node.attr in ("random", "default_rng"):
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.Name) and node.id == "default_rng":
                found.append(f"{path.name}:{node.lineno}: default_rng")
    for path in sorted(src.glob("*.py")) + sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            calls_iso = any(isinstance(side, ast.Call) and getattr(
                side.func, "id", getattr(side.func, "attr", None)) == "iso_test"
                for side in sides)
            none_test = any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and any(
                isinstance(side, ast.Constant) and side.value is None for side in sides)
            if calls_iso and none_test:
                found.append(f"{path.name}:{node.lineno}: iso_test(...) compared with None")
    assert not found, found


@pytest.mark.parametrize("p", [2, 3, 2 ** 31 - 1])
def test_row_spaces_ranks_match_rank(p):
    """The C4 scan reads rank f as the row count of im f's basis."""
    rng = np.random.default_rng(p % 1000)
    for n, r, c in [(0, 3, 3), (0, 0, 0), (4, 0, 3), (4, 3, 0), (4, 0, 0),
                    (200, 3, 4), (200, 4, 3), (100, 5, 5), (50, 1, 6), (50, 6, 1)]:
        # rows zeroed at random, and products of thin factors, lower the rank
        stack = rng.integers(0, p, size=(n, r, c)) * rng.integers(0, 2, size=(n, r, 1))
        if n and r and c:
            thin = linalg.matmul_mod(rng.integers(0, p, size=(n, r, 1)),
                                     rng.integers(0, p, size=(n, 1, c)), p)
            stack = np.concatenate([stack % p, thin])
        ranks = [basis.shape[0] for basis in linalg.row_spaces(stack % p, p)]
        assert ranks == [linalg.rank(mat, p) for mat in stack % p]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_spaces_against_row_space_count(p):
    """Brute-force oracle: the row space of a rank-k matrix has p^k
    vectors, counted by enumerating all p^r combinations of its rows, and
    its basis spans exactly those vectors."""
    import itertools

    def span(rows, c):
        return {tuple(sum(x * row[j] for x, row in zip(coeffs, rows)) % p for j in range(c))
                for coeffs in itertools.product(range(p), repeat=len(rows))}

    rng = np.random.default_rng(11 * p)
    for r, c in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)]:
        stack = rng.integers(0, p, size=(40, r, c)) * rng.integers(0, 2, size=(40, r, 1))
        stack = np.concatenate([np.zeros((1, r, c), dtype=np.int64), stack % p])
        for mat, basis in zip(stack, linalg.row_spaces(stack, p)):
            want = span(mat.tolist(), c)
            assert p ** basis.shape[0] == len(want)
            assert span(basis.tolist(), c) == want
