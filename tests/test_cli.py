import json

import pytest
from click.testing import CliRunner

from c4lab.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def r2_file(tmp_path):
    path = tmp_path / "r2.json"
    path.write_text(json.dumps({"construct": "poly_quotient", "p": 2, "f": [0, 0, 1]}))
    return str(path)


@pytest.fixture()
def mixed_module_file(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({
        "ring": {"construct": "poly_quotient", "p": 2, "f": [0, 0, 1]},
        "construct": "direct_sum",
        "parts": [{"construct": "regular"},
                  {"dim": 1, "action": [[[1]], [[0]]], "name": "S"}],
        "name": "R+S",
    }))
    return str(path)


def test_analyze_ring_mode(runner, r2_file, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["analyze", r2_file, "--ring", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "C4      true" in result.output
    assert "strong  true" in result.output
    assert "ring scan" in result.output
    payload = json.loads(out.read_text())
    assert payload["kind"] == "defect-report"
    assert payload["flags"] == {"C4": True, "C4star": True, "swCS": True,
                                "strong": True}
    assert payload["obstruction_index"] == "infinity"
    assert payload["ring_scan"]["all_ideals_c4"] is True
    assert payload["guards"]["max_lattice_vectors"] == 2 ** 16


def test_analyze_module_with_defects(runner, mixed_module_file, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["analyze", mixed_module_file, "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["flags"]["C4"] is False
    assert payload["def_c4"]["count"] > 0
    assert len(payload["def_c4"]["shape_classes"]) == 1
    assert payload["decomposition_certificate"] is None


def test_analyze_is_byte_deterministic(runner, mixed_module_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = runner.invoke(main, ["analyze", mixed_module_file, "--out", str(out1)])
    r2 = runner.invoke(main, ["analyze", mixed_module_file, "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.output == r2.output


def test_analyze_extension_grid(runner, r2_file):
    result = runner.invoke(main, ["analyze", r2_file, "--ring",
                                  "--extensions", "2,1;3,2"])
    assert result.exit_code == 0, result.output
    assert "extension m=2 d=1" in result.output
    assert "extension m=3 d=2" in result.output


def test_analyze_long_chains_exit_cleanly(runner, r2_file, tmp_path):
    # an arity of 2000 costs what the binary cell does, and C4[m] agrees
    # with it
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["analyze", r2_file, "--ring",
                                  "--extensions", "2,1;2000,1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    short, long = json.loads(out.read_text())["extensions"]
    assert (short["m"], long["m"]) == (2, 2000)
    assert long["flags"]["C4_m"] is short["flags"]["C4_m"] is True


def test_analyze_guard_override(runner, mixed_module_file, tmp_path):
    guards = tmp_path / "guards.json"
    guards.write_text(json.dumps({"max_lattice_vectors": 2}))
    result = runner.invoke(main, ["analyze", mixed_module_file,
                                  "--guards", str(guards)])
    assert result.exit_code == 0
    assert "PARTIAL" in result.output


def test_morita_matrix(runner, mixed_module_file, tmp_path):
    out = tmp_path / "cmp.json"
    result = runner.invoke(main, ["morita", mixed_module_file, "--matrix", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["kind"] == "morita-comparison"
    assert payload["violations"] == 0
    conditions = {row["condition"] for row in payload["rows"]}
    assert {"C4", "C4star", "swCS", "strong", "iota"} <= conditions


def test_morita_corner_on_matrix_ring(runner, tmp_path):
    mod = tmp_path / "m2reg.json"
    mod.write_text(json.dumps({
        "ring": {"construct": "matrix", "base": {"construct": "field", "p": 2},
                 "n": 2},
        "construct": "regular",
    }))
    result = runner.invoke(main, ["morita", str(mod), "--corner", "1,0,0,0",
                                  "--conditions", "strong"])
    assert result.exit_code == 0, result.output
    assert "THEOREM VIOLATION" not in result.output


def test_morita_rejects_non_full_corner(runner, tmp_path):
    mod = tmp_path / "ffreg.json"
    mod.write_text(json.dumps({
        "ring": {"construct": "product",
                 "parts": [{"construct": "field", "p": 2},
                           {"construct": "field", "p": 2}]},
        "construct": "regular",
    }))
    result = runner.invoke(main, ["morita", str(mod), "--corner", "1,0"])
    assert result.exit_code == 2
    assert "not full" in result.output
    assert "dimension 1" in result.output  # the span deficiency is printed


def test_morita_requires_one_realization(runner, mixed_module_file):
    result = runner.invoke(main, ["morita", mixed_module_file])
    assert result.exit_code == 2
    result = runner.invoke(main, ["morita", mixed_module_file,
                                  "--matrix", "2", "--corner", "0"])
    assert result.exit_code == 2


def test_suite_filter(runner, tmp_path):
    out = tmp_path / "suite.json"
    result = runner.invoke(main, ["suite", "--filter", "ring-level",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["kind"] == "suite-summary"
    assert payload["failures"] == 0
    assert payload["total"] >= 4
    assert all("ring-level" in c["name"] for c in payload["checks"])


def test_bad_input_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"construct": "field", "p": 4}))
    result = runner.invoke(main, ["analyze", str(bad), "--ring"])
    assert result.exit_code == 2
    assert "prime" in result.output


def test_iso_search_bound_leaves_the_swcs_verdict_exact(runner, tmp_path):
    # F2[x,y]/(x,y)^2: the swCS scan compares its three socle lines.  The
    # isomorphism test is exact and reads no max_iso_search, so a bound of
    # 1 still yields the full report.
    ring = tmp_path / "k.json"
    ring.write_text(json.dumps({
        "p": 2, "dim": 3, "labels": ["1", "x", "y"], "one": [1, 0, 0],
        "mul": [[0, 0, [1, 0, 0]], [0, 1, [0, 1, 0]], [0, 2, [0, 0, 1]],
                [1, 0, [0, 1, 0]], [2, 0, [0, 0, 1]]]}))
    guards = tmp_path / "guards.json"
    guards.write_text(json.dumps({"max_iso_search": 1}))
    result = runner.invoke(main, ["analyze", str(ring), "--ring",
                                  "--guards", str(guards)])
    assert result.exit_code == 0, result.output
    assert "  swCS    false" in result.output
    assert "  swCS obstructions   3" in result.output
    assert "PARTIAL" not in result.output


def test_suite_rejects_the_removed_seed_option(runner):
    result = runner.invoke(main, ["suite", "--seed", "1"])
    assert result.exit_code == 2
    assert "No such option '--seed'" in result.output


def test_too_large_prime_is_a_located_input_error(runner, tmp_path):
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"construct": "poly_quotient", "p": 4294967311,
                               "f": [1, 1]}))
    result = runner.invoke(main, ["analyze", str(bad), "--ring"])
    assert result.exit_code == 2
    assert result.output == (f"error: {bad}: prime 4294967311 is too large: "
                             "c4lab supports p < 2^31\n")


def test_morita_nonstrict_extension_cell(runner, mixed_module_file, tmp_path):
    out = tmp_path / "cmp.json"
    result = runner.invoke(main, ["morita", mixed_module_file, "--matrix", "2",
                                  "--conditions", "ext:3:1:nonstrict",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    (row,) = json.loads(out.read_text())["rows"]
    assert row["condition"] == "ext:3:1:nonstrict"
    # the whole module R+S starts a non-strict chain and is not C4; a
    # strict depth-1 chain cannot start at the top of the lattice
    assert row["value_on_M"]["C4star_d"] is False
    assert row["agreement"] is True


@pytest.mark.parametrize("conditions, bad", [
    ("ext:3", "'ext:3'"),
    ("C4,bogus", "'bogus'"),
    ("ext:3:1:loose", "'ext:3:1:loose'"),
])
def test_morita_rejects_bad_conditions_before_computing(
        runner, mixed_module_file, monkeypatch, conditions, bad):
    from c4lab import cli

    def never(*args, **kwargs):
        raise AssertionError("conditions must be validated before any check runs")
    monkeypatch.setattr(cli, "morita_pair_check", never)
    result = runner.invoke(main, ["morita", mixed_module_file, "--matrix", "2",
                                  "--conditions", conditions])
    assert result.exit_code == 2
    assert result.output.startswith(f"error: --conditions: unknown condition {bad}")
    assert result.output.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (["--corner", "1,0,0"], "--corner: expected 2 coordinates, got 3"),
    (["--corner", "1,1"], "--corner: '1,1' is not an idempotent"),
    (["--corner", "0,0"], "--corner: idempotent '0,0' is not full: "
                          "span ReR has dimension 0 < 2"),
    (["--matrix", "0"], "--matrix: the rank must be >= 1, got 0"),
    (["--matrix", "-1"], "--matrix: the rank must be >= 1, got -1"),
])
def test_morita_rejects_a_bad_realization_before_computing(
        runner, mixed_module_file, monkeypatch, args, message):
    from c4lab import cli

    def never(*args, **kwargs):
        raise AssertionError("the realization must be validated before any check runs")
    monkeypatch.setattr(cli, "morita_pair_check", never)
    result = runner.invoke(main, ["morita", mixed_module_file, *args])
    assert result.exit_code == 2
    assert result.output == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["--matrix", "2", "--conditions", ","], "--conditions: no condition given"),
    (["--matrix", "2", "--conditions", ""], "--conditions: no condition given"),
    (["--corner", "x"], "--corner: expected an index or comma-separated integer "
                        "coordinates, got 'x'"),
    (["--corner", "1,x"], "--corner: expected an index or comma-separated integer "
                          "coordinates, got '1,x'"),
    (["--corner", "1,"], "--corner: expected an index or comma-separated integer "
                         "coordinates, got '1,'"),
    (["--corner", "7"], "--corner: idempotent index 7 out of range (2 idempotents)"),
])
def test_morita_rejects_empty_conditions_and_bad_corners_before_computing(
        runner, mixed_module_file, monkeypatch, args, message):
    from c4lab import cli

    def never(*args, **kwargs):
        raise AssertionError("options must be validated before any check runs")
    monkeypatch.setattr(cli, "morita_pair_check", never)
    result = runner.invoke(main, ["morita", mixed_module_file, *args])
    assert result.exit_code == 2
    assert result.output == f"error: {message}\n"


@pytest.mark.parametrize("extensions, message", [
    ("1,1", "cell '1,1': arity must be >= 2"),
    ("2,1;a,1", "cell 'a,1': arity and depth must be non-negative integers"),
    ("2,-1", "cell '2,-1': arity and depth must be non-negative integers"),
    ("2,1,3", "cell '2,1,3': expected 'm,d'"),
])
def test_analyze_rejects_bad_extensions_before_computing(
        runner, mixed_module_file, monkeypatch, extensions, message):
    from c4lab import cli

    def never(*args, **kwargs):
        raise AssertionError("extensions must be validated before any check runs")
    monkeypatch.setattr(cli, "build_defect_report", never)
    result = runner.invoke(main, ["analyze", mixed_module_file, "--extensions", extensions])
    assert result.exit_code == 2
    assert result.output == f"error: --extensions: {message}\n"


def test_theorem_violation_exits_1_with_one_line(runner, r2_file, monkeypatch):
    from c4lab import conditions
    from c4lab.guards import TheoremViolation

    # R = F2[x]/(x^2) is strongly C4*, so analyze decomposes it
    def violated(*args, **kwargs):
        raise TheoremViolation("summand leaked outside the module")
    monkeypatch.setattr(conditions, "decompose_strong", violated)
    result = runner.invoke(main, ["analyze", r2_file, "--ring"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "theorem violation: summand leaked outside the module\n"


def test_morita_theorem_violation_exits_1_with_one_line(runner, mixed_module_file,
                                                       monkeypatch):
    from c4lab import cli
    from c4lab.guards import TheoremViolation

    def violated(*args, **kwargs):
        raise TheoremViolation("endomorphism bridge is not bijective")
    monkeypatch.setattr(cli, "morita_pair_check", violated)
    result = runner.invoke(main, ["morita", mixed_module_file, "--matrix", "2"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "theorem violation: endomorphism bridge is not bijective\n"


@pytest.mark.parametrize("statuses, code", [
    (("pass", "partial"), 0),
    (("pass", "partial", "fail"), 1),
    (("fail", "partial"), 1),
])
def test_suite_exit_code_after_the_full_report(runner, monkeypatch, statuses, code):
    from c4lab import cli

    records = [{"name": f"check{i}", "status": s, "detail": ""}
               for i, s in enumerate(statuses)]
    monkeypatch.setattr(cli, "run_suite", lambda guards, name_filter: records)
    result = runner.invoke(main, ["suite"])
    assert result.exit_code == code
    assert result.output.splitlines()[-1].startswith(f"{len(records)} checks,")


R2_RAW = {"p": 2, "dim": 2, "labels": ["1", "x"], "one": [1, 0],
          "mul": [[0, 0, [1, 0]], [0, 1, [0, 1]], [1, 0, [0, 1]]]}


def _one_error_line(result, message):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output == f"error: {message}\n"


def test_an_entry_beyond_int64_is_reduced_then_checked(runner, tmp_path):
    # 2^64 + 1 reduces to x acting as 1, which x^2 = 0 forbids
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ring": R2_RAW, "dim": 1,
                                "action": [[[1]], [[2 ** 64 + 1]]]}))
    result = runner.invoke(main, ["analyze", str(path)])
    _one_error_line(result, f"{path}: action not multiplicative at ring basis "
                            "pair (i,j)=(1,1)")


def test_a_null_dimension_is_a_located_input_error(runner, tmp_path):
    path = tmp_path / "null.json"
    path.write_text(json.dumps({**R2_RAW, "dim": None}))
    result = runner.invoke(main, ["analyze", str(path), "--ring"])
    _one_error_line(result, f"{path}.dim: None is not an integer")


def test_a_top_level_array_is_a_located_input_error(runner, tmp_path):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([R2_RAW]))
    result = runner.invoke(main, ["analyze", str(path), "--ring"])
    _one_error_line(result, f"{path}: input file must hold a JSON object")


def test_a_non_integer_entry_is_a_located_input_error(runner, tmp_path):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({**R2_RAW, "mul": [[0, 0, [1, 0]], [0, 1, [0, 1.5]]]}))
    result = runner.invoke(main, ["analyze", str(path), "--ring"])
    _one_error_line(result, f"{path}.mul: 1.5 is not an integer")


def test_corner_coordinates_are_reduced_mod_p(runner, mixed_module_file):
    reduced = runner.invoke(main, ["morita", mixed_module_file, "--corner", "1,0"])
    huge = runner.invoke(main, ["morita", mixed_module_file,
                                "--corner", f"{2 ** 70 + 1},{-2 ** 66}"])
    assert reduced.exit_code == 0, reduced.output
    assert huge.output == reduced.output


def test_a_family_that_raises_is_one_error_record_and_the_others_still_run(
        runner, monkeypatch, tmp_path):
    from c4lab import suite
    from c4lab.guards import DEFAULT_GUARDS

    def broken(guards):
        raise ValueError("no such corpus module")
    families = (("essentiality", suite.criterion_essentiality),
                ("structural-invariants", broken),
                ("ring-level", suite.criterion_ring_level))
    others = [r for name, family in families if family is not broken
              for r in family(DEFAULT_GUARDS)]
    monkeypatch.setattr(suite, "FAMILIES", families)
    out = tmp_path / "suite.json"
    result = runner.invoke(main, ["suite", "--out", str(out)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == ("internal error: structural-invariants: "
                             "ValueError: no such corpus module\n")
    error = {"name": "structural-invariants", "status": "error",
             "detail": "ValueError: no such corpus module"}
    summary = json.loads(out.read_text())
    assert summary["checks"] == sorted(others + [error], key=lambda r: r["name"])
    assert (summary["total"], summary["failures"]) == (len(others) + 1, 1)
    assert "[ERROR  ] structural-invariants" in result.stdout


def test_an_unexpected_exception_exits_3_with_one_line(runner, r2_file, monkeypatch):
    from c4lab import conditions

    def broken(*args, **kwargs):
        raise KeyError("socle")
    monkeypatch.setattr(conditions, "decompose_strong", broken)
    result = runner.invoke(main, ["analyze", r2_file, "--ring"])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert result.output == "internal error: KeyError: 'socle'\n"
