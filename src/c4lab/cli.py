"""Command-line surface: analyze, morita, suite.

Exit codes follow guards.FAILURE_STATUS: 0 success; 1 a failed check (a
transport violation); 2 an input, validation or guard error; 3 any other
exception, an internal error.  A failure that ends a command prints one
line to stderr; `suite` prints its whole report and one stderr line per
internal error, then exits 3 if a check raised one and 1 if a check
failed.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import click

from .conditions import (CONDITION_NAMES, DEFAULT_RULE_ID, build_defect_report, ext_cell,
                         parse_condition)
from .guards import FAILURE_STATUS, failure_status
from .io import InputError, is_module_spec, load_guards, parse_module, parse_ring, read_json
from .modules import regular_module
from .morita import morita_pair_check
from .reports import (
    defect_report_dict,
    morita_report_dict,
    render_defect_report,
    render_morita_report,
    render_suite_report,
    suite_report_dict,
    write_structured,
)
from .suite import run_suite

import os


EXIT_ERROR = 2
# (exit code, stderr label) for each record status of guards.FAILURE_STATUS
EXITS = {"fail": (1, "theorem violation"), "partial": (EXIT_ERROR, "error"),
         "error": (3, "internal error")}


@contextmanager
def _exit_on(*errors):
    """Turn the given errors and every failure kind into a one-line
    message and an exit code."""
    try:
        yield
    except errors as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)
    except tuple(FAILURE_STATUS) as exc:
        status, detail = failure_status(exc)
        code, label = EXITS[status]
        click.echo(f"{label}: {detail}", err=True)
        sys.exit(code)


@click.group()
def main():
    """Finite-algebra verification workbench for C4-type conditions."""


def _load(path, ring_mode):
    data = read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: input file must hold a JSON object")
    base_dir = os.path.dirname(path) or "."
    if ring_mode and not is_module_spec(data):
        ring = parse_ring(data, where=path, base_dir=base_dir)
        return regular_module(ring)
    return parse_module(data, where=path, base_dir=base_dir)


def _parse_extensions(text):
    """The (m, d) cells of 'm,d;m,d', checked by the cell rule of --conditions."""
    grid = []
    for cell in (chunk.strip() for chunk in text.split(";")):
        if not cell:
            continue
        try:
            parts = [part.strip() for part in cell.split(",")]
            if len(parts) != 2:
                raise ValueError("expected 'm,d'")
            _, arity, depth, _ = ext_cell(*parts)
        except ValueError as exc:
            raise InputError(f"--extensions: cell {cell!r}: {exc}") from None
        grid.append((arity, depth))
    return tuple(grid) or ((2, 1),)


@main.command()
@click.argument("module_file", type=click.Path(exists=True))
@click.option("--ring", "ring_mode", is_flag=True,
              help="treat the input as a ring and analyze its regular module, "
                   "adding the right-ideal scan")
@click.option("--extensions", default="2,1", show_default=True,
              help="extension grid cells, 'm,d' pairs separated by ';'")
@click.option("--strict-chains/--non-strict-chains", default=True,
              show_default=True, help="depth chains use proper inclusions")
@click.option("--guards", "guards_path", type=click.Path(exists=True),
              default=None, help="guards file (fallback: $C4LAB_GUARDS)")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="write the structured report here")
def analyze(module_file, ring_mode, extensions, strict_chains, guards_path, out_path):
    """Full defect report for one module (or a ring's regular module)."""
    with _exit_on(InputError, ValueError):
        grid = _parse_extensions(extensions)
        guards = load_guards(guards_path)
        module = _load(module_file, ring_mode)
        report = build_defect_report(
            module, module_id=module.name, guards=guards, extension_grid=grid,
            strict_chains=strict_chains, ring_mode=ring_mode)
    click.echo(render_defect_report(report))
    if out_path:
        write_structured(out_path, defect_report_dict(report, guards, DEFAULT_RULE_ID))


def _parse_corner(text):
    """An idempotent index, or a list of coordinates if the text has a comma."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"--corner: expected an index or comma-separated integer "
                         f"coordinates, got {text!r}") from None
    return values if "," in text else values[0]


def _corner_idempotent(ring, corner, spec, guards):
    """The full idempotent that --corner names, checked before any
    progenerator is built."""
    from .algebra import idempotent_span_dim, idempotents
    if isinstance(corner, list):
        if len(corner) != ring.dim:
            raise InputError(f"--corner: expected {ring.dim} coordinates, got {len(corner)}")
        e = ring.element([c % ring.p for c in corner])
        if not e.is_idempotent():
            raise InputError(f"--corner: {spec!r} is not an idempotent")
    else:
        idems = idempotents(ring, guards.max_end_enumeration)
        if not 0 <= corner < len(idems):
            raise InputError(f"--corner: idempotent index {corner} out of range "
                             f"({len(idems)} idempotents)")
        e = idems[corner]
    span_dim = idempotent_span_dim(ring, e)
    if span_dim < ring.dim:
        raise InputError(f"--corner: idempotent {spec!r} is not full: "
                         f"span ReR has dimension {span_dim} < {ring.dim}")
    return e


@main.command()
@click.argument("module_file", type=click.Path(exists=True))
@click.option("--matrix", "matrix_n", type=int, default=None,
              help="compare against the rank-n free-power realization")
@click.option("--corner", "corner_spec", default=None,
              help="compare against the corner at this idempotent "
                   "(index into idempotents(R), or comma-separated coordinates)")
@click.option("--conditions", default=",".join(CONDITION_NAMES),
              show_default=True,
              help="comma-separated condition names and ext:m:d[:strict|nonstrict] cells")
@click.option("--guards", "guards_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def morita(module_file, matrix_n, corner_spec, conditions, guards_path, out_path):
    """Check condition agreement between a module and its transport."""
    if (matrix_n is None) == (corner_spec is None):
        click.echo("error: exactly one of --matrix or --corner is required", err=True)
        sys.exit(EXIT_ERROR)
    with _exit_on(InputError, ValueError):
        try:
            cond_list = tuple(parse_condition(name.strip())
                              for name in conditions.split(",") if name.strip())
        except ValueError as exc:
            raise InputError(f"--conditions: {exc}") from None
        if not cond_list:
            raise InputError("--conditions: no condition given")
        if matrix_n is not None and matrix_n < 1:
            raise InputError(f"--matrix: the rank must be >= 1, got {matrix_n}")
        corner = None if corner_spec is None else _parse_corner(corner_spec)
        guards = load_guards(guards_path)
        module = _load(module_file, ring_mode=False)
        if matrix_n is not None:
            realization = ("matrix", matrix_n)
        else:
            realization = ("corner", _corner_idempotent(module.ring, corner, corner_spec,
                                                        guards).coords)
        result = morita_pair_check(module.ring, realization, module,
                                   cond_list, guards=guards)
    click.echo(render_morita_report(result))
    if out_path:
        write_structured(out_path, morita_report_dict(result, guards))
    if result["violations"]:
        sys.exit(EXITS["fail"][0])


@main.command()
@click.option("--filter", "name_filter", default="", help="substring filter")
@click.option("--guards", "guards_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def suite(name_filter, guards_path, out_path):
    """Run the built-in verification suite."""
    with _exit_on(InputError):
        guards = load_guards(guards_path)
        results = run_suite(guards, name_filter)
    summary = suite_report_dict(results, guards)
    click.echo(render_suite_report(summary))
    if out_path:
        write_structured(out_path, summary)
    for r in results:
        if r["status"] == "error":
            click.echo(f"{EXITS['error'][1]}: {r['name']}: {r['detail']}", err=True)
    for status in ("error", "fail"):
        if any(r["status"] == status for r in results):
            sys.exit(EXITS[status][0])


if __name__ == "__main__":
    main()
