"""Command-line front end: matrix generation, decomposition reports,
single-cell evaluation, and figure reproduction sweeps.

Exit codes: 0 success, 2 input error, 3 solver/runtime error, 4 acceptance
check failure.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from pathlib import Path

import click

from . import evaluation, flowlp, svg
from .demand import (
    GENERATOR_KINDS,
    DemandMatrix,
    NetworkParams,
    classify_uniform_residual,
    decompose_integer_residual,
    generate,
    load_csv,
    save_csv,
    validate_hose,
)
from .topology import synthesize_schedule

OUT_ENV_VAR = "RDCN_THROUGHPUT_OUT"

EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_ACCEPTANCE = 4

# The physical degrees fig4 sweeps, those up to n, and n itself; fig3 runs at --u.
FIG4_DEGREES = (4, 8, 12, 16)


class _Capacity(click.types.FloatParamType):
    def convert(self, value, param, ctx):
        c = super().convert(value, param, ctx)
        if not 0 < c < float("inf"):
            self.fail(f"link capacity must be finite and positive, got {c}", param, ctx)
        return c


def _outdir(out) -> Path:
    """The output directory, made if missing; a ValueError when it cannot be."""
    path = Path(out if out is not None else os.environ.get(OUT_ENV_VAR, "."))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot make output directory {path}: {exc.strerror}") from exc
    return path


def _require_writable(path: Path) -> None:
    """The OSError that writing `path` would raise for a directory there, or
    for a file or directory that forbids writing, raised now, without making
    the file."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def read_config(path) -> dict:
    """Flat `key = value` config file; '#' comments and blank lines ignored,
    a repeated key is a ValueError."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, raw = (part.strip() for part in text.partition("="))
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            values[key] = raw
    return values


CONFIG_KEYS = ("n", "u", "c", "seed", "jobs", "out")


def _apply_config(ctx, param, path):
    """Eager --config callback: the file's values become the command's defaults
    (ctx.default_map), so explicit flags still win. Each value is parsed and
    range-checked by its own option here, so an error names the file."""
    if path is None:
        return
    values = read_config(path)
    options = {opt.name: opt for opt in ctx.command.params}
    for key, raw in values.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        try:
            values[key] = options[key].type_cast_value(ctx, raw)
        except click.BadParameter as exc:
            raise ValueError(f"{path}: {exc.format_message()}") from None
    ctx.default_map = values


def fig4_degrees(n: int) -> list:
    """The degrees `reproduce fig4` sweeps at n: FIG4_DEGREES up to n, then n,
    where criterion 7 reads the two demand-aware classes."""
    degrees = [d for d in FIG4_DEGREES if d <= n]
    if not degrees:
        raise ValueError(f"fig4 sweeps the degrees {', '.join(map(str, FIG4_DEGREES))} "
                         f"up to n, and n={n} is below all of them")
    return degrees if n in degrees else degrees + [n]


class _Main(click.Group):
    """The CLI's one error boundary. A ValueError, or an OSError that names a
    file, is an input error (exit 2) and a SolverError a solver error (exit 3),
    each reported as one `error:` line on stderr. Any other exception, an
    OSError with no file among them, keeps click's handling or its traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, flowlp.SolverError) as exc:
            if isinstance(exc, OSError) and exc.filename is None:
                raise
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SOLVER if isinstance(exc, flowlp.SolverError) else EXIT_INPUT)


@click.group(cls=_Main)
def main():
    """Synthesize reconfigurable-datacenter topologies and compute LP throughput."""


@main.command()
@click.option("--kind", type=click.Choice(GENERATOR_KINDS), required=True)
@click.option("--n", type=int, default=16, show_default=True, help="ToR count.")
@click.option("--u", type=int, default=None, help="Links per ToR [default: n].")
@click.option("--c", type=_Capacity(), default=25e9, show_default=True,
              help="Link capacity (bits/s).")
@click.option("--alpha", type=float, default=None, help="Permutation share for --kind mix.")
@click.option("--shift", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help=f"Output dir [default: ${OUT_ENV_VAR} or .].")
@click.option("--name", default=None, help="Output file name [default: <kind>.csv].")
def gen(kind, n, u, c, alpha, shift, seed, out, name):
    """Generate a demand matrix CSV and print a hose-validation summary."""
    params = NetworkParams(n, u if u is not None else n, c)
    matrix = generate(kind, params, alpha=alpha, shift=shift, seed=seed)
    path = _outdir(out) / (name or f"{kind}.csv")
    comment = f"kind={kind} n={params.n} u={params.u} c={params.c:.17g} seed={seed}"
    comment += f" alpha={alpha}" if kind == "mix" else ""
    comment += f" shift={shift}" if kind in ("permutation", "mix") else ""
    save_csv(matrix, path, comment=comment)
    report = validate_hose(matrix, params)
    rows = matrix.row_sums()
    click.echo(f"wrote {path}: {params.n}x{params.n} matrix")
    click.echo(
        f"hose check vs c*u = {params.node_capacity:.6g}: "
        f"{'OK' if report.ok else f'{len(report.violations)} violations'}; "
        f"row sums in [{rows.min():.6g}, {rows.max():.6g}]"
    )
    if not report.ok:
        sys.exit(EXIT_INPUT)


@main.command()
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--c", type=_Capacity(), default=25e9, show_default=True,
              help="Link capacity (bits/s); the parts are in links of it.")
@click.option("--out", type=click.Path(), default=None)
def decompose(matrix_path, c, out):
    """Split a matrix into integer floor + residual parts and classify its residual."""
    dec = decompose_integer_residual(load_csv(matrix_path), c)
    cls = classify_uniform_residual(dec)
    stem = Path(matrix_path).stem
    outdir = _outdir(out)
    int_path = outdir / f"{stem}_int.csv"
    res_path = outdir / f"{stem}_res.csv"
    save_csv(DemandMatrix(dec.int_part), int_path)
    save_csv(DemandMatrix(dec.res_part), res_path)
    click.echo(f"wrote {int_path} and {res_path}")
    click.echo(f"uniform-residual class: {cls.value}")
    click.echo("row ratios: " + " ".join(f"{r:.4f}" for r in dec.row_ratios))
    click.echo("col ratios: " + " ".join(f"{r:.4f}" for r in dec.col_ratios))


@main.command(name="eval")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--class", "net_class", required=True,
              type=click.Choice(evaluation.NETWORK_CLASSES))
@click.option("--u", type=int, default=4, show_default=True)
@click.option("--c", type=_Capacity(), default=25e9, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trace", is_flag=True, help="Print the heuristic trace as JSON.")
@click.option("--emit-topo", is_flag=True, help="Write topology (and schedule) JSON.")
@click.option("--out", type=click.Path(), default=None)
def eval_cmd(matrix_path, net_class, u, c, seed, trace, emit_topo, out):
    """Compute throughput of one matrix on one network class.

    The build seed comes from --seed and the file's stem, as for a sweep cell
    of the same label (`reproduce --matrix-csv`).
    """
    m = load_csv(matrix_path)
    p = NetworkParams(m.n, u, c)
    with_schedule = net_class == "da-periodic" and p.n % p.u == 0
    if emit_topo:  # its files are checked before any solve, and made after
        outdir = _outdir(out)
        topo_path, sched_path = outdir / "topology.json", outdir / "schedule.json"
        for path in (topo_path, sched_path)[:1 + with_schedule]:
            _require_writable(path)
    cell = evaluation.evaluate_cell(m, p, net_class, seed=seed, label=Path(matrix_path).stem)
    click.echo(f"theta({net_class}, {Path(matrix_path).name}) = {cell.theta:.6g}")
    if trace and cell.trace is not None:
        click.echo(json.dumps(cell.trace.to_json_dict(), indent=2))
    if emit_topo:
        topo_path.write_text(json.dumps(cell.topology.to_json_dict(), indent=2) + "\n",
                             encoding="utf-8")
        click.echo(f"wrote {topo_path}")
        if net_class == "da-periodic" and not with_schedule:
            click.echo(f"note: no schedule.json: u={p.u} does not divide n={p.n}, so the "
                       "emulated graph has no switch schedule of period n/u", err=True)
        elif with_schedule:
            # the certifying build's schedule, as build_demand_aware_periodic lays it out
            schedule = synthesize_schedule(cell.topology, p.u, seed=cell.trace.seeds[-1])
            sched_path.write_text(json.dumps(schedule.to_json_dict(), indent=2) + "\n",
                                  encoding="utf-8")
            click.echo(f"wrote {sched_path}")


@main.command()
@click.argument("figure", type=click.Choice(("fig3", "fig4")))
@click.option("--n", type=int, default=16, show_default=True)
@click.option("--u", type=int, default=4, show_default=True,
              help="Degree for fig3 (fig4 sweeps 4, 8, 12, 16 up to n, and n).")
@click.option("--c", type=_Capacity(), default=25e9, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Concurrent solver instances.")
@click.option("--matrix-csv", multiple=True, type=click.Path(exists=True, dir_okay=False),
              help="Extra demand matrices to include in the suite (repeatable).")
@click.option("--out", type=click.Path(), default=None)
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              is_eager=True, expose_value=False, callback=_apply_config,
              help="Flat key=value config file (flags take precedence).")
def reproduce(figure, n, u, c, seed, jobs, matrix_csv, out):
    """Run the throughput-landscape sweeps, emit CSV/SVG, and check the landscape targets."""
    degrees = [u] if figure == "fig3" else fig4_degrees(n)
    p = NetworkParams(n, degrees[0], c)
    suite = evaluation.build_suite(p, csv_paths=matrix_csv)  # reads every --matrix-csv
    outdir = _outdir(out)  # after the inputs, before any solve
    csv_path, json_path, svg_path = (outdir / f"{figure}.{ext}" for ext in ("csv", "json", "svg"))
    for path in (csv_path, json_path, svg_path):  # claimed before any solve; "a" keeps old bytes
        open(path, "a", encoding="utf-8").close()
    result = evaluation.sweep_degree(p, degrees, seed=seed, jobs=jobs, csv_paths=matrix_csv)
    for matrix, net_class, degree, message in result.errors:
        click.echo(f"cell ({matrix}, {net_class}, u={degree}) failed: {message}", err=True)

    csv_path.write_text(result.to_csv_text(), encoding="utf-8")
    json_path.write_text(json.dumps(result.to_json_dict(), indent=2, allow_nan=False) + "\n",
                         encoding="utf-8")

    classes = evaluation.NETWORK_CLASSES
    if figure == "fig3":
        groups = [label for label, _ in suite]
        series = {cls: [result.theta(label, cls, u) for label in groups] for cls in classes}
        title = f"throughput per demand matrix (n={n}, u={u})"
    else:  # fig4's criteria compare worst cases only, and ignore the suite
        groups = result.degrees()
        series = {cls: [result.worst_case(cls, d)[0] for d in groups] for cls in classes}
        title = f"worst-case throughput per degree (n={n})"
    checks = evaluation.check_landscape(result, suite, p, figure=figure)
    svg_path.write_text(svg.grouped_bar_chart([str(g) for g in groups], series, title=title),
                        encoding="utf-8")
    click.echo(f"wrote {csv_path}, {json_path}, {svg_path}")

    failed = 0
    for criterion, ok, detail in checks:
        click.echo(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion.number}: {detail}")
        failed += 0 if ok else 1
    if result.errors:
        failed += len(result.errors)
        click.echo(f"[FAIL] {len(result.errors)} sweep cells errored")
    if failed:
        sys.exit(EXIT_ACCEPTANCE)


if __name__ == "__main__":
    main()
