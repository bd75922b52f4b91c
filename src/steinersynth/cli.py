"""Command-line interface.

The synthesis commands (synth-cnot, synth-phase, route) read their task and
share one body, `_synthesize`: load the graph, hand the task to
`pipeline.run`, which synthesizes, cleans up and certifies, and write the
outputs.  The bench commands call the suites in `bench`, which use the same
pipeline.  Every command body runs under one input-error rule (`_Main`), and
every output goes through one writer (`_write`).

Exit codes: 0 = success / verified, 1 = verification failure, 2 = bad input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import bench as bench_mod
from .circuits import emit_circuit, parse_circuit
from .gf2 import parse_matrix
from .graphs import (
    builtin_architecture,
    emit_graph,
    list_architectures,
    parse_graph,
    random_connected_graph,
)
from .phase_synth import SumOverPaths, extract_sum_over_paths, parse_phase_polynomial
from .pipeline import run
from .verify import UNITARY_QUBIT_CAP, verify_equivalence

INPUT_ERROR = 2
VERIFY_FAIL = 1
INPUT_FILE = click.Path(exists=True, dir_okay=False)  # a missing path or a directory exits 2


class _Main(click.Group):
    """The command group.  Every command below runs inside its `invoke`, so
    one rule covers them all: an OSError or ValueError (a file that cannot
    be read or written, a malformed input, a task that `run` rejects)
    prints `error: <message>` and exits 2.  A closed stdout is left to
    click."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(INPUT_ERROR)


def _options(*options):
    """An option group, declared once and applied as one decorator; the
    options are listed in `--help` in the order given."""

    def apply(f):
        for option in reversed(options):
            f = option(f)
        return f

    return apply


_NO_CLEANUP = click.option("--no-cleanup", is_flag=True,
                           help="skip the commute-and-cancel cleanup pass")
_SYNTHESIS_OPTIONS = _options(
    click.option("--graph", "graph_file", type=INPUT_FILE),
    click.option("--arch", type=str),
    click.option("--out", type=click.Path()),
    click.option("--report", "report_file", type=click.Path()),
    _NO_CLEANUP,
)
_BENCH_OPTIONS = _options(
    click.option("--seed", default=1, show_default=True),
    click.option("--csv", "csv_path", type=click.Path()),
    _NO_CLEANUP,
)


def _write(path: str | None, text: str) -> None:
    """Write one output (a circuit, a report or a CSV) to `path`, or to
    stdout when no path is given."""
    if path:
        Path(path).write_text(text)
    else:
        click.echo(text, nl=False)


def _synthesize(read_task, graph_file, arch, out, report_file, no_cleanup,
                method: str = "steiner") -> None:
    """The body of every synthesis command: load the graph, read the task
    (`read_task()`), run the pipeline, then write the circuit and report,
    or exit 1 when the result is not verified."""
    if (graph_file is None) == (arch is None):
        raise ValueError("provide exactly one of --graph or --arch")
    if graph_file is None:
        graph = builtin_architecture(arch)
    else:
        graph = parse_graph(Path(graph_file).read_text(), name=Path(graph_file).stem)
    circuit, report, certificate = run(read_task(), graph, method, not no_cleanup)
    if not certificate.ok:
        click.echo("verification FAILED", err=True)
        sys.exit(VERIFY_FAIL)
    _write(out, emit_circuit(circuit))
    if report_file:
        _write(report_file, json.dumps(report.to_dict(), indent=2) + "\n")


@click.group(cls=_Main)
def main():
    """Connectivity-aware CNOT / CNOT+RZ circuit synthesis."""


@main.command("synth-cnot")
@click.option("--matrix", "matrix_file", required=True, type=INPUT_FILE)
@click.option("--baseline", type=click.Choice(["pmh", "templates"]),
              help="synthesize ignoring connectivity (partitioned or plain "
                   "elimination) and expand long-range CNOTs afterwards")
@_SYNTHESIS_OPTIONS
def synth_cnot(matrix_file, baseline, **shared):
    """Synthesize an edge-legal CNOT circuit for a GF(2) matrix."""
    _synthesize(lambda: parse_matrix(Path(matrix_file).read_text()), **shared,
                method=baseline or "steiner")


@main.command("synth-phase")
@click.option("--circuit", "circuit_file", type=INPUT_FILE)
@click.option("--phase", "phase_file", type=INPUT_FILE)
@click.option("--matrix", "matrix_file", type=INPUT_FILE)
@_SYNTHESIS_OPTIONS
def synth_phase(circuit_file, phase_file, matrix_file, **shared):
    """Re-synthesize a CNOT+RZ circuit (or a phase file + matrix) edge-legally."""
    if circuit_file and (phase_file or matrix_file):
        raise ValueError("--circuit cannot be combined with --phase or --matrix")
    if not (circuit_file or (phase_file and matrix_file)):
        raise ValueError("provide --circuit or both --phase and --matrix")

    def read_task():
        if circuit_file:
            return extract_sum_over_paths(parse_circuit(Path(circuit_file).read_text()))
        linear = parse_matrix(Path(matrix_file).read_text())
        return SumOverPaths(parse_phase_polynomial(Path(phase_file).read_text(), linear.dim),
                            linear)

    _synthesize(read_task, **shared)


@main.command(
    "route",
    help="Route a {CNOT, RZ, H} circuit onto a coupling graph.  The output is "
    "compared with the input over GF(2) if CNOT-only, else by path sum at any "
    "width, then, when the path sums do not prove it, as a dense unitary up to "
    f"{UNITARY_QUBIT_CAP} wires; above that only edge legality is checked.",
)
@click.option("--circuit", "circuit_file", required=True, type=INPUT_FILE)
@_SYNTHESIS_OPTIONS
def route(circuit_file, **shared):
    _synthesize(lambda: parse_circuit(Path(circuit_file).read_text()), **shared)


@main.command("verify")
@click.argument("circuit_a", type=INPUT_FILE)
@click.argument("circuit_b", type=INPUT_FILE)
@click.option("--mode", type=click.Choice(["auto", "gf2", "pathsum", "unitary"]),
              default="auto")
def verify_cmd(circuit_a, circuit_b, mode):
    """Check two circuit files for equivalence.  A pair that no check
    proves, such as one whose path sums differ above the unitary cap, is
    "not proven" and exits 2, apart from a disproof (exit 1)."""
    a, b = (parse_circuit(Path(path).read_text()) for path in (circuit_a, circuit_b))
    rep = verify_equivalence(a, b, mode)
    click.echo(f"mode={rep.mode} equivalent={rep.equivalent} deviation={rep.deviation:.3e}")
    sys.exit(0 if rep.equivalent else VERIFY_FAIL)


@main.group("bench")
def bench_group():
    """Random benchmark suites (CSV output)."""


@bench_group.command("sparseness")
@click.option("--n", default=20, show_default=True)
@click.option("--trials", default=20, show_default=True)
@click.option("--mode", type=click.Choice(["cnot", "cnot_rz"]), default="cnot")
@_BENCH_OPTIONS
def bench_sparseness_cmd(n, trials, mode, seed, csv_path, no_cleanup):
    _write(csv_path, bench_mod.bench_sparseness(n, trials, seed, mode, cleanup=not no_cleanup))


@bench_group.command("arch")
@click.option("--arch", required=True)
@click.option("--sizes", default="",
              help="comma-separated list of integers; defaults to the full device")
@click.option("--trials", default=10, show_default=True)
@click.option("--mode", type=click.Choice(["cnot", "cnot_rz"]), default="cnot")
@_BENCH_OPTIONS
def bench_arch_cmd(arch, sizes, trials, mode, seed, csv_path, no_cleanup):
    items = sizes.split(",") if sizes else []
    if "" in items:
        raise ValueError(f"--sizes item {items.index('') + 1} of {sizes!r} is empty")
    try:
        size_list = [int(s) for s in items] or None
    except ValueError:
        raise ValueError(
            f"--sizes takes a comma-separated list of integers, got {sizes!r}"
        ) from None
    _write(csv_path, bench_mod.bench_architecture(
        arch, size_list, trials, seed, mode, cleanup=not no_cleanup))


@bench_group.command("h-ratio")
@click.option("--n", default=20, show_default=True)
@click.option("--gates", default=1000, show_default=True)
@click.option("--trials", default=5, show_default=True)
@click.option("--arch", default=None,
              help="named architecture, instead of a random graph of --n nodes")
@click.option("--sparseness", default=0.3, show_default=True)
@_BENCH_OPTIONS
def bench_h_ratio_cmd(n, gates, trials, arch, sparseness, seed, csv_path, no_cleanup):
    if arch:
        ctx = click.get_current_context()
        for name in ("n", "sparseness"):
            if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
                raise ValueError(
                    f"--{name} shapes the random graph and cannot be combined with --arch")
        g = builtin_architecture(arch)
    else:
        g = random_connected_graph(n, sparseness, seed)
    _write(csv_path, bench_mod.bench_h_ratio(g, trials, seed, gates, cleanup=not no_cleanup))


@main.group("arch")
def arch_group():
    """Built-in architecture helpers."""


@arch_group.command("list")
def arch_list():
    for name in list_architectures():
        click.echo(name)


@arch_group.command("show")
@click.argument("name")
def arch_show(name):
    click.echo(emit_graph(builtin_architecture(name)), nl=False)


if __name__ == "__main__":
    main()
