"""Command-line interface.

The synthesis commands (synth-cnot, synth-phase, route) parse their inputs
and hand the task to `pipeline.run`, which synthesizes, cleans up and
certifies; the bench commands call the suites in `bench`, which use the
same pipeline.

Exit codes: 0 = success / verified, 1 = verification failure, 2 = bad input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import bench as bench_mod
from .circuits import Angle, Circuit, emit_circuit, parse_circuit
from .gf2 import parse_matrix
from .graphs import (
    builtin_architecture,
    emit_graph,
    list_architectures,
    parse_graph,
    random_connected_graph,
)
from .phase_synth import PhasePolynomial, SumOverPaths, extract_sum_over_paths, parity_from_bits
from .pipeline import run
from .verify import UNITARY_QUBIT_CAP, verify_equivalence

INPUT_ERROR = 2
VERIFY_FAIL = 1
INPUT_FILE = click.Path(exists=True, dir_okay=False)  # a missing path or a directory exits 2


def _fail_input(msg: str) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(INPUT_ERROR)


def _load_graph(graph_file: str | None, arch: str | None):
    if (graph_file is None) == (arch is None):
        _fail_input("provide exactly one of --graph or --arch")
    try:
        if graph_file is not None:
            return parse_graph(Path(graph_file).read_text(), name=Path(graph_file).stem)
        return builtin_architecture(arch)
    except (OSError, ValueError) as exc:
        _fail_input(str(exc))


def _finish(task, graph, method: str, cleanup: bool, out: str | None,
            report_file: str | None) -> None:
    """Run the pipeline; write the circuit and report, or exit 1 unverified.
    A task that `run` rejects (another width, a singular matrix) exits 2."""
    try:
        circuit, report, certificate = run(task, graph, method, cleanup)
    except ValueError as exc:
        _fail_input(str(exc))
    if not certificate.ok:
        click.echo("verification FAILED", err=True)
        sys.exit(VERIFY_FAIL)
    _write_outputs(circuit, report, out, report_file)


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is an input error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _fail_input(str(exc))


def _write_outputs(circuit: Circuit, report, out: str | None, report_file: str | None) -> None:
    text = emit_circuit(circuit)
    if out:
        _write(out, text)
    else:
        click.echo(text, nl=False)
    if report_file:
        _write(report_file, json.dumps(report.to_dict(), indent=2) + "\n")


@click.group()
def main():
    """Connectivity-aware CNOT / CNOT+RZ circuit synthesis."""


@main.command("synth-cnot")
@click.option("--matrix", "matrix_file", required=True, type=INPUT_FILE)
@click.option("--graph", "graph_file", type=INPUT_FILE)
@click.option("--arch", type=str)
@click.option("--baseline", type=click.Choice(["pmh", "templates"]),
              help="synthesize ignoring connectivity (partitioned or plain "
                   "elimination) and expand long-range CNOTs afterwards")
@click.option("--out", type=click.Path())
@click.option("--report", "report_file", type=click.Path())
@click.option("--no-cleanup", is_flag=True, help="skip the cancel pass")
def synth_cnot(matrix_file, graph_file, arch, baseline, out, report_file, no_cleanup):
    """Synthesize an edge-legal CNOT circuit for a GF(2) matrix."""
    g = _load_graph(graph_file, arch)
    try:
        a = parse_matrix(Path(matrix_file).read_text())
    except (OSError, ValueError) as exc:
        _fail_input(str(exc))
    _finish(a, g, baseline or "steiner", not no_cleanup, out, report_file)


def _load_phase_file(path: str, n: int) -> PhasePolynomial:
    terms = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            _fail_input(f"{path}:{lineno}: expected 'bitstring num/den'")
        if len(parts[0]) != n:
            _fail_input(f"{path}:{lineno}: bitstring length != matrix dim {n}")
        try:
            mask = parity_from_bits(parts[0])
            angle = Angle.parse(parts[1])
        except ValueError as exc:
            _fail_input(f"{path}:{lineno}: {exc}")
        terms[mask] = terms.get(mask, Angle(0)) + angle
    return PhasePolynomial(n, terms)


@main.command("synth-phase")
@click.option("--circuit", "circuit_file", type=INPUT_FILE)
@click.option("--phase", "phase_file", type=INPUT_FILE)
@click.option("--matrix", "matrix_file", type=INPUT_FILE)
@click.option("--graph", "graph_file", type=INPUT_FILE)
@click.option("--arch", type=str)
@click.option("--out", type=click.Path())
@click.option("--report", "report_file", type=click.Path())
@click.option("--no-cleanup", is_flag=True)
def synth_phase(circuit_file, phase_file, matrix_file, graph_file, arch, out,
                report_file, no_cleanup):
    """Re-synthesize a CNOT+RZ circuit (or a phase file + matrix) edge-legally."""
    if circuit_file and (phase_file or matrix_file):
        _fail_input("--circuit cannot be combined with --phase or --matrix")
    g = _load_graph(graph_file, arch)
    try:
        if circuit_file:
            target = extract_sum_over_paths(parse_circuit(Path(circuit_file).read_text()))
        elif phase_file and matrix_file:
            linear = parse_matrix(Path(matrix_file).read_text())
            phase = _load_phase_file(phase_file, linear.dim)
            target = SumOverPaths(phase, linear)
        else:
            _fail_input("provide --circuit or both --phase and --matrix")
    except ValueError as exc:
        _fail_input(str(exc))
    _finish(target, g, "steiner", not no_cleanup, out, report_file)


@main.command(
    "route",
    help="Route a {CNOT, RZ, H} circuit onto a coupling graph.  The output is "
    "compared with the input over GF(2) if CNOT-only, else as a dense unitary "
    f"up to {UNITARY_QUBIT_CAP} wires; above that only edge legality is checked.",
)
@click.option("--circuit", "circuit_file", required=True, type=INPUT_FILE)
@click.option("--graph", "graph_file", type=INPUT_FILE)
@click.option("--arch", type=str)
@click.option("--out", type=click.Path())
@click.option("--report", "report_file", type=click.Path())
@click.option("--no-cleanup", is_flag=True)
def route(circuit_file, graph_file, arch, out, report_file, no_cleanup):
    g = _load_graph(graph_file, arch)
    try:
        c = parse_circuit(Path(circuit_file).read_text())
    except ValueError as exc:
        _fail_input(str(exc))
    _finish(c, g, "steiner", not no_cleanup, out, report_file)


@main.command("verify")
@click.argument("circuit_a", type=INPUT_FILE)
@click.argument("circuit_b", type=INPUT_FILE)
@click.option("--mode", type=click.Choice(["auto", "gf2", "unitary"]), default="auto")
def verify_cmd(circuit_a, circuit_b, mode):
    """Check two circuit files for equivalence."""
    try:
        a = parse_circuit(Path(circuit_a).read_text())
        b = parse_circuit(Path(circuit_b).read_text())
        rep = verify_equivalence(a, b, mode)
    except ValueError as exc:
        _fail_input(str(exc))
    click.echo(f"mode={rep.mode} equivalent={rep.equivalent} deviation={rep.deviation:.3e}")
    sys.exit(0 if rep.equivalent else VERIFY_FAIL)


@main.group("bench")
def bench_group():
    """Random benchmark suites (CSV output)."""


def _emit_csv(text: str, csv_path: str | None) -> None:
    if csv_path:
        _write(csv_path, text)
    else:
        click.echo(text, nl=False)


@bench_group.command("sparseness")
@click.option("--n", default=20, show_default=True)
@click.option("--trials", default=20, show_default=True)
@click.option("--seed", default=1, show_default=True)
@click.option("--mode", type=click.Choice(["cnot", "cnot_rz"]), default="cnot")
@click.option("--csv", "csv_path", type=click.Path())
@click.option("--no-cleanup", is_flag=True)
def bench_sparseness_cmd(n, trials, seed, mode, csv_path, no_cleanup):
    try:
        text = bench_mod.bench_sparseness(n, trials, seed, mode, cleanup=not no_cleanup)
    except ValueError as exc:
        _fail_input(str(exc))
    _emit_csv(text, csv_path)


@bench_group.command("arch")
@click.option("--arch", required=True)
@click.option("--sizes", default="", help="comma list; defaults to the full device")
@click.option("--trials", default=10, show_default=True)
@click.option("--seed", default=1, show_default=True)
@click.option("--mode", type=click.Choice(["cnot", "cnot_rz"]), default="cnot")
@click.option("--csv", "csv_path", type=click.Path())
@click.option("--no-cleanup", is_flag=True)
def bench_arch_cmd(arch, sizes, trials, seed, mode, csv_path, no_cleanup):
    try:
        g = builtin_architecture(arch)
        size_list = [int(s) for s in sizes.split(",") if s] or [g.node_count]
        text = bench_mod.bench_architecture(
            arch, size_list, trials, seed, mode, cleanup=not no_cleanup
        )
    except ValueError as exc:
        _fail_input(str(exc))
    _emit_csv(text, csv_path)


@bench_group.command("h-ratio")
@click.option("--n", default=20, show_default=True)
@click.option("--gates", default=1000, show_default=True)
@click.option("--trials", default=5, show_default=True)
@click.option("--seed", default=1, show_default=True)
@click.option("--arch", default=None,
              help="named architecture, instead of a random graph of --n nodes")
@click.option("--sparseness", default=0.3, show_default=True)
@click.option("--csv", "csv_path", type=click.Path())
@click.option("--no-cleanup", is_flag=True)
def bench_h_ratio_cmd(n, gates, trials, seed, arch, sparseness, csv_path, no_cleanup):
    if arch:
        ctx = click.get_current_context()
        for name in ("n", "sparseness"):
            if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
                _fail_input(f"--{name} shapes the random graph and cannot be combined with --arch")
    try:
        if arch:
            g = builtin_architecture(arch)
        else:
            g = random_connected_graph(n, sparseness, seed)
        text = bench_mod.bench_h_ratio(g, trials, seed, gates, cleanup=not no_cleanup)
    except ValueError as exc:
        _fail_input(str(exc))
    _emit_csv(text, csv_path)


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
    try:
        g = builtin_architecture(name)
    except ValueError as exc:
        _fail_input(str(exc))
    click.echo(emit_graph(g), nl=False)


if __name__ == "__main__":
    main()
