import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import steinersynth
from steinersynth import cli, pipeline, verify
from steinersynth import emit_circuit, emit_graph, emit_matrix, random_invertible
from steinersynth.bench import (
    DEFAULT_GATE_PROBS,
    bench_architecture,
    bench_h_ratio,
    bench_sparseness,
    random_universal_circuit,
)
from steinersynth.circuits import Angle, Circuit, cnot, rz
from steinersynth.cli import main
from steinersynth.cnot_synth import SynthesisReport
from steinersynth.graphs import line_graph, random_connected_graph
from steinersynth.verify import Certificate


SMALL = dict(n=6, trials=2, seed=3, sparseness_values=(0.4, 1.0))


def test_bench_sparseness_deterministic_and_verified():
    a = bench_sparseness(**SMALL)
    b = bench_sparseness(**SMALL)
    assert a == b
    assert "# excluded_unverified 0" in a
    rows = [ln for ln in a.splitlines() if ln and not ln.startswith(("#", "sparseness"))]
    assert len(rows) == 4  # 2 buckets x 2 trials
    assert all(ln.endswith(",1") for ln in rows)


def test_bench_sparseness_cnot_rz_mode():
    out = bench_sparseness(**SMALL, mode="cnot_rz", support_terms=5)
    assert "# excluded_unverified 0" in out


def test_bench_sparseness_complete_graph_bucket():
    # At sparseness 1.0 template expansion adds nothing, so the baseline
    # column equals the bare partitioned-elimination count.
    from steinersynth.bench import baseline_pmh_templates
    from steinersynth.graphs import complete_graph
    from steinersynth.cnot_synth import _pmh_pairs

    a = random_invertible(6, 11)
    g = complete_graph(6)
    base = baseline_pmh_templates(a, g, cleanup=False)
    assert base.cnot_count == min(len(_pmh_pairs(a, w)) for w in (2, 3))


def test_bench_architecture_smoke():
    out = bench_architecture("tokyo20", [6, 10], trials=2, seed=5)
    assert out.splitlines()[0] == "size,trial,seed,constrained_cnots,baseline_cnots,verified"
    assert out == bench_architecture("tokyo20", [6, 10], trials=2, seed=5)


def test_bench_architecture_defaults_to_the_full_device():
    full = bench_architecture("line(5)", [5], trials=1, seed=2)
    assert bench_architecture("line(5)", None, trials=1, seed=2) == full
    res = CliRunner().invoke(main, ["bench", "arch", "--arch", "line(5)", "--trials", "1",
                                    "--seed", "2"])
    assert res.exit_code == 0, res.output
    assert res.output == full


@pytest.mark.parametrize("sizes", ["5,x", "x", "5,3.5"])
def test_cli_bench_arch_names_sizes_in_a_bad_size_list(monkeypatch, sizes):
    calls = []
    monkeypatch.setattr(pipeline, "run", lambda *args, **kw: calls.append(args))
    res = CliRunner().invoke(main, ["bench", "arch", "--arch", "line(5)", "--sizes", sizes])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output == (
        f"error: --sizes takes a comma-separated list of integers, got {sizes!r}\n"
    )
    assert calls == []


def test_bench_architecture_checks_every_size_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "run", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="size 99 out of range"):
        bench_architecture("tokyo20", [5, 99], trials=1, seed=1)
    res = CliRunner().invoke(main, ["bench", "arch", "--arch", "tokyo20", "--sizes", "5,99"])
    assert res.exit_code == 2
    assert res.output.startswith("error: size 99")
    assert calls == []


def test_bench_sparseness_rejects_an_unknown_mode_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "run", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="mode must be 'cnot' or 'cnot_rz'"):
        bench_sparseness(**SMALL, mode="typo")
    assert calls == []


def test_bench_architecture_rejects_an_unknown_mode_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "run", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="mode must be 'cnot' or 'cnot_rz'"):
        bench_architecture("tokyo20", [5], trials=1, seed=1, mode="CNOT")
    assert calls == []


def test_bench_h_ratio_rejects_an_h_share_above_the_cnot_room(monkeypatch):
    # The rotations take 0.04, so an H share of 0.99 would leave the CNOTs a
    # negative weight.
    calls = []
    monkeypatch.setattr(pipeline, "run", lambda *args, **kw: calls.append(args))
    for h_values in ((0.99,), (0.0, 0.99), (-0.1,)):
        with pytest.raises(ValueError, match=f"H share {h_values[-1]} is outside"):
            bench_h_ratio(line_graph(4), trials=1, seed=1, gate_count=10, h_values=h_values)
    assert calls == []


def test_bench_h_ratio_rejects_a_graph_too_small_for_a_cnot(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "run", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="graph has 1 node, and a CNOT needs 2"):
        bench_h_ratio(line_graph(1), trials=1, seed=1, gate_count=5)
    assert calls == []


def test_bench_h_ratio_smoke():
    kw = dict(trials=2, seed=7, gate_count=40, h_values=(0.0, 0.2))
    out = bench_h_ratio(line_graph(5), **kw)
    assert "# excluded_unverified 0" in out
    assert out == bench_h_ratio(line_graph(5), **kw)


def test_bench_h_ratio_marks_skipped_verification(monkeypatch):
    # Nine wires is above the dense unitary cap, and the path sums prove
    # every route: each row reads 1 and none is skipped.
    kw = dict(trials=2, seed=7, gate_count=30, h_values=(0.0, 0.1))
    out = bench_h_ratio(line_graph(9), **kw)
    lines = out.splitlines()
    assert [r.split(",")[-1] for r in lines[1:5]] == ["1"] * 4
    assert lines[-1] == "# unverified_skip 0"
    # With no path sum proven, a route with an RZ or H gets the
    # edge-legality check only, so its row reads skip, yet it still enters
    # the means.  Trial 1 at p_h=0 drew only CNOTs, so it is still compared
    # over GF(2) and reads 1.
    monkeypatch.setattr(verify, "_path_sum", lambda c: object())
    out = bench_h_ratio(line_graph(9), **kw)
    lines = out.splitlines()
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert [r.split(",")[-1] for r in rows] == ["skip", "1", "skip", "skip"]
    seed = int(rows[1].split(",")[2])
    probs = {**DEFAULT_GATE_PROBS, "h": 0.0, "cnot": 0.96}  # the suite's mix at p_h=0
    assert random_universal_circuit(9, 30, probs, seed).is_cnot_only()
    assert lines[-1] == "# unverified_skip 3"
    assert "# excluded_unverified 0" in lines
    assert sum(ln.startswith("# mean p_h=") and "constrained=" in ln for ln in lines) == 2


def test_cli_synth_cnot_roundtrip(tmp_path):
    runner = CliRunner()
    m = random_invertible(6, 9)
    matrix = tmp_path / "m.txt"
    matrix.write_text(emit_matrix(m))
    graph = tmp_path / "g.txt"
    graph.write_text(emit_graph(line_graph(6)))
    out = tmp_path / "c.txt"
    report = tmp_path / "r.json"
    res = runner.invoke(
        main,
        ["synth-cnot", "--matrix", str(matrix), "--graph", str(graph),
         "--out", str(out), "--report", str(report)],
    )
    assert res.exit_code == 0, res.output
    data = json.loads(report.read_text())
    assert data["counts"]["cnot"] == data["counts"]["total"]
    assert data["method"] == "steiner"

    # the emitted circuit verifies as equivalent to itself via the CLI
    res2 = runner.invoke(main, ["verify", str(out), str(out)])
    assert res2.exit_code == 0


def test_cli_synth_cnot_baseline_and_errors(tmp_path):
    runner = CliRunner()
    m = random_invertible(4, 2)
    matrix = tmp_path / "m.txt"
    matrix.write_text(emit_matrix(m))
    res = runner.invoke(
        main, ["synth-cnot", "--matrix", str(matrix), "--arch", "line(4)",
               "--baseline", "pmh"]
    )
    assert res.exit_code == 0, res.output
    res_bad = runner.invoke(
        main, ["synth-cnot", "--matrix", str(matrix), "--arch", "line(9)"]
    )
    assert res_bad.exit_code == 2


def test_cli_unwritable_output_paths_are_input_errors(tmp_path):
    # A path in a missing directory exits 2 with a message, not a traceback
    # and exit 1, which would read as a verification failure.
    matrix = tmp_path / "m.txt"
    matrix.write_text(emit_matrix(random_invertible(4, 2)))
    missing = str(tmp_path / "missing" / "x.txt")
    synth = ["synth-cnot", "--matrix", str(matrix), "--arch", "line(4)"]
    for args in (
        [*synth, "--out", missing],
        [*synth, "--report", missing],
        ["bench", "arch", "--arch", "line(4)", "--trials", "1", "--csv", missing],
    ):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, args
        assert isinstance(res.exception, SystemExit)
        assert res.output.splitlines()[-1].startswith("error: "), args
        assert "No such file or directory" in res.output


def test_cli_rejects_empty_graph_file(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("0 0\n")
    matrix = tmp_path / "m.txt"
    matrix.write_text("1\n")
    res = CliRunner().invoke(
        main, ["synth-cnot", "--matrix", str(matrix), "--graph", str(graph)]
    )
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "at least one node" in res.output


def test_cli_report_is_report_dict(tmp_path, monkeypatch):
    # --report writes SynthesisReport.to_dict() untouched.
    circuit = Circuit(2, (cnot(0, 1),))
    report = SynthesisReport(method="steiner", graph_name="line(2)", circuit=circuit)
    monkeypatch.setattr(cli, "run", lambda *args: (circuit, report, Certificate("gf2", True)))
    matrix = tmp_path / "m.txt"
    matrix.write_text(emit_matrix(random_invertible(2, 1)))
    path = tmp_path / "r.json"
    res = CliRunner().invoke(main, ["synth-cnot", "--matrix", str(matrix), "--arch", "line(2)",
                                    "--out", str(tmp_path / "c.txt"), "--report", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(path.read_text()) == report.to_dict()


def test_cli_verify_detects_difference(tmp_path):
    runner = CliRunner()
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(emit_circuit(Circuit(2, (cnot(0, 1),))))
    b.write_text(emit_circuit(Circuit(2, (cnot(1, 0),))))
    res = runner.invoke(main, ["verify", str(a), str(b)])
    assert res.exit_code == 1


def test_cli_verify_proves_a_9_wire_route_by_path_sum_and_says_not_proven(tmp_path):
    # Above the dense unitary cap a route is proven by path sum.  The
    # half-turn identity is unitary-equal to the empty circuit but has
    # another path sum: that is "not proven", an input error (exit 2),
    # in auto and pathsum mode alike, never a verification failure.
    runner = CliRunner()
    circ, out = tmp_path / "c.txt", tmp_path / "out.txt"
    circ.write_text(emit_circuit(random_universal_circuit(
        9, 200, {"cnot": 0.7, "t": 0.1, "s": 0.05, "sdg": 0.0, "tdg": 0.05, "h": 0.1}, 3)))
    res = runner.invoke(main, ["route", "--circuit", str(circ), "--arch", "line(9)",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["verify", str(circ), str(out)])
    assert res.exit_code == 0 and "mode=pathsum equivalent=True" in res.output
    half = Angle(1, 2)
    a, empty = tmp_path / "half.txt", tmp_path / "empty.txt"
    a.write_text(emit_circuit(Circuit(9, (rz(half, 0), rz(half, 1), cnot(0, 1), rz(half, 1),
                                          cnot(0, 1)))))
    empty.write_text(emit_circuit(Circuit(9)))
    for mode in ("auto", "pathsum"):
        res = runner.invoke(main, ["verify", "--mode", mode, str(a), str(empty)])
        assert res.exit_code == 2 and "not proven" in res.output, mode


def test_cli_synth_phase_from_files(tmp_path):
    runner = CliRunner()
    phase = tmp_path / "p.txt"
    phase.write_text("1100 1/8\n0110 3/4\n")
    matrix = tmp_path / "m.txt"
    matrix.write_text(emit_matrix(random_invertible(4, 5)))
    graph = tmp_path / "g.txt"
    graph.write_text(emit_graph(line_graph(4)))
    res = runner.invoke(
        main, ["synth-phase", "--phase", str(phase), "--matrix", str(matrix),
               "--graph", str(graph)]
    )
    assert res.exit_code == 0, res.output
    assert "rz" in res.output


def test_cli_synth_phase_rejects_a_circuit_with_phase_or_matrix_files(tmp_path):
    # The circuit would be the task and the other files ignored, even a
    # malformed phase file; the combination is an input error instead.
    c3, p3, m3 = (tmp_path / name for name in ("c3.txt", "p3.txt", "m3.txt"))
    c3.write_text(emit_circuit(Circuit(3, (cnot(0, 1),))))
    p3.write_text("not a phase file\n")
    m3.write_text(emit_matrix(random_invertible(3, 1)))
    for extra in (["--phase", str(p3)], ["--matrix", str(m3)],
                  ["--phase", str(p3), "--matrix", str(m3)]):
        res = CliRunner().invoke(
            main, ["synth-phase", "--circuit", str(c3), *extra, "--arch", "line(3)"]
        )
        assert res.exit_code == 2, (extra, res.output)
        assert isinstance(res.exception, SystemExit), extra
        assert res.output == "error: --circuit cannot be combined with --phase or --matrix\n"


def test_cli_route_and_arch(tmp_path):
    runner = CliRunner()
    circ = tmp_path / "c.txt"
    c = random_universal_circuit(
        5, 30, {"cnot": 0.7, "t": 0.1, "s": 0.05, "sdg": 0.0, "tdg": 0.05, "h": 0.1}, 3
    )
    circ.write_text(emit_circuit(c))
    graph = tmp_path / "g.txt"
    graph.write_text(emit_graph(line_graph(5)))
    res = runner.invoke(main, ["route", "--circuit", str(circ), "--graph", str(graph)])
    assert res.exit_code == 0, res.output

    res_list = runner.invoke(main, ["arch", "list"])
    assert "bristlecone72" in res_list.output
    res_show = runner.invoke(main, ["arch", "show", "tokyo20"])
    assert res_show.output.startswith("20 ")


def test_cli_bench_subcommands(tmp_path):
    runner = CliRunner()
    csv = tmp_path / "out.csv"
    res = runner.invoke(
        main, ["bench", "arch", "--arch", "line(5)", "--trials", "1", "--csv", str(csv)]
    )
    assert res.exit_code == 0, res.output
    assert csv.read_text().startswith("size,trial")


def test_cli_route_above_the_dense_check_width(tmp_path):
    # Nine wires is above the dense unitary check: only edges are checked,
    # and the command still succeeds and writes its report.
    circ = tmp_path / "c.txt"
    circ.write_text(emit_circuit(random_universal_circuit(
        9, 60, {"cnot": 0.7, "t": 0.1, "s": 0.05, "sdg": 0.0, "tdg": 0.05, "h": 0.1}, 4
    )))
    report = tmp_path / "r.json"
    res = CliRunner().invoke(
        main, ["route", "--circuit", str(circ), "--arch", "line(9)", "--report", str(report)]
    )
    assert res.exit_code == 0, res.output
    assert json.loads(report.read_text())["method"] == "route"


def test_cli_route_has_no_verify_width_option(tmp_path):
    # The dense-check width is a constant: the old option is a usage error,
    # not a traceback.
    circ = tmp_path / "c.txt"
    circ.write_text(emit_circuit(Circuit(9, (cnot(0, 1),))))
    res = CliRunner().invoke(
        main, ["route", "--circuit", str(circ), "--arch", "line(9)", "--verify-n-max", "9"]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "No such option" in res.output


def test_cli_bench_sparseness_rejects_bad_sizes():
    for args in (
        ["sparseness", "--trials", "0"],
        ["sparseness", "--n", "1", "--trials", "1"],
        ["arch", "--arch", "line(5)", "--trials", "0"],
        ["arch", "--arch", "line(5)", "--trials", "-2"],
    ):
        res = CliRunner().invoke(main, ["bench", *args])
        assert res.exit_code == 2, args
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ")


def test_cli_bench_h_ratio_rejects_a_negative_gate_count():
    res = CliRunner().invoke(main, ["bench", "h-ratio", "--n", "5", "--trials", "1", "--gates", "-5"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and "gate count" in res.output


def test_cli_bench_h_ratio_exits_2_when_no_connected_graph_is_drawn():
    args = ["bench", "h-ratio", "--n", "4", "--sparseness", "0.001", "--trials", "1", "--gates", "5"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: no connected graph after")


@pytest.mark.parametrize("extra", [["--n", "3"], ["--sparseness", "0.5"], ["--n", "20"],
                                   ["--n", "4", "--sparseness", "0.3"]])
def test_cli_bench_h_ratio_rejects_random_graph_options_with_arch(extra):
    # --n and --sparseness shape the random graph, which --arch replaces:
    # given together, even at their default values, they are a usage error.
    args = ["bench", "h-ratio", "--arch", "tokyo20", "--gates", "5", "--trials", "1", *extra]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: --") and "--arch" in res.output


def test_cli_bench_h_ratio_names_the_node_count_of_a_one_node_graph():
    res = CliRunner().invoke(main, ["bench", "h-ratio", "--arch", "line(1)", "--trials", "1"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output == "error: the graph has 1 node, and a CNOT needs 2\n"


def test_cli_bench_h_ratio_takes_arch_alone_and_random_graph_options_without_it():
    base = ["bench", "h-ratio", "--gates", "5", "--trials", "1"]
    res = CliRunner().invoke(main, [*base, "--arch", "line(5)"])
    assert res.exit_code == 0, res.output
    assert res.output == bench_h_ratio(line_graph(5), 1, 1, 5)
    for extra, g in (
        (["--n", "6"], random_connected_graph(6, 0.3, 1)),
        (["--n", "6", "--sparseness", "0.5"], random_connected_graph(6, 0.5, 1)),
    ):
        res = CliRunner().invoke(main, [*base, *extra])
        assert res.exit_code == 0, res.output
        assert res.output == bench_h_ratio(g, 1, 1, 5)


def test_cli_rejects_a_directory_for_every_input_file(tmp_path):
    # Each input path must name a file: a directory is a usage error (exit
    # 2) from click, not an IsADirectoryError traceback with exit 1, which
    # would read as a verification failure.
    m3, c3, p3, g3 = (tmp_path / name for name in ("m3.txt", "c3.txt", "p3.txt", "g3.txt"))
    m3.write_text(emit_matrix(random_invertible(3, 1)))
    c3.write_text(emit_circuit(Circuit(3, (cnot(0, 1),))))
    p3.write_text("110 1/8\n")
    g3.write_text(emit_graph(line_graph(3)))
    d = str(tmp_path)
    cases = {
        "synth-cnot --matrix": ["synth-cnot", "--matrix", d, "--arch", "line(3)"],
        "synth-cnot --graph": ["synth-cnot", "--matrix", str(m3), "--graph", d],
        "synth-phase --circuit": ["synth-phase", "--circuit", d, "--arch", "line(3)"],
        "synth-phase --phase": ["synth-phase", "--phase", d, "--matrix", str(m3), "--arch", "line(3)"],
        "synth-phase --matrix": ["synth-phase", "--phase", str(p3), "--matrix", d, "--arch", "line(3)"],
        "synth-phase --graph": ["synth-phase", "--circuit", str(c3), "--graph", d],
        "route --circuit": ["route", "--circuit", d, "--arch", "line(3)"],
        "route --graph": ["route", "--circuit", str(c3), "--graph", d],
        "verify a": ["verify", d, str(c3)],
        "verify b": ["verify", str(c3), d],
    }
    for case, args in cases.items():
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, (case, res.output)
        assert isinstance(res.exception, SystemExit), case
        assert "is a directory" in res.output, case
        assert "Traceback" not in res.output, case


def test_cli_exits_2_when_an_input_file_cannot_be_read(tmp_path, monkeypatch):
    # A read that fails (EIO, as reading /proc/self/mem does) is an input
    # error for every input file: exit 2 with an error line, not an OSError
    # traceback with exit 1, which would read as a verification failure.
    m3, c3, p3, g3 = (tmp_path / name for name in ("m3.txt", "c3.txt", "p3.txt", "g3.txt"))
    m3.write_text(emit_matrix(random_invertible(3, 1)))
    c3.write_text(emit_circuit(Circuit(3, (cnot(0, 1),))))
    p3.write_text("110 1/8\n")
    g3.write_text(emit_graph(line_graph(3)))
    bad = tmp_path / "eio.txt"
    bad.write_text("")
    read_text = Path.read_text

    def read_or_fail(path, *args, **kwargs):
        if path == bad:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_or_fail)
    d = str(bad)
    cases = {
        "synth-cnot --matrix": ["synth-cnot", "--matrix", d, "--arch", "line(3)"],
        "synth-cnot --graph": ["synth-cnot", "--matrix", str(m3), "--graph", d],
        "synth-phase --circuit": ["synth-phase", "--circuit", d, "--arch", "line(3)"],
        "synth-phase --phase": ["synth-phase", "--phase", d, "--matrix", str(m3), "--arch", "line(3)"],
        "synth-phase --matrix": ["synth-phase", "--phase", str(p3), "--matrix", d, "--arch", "line(3)"],
        "synth-phase --graph": ["synth-phase", "--circuit", str(c3), "--graph", d],
        "route --circuit": ["route", "--circuit", d, "--arch", "line(3)"],
        "route --graph": ["route", "--circuit", str(c3), "--graph", d],
        "verify a": ["verify", d, str(c3)],
        "verify b": ["verify", str(c3), d],
    }
    for case, args in cases.items():
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, (case, res.output)
        assert isinstance(res.exception, SystemExit), case
        assert res.output.startswith("error: "), (case, res.output)
        assert "Input/output error" in res.output, case
        assert "Traceback" not in res.output, case


def test_cli_leaves_a_closed_stdout_to_click(monkeypatch):
    # A broken pipe on stdout is an OSError but not an input error: click
    # exits 1 without an error line, as it does for any command.
    def closed_stdout(*args, **kwargs):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(cli, "emit_graph", closed_stdout)
    res = CliRunner().invoke(main, ["arch", "show", "tokyo20"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error:" not in res.output


def test_cli_rejects_a_singular_matrix(tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("3\n110\n110\n001\n")
    for extra in ([], ["--baseline", "pmh"], ["--baseline", "templates"]):
        res = CliRunner().invoke(
            main, ["synth-cnot", "--matrix", str(matrix), "--arch", "line(3)", *extra]
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "singular" in res.output


def test_cli_synth_phase_rejects_a_singular_matrix(tmp_path):
    phase, matrix = tmp_path / "p.txt", tmp_path / "m.txt"
    phase.write_text("110 1/8\n")
    matrix.write_text("3\n110\n110\n001\n")
    res = CliRunner().invoke(
        main, ["synth-phase", "--phase", str(phase), "--matrix", str(matrix), "--arch", "line(3)"]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "error: linear part must be invertible\n" in res.output


def test_cli_reports_a_task_of_another_width_in_one_message(tmp_path):
    # Every synthesis command leaves the width check to `run`, so each input
    # form exits 2 with the same message and no traceback.
    m3, c3, p3 = (tmp_path / name for name in ("m3.txt", "c3.txt", "p3.txt"))
    m3.write_text(emit_matrix(random_invertible(3, 1)))
    c3.write_text(emit_circuit(Circuit(3, (cnot(0, 1),))))
    p3.write_text("110 1/8\n")
    cases = {
        "synth-cnot": ["synth-cnot", "--matrix", str(m3)],
        "synth-phase --circuit": ["synth-phase", "--circuit", str(c3)],
        "synth-phase --phase": ["synth-phase", "--phase", str(p3), "--matrix", str(m3)],
        "route": ["route", "--circuit", str(c3)],
    }
    for case, args in cases.items():
        res = CliRunner().invoke(main, [*args, "--arch", "line(4)"])
        assert res.exit_code == 2, (case, res.output)
        assert isinstance(res.exception, SystemExit), case
        assert res.output == "error: task has 3 qubits but graph has 4 nodes\n", case


def test_cli_phase_file_with_a_zero_denominator_is_an_input_error(tmp_path):
    # Run as a process, so an uncaught exception would print its traceback.
    phase = tmp_path / "p.txt"
    phase.write_text("1100 1/0\n")
    matrix = tmp_path / "m.txt"
    matrix.write_text(emit_matrix(random_invertible(4, 5)))
    src = str(Path(steinersynth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-m", "steinersynth.cli", "synth-phase", "--phase", str(phase),
         "--matrix", str(matrix), "--arch", "line(4)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr
    assert "zero denominator" in res.stderr


@pytest.mark.parametrize("sizes, message", [
    ("3,,4", "--sizes item 2 of '3,,4' is empty"),
    (",3", "--sizes item 1 of ',3' is empty"),
    ("3,4,3", "size 3 is given twice"),
])
def test_cli_bench_arch_rejects_an_empty_or_repeated_size(monkeypatch, sizes, message):
    calls = []
    monkeypatch.setattr(pipeline, "run", lambda *args, **kw: calls.append(args))
    res = CliRunner().invoke(main, ["bench", "arch", "--arch", "line(5)", "--sizes", sizes])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"error: {message}\n"
    assert calls == []
    with pytest.raises(ValueError, match="^size 3 is given twice$"):
        bench_architecture("line(5)", [3, 3], trials=1, seed=1)
