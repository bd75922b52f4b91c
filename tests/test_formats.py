import dataclasses
import random
import re
from collections import Counter

import pytest
from click.testing import CliRunner

from steinersynth import BinaryMatrix, emit_circuit, parse_circuit, parse_matrix, verify_equivalence
from steinersynth.bench import random_universal_circuit
from steinersynth.circuits import (
    Angle, Circuit, CircuitFormatError, Gate, cnot, content_lines, h, rz,
)
from steinersynth.cli import main
from steinersynth.cnot_synth import expand_templates
from steinersynth.graphs import line_graph, parse_graph
from steinersynth.phase_synth import PhasePolynomial, parse_phase_polynomial
from steinersynth.verify import edge_legal


def test_parse_minimal():
    c = parse_circuit("qubits 2\ncnot 0 1\n")
    assert c == Circuit(2, (cnot(0, 1),))


def test_parse_aliases_to_rotations():
    c = parse_circuit("qubits 1\nt 0\ns 0\nsdg 0\ntdg 0\n")
    assert c.gates == (
        rz(Angle(1, 8), 0),
        rz(Angle(1, 4), 0),
        rz(Angle(3, 4), 0),
        rz(Angle(7, 8), 0),
    )


def test_parse_normalizes_angles():
    c = parse_circuit("qubits 1\nrz 9/8 0\nrz 2/4 0\n")
    assert c.gates == (rz(Angle(1, 8), 0), rz(Angle(1, 2), 0))


def test_angle_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        Angle(1, 0)
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit("qubits 1\nrz 1/0 0\n")
    assert err.value.lineno == 2


@pytest.mark.parametrize("kind, qubits, message", [
    ("cnot", (1, 1), "bad cnot wires (1, 1)"),
    ("rz", (0,), "rz needs one wire and an angle"),
    ("h", (0, 1), "h needs exactly one wire"),
    ("swap", (0, 1), "unknown gate kind 'swap'"),
], ids=["cnot-equal-wires", "rz-no-angle", "h-two-wires", "unknown-kind"])
def test_gate_rejects_a_malformed_gate(kind, qubits, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Gate(kind, qubits)


def test_angle_parses_an_integer_as_whole_turns():
    assert Angle.parse("3") == Angle(3) == Angle(0)


def test_angles_have_no_order():
    # A dataclass order would compare (numerator, denominator) tuples and
    # put 1/4 above 1/2.
    with pytest.raises(TypeError):
        Angle(1, 4) < Angle(1, 2)
    with pytest.raises(TypeError):
        sorted([Angle(1, 2), Angle(1, 4), Angle(3, 8)])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit("qubits 2\ncnot 0 5\n")
    assert err.value.lineno == 2
    with pytest.raises(CircuitFormatError):
        parse_circuit("cnot 0 1\n")
    with pytest.raises(CircuitFormatError):
        parse_circuit("qubits 2\nfoo 0\n")


@pytest.mark.parametrize("text, lineno, reason", [
    ("qubits 2\nqubits 2\n", 2, "duplicate qubits header"),
    ("qubits 0\n", 1, "qubit count must be positive"),
    ("", 0, "empty input: missing 'qubits n' header"),
], ids=["duplicate", "zero-qubits", "empty"])
def test_parse_rejects_a_repeated_empty_or_missing_header(text, lineno, reason):
    with pytest.raises(CircuitFormatError, match=f"^line {lineno}: {reason}$") as err:
        parse_circuit(text)
    assert err.value.lineno == lineno


@pytest.mark.parametrize("text", [
    "qubits 2\nh 1 0\n",
    "qubits 2\nrz 1/8 0 1\n",
    "qubits 2 7\n",
    "qubits 2\ncnot 0 1 1\n",
    "qubits 2\nt 0 1\n",
    "qubits 2\ncnot 0\n",
    "qubits\n",
])
def test_parse_rejects_a_line_with_the_wrong_token_count(text):
    # Extra tokens are an error, as in the graph, matrix and phase formats;
    # the bad line is the last one.
    with pytest.raises(CircuitFormatError, match="operand") as err:
        parse_circuit(text)
    assert err.value.lineno == text.count("\n")


def test_cli_reports_extra_tokens_as_an_input_error(tmp_path):
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 2\nh 1 0\n")
    res = CliRunner().invoke(main, ["route", "--circuit", str(circuit), "--arch", "line(2)"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output == "error: line 2: 'h' takes 1 operand(s), got 2 in 'h 1 0'\n"


def test_roundtrip_random_circuits():
    rng = random.Random(1)
    probs = {"cnot": 0.5, "s": 0.1, "t": 0.2, "sdg": 0.05, "tdg": 0.05, "h": 0.1}
    for trial in range(200):
        n = rng.randint(2, 9)
        c = random_universal_circuit(n, rng.randint(0, 40), probs, trial)
        assert parse_circuit(emit_circuit(c)) == c


def test_emit_is_canonical():
    text = "qubits 2\n\n# comment\n  cnot  0   1\nt 1\n"
    c = parse_circuit(text)
    canonical = emit_circuit(c)
    assert canonical == "qubits 2\ncnot 0 1\nrz 1/8 1\n"
    assert emit_circuit(parse_circuit(canonical)) == canonical


def test_verify_identical_circuits():
    c = parse_circuit("qubits 3\ncnot 0 1\ncnot 1 2\n")
    rep = verify_equivalence(c, c, "gf2")
    assert rep.equivalent and rep.deviation == 0.0


def test_verify_distinguishes_direction():
    a = Circuit(2, (cnot(0, 1),))
    b = Circuit(2, (cnot(1, 0),))
    assert not verify_equivalence(a, b, "gf2").equivalent
    assert not verify_equivalence(a, b, "unitary").equivalent


def test_verify_template_against_long_range():
    # Distance-3 relay ladder is unitarily identical to the bare CNOT.
    g = line_graph(4)
    bare = Circuit(4, (cnot(0, 3),))
    rep = verify_equivalence(bare, expand_templates(bare, g), "unitary")
    assert rep.equivalent
    assert rep.deviation < 1e-12


def test_verify_mode_errors():
    a = Circuit(1, (h(0),))
    with pytest.raises(ValueError):
        verify_equivalence(a, a, "gf2")
    big = Circuit(9)
    with pytest.raises(ValueError):
        verify_equivalence(big, big, "unitary")
    with pytest.raises(ValueError):
        verify_equivalence(a, Circuit(2), "unitary")


def test_parse_matrix_comments_anywhere():
    # '#' starts a comment anywhere on a line, indented or trailing.
    text = "# header\n2 # dimension\n  # note\n10 # x\n01\n"
    assert parse_matrix(text) == BinaryMatrix.identity(2)


def test_content_lines_is_the_comment_rule_of_every_format():
    text = "# header\n\nqubits 2 # wires\n   \n  cnot 0 1\n#cnot 1 0\n"
    assert content_lines(text) == [(3, "qubits 2"), (5, "cnot 0 1")]
    g = parse_graph("# g\n2 1 # n m\n\n0 1 # edge\n")
    assert (g.node_count, g.edges) == (2, line_graph(2).edges)


def test_parse_phase_polynomial_adds_terms_on_one_parity():
    text = "# terms\n1100 1/8\n\n0110 3/4  # second\n1100 1/8\n0011 1/2\n0011 1/2\n"
    assert parse_phase_polynomial(text, 4) == PhasePolynomial(
        4, {0b0011: Angle(1, 4), 0b0110: Angle(3, 4)}
    )


@pytest.mark.parametrize("line, reason", [
    ("1100", "expected 'bitstring num/den'"),
    ("1100 1/8 2", "expected 'bitstring num/den'"),
    ("110 1/8", "bitstring length != matrix dim 4"),
    ("11x0 1/8", "bad parity bitstring '11x0'"),
    ("0000 1/8", "zero parity cannot carry a phase term"),
    ("1100 1/0", "zero denominator"),
])
def test_parse_phase_polynomial_names_the_bad_line(line, reason):
    with pytest.raises(ValueError) as err:
        parse_phase_polynomial(f"# terms\n1000 1/4\n\n{line}\n", 4)
    assert str(err.value).startswith("line 4: ")
    assert reason in str(err.value)


@pytest.mark.parametrize("text, lineno, form", [
    ("x 1\n0 1\n", 1, "'n m'"),
    ("3\n", 1, "'n m'"),
    ("3 2 1\n0 1\n", 1, "'n m'"),
    ("3 2\n0 1\n1 x\n", 3, "'u v'"),
    ("# g\n3 2\n\n0 1  # edge\n1 2 0\n", 5, "'u v'"),
    ("3 2\n0\n1 2\n", 2, "'u v'"),
])
def test_parse_graph_names_the_bad_line(text, lineno, form):
    with pytest.raises(ValueError) as err:
        parse_graph(text)
    assert str(err.value).startswith(f"line {lineno}: expected {form}, two integers, got ")


@pytest.mark.parametrize("text, message", [
    ("2 2\n0 1\n1 0\n", "line 3: repeated edge (1,0)"),
    ("# g\n3 3\n0 1\n1 2  # edge\n\n0 1\n", "line 6: repeated edge (0,1)"),
    ("3 2\n0 1\n0 5\n", "line 3: edge (0,5) out of range for 3 nodes"),
    ("3 2\n-1 1\n1 2\n", "line 2: edge (-1,1) out of range for 3 nodes"),
    ("3 2\n0 1\n2 2\n", "line 3: self-loop at node 2"),
])
def test_parse_graph_names_the_bad_edge_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_graph(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("x\n01\n10\n", "line 1: expected 'n', the dimension, got 'x'"),
    ("2 2\n01\n10\n", "line 1: expected 'n', the dimension, got '2 2'"),
    ("2\n01\n02\n", "line 3: expected 2 characters of 0/1, got '02'"),
    ("# m\n2\n\n01  # row\n0\n", "line 5: expected 2 characters of 0/1, got '0'"),
    ("-1\n", "line 1: dimension must be positive, got -1"),
    ("# m\n0\n", "line 2: dimension must be positive, got 0"),
])
def test_parse_matrix_names_the_bad_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_matrix(text)
    assert str(err.value) == message


@pytest.mark.parametrize("option, text, message", [
    ("--graph", "3 2\n0 1\n1 x\n", "line 3: expected 'u v', two integers, got '1 x'"),
    ("--graph", "x 1\n0 1\n", "line 1: expected 'n m', two integers, got 'x 1'"),
    ("--graph", "3 3\n0 1\n1 2\n1 0\n", "line 4: repeated edge (1,0)"),
    ("--graph", "3 2\n0 1\n0 5\n", "line 3: edge (0,5) out of range for 3 nodes"),
    ("--graph", "3 2\n0 1\n1 1\n", "line 3: self-loop at node 1"),
    ("--matrix", "x\n", "line 1: expected 'n', the dimension, got 'x'"),
    ("--matrix", "3\n100\n010\n0011\n", "line 4: expected 3 characters of 0/1, got '0011'"),
])
def test_cli_graph_and_matrix_errors_name_their_line(tmp_path, option, text, message):
    # The exact output is one error line: no traceback, and the line named.
    inputs = {"--matrix": "3\n100\n010\n001\n", "--graph": "3 2\n0 1\n1 2\n", option: text}
    args = ["synth-cnot"]
    for opt, body in inputs.items():
        path = tmp_path / f"{opt[2:]}.txt"
        path.write_text(body)
        args += [opt, str(path)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"error: {message}\n"


def reference_depth(c: Circuit) -> int:
    """The running-maximum depth loop the faster Circuit.depth replaced."""
    frontier = [0] * c.num_qubits
    depth = 0
    for g in c.gates:
        layer = 1 + max(frontier[q] for q in g.qubits)
        for q in g.qubits:
            frontier[q] = layer
        depth = max(depth, layer)
    return depth


def test_depth_matches_the_reference_loop():
    rng = random.Random(17)
    assert Circuit(3).depth() == reference_depth(Circuit(3)) == 0
    for n in list(range(1, 9)) + [16, 20, 72]:
        for _ in range(6):
            gates = []
            for _ in range(rng.randrange(0, 4 * n + 10)):
                kind = rng.choice(["cnot", "rz", "h"] if n > 1 else ["rz", "h"])
                if kind == "cnot":
                    gates.append(cnot(*rng.sample(range(n), 2)))
                elif kind == "rz":
                    gates.append(rz(Angle(rng.randrange(8), 8), rng.randrange(n)))
                else:
                    gates.append(h(rng.randrange(n)))
            c = Circuit(n, tuple(gates))
            assert c.depth() == reference_depth(c), (n, c)


def test_gate_stores_list_wires_as_a_tuple():
    gate = Gate("cnot", [0, 2])
    assert gate.qubits == (0, 2)
    assert gate == cnot(0, 2) and hash(gate) == hash(cnot(0, 2))
    c = Circuit(4, (gate,))
    expanded = expand_templates(c, line_graph(4))
    assert expanded == expand_templates(Circuit(4, (cnot(0, 2),)), line_graph(4))
    assert len(expanded) == 4
    assert edge_legal(Circuit(4, (Gate("cnot", [1, 2]),)), line_graph(4))
    assert Gate("h", [3]).qubits == (3,)


def test_gate_rejects_an_angle_on_a_cnot_or_an_h():
    # Such a gate would emit and cancel as the gate without the angle, yet
    # compare unequal to it.
    for kind, qubits in (("cnot", (0, 1)), ("h", (0,))):
        with pytest.raises(ValueError, match=rf"^{kind} takes no angle$"):
            Gate(kind, qubits, Angle(1, 8))
    assert Gate("rz", (0,), Angle(1, 8)) == rz(Angle(1, 8), 0)


def test_circuit_names_the_first_bad_wire_in_circuit_order():
    # Wires are checked once per distinct wire tuple, in first-occurrence
    # order: a repeated bad gate, or a bad one late, gives the same error.
    bad = cnot(0, 7)
    with pytest.raises(ValueError, match=r"^wire 7 out of range for 3 qubits$"):
        Circuit(3, (cnot(0, 1), bad, h(0), bad, bad))
    other = h(9)
    with pytest.raises(ValueError, match=r"^wire 9 out of range for 3 qubits$"):
        Circuit(3, (cnot(0, 1), other, bad, other))
    with pytest.raises(ValueError, match=r"^wire 5 out of range for 3 qubits$"):
        Circuit(3, (cnot(5, 6),))
    shared = cnot(0, 1)
    with pytest.raises(ValueError, match=r"^wire 3 out of range for 3 qubits$"):
        Circuit(3, (shared,) * 5000 + (cnot(3, 0),) + (shared,) * 10)
    assert Circuit(3, (shared,) * 5000).gates == (shared,) * 5000


def test_gate_code_leaves_equality_hashing_and_repr_alone():
    gates = [cnot(0, 1), cnot(1, 0), h(3), rz(Angle(1, 8), 2), rz(Angle(3, 4), 2)]
    assert repr(gates[0]) == "Gate(kind='cnot', qubits=(0, 1), angle=None)"
    assert repr(gates[3]) == "Gate(kind='rz', qubits=(2,), angle=Angle(numerator=1, denominator=8))"
    for g in gates:
        assert hash(g) == hash((g.kind, g.qubits, g.angle))
        twin = Gate(g.kind, g.qubits, g.angle)
        object.__setattr__(twin, "_code", g._code + 4)
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
    assert len(set(gates)) == len(gates)
    assert [f.name for f in dataclasses.fields(Gate) if f.compare] == ["kind", "qubits", "angle"]
    with pytest.raises(TypeError):
        Gate("h", (0,), None, 2)


def test_circuit_rejects_negative_and_out_of_range_wires():
    for gate, wire in [(h(-1), -1), (cnot(-2, 1), -2), (rz(Angle(1, 4), 3), 3),
                       (cnot(0, 2**31), 2**31), (h(2**31 - 1), 2**31 - 1)]:
        with pytest.raises(ValueError, match=rf"^wire {wire} out of range for 3 qubits$"):
            Circuit(3, (cnot(0, 1), gate))


def test_circuit_rejects_a_non_positive_qubit_count():
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^qubit count must be positive, got {n}$"):
            Circuit(n)
        with pytest.raises(ValueError, match=rf"^qubit count must be positive, got {n}$"):
            Circuit(n, (h(0),))


def test_count_and_cnot_only_match_a_reference():
    rng = random.Random(41)
    probs = {"cnot": 0.5, "s": 0.1, "t": 0.1, "h": 0.3}
    for case in range(60):
        p = dict(probs, cnot=1.0) if case % 5 == 0 else probs
        c = random_universal_circuit(4, rng.randint(0, 40), p, rng.randrange(1 << 30))
        kinds = Counter(g.kind for g in c.gates)
        for kind in ("cnot", "rz", "h", "swap"):
            assert c.count(kind) == kinds[kind], (case, kind)
        assert c.cnot_count == kinds["cnot"]
        assert c.is_cnot_only() == all(g.kind == "cnot" for g in c.gates), case
    assert Circuit(2).is_cnot_only()
    assert not Circuit(2, (cnot(0, 1), h(1))).is_cnot_only()


@pytest.mark.parametrize("text, message", [
    ("3 -1\n", "line 1: edge count must be >= 0, got -1"),
    ("# g\n0 0\n", "line 2: graph needs at least one node, got 0"),
])
def test_parse_graph_names_a_bad_header_count(text, message):
    with pytest.raises(ValueError) as err:
        parse_graph(text)
    assert str(err.value) == message
