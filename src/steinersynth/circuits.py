"""Circuit, gate and angle types plus the line-based circuit text format.

Angles are exact rationals measured in full turns (1 turn = 2*pi), reduced
and normalized into [0, 1).  All phase bookkeeping in the package stays in
this exact representation; floats only appear when a dense unitary is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter, countOf


class CircuitFormatError(ValueError):
    """Malformed circuit text; carries the offending line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


@dataclass(frozen=True, order=True)
class Angle:
    """Exact rotation angle as a reduced fraction of a full turn in [0, 1)."""

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        if self.denominator == 0:
            raise ValueError(f"angle {self.numerator}/0 has a zero denominator")
        f = Fraction(self.numerator, self.denominator) % 1
        object.__setattr__(self, "numerator", f.numerator)
        object.__setattr__(self, "denominator", f.denominator)

    @classmethod
    def parse(cls, text: str) -> "Angle":
        if "/" in text:
            num, den = text.split("/", 1)
            return cls(int(num), int(den))
        return cls(int(text))

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def turns(self) -> float:
        return self.numerator / self.denominator

    def __add__(self, other: "Angle") -> "Angle":
        f = self.fraction + other.fraction
        return Angle(f.numerator, f.denominator)

    def __neg__(self) -> "Angle":
        f = -self.fraction
        return Angle(f.numerator, f.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


# Named z-rotations and their angles in turns.
NAMED_ANGLES = {
    "s": Angle(1, 4),
    "t": Angle(1, 8),
    "sdg": Angle(3, 4),
    "tdg": Angle(7, 8),
}


_WIRE_LIMIT = 1 << 31  # the wires an np.intc holds, as `Gate._code` packs them


@dataclass(frozen=True)
class Gate:
    """A gate over {CNOT, RZ, H}: kind is "cnot", "rz" or "h".

    For CNOT, qubits = (control, target); otherwise a single target wire.
    Any other sequence given for `qubits` is stored as a tuple, so every
    gate hashes.

    Construction also packs what a cleanup scan reads into one int,
    `_code`: the gate's wire pair (x, y), x in bits 32 and up and y as a
    32-bit two's complement below.  The pair is (control, target) for a
    CNOT, (q, q) for an H on q and (q, -1) for an RZ on q, so it alone
    identifies the kind: only an H has x == y and only an RZ has y == -1.
    A gate with a wire outside [0, 2**31) gets -1, which no decode
    accepts.  `_code` takes no part in equality, hashing or repr.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: Angle | None = None
    _code: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.qubits, tuple):
            object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.kind == "cnot":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"bad cnot wires {self.qubits}")
        elif self.kind == "rz":
            if len(self.qubits) != 1 or self.angle is None:
                raise ValueError("rz needs one wire and an angle")
        elif self.kind == "h":
            if len(self.qubits) != 1:
                raise ValueError("h needs exactly one wire")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        x, y = self.qubits[0], self.qubits[-1]
        if 0 <= x < _WIRE_LIMIT and 0 <= y < _WIRE_LIMIT:
            code = x << 32 | (0xFFFFFFFF if self.kind == "rz" else y)
        else:
            code = -1
        object.__setattr__(self, "_code", code)

    @property
    def control(self) -> int:
        assert self.kind == "cnot"
        return self.qubits[0]

    @property
    def target(self) -> int:
        return self.qubits[-1]


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def rz(angle: Angle, target: int) -> Gate:
    return Gate("rz", (target,), angle)


def h(target: int) -> Gate:
    return Gate("h", (target,))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed number of wires.

    The public constructor checks that `num_qubits` is positive and every
    gate's wires against it, and `parse_circuit` checks each line's, so
    every circuit that enters from outside the program is checked.
    Builders whose wires are in range by construction skip the re-check with
    `_unchecked`: `parse_circuit` once its lines are checked, cleanup (its
    survivors and merged RZs sit on its input's wires), the synthesizers
    and the matrix baselines' winner (its CNOTs are arcs of a graph
    with one node per wire of the task, a width checked on entry), the
    parity network and its views, and the route's H-reduced input,
    segments and output.  `expand_templates` skips it for a circuit at
    least as wide as its graph, whose CNOT wires it checks as graph nodes,
    and keeps it for a narrower one: a ladder can leave its wires.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"qubit count must be positive, got {self.num_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        # Each distinct wire tuple is checked once, in first-occurrence order,
        # so the error names the first bad wire: CNOTs on one edge repeat it.
        for qubits in dict.fromkeys(map(attrgetter("qubits"), self.gates)):
            for q in qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"wire {q} out of range for {self.num_qubits} qubits")

    @classmethod
    def _unchecked(cls, num_qubits: int, gates: tuple[Gate, ...]) -> "Circuit":
        """A circuit on a gate tuple whose wires are all in [0, num_qubits)
        by construction, built without `__post_init__`'s wire check."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "num_qubits", num_qubits)
        object.__setattr__(circuit, "gates", gates)
        return circuit

    def __len__(self) -> int:
        return len(self.gates)

    def count(self, kind: str) -> int:
        return countOf(map(attrgetter("kind"), self.gates), kind)

    @property
    def cnot_count(self) -> int:
        return self.count("cnot")

    def depth(self) -> int:
        """Number of layers when gates are greedily packed left."""
        frontier = [0] * self.num_qubits
        for g in self.gates:
            if len(g.qubits) == 2:
                a, b = g.qubits
                fa, fb = frontier[a], frontier[b]
                frontier[a] = frontier[b] = (fa if fa > fb else fb) + 1
            else:
                (a,) = g.qubits
                frontier[a] += 1
        return max(frontier, default=0)

    def extended(self, gates) -> "Circuit":
        return Circuit(self.num_qubits, self.gates + tuple(gates))

    def is_cnot_only(self) -> bool:
        return self.count("cnot") == len(self.gates)


def content_lines(text: str) -> list[tuple[int, str]]:
    """The lines of a text format that hold content, stripped, with their
    1-based numbers: `#` starts a comment, and blank lines are skipped."""
    return [(i, line) for i, raw in enumerate(text.splitlines(), 1)
            if (line := raw.split("#", 1)[0].strip())]


# Tokens on each line of the circuit format, the keyword included.
_LINE_TOKENS = {"qubits": 2, "cnot": 3, "rz": 3, "h": 2, **dict.fromkeys(NAMED_ANGLES, 2)}


def parse_circuit(text: str) -> Circuit:
    """Parse the line-based circuit format.

    Header "qubits n", then one gate per line: "cnot c t", "rz p/q t",
    "h t", or the rz aliases "s t", "t t", "sdg t", "tdg t".  Blank lines
    and '#' comments are ignored.  A line with more or fewer tokens than
    its keyword takes raises `CircuitFormatError`.
    """
    num_qubits = None
    gates: list[Gate] = []
    for lineno, line in content_lines(text):
        parts = line.split()
        op = parts[0].lower()
        want = _LINE_TOKENS.get(op)
        if want is not None and len(parts) != want:
            raise CircuitFormatError(
                lineno, f"{op!r} takes {want - 1} operand(s), got {len(parts) - 1} in {line!r}"
            )
        try:
            if op == "qubits":
                if num_qubits is not None:
                    raise CircuitFormatError(lineno, "duplicate qubits header")
                num_qubits = int(parts[1])
                if num_qubits < 1:
                    raise CircuitFormatError(lineno, "qubit count must be positive")
                continue
            if num_qubits is None:
                raise CircuitFormatError(lineno, "missing 'qubits n' header")
            if op == "cnot":
                g = cnot(int(parts[1]), int(parts[2]))
            elif op == "rz":
                g = rz(Angle.parse(parts[1]), int(parts[2]))
            elif op == "h":
                g = h(int(parts[1]))
            elif op in NAMED_ANGLES:
                g = rz(NAMED_ANGLES[op], int(parts[1]))
            else:
                raise CircuitFormatError(lineno, f"unknown gate {op!r}")
        except CircuitFormatError:
            raise
        except ValueError as exc:
            raise CircuitFormatError(lineno, f"cannot parse {line!r}: {exc}") from exc
        for q in g.qubits:
            if not 0 <= q < num_qubits:
                raise CircuitFormatError(lineno, f"wire {q} out of range (0..{num_qubits - 1})")
        gates.append(g)
    if num_qubits is None:
        raise CircuitFormatError(0, "empty input: missing 'qubits n' header")
    return Circuit._unchecked(num_qubits, tuple(gates))


def emit_circuit(c: Circuit) -> str:
    """Emit the canonical text form: normalized whitespace, reduced angles."""
    lines = [f"qubits {c.num_qubits}"]
    for g in c.gates:
        if g.kind == "cnot":
            lines.append(f"cnot {g.control} {g.target}")
        elif g.kind == "rz":
            lines.append(f"rz {g.angle} {g.target}")
        else:
            lines.append(f"h {g.target}")
    return "\n".join(lines) + "\n"
