"""Exact GF(2) linear algebra on packed bit rows.

Rows are stored as Python integers (bit j of rows[i] is entry (i, j)), so a
row XOR runs over machine words rather than per entry.  Matrices are
immutable; every operation returns a fresh value.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .circuits import Circuit, content_lines

_MATRIX_DRAWS = 1000  # random_invertible gives up after this many draws


def _bits(mask: int):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SingularMatrixError(ValueError):
    """Inversion failed; pivot_column is the first column without a pivot."""

    def __init__(self, pivot_column: int):
        super().__init__(f"matrix is singular: no pivot in column {pivot_column}")
        self.pivot_column = pivot_column


@functools.cache
def _transpose_swaps(side: int) -> tuple[tuple[int, int], ...]:
    """The (shift, mask) rounds that transpose a side x side bit square
    packed row-major into one int (entry (i, j) at bit i * side + j), for
    a power-of-two side.  The round for block side 2h moves entry (i, j)
    with bit h of j set and bit h of i clear to (i + h, j - h), h * (side
    - 1) bits up, and back; the mask marks those entries."""
    rounds = []
    h = side >> 1
    while h:
        row = sum(1 << j for j in range(side) if j & h)
        mask = sum(row << (i * side) for i in range(side) if not i & h)
        rounds.append((h * (side - 1), mask))
        h >>= 1
    return tuple(rounds)


@dataclass(frozen=True)
class BinaryMatrix:
    """Square GF(2) matrix; rows[i] packs row i with bit j = entry (i, j).

    The constructor checks the dimension, the row count and every row's
    width, so every matrix that enters from outside the program is
    checked.  Matrices built by row operations on checked matrices or on
    a checked circuit's wires (transposes, products, inverses, simulations,
    and the synthesizers' and the route's frames) fit by construction and
    skip the re-check with `_unchecked`.
    """

    dim: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.rows) != self.dim:
            raise ValueError("row count does not match dimension")
        mask = (1 << self.dim) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row has bits outside the matrix width")

    @classmethod
    def _unchecked(cls, dim: int, rows: tuple[int, ...]) -> "BinaryMatrix":
        """A matrix whose `dim` rows all lie in [0, 2**dim) by construction,
        built without `__post_init__`'s checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "dim", dim)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, bit_rows) -> "BinaryMatrix":
        """Build from an iterable of 0/1 row iterables.  Raises ValueError
        naming the first row whose length is not the row count."""
        rows = [list(row) for row in bit_rows]
        n = len(rows)
        for i, bits in enumerate(rows):
            if len(bits) != n:
                raise ValueError(f"row {i} has {len(bits)} entries, expected {n}")
        packed = (sum((1 if b else 0) << j for j, b in enumerate(bits)) for bits in rows)
        return cls(n, tuple(packed))

    def bit(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[self.bit(i, j) for j in range(self.dim)] for i in range(self.dim)]

    def transpose(self) -> "BinaryMatrix":
        """The transpose, by delta swaps on one int: the rows are packed
        into a square of side 2**k >= dim, row i at bit i * 2**k, and each
        round swaps the off-diagonal blocks of every block on the diagonal
        at once, halving the block side until it is one bit."""
        n = self.dim
        side = 1 << (n - 1).bit_length()
        packed = 0
        for i, r in enumerate(self.rows):
            packed |= r << (i * side)
        for shift, mask in _transpose_swaps(side):
            t = (packed ^ (packed >> shift)) & mask
            packed ^= t ^ (t << shift)
        full = (1 << n) - 1
        return BinaryMatrix._unchecked(n, tuple((packed >> (i * side)) & full for i in range(n)))

    def is_identity(self) -> bool:
        return all(r == 1 << i for i, r in enumerate(self.rows))

    def __str__(self) -> str:
        return "\n".join(
            "".join(str(self.bit(i, j)) for j in range(self.dim)) for i in range(self.dim)
        )


def simulate_cnot_circuit(c: Circuit) -> BinaryMatrix:
    """Fold the circuit's CNOTs as row ops starting from the identity.

    CNOT(control, target) is the row op row[target] ^= row[control]: the
    target wire's parity picks up the control wire's parity.
    """
    rows = [1 << i for i in range(c.num_qubits)]
    for g in c.gates:
        if g.kind != "cnot":
            raise ValueError(f"non-CNOT gate {g.kind!r} in linear simulation")
        control, target = g.qubits
        rows[target] ^= rows[control]
    return BinaryMatrix._unchecked(c.num_qubits, tuple(rows))


def _transposed_times_inverse(r: BinaryMatrix, gates) -> BinaryMatrix:
    """(R·B⁻¹)ᵀ for the linear map B of the CNOTs among `gates`: B⁻¹ is the
    CNOTs E_1, ..., E_m in order as the product E_1···E_m, so
    (R·B⁻¹)ᵀ = E_mᵀ···E_1ᵀ·Rᵀ, and the transpose of CNOT (c, t)'s row op
    is the row op (t, c)."""
    cols = list(r.transpose().rows)
    for gate in gates:
        if gate.kind == "cnot":
            c, t = gate.qubits
            cols[c] ^= cols[t]
    return BinaryMatrix._unchecked(r.dim, tuple(cols))


def multiply(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """GF(2) matrix product a @ b."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = []
    for r in a.rows:
        acc = 0
        row = r
        while row:
            j = (row & -row).bit_length() - 1
            acc ^= b.rows[j]
            row &= row - 1
        out.append(acc)
    return BinaryMatrix._unchecked(a.dim, tuple(out))


def _eliminate(
    rows: list[int], n: int, companion: list[int] | None, strict: bool = False
) -> int:
    """In-place forward elimination; returns rank.

    When companion is given, the same row ops are mirrored onto it
    (Gauss-Jordan, producing the inverse if rows started full-rank).  With
    strict, a column without a pivot raises SingularMatrixError naming it.
    """
    rank = 0
    for col in range(n):
        pivot = None
        for i in range(rank, n):
            if (rows[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            if strict:
                raise SingularMatrixError(col)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            if companion is not None:
                companion[rank], companion[pivot] = companion[pivot], companion[rank]
        span = range(n) if companion is not None else range(rank + 1, n)
        for i in span:
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
                if companion is not None:
                    companion[i] ^= companion[rank]
        rank += 1
    return rank


def rank(m: BinaryMatrix) -> int:
    return _eliminate(list(m.rows), m.dim, None)


def is_invertible(m: BinaryMatrix) -> bool:
    return rank(m) == m.dim


def check_invertible(m: BinaryMatrix) -> None:
    """Raise SingularMatrixError naming the first column without a pivot."""
    _eliminate(list(m.rows), m.dim, None, strict=True)


def invert(m: BinaryMatrix) -> BinaryMatrix:
    """Inverse over GF(2); raises SingularMatrixError with the failing column."""
    rows = list(m.rows)
    companion = [1 << i for i in range(m.dim)]
    _eliminate(rows, m.dim, companion, strict=True)
    return BinaryMatrix._unchecked(m.dim, tuple(companion))


def random_invertible(n: int, seed: int) -> BinaryMatrix:
    """Rejection-sample uniform bit matrices until one is invertible.

    Deterministic in (n, seed).  A uniform matrix is invertible with
    probability > 0.288, so the retry cap is never reached in practice.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    for _ in range(_MATRIX_DRAWS):
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        m = BinaryMatrix(n, rows)
        if is_invertible(m):
            return m
    raise RuntimeError(f"no invertible matrix after {_MATRIX_DRAWS} draws (n={n}, seed={seed})")


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the matrix text format: a line "n", then n rows of n '0'/'1'
    chars.  A bad dimension or row line raises `ValueError` naming its
    number."""
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty matrix file")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"line {lineno}: expected 'n', the dimension, got {head!r}") from None
    if n < 1:
        raise ValueError(f"line {lineno}: dimension must be positive, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        if len(line) != n or set(line) - {"0", "1"}:
            raise ValueError(f"line {lineno}: expected {n} characters of 0/1, got {line!r}")
        rows.append(sum((line[j] == "1") << j for j in range(n)))
    return BinaryMatrix(n, tuple(rows))


def emit_matrix(m: BinaryMatrix) -> str:
    return f"{m.dim}\n{m}\n"
