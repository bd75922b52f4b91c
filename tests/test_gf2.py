import random

import pytest

from steinersynth import (
    BinaryMatrix,
    SingularMatrixError,
    emit_matrix,
    invert,
    multiply,
    parse_matrix,
    random_invertible,
    rank,
    simulate_cnot_circuit,
)
from steinersynth.circuits import Angle, Circuit, cnot, h, rz


# The three elementary factors of a 3-CNOT product and the product itself.
PRODUCT_4X4 = BinaryMatrix.from_rows(
    [[1, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
)


def test_elementary_factors_compose_to_product():
    # Each CNOT's matrix is an elementary row addition; a later gate's
    # factor multiplies from the left.
    m = BinaryMatrix.identity(4)
    for gate in (cnot(0, 1), cnot(2, 3), cnot(3, 0)):
        m = multiply(simulate_cnot_circuit(Circuit(4, (gate,))), m)
    assert m == PRODUCT_4X4


def test_simulate_three_cnot_circuit():
    c = Circuit(4, (cnot(0, 1), cnot(2, 3), cnot(3, 0)))
    assert simulate_cnot_circuit(c) == PRODUCT_4X4


def test_simulate_empty_circuit():
    assert simulate_cnot_circuit(Circuit(4)) == BinaryMatrix.identity(4)


def test_simulate_self_inverse():
    c = Circuit(2, (cnot(0, 1), cnot(0, 1)))
    assert simulate_cnot_circuit(c).is_identity()


def test_simulate_rejects_non_cnot():
    with pytest.raises(ValueError):
        simulate_cnot_circuit(Circuit(2, (h(0),)))
    shared = cnot(0, 1)
    with pytest.raises(ValueError, match="non-CNOT gate 'rz'"):
        simulate_cnot_circuit(Circuit(2, (shared,) * 100 + (rz(Angle(1, 8), 1), shared)))


def test_simulate_concatenation_is_product():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 8)
        gates1 = tuple(cnot(*rng.sample(range(n), 2)) for _ in range(10))
        gates2 = tuple(cnot(*rng.sample(range(n), 2)) for _ in range(10))
        m1 = simulate_cnot_circuit(Circuit(n, gates1))
        m2 = simulate_cnot_circuit(Circuit(n, gates2))
        whole = simulate_cnot_circuit(Circuit(n, gates1 + gates2))
        assert whole == multiply(m2, m1)


def test_transpose_swaps_every_entry():
    # Widths on both sides of each power of two, where the packed square
    # the transpose works in changes size.
    rng = random.Random(11)
    for n in [*range(1, 18), 31, 32, 33, 63, 64, 65, 72, 129]:
        for _ in range(3):
            m = BinaryMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
            t = m.transpose()
            assert all(t.bit(j, i) == m.bit(i, j) for i in range(n) for j in range(n)), n
            assert t.transpose() == m


def test_invert_identity():
    assert invert(BinaryMatrix.identity(5)) == BinaryMatrix.identity(5)


def test_multiply_inverse_roundtrip():
    for seed in range(100):
        m = random_invertible(8, seed)
        assert multiply(m, invert(m)).is_identity()
        assert invert(invert(m)) == m


def test_from_rows_rejects_ragged_rows():
    # A short row is not padded with zeros: the first row whose length is
    # not the row count is named, short or long.
    with pytest.raises(ValueError, match="^row 1 has 1 entries, expected 2$"):
        BinaryMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match="^row 0 has 3 entries, expected 2$"):
        BinaryMatrix.from_rows([[1, 0, 0], [0, 1]])
    assert BinaryMatrix.from_rows([[1, 0], [1, 1]]).rows == (0b01, 0b11)


def test_rank_and_singularity():
    singular = BinaryMatrix.from_rows([[1, 1], [1, 1]])
    assert rank(singular) == 1
    with pytest.raises(SingularMatrixError) as err:
        invert(singular)
    assert err.value.pivot_column == 1


def test_random_invertible_properties():
    assert random_invertible(1, 0).to_lists() == [[1]]
    for seed in (0, 1, 2):
        m = random_invertible(9, seed)
        assert rank(m) == 9
        assert random_invertible(9, seed) == m


def test_matrix_text_roundtrip():
    m = random_invertible(7, 42)
    assert parse_matrix(emit_matrix(m)) == m


def test_parse_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_matrix("2\n01\n0")
    with pytest.raises(ValueError):
        parse_matrix("2\n01\n02\n")


def test_transpose_involution():
    for seed in range(10):
        m = random_invertible(11, seed)
        assert m.transpose().transpose() == m
