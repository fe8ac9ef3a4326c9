"""Symbolic Pauli algebra checked against exact dense-matrix arithmetic."""

import itertools
import random

import numpy as np
import pytest

from helpers import TooManyQubits, dense_matrix, is_identity
from pseudotelepathy.pauli import (
    DimensionMismatch,
    PauliOperator,
    PauliParseError,
    commutes,
    from_string,
    identity,
    multiply,
    product_of,
    state_action,
)


def random_pauli(rng, n):
    return PauliOperator(
        n,
        rng.randrange(4),
        sum(rng.randrange(2) << k for k in range(n)),
        sum(rng.randrange(2) << k for k in range(n)),
    )


def every_pauli(n):
    """All 4**n words on n qubits, each with all four phases."""
    return [PauliOperator(n, k, x, z)
            for k, x, z in itertools.product(range(4), range(1 << n), range(1 << n))]


class TestOperator:
    def test_rejects_wide_or_negative_x_and_z(self):
        for x, z in ((4, 0), (0, 4), (-1, 0), (0, -1), (1 << 40, 0)):
            with pytest.raises(ValueError, match="masks"):
                PauliOperator(2, 0, x, z)
        assert str(PauliOperator(2, 0, 3, 2)) == "+XY"

    def test_phase_and_width_checked(self):
        for k in (-1, 4):
            with pytest.raises(ValueError, match="phase"):
                PauliOperator(1, k, 0, 0)
        with pytest.raises(ValueError, match="qubit"):
            PauliOperator(0, 0, 0, 0)

    def test_qubit_k_is_bit_k(self):
        p = from_string("-XZYI")
        assert (p.x, p.z, p.phase_exp) == (0b0101, 0b0110, 2)


class TestMultiply:
    def test_single_qubit_table(self):
        # X*Y = iZ and friends: the defining relations of the group.
        assert str(multiply(from_string("X"), from_string("Y"))) == "iZ"
        assert str(multiply(from_string("Y"), from_string("X"))) == "-iZ"
        assert str(multiply(from_string("Y"), from_string("Z"))) == "iX"
        assert str(multiply(from_string("Z"), from_string("X"))) == "iY"
        assert str(multiply(from_string("X"), from_string("Z"))) == "-iY"

    def test_disjoint_supports(self):
        assert str(multiply(from_string("XI"), from_string("IX"))) == "+XX"

    def test_observable_squares_to_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_pauli(rng, rng.randrange(1, 4))
            if not p.is_observable():
                p = PauliOperator(p.n_qubits, 0, p.x, p.z)
            sq = multiply(p, p)
            assert is_identity(sq) and sq.phase_exp == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multiply(from_string("X"), from_string("XX"))

    def test_every_two_qubit_product_matches_dense(self):
        ops = every_pauli(2)
        dense = {p: dense_matrix(p) for p in ops}
        assert len(ops) == 64
        for p, q in itertools.product(ops, repeat=2):
            np.testing.assert_array_equal(dense[multiply(p, q)], dense[p] @ dense[q])

    def test_associative_and_matches_dense(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randrange(1, 4)
            p, q, r = (random_pauli(rng, n) for _ in range(3))
            assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
            np.testing.assert_array_equal(
                dense_matrix(multiply(p, q)), dense_matrix(p) @ dense_matrix(q)
            )


class TestCommutes:
    def test_basic(self):
        assert not commutes(from_string("X"), from_string("Z"))
        assert commutes(from_string("XX"), from_string("ZZ"))
        assert commutes(from_string("-iYZX"), identity(3))

    def test_matches_dense_commutator(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randrange(1, 4)
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            mp, mq = dense_matrix(p), dense_matrix(q)
            assert commutes(p, q) == bool(np.array_equal(mp @ mq, mq @ mp))


class TestProductOf:
    def test_three_term_identity(self):
        ops = [from_string(s) for s in ("XI", "IX", "XX")]
        assert product_of(ops) == identity(2)

    def test_empty_product(self):
        assert product_of([], n_qubits=2) == identity(2)
        with pytest.raises(ValueError):
            product_of([])

    def test_xzxz(self):
        ops = [from_string(s) for s in ("X", "Z", "X", "Z")]
        assert product_of(ops) == identity(1).negate()


class TestDense:
    def test_z(self):
        np.testing.assert_array_equal(dense_matrix(from_string("Z")), np.diag([1, -1]))

    def test_identity_two_qubits(self):
        np.testing.assert_array_equal(dense_matrix(identity(2)), np.eye(4))

    def test_yy_is_real_antidiagonal(self):
        m = dense_matrix(from_string("YY"))
        assert np.array_equal(m.imag, np.zeros((4, 4)))
        np.testing.assert_array_equal(m, np.fliplr(np.diag([-1, 1, 1, -1])))

    def test_observables_hermitian_and_involutive(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_pauli(rng, rng.randrange(1, 4))
            m = dense_matrix(p)
            if p.is_observable():
                np.testing.assert_array_equal(m, m.conj().T)
                np.testing.assert_array_equal(m @ m, np.eye(2 ** p.n_qubits))

    def test_qubit_guard(self):
        with pytest.raises(TooManyQubits):
            dense_matrix(identity(9))


class TestTranspose:
    def test_examples(self):
        assert str(from_string("Y").transpose()) == "-Y"
        assert str(from_string("XZ").transpose()) == "+XZ"
        assert str(from_string("-XYY").transpose()) == "-XYY"

    def test_matches_dense(self):
        rng = random.Random(5)
        for _ in range(200):
            p = random_pauli(rng, rng.randrange(1, 4))
            np.testing.assert_array_equal(dense_matrix(p.transpose()), dense_matrix(p).T)

    def test_preserves_structure(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(1, 4)
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            assert p.is_observable() == p.transpose().is_observable()
            assert commutes(p, q) == commutes(p.transpose(), q.transpose())
            lhs = product_of([p, q]).transpose()
            rhs = product_of([q.transpose(), p.transpose()])
            assert lhs == rhs


class TestText:
    def test_roundtrip(self):
        for text in ("+XZY", "-XZ", "iX", "-iYZ", "+I"):
            assert str(from_string(text)) in (text, "+" + text.lstrip("+"))
            assert from_string(str(from_string(text))) == from_string(text)

    def test_emits_explicit_sign(self):
        assert str(from_string("XX")) == "+XX"

    def test_rejects_garbage(self):
        for bad in ("", "+", "XQ", "1X", "-i"):
            with pytest.raises(PauliParseError):
                from_string(bad)


class TestStateAction:
    def test_matches_dense_matvec(self):
        rng = random.Random(17)
        np_rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.randrange(1, 4)
            p = random_pauli(rng, n)
            vec = np_rng.normal(size=2 ** n) + 1j * np_rng.normal(size=2 ** n)
            flip, coeffs = state_action(p)
            out = np.zeros_like(vec)
            out[np.arange(2 ** n) ^ flip] = coeffs * vec
            np.testing.assert_allclose(out, dense_matrix(p) @ vec, atol=1e-12)

    def test_exhaustive_two_qubits(self):
        for p in every_pauli(2):
            flip, coeffs = state_action(p)
            assert all(type(c) is complex for c in coeffs)
            m = np.zeros((4, 4), dtype=complex)
            for j in range(4):
                m[j ^ flip, j] = coeffs[j]
            np.testing.assert_array_equal(m, dense_matrix(p))
