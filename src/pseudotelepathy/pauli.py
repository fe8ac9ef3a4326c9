"""Exact symbolic algebra for the n-qubit Pauli group.

Operators are stored in the symplectic representation: a phase (a power of
the imaginary unit) together with per-qubit X/Z bits, where qubit k carries

    I if (x_k, z_k) = (0, 0),    X if (1, 0),
    Z if (0, 1),                 Y if (1, 1),

and Y is the Hermitian Pauli matrix (not X*Z).  All arithmetic is integer
arithmetic mod 2 and mod 4; nothing in this module touches floating point,
so products, commutators, and observability checks are certificate-grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

_PHASE_STR = {0: "+", 1: "i", 2: "-", 3: "-i"}
_STR_PHASE = {"+": 0, "i": 1, "-": 2, "-i": 3, "+i": 1}
_AXIS_CHAR = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_CHAR_AXIS = {c: bits for bits, c in _AXIS_CHAR.items()}

_SINGLE_QUBIT_MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_DENSE_QUBITS = 8


class DimensionMismatch(ValueError):
    """Operands act on different numbers of qubits."""


class TooManyQubits(ValueError):
    """Dense matrix requested beyond the resource guard."""


class PauliParseError(ValueError):
    """Text form is not a signed Pauli word."""


@dataclass(frozen=True)
class PauliOperator:
    """An element of the n-qubit Pauli group.

    ``phase_exp`` is the exponent k of the global phase i**k, so the
    operator is i**k times a tensor product of Hermitian Pauli matrices.
    Observables are exactly the elements with real phase (k even).
    """

    n_qubits: int
    phase_exp: int
    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if len(self.x_bits) != self.n_qubits or len(self.z_bits) != self.n_qubits:
            raise ValueError("bit vectors must have length n_qubits")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError("phase exponent must be reduced mod 4")

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    def is_observable(self) -> bool:
        """Hermitian with M*M = I, i.e. real global phase."""
        return self.phase_exp % 2 == 0

    def is_identity(self) -> bool:
        return not any(self.x_bits) and not any(self.z_bits)

    def negate(self) -> "PauliOperator":
        return PauliOperator(self.n_qubits, (self.phase_exp + 2) % 4,
                             self.x_bits, self.z_bits)

    def transpose(self) -> "PauliOperator":
        """Symbolic transpose: Y is antisymmetric, I/X/Z are symmetric."""
        n_y = sum(x & z for x, z in zip(self.x_bits, self.z_bits))
        k = (self.phase_exp + 2 * (n_y % 2)) % 4
        return PauliOperator(self.n_qubits, k, self.x_bits, self.z_bits)

    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return sum(x | z for x, z in zip(self.x_bits, self.z_bits))

    def __str__(self) -> str:
        word = "".join(_AXIS_CHAR[x, z] for x, z in zip(self.x_bits, self.z_bits))
        return _PHASE_STR[self.phase_exp] + word

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"


def identity(n_qubits: int) -> PauliOperator:
    return PauliOperator(n_qubits, 0, (0,) * n_qubits, (0,) * n_qubits)


def from_string(text: str) -> PauliOperator:
    """Parse a signed Pauli word such as ``-XZY``, ``+IZ``, ``iX`` or ``XX``."""
    s = text.strip()
    phase_exp = 0
    for prefix in ("-i", "+i", "-", "+", "i"):
        if s.startswith(prefix):
            phase_exp = _STR_PHASE[prefix]
            s = s[len(prefix):]
            break
    if not s:
        raise PauliParseError(f"no Pauli word in {text!r}")
    try:
        axes = [_CHAR_AXIS[c] for c in s]
    except KeyError as bad:
        raise PauliParseError(f"invalid Pauli letter {bad.args[0]!r} in {text!r}") from None
    xs = tuple(a[0] for a in axes)
    zs = tuple(a[1] for a in axes)
    return PauliOperator(len(axes), phase_exp, xs, zs)


def _check_same_width(p: PauliOperator, q: PauliOperator):
    if p.n_qubits != q.n_qubits:
        raise DimensionMismatch(f"{p.n_qubits} qubits vs {q.n_qubits} qubits")


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Group product p*q with exact phase tracking.

    Per qubit, writing each Hermitian factor as i**(x*z) X**x Z**z and
    commuting Z past X picks up (-1)**(z_p * x_q); converting the result
    back to the Hermitian convention removes i**(x*z) of the product bits.
    """
    _check_same_width(p, q)
    k = p.phase_exp + q.phase_exp
    xs, zs = [], []
    for x1, z1, x2, z2 in zip(p.x_bits, p.z_bits, q.x_bits, q.z_bits):
        x, z = x1 ^ x2, z1 ^ z2
        k += x1 * z1 + x2 * z2 - x * z + 2 * z1 * x2
        xs.append(x)
        zs.append(z)
    return PauliOperator(p.n_qubits, k % 4, tuple(xs), tuple(zs))


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff the symplectic form sum(x_p z_q + z_p x_q) vanishes mod 2."""
    _check_same_width(p, q)
    form = sum(xp * zq + zp * xq for xp, zp, xq, zq
               in zip(p.x_bits, p.z_bits, q.x_bits, q.z_bits))
    return form % 2 == 0


def product_of(seq: Iterable[PauliOperator], n_qubits: int | None = None) -> PauliOperator:
    """Left-to-right product; the empty product is the identity.

    ``n_qubits`` is only needed to disambiguate the empty sequence.
    """
    ops = list(seq)
    if not ops:
        if n_qubits is None:
            raise ValueError("empty product needs an explicit qubit count")
        return identity(n_qubits)
    return reduce(multiply, ops)


def dense_matrix(p: PauliOperator) -> np.ndarray:
    """Exact 2^n x 2^n complex matrix, entries in {0, +-1, +-i} times the phase."""
    if p.n_qubits > MAX_DENSE_QUBITS:
        raise TooManyQubits(f"{p.n_qubits} qubits exceeds guard of {MAX_DENSE_QUBITS}")
    m = np.eye(1, dtype=complex)
    for x, z in zip(p.x_bits, p.z_bits):
        m = np.kron(m, _SINGLE_QUBIT_MATRIX[_AXIS_CHAR[x, z]])
    return p.phase * m


def state_action(p: PauliOperator) -> tuple[int, np.ndarray]:
    """Action on computational basis states, without building the dense matrix.

    Returns ``(flip_mask, coeffs)`` such that P|j> = coeffs[j] |j XOR flip_mask>.
    Bit 0 of an index corresponds to the last tensor factor.  The game
    samples on a stabilizer tableau; this serves the dense statevector that
    checks it.
    """
    n = p.n_qubits
    flip_mask = 0
    for pos, x in enumerate(p.x_bits):
        if x:
            flip_mask |= 1 << (n - 1 - pos)
    dim = 1 << n
    coeffs = np.full(dim, p.phase, dtype=complex)
    for pos, (x, z) in enumerate(zip(p.x_bits, p.z_bits)):
        bit = 1 << (n - 1 - pos)
        if x and z:  # Y|b> = i(-1)^b |1-b>
            js = np.arange(dim)
            coeffs *= np.where(js & bit, -1j, 1j)
        elif z:  # Z|b> = (-1)^b |b>
            js = np.arange(dim)
            coeffs *= np.where(js & bit, -1.0, 1.0)
    return flip_mask, coeffs

