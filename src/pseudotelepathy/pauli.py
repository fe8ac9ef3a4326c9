"""Exact symbolic algebra for the n-qubit Pauli group.

Operators are stored in the symplectic representation: a phase (a power of
the imaginary unit) together with an X mask and a Z mask, two integers
whose bit k belongs to qubit k (the k-th letter of the word), which carries

    I if (x_k, z_k) = (0, 0),    X if (1, 0),
    Z if (0, 1),                 Y if (1, 1),

and Y is the Hermitian Pauli matrix (not X*Z).  The triple (x, z, phase)
is also a row of the game's stabilizer tableau, and :func:`multiply_rows`
is the one product rule for both.  All arithmetic is integer arithmetic
mod 2 and mod 4; nothing in this module touches floating point, so
products, commutators, and observability checks are certificate-grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

_PHASE_STR = {0: "+", 1: "i", 2: "-", 3: "-i"}
_STR_PHASE = {"+": 0, "i": 1, "-": 2, "-i": 3, "+i": 1}
_AXIS_CHAR = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_CHAR_AXIS = {c: bits for bits, c in _AXIS_CHAR.items()}

Row = tuple[int, int, int]  # x mask, z mask, phase exponent


class DimensionMismatch(ValueError):
    """Operands act on different numbers of qubits."""


class PauliParseError(ValueError):
    """Text form is not a signed Pauli word."""


@dataclass(frozen=True)
class PauliOperator:
    """An element of the n-qubit Pauli group.

    ``phase_exp`` is the exponent k of the global phase i**k, so the
    operator is i**k times a tensor product of Hermitian Pauli matrices.
    Observables are exactly the elements with real phase (k even).  Bit k
    of the masks ``x`` and ``z`` gives the letter on qubit k.
    """

    n_qubits: int
    phase_exp: int
    x: int
    z: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if not (0 <= self.x < 1 << self.n_qubits and 0 <= self.z < 1 << self.n_qubits):
            raise ValueError("masks must be nonnegative and fit in n_qubits bits")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError("phase exponent must be reduced mod 4")

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    def is_observable(self) -> bool:
        """Hermitian with M*M = I, i.e. real global phase."""
        return self.phase_exp % 2 == 0

    def negate(self) -> "PauliOperator":
        return PauliOperator(self.n_qubits, (self.phase_exp + 2) % 4, self.x, self.z)

    @property
    def row(self) -> Row:
        return self.x, self.z, self.phase_exp

    def transpose(self) -> "PauliOperator":
        """Symbolic transpose (:func:`transpose_row`)."""
        x, z, k = transpose_row(self.row)
        return PauliOperator(self.n_qubits, k, x, z)

    def __str__(self) -> str:
        return _PHASE_STR[self.phase_exp] + _letters(self)

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"


def _letters(p: PauliOperator) -> str:
    """The tensor factors as a word over I, X, Y, Z, qubit 0 first."""
    return "".join(_AXIS_CHAR[p.x >> k & 1, p.z >> k & 1] for k in range(p.n_qubits))


def identity(n_qubits: int) -> PauliOperator:
    return PauliOperator(n_qubits, 0, 0, 0)


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
    x = z = 0
    for k, c in enumerate(s):
        if c not in _CHAR_AXIS:
            raise PauliParseError(f"invalid Pauli letter {c!r} in {text!r}")
        x_k, z_k = _CHAR_AXIS[c]
        x |= x_k << k
        z |= z_k << k
    return PauliOperator(len(s), phase_exp, x, z)


def _check_same_width(p: PauliOperator, q: PauliOperator):
    if p.n_qubits != q.n_qubits:
        raise DimensionMismatch(f"{p.n_qubits} qubits vs {q.n_qubits} qubits")


def multiply_rows(p: Row, q: Row) -> Row:
    """Product p*q of two Paulis given as (x mask, z mask, phase exponent).

    Per qubit, writing each Hermitian factor as i**(x*z) X**x Z**z and
    commuting Z past X picks up (-1)**(z_p * x_q); converting the result
    back to the Hermitian convention removes i**(x*z) of the product bits.
    """
    x1, z1, k1 = p
    x2, z2, k2 = q
    x, z = x1 ^ x2, z1 ^ z2
    k = (k1 + k2 + (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x & z).bit_count()
         + 2 * (z1 & x2).bit_count())
    return x, z, k % 4


def transpose_row(p: Row) -> Row:
    """Transpose of a Pauli row: Y is antisymmetric, I/X/Z are symmetric."""
    x, z, k = p
    return x, z, (k + 2 * (x & z).bit_count()) % 4


def rows_commute(p: Row, q: Row) -> bool:
    """True iff the symplectic form sum(x_p z_q + z_p x_q) vanishes mod 2."""
    return not ((p[0] & q[1]) ^ (p[1] & q[0])).bit_count() & 1


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Group product p*q with exact phase tracking."""
    _check_same_width(p, q)
    x, z, k = multiply_rows(p.row, q.row)
    return PauliOperator(p.n_qubits, k, x, z)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """Whether p and q commute (:func:`rows_commute`)."""
    _check_same_width(p, q)
    return rows_commute(p.row, q.row)


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


def state_action(p: PauliOperator) -> tuple[int, list[complex]]:
    """Action on computational basis states, without building the dense matrix.

    Returns ``(flip, coeffs)`` such that P|j> = coeffs[j] |j XOR flip>.
    Bit 0 of an index corresponds to the last tensor factor.  The game
    samples on a stabilizer tableau; this serves the dense statevector that
    checks it.
    """
    n = p.n_qubits
    flip = 0
    coeffs = [p.phase] * (1 << n)
    for pos in range(n):
        bit = 1 << (n - 1 - pos)
        x, z = p.x >> pos & 1, p.z >> pos & 1
        flip |= bit * x
        if z:  # Y|b> = i(-1)^b |1-b>, Z|b> = (-1)^b |b>
            up = 1j if x else 1
            coeffs = [-c * up if j & bit else c * up for j, c in enumerate(coeffs)]
    return flip, coeffs
