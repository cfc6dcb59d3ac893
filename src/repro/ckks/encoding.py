"""CKKS encoding: packing complex vectors into ring elements.

CKKS packs ``N/2`` complex numbers into one polynomial through the canonical
embedding: the polynomial evaluated at the primitive ``2N``-th roots of unity
``zeta^(5^j)`` yields the slot values.  Encoding is the inverse map followed by
scaling by Delta and rounding; because the evaluation points come in conjugate
pairs, the resulting coefficients are real integers.

The embedding is never materialised as a matrix above tiny rings.  Writing
the evaluation exponent ``5^j = 2 t_j + 1`` splits ``zeta^(5^j k)`` into a
*twist* ``zeta^k`` and a plain DFT kernel ``omega^(t_j k)`` (``omega =
zeta^2``), so the whole map is one length-``N`` FFT between two length-``N``
tables: decode is ``N * ifft(m * zeta^k)`` gathered at the positions ``t_j``,
encode scatters the conjugate-extended slot vector to those positions, runs
one ``fft`` and multiplies by ``zeta^-k / N``.  That is the same special-FFT
structure :mod:`repro.ckks.bootstrapping` evaluates homomorphically, here in
``O(N log N)`` time and ``O(N)`` memory -- encoding *is* on the request path
(``linear_square`` encodes twice per request, every client encodes and
decodes), so it has to be.  Rings with ``N <=``
:data:`DENSE_EMBEDDING_MAX_DEGREE` keep the explicit Vandermonde product
(:func:`embedding_matrix`, at most 256 KiB) as a base case -- see the constant
for why; the same matrix is the independent oracle the FFT path is tested
against.

The module also hosts the slot-space utilities the diagonal linear-transform
engine builds on: generalized-diagonal extraction, the slot-rotation
convention, and the slot bit-reversal permutation the sparse FFT factors of
bootstrapping produce their output in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ckks.ciphertext import Plaintext
from repro.ckks.params import CkksParameters
from repro.diagnostics import BoundedLruCache, register_cache_group
from repro.errors import ParameterError
from repro.numtheory.crt import RnsBasis
from repro.poly.rns_poly import RnsPolynomial

#: Bound on cached plaintext encodings per encoder (each entry is one RNS
#: polynomial); diagonal-heavy transforms stay far below it in practice.
_ENCODE_CACHE_LIMIT = 4096
_ENCODE_CACHE_GROUP = register_cache_group("encoder.encode")

#: Largest ring degree whose encoder multiplies by the dense Vandermonde
#: matrix instead of running the FFT.  At these sizes the two cost the same
#: (38 vs 39 us at N=64), and the thread-mode serving latencies on the N=64
#: ring were measured to depend on the dense product: its ``zgemv`` is the one
#: call on that request path that enters OpenBLAS's threaded section, which
#: hands the GIL to the other server threads (ROADMAP, known debts).
DENSE_EMBEDDING_MAX_DEGREE = 128


def rotate_slots(vector: np.ndarray, steps: int) -> np.ndarray:
    """Rotate a slot vector exactly as ``CkksEvaluator.rotate`` does.

    ``rotate(ct, s)`` maps slot ``j`` to the value previously at slot
    ``j + s`` (a left rotation), i.e. ``np.roll(z, -s)``.  Every plaintext
    mirror of a homomorphic rotation must use this helper so the sign
    convention lives in one place.
    """
    return np.roll(np.asarray(vector), -int(steps))


def matrix_diagonals(
    matrix: np.ndarray, tol: float = 1e-12
) -> dict[int, np.ndarray]:
    """Extract the non-zero generalized diagonals of a square slot matrix.

    Diagonal ``k`` holds ``d_k[j] = M[j, (j + k) mod n]`` so that
    ``M @ x == sum_k d_k * rotate_slots(x, k)`` -- the form the diagonal
    linear-transform engine evaluates homomorphically.  Diagonals whose
    largest entry magnitude is at most ``tol`` are dropped.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {matrix.shape}")
    size = matrix.shape[0]
    rows = np.arange(size)
    diagonals: dict[int, np.ndarray] = {}
    for k in range(size):
        diagonal = matrix[rows, (rows + k) % size]
        if np.abs(diagonal).max() > tol:
            diagonals[k] = diagonal
    return diagonals


def matrix_from_diagonals(
    diagonals: dict[int, np.ndarray], size: int
) -> np.ndarray:
    """Rebuild the dense slot matrix from its generalized diagonals."""
    matrix = np.zeros((size, size), dtype=np.complex128)
    rows = np.arange(size)
    for k, diagonal in diagonals.items():
        matrix[rows, (rows + int(k)) % size] = np.asarray(diagonal, dtype=np.complex128)
    return matrix


def constant_coefficients(value: complex, scale: float, degree: int) -> np.ndarray:
    """Signed plaintext coefficients encoding ``value`` into every slot.

    A constant ``a + ib`` corresponds to ``round(a * scale)`` in coefficient
    0 and ``round(b * scale)`` in coefficient ``N/2``: ``x^(N/2)`` evaluates
    to ``+i`` at every slot point ``zeta^(5^j)`` because ``5^j = 1 mod 4``.
    Shared by :meth:`CkksEncoder.encode_constant` and
    :meth:`repro.ckks.evaluator.CkksEvaluator.add_scalar` so the convention
    lives in one place.
    """
    value = complex(value)
    coefficients = np.zeros(degree, dtype=np.int64)
    coefficients[0] = int(round(value.real * scale))
    coefficients[degree // 2] = int(round(value.imag * scale))
    return coefficients


def slot_exponents(degree: int) -> np.ndarray:
    """Evaluation exponents of all ``N`` slot points, conjugates last.

    Entry ``j < N/2`` is ``5^j mod 2N`` (the standard rotation group) and
    entry ``j + N/2`` its conjugate point ``2N - 5^j``; together they are
    every odd residue modulo ``2N`` exactly once.
    """
    slots = degree // 2
    exponents = np.empty(degree, dtype=np.int64)
    power = 1
    for j in range(slots):
        exponents[j] = power
        exponents[j + slots] = (2 * degree) - power
        power = (power * 5) % (2 * degree)
    return exponents


def embedding_matrix(degree: int) -> np.ndarray:
    """The dense canonical embedding ``V[j, k] = zeta^(e_j * k)`` (``N x N``).

    ``sigma(m)_j = sum_k m_k V[j, k]`` over the points of
    :func:`slot_exponents`; ``conj(V.T) / N`` is its inverse.  ``16 N^2``
    bytes, so only small rings (and tests, as the oracle) build it.
    """
    points = np.exp(1j * np.pi / degree) ** slot_exponents(degree).astype(np.float64)
    return np.vander(points, N=degree, increasing=True)


def embedding_tables(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The two length-``N`` tables of the FFT form of the embedding.

    ``positions[j] = (e_j - 1) / 2`` is the DFT bin of slot point ``j`` (a
    permutation of ``range(N)``) and ``twist[k] = zeta^k``.
    """
    positions = (slot_exponents(degree) - 1) // 2
    twist = np.exp(1j * np.pi * np.arange(degree) / degree)
    return positions, twist


def fft_embedding(
    coeffs: np.ndarray, positions: np.ndarray, twist: np.ndarray
) -> np.ndarray:
    """``embedding_matrix(N) @ coeffs`` as one twisted inverse FFT.

    ``norm="forward"`` puts the ``1/N`` on ``fft`` alone, which is where the
    inverse embedding wants it and leaves this direction unscaled.
    """
    return np.fft.ifft(coeffs * twist, norm="forward")[positions]


def fft_inverse_embedding(
    values: np.ndarray, positions: np.ndarray, twist: np.ndarray
) -> np.ndarray:
    """``conj(embedding_matrix(N).T) @ values / N`` as one twisted FFT."""
    scattered = np.empty(twist.size, dtype=np.complex128)
    scattered[positions] = values
    return np.fft.fft(scattered, norm="forward") * np.conj(twist)


@dataclass
class CkksEncoder:
    """Encoder/decoder between complex slot vectors and plaintext polynomials."""

    params: CkksParameters
    _positions: np.ndarray = field(init=False, repr=False)
    _twist: np.ndarray = field(init=False, repr=False)
    _dense: np.ndarray | None = field(init=False, repr=False)
    _encode_cache: BoundedLruCache = field(
        init=False,
        repr=False,
        default_factory=lambda: _ENCODE_CACHE_GROUP.add(
            BoundedLruCache(name="encoder.encode", capacity=_ENCODE_CACHE_LIMIT)
        ),
    )

    def __post_init__(self) -> None:
        degree = self.params.degree
        self._positions, self._twist = embedding_tables(degree)
        self._dense = (
            embedding_matrix(degree)
            if degree <= DENSE_EMBEDDING_MAX_DEGREE
            else None
        )

    # ------------------------------------------------------------- embedding
    def embedding(self, coeffs: np.ndarray) -> np.ndarray:
        """Slot values ``sigma(m)_j`` (``N/2``) of real coefficients ``m``."""
        slots = self.params.slot_count
        if self._dense is not None:
            return self._dense[:slots] @ coeffs
        return fft_embedding(coeffs, self._positions[:slots], self._twist)

    def inverse_embedding(self, vector: np.ndarray) -> np.ndarray:
        """Real coefficients (unscaled, unrounded) whose slots are ``vector``.

        ``vector`` holds all ``N/2`` slots; it is conjugate-extended so the
        inverse embedding lands on real coefficients.
        """
        full = np.concatenate([vector, np.conj(vector)])
        if self._dense is not None:
            coeffs = np.conj(self._dense.T) @ full / self.params.degree
        else:
            coeffs = fft_inverse_embedding(full, self._positions, self._twist)
        return np.real(coeffs)

    # -------------------------------------------------------------- encoding
    def encode(
        self,
        values: np.ndarray | list[complex],
        scale: float | None = None,
        level: int | None = None,
        *,
        cache: bool = False,
    ) -> Plaintext:
        """Encode up to ``N/2`` complex (or real) values into a plaintext.

        Shorter vectors are zero-padded; the result carries ``scale`` (default
        the parameter set's Delta) and lives at ``level`` limbs (default all).

        ``cache=True`` memoises the encoded polynomial (returned read-only) on
        the encoder, keyed by value bytes, scale and level.  Static plaintext
        *parameters* -- diagonal vectors of linear transforms, bootstrapping
        constants -- opt in so repeated applies skip the embedding and NTT
        work; one-off *data* encodings keep the default and stay unretained.
        """
        scale = float(scale if scale is not None else self.params.scale)
        level = self.params.limbs if level is None else level
        vector = self._padded(values)
        basis = self.params.basis_at_level(level)

        if not cache:
            return Plaintext(
                poly=self._encode_poly(vector, scale, basis), scale=scale, level=level
            )
        cache_key = (vector.tobytes(), scale, level)
        poly = self._encode_cache.get(cache_key)
        if poly is None:
            poly = self._encode_poly(vector, scale, basis)
            poly.residues.flags.writeable = False
            self._encode_cache.put(cache_key, poly)
        return Plaintext(poly=poly, scale=scale, level=level)

    def encode_constant(
        self,
        value: complex,
        scale: float | None = None,
        level: int | None = None,
        *,
        cache: bool = False,
    ) -> Plaintext:
        """Encode the constant ``value`` in every slot without the embedding.

        A constant ``a + ib`` corresponds to the polynomial with
        ``round(a * scale)`` in coefficient 0 and ``round(b * scale)`` in
        coefficient ``N/2`` (``x^(N/2)`` evaluates to ``+i`` at every slot
        point ``zeta^(5^j)`` since ``5^j = 1 mod 4``), so the inverse
        embedding is skipped entirely.  Matches
        ``encode(np.full(slots, value), ...)`` up to the embedding's float
        rounding and is memoised under the same cache when ``cache=True`` --
        the path bootstrapping's split/merge constants use.
        """
        scale = float(scale if scale is not None else self.params.scale)
        level = self.params.limbs if level is None else level
        value = complex(value)
        cache_key = ("constant", value, scale, level)
        if cache:
            poly = self._encode_cache.get(cache_key)
            if poly is not None:
                return Plaintext(poly=poly, scale=scale, level=level)
        coefficients = constant_coefficients(value, scale, self.params.degree)
        basis = self.params.basis_at_level(level)
        poly = RnsPolynomial.from_signed_coefficients(coefficients, basis)
        if cache:
            poly.residues.flags.writeable = False
            self._encode_cache.put(cache_key, poly)
        return Plaintext(poly=poly, scale=scale, level=level)

    def encode_at_basis(
        self, values: np.ndarray | list[complex], scale: float, basis: RnsBasis
    ) -> RnsPolynomial:
        """:meth:`encode`'s polynomial over an arbitrary RNS basis.

        Double hoisting multiplies plaintexts against accumulators that still
        live in the *extended* (level + special) basis, so its diagonals need
        residues over a modulus set no ``level`` names.
        """
        return self._encode_poly(self._padded(values), float(scale), basis)

    def _padded(self, values: np.ndarray | list[complex]) -> np.ndarray:
        """``values`` as a zero-padded complex vector of all ``N/2`` slots."""
        slots = self.params.slot_count
        vector = np.zeros(slots, dtype=np.complex128)
        values = np.asarray(values, dtype=np.complex128).ravel()
        if values.size > slots:
            raise ParameterError(
                f"cannot pack {values.size} values into {slots} slots"
            )
        vector[: values.size] = values
        return vector

    def _encode_poly(
        self, vector: np.ndarray, scale: float, basis: RnsBasis
    ) -> RnsPolynomial:
        """Inverse-embed, scale, round and reduce one padded slot vector."""
        rounded = np.round(self.inverse_embedding(vector) * scale)
        if np.all(np.abs(rounded) < float(1 << 62)):
            # Every coefficient fits int64: reduce all limbs with one batched
            # np.mod pass instead of the per-coefficient big-int loop (signed
            # residues reduce identically to ``int(c) % Q`` limb-wise).
            return RnsPolynomial.from_signed_coefficients(
                rounded.astype(np.int64), basis
            )
        scaled = rounded.astype(object)
        return RnsPolynomial.from_int_coefficients(
            [int(c) % basis.modulus_product for c in scaled], basis
        )

    def decode(self, plaintext: Plaintext, slots: int | None = None) -> np.ndarray:
        """Decode a plaintext back into its complex slot vector."""
        slots = self.params.slot_count if slots is None else slots
        signed = plaintext.poly.to_coeff().to_signed_coefficients()
        coeffs = np.array(signed, dtype=np.float64)
        return (self.embedding(coeffs) / plaintext.scale)[:slots]

    # ------------------------------------------------------------- utilities
    @property
    def table_bytes(self) -> int:
        """Bytes of precomputed embedding tables this encoder holds."""
        tables = (self._positions, self._twist, self._dense)
        return sum(table.nbytes for table in tables if table is not None)

    def encode_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the plaintext-encoding LRU cache."""
        return self._encode_cache.stats()

    def clear_encode_cache(self) -> None:
        """Drop all memoised plaintext encodings."""
        self._encode_cache.clear()

    def encode_real(self, values: np.ndarray, scale: float | None = None) -> Plaintext:
        """Convenience wrapper for real-valued inputs."""
        return self.encode(np.asarray(values, dtype=np.float64), scale=scale)

    def slot_rotation_exponent(self, steps: int) -> int:
        """Galois exponent ``5**steps mod 2N`` realising a rotation by ``steps``."""
        return pow(5, steps, 2 * self.params.degree)

    @property
    def conjugation_exponent(self) -> int:
        """Galois exponent realising complex conjugation of the slots."""
        return 2 * self.params.degree - 1
