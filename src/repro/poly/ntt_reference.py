"""Reference negacyclic Number Theoretic Transform (radix-2 Cooley-Tukey).

The forward transform maps coefficients ``a_0 .. a_{N-1}`` to the evaluations
of ``a(x)`` at the odd powers of a primitive ``2N``-th root of unity ``psi``:

    NTT(a)[k] = a(psi^(2k+1)) mod q,   k = 0 .. N-1   (natural order)

which is implemented as the classic *twist + cyclic FFT* factorisation:
multiply ``a_j`` by ``psi^j``, then take the length-``N`` cyclic NTT with
``omega = psi^2``.  Point-wise multiplication in this evaluation domain
corresponds to negacyclic convolution of the coefficient vectors, which is the
property the CKKS evaluator relies on and the tests verify against the
schoolbook oracle.

These functions are the semantic reference: the 4-step baseline and CROSS's
layout-invariant 3-step NTT (both in `repro.core.ntt3step`) are validated to
produce permutations of exactly this output.
"""

from __future__ import annotations

import numpy as np

from repro.numtheory.bitrev import bit_reverse_indices, is_power_of_two
from repro.numtheory.modular import mod_inv


def negacyclic_evaluate_direct(
    coeffs: np.ndarray, modulus: int, psi: int
) -> np.ndarray:
    """O(N^2) direct evaluation of ``a(psi^(2k+1))`` for all ``k`` (oracle)."""
    coeffs = [int(c) for c in np.asarray(coeffs).ravel()]
    n = len(coeffs)
    result = []
    for k in range(n):
        point = pow(psi, 2 * k + 1, modulus)
        acc = 0
        power = 1
        for coefficient in coeffs:
            acc = (acc + coefficient * power) % modulus
            power = (power * point) % modulus
        result.append(acc)
    return np.array(result, dtype=np.uint64)


def _cyclic_ntt(values: np.ndarray, modulus: int, omega: int) -> np.ndarray:
    """Iterative radix-2 cyclic NTT, natural order in and out.

    Uses a decimation-in-time schedule: bit-reverse copy followed by
    ``log2(N)`` butterfly stages, each fully vectorized over NumPy uint64
    (products of two sub-32-bit residues fit 64 bits exactly).
    """
    values = np.asarray(values, dtype=np.uint64)
    n = values.shape[-1]
    if not is_power_of_two(n):
        raise ValueError("NTT length must be a power of two")
    q = np.uint64(modulus)
    data = values[..., bit_reverse_indices(n)].copy()

    length = 2
    while length <= n:
        half = length // 2
        stage_root = pow(omega, n // length, modulus)
        twiddles = np.empty(half, dtype=np.uint64)
        acc = 1
        for i in range(half):
            twiddles[i] = acc
            acc = (acc * stage_root) % modulus
        blocks = data.reshape(*data.shape[:-1], n // length, length)
        even = blocks[..., :half].copy()
        odd = (blocks[..., half:] * twiddles) % q
        blocks[..., :half] = (even + odd) % q
        blocks[..., half:] = (even + (q - odd)) % q
        data = blocks.reshape(*data.shape[:-1], n)
        length *= 2
    return data


def ntt_forward_negacyclic(
    coeffs: np.ndarray, modulus: int, psi: int
) -> np.ndarray:
    """Forward negacyclic NTT, natural coefficient order -> natural evaluation order."""
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    n = coeffs.shape[-1]
    q = np.uint64(modulus)
    twist = np.empty(n, dtype=np.uint64)
    acc = 1
    for j in range(n):
        twist[j] = acc
        acc = (acc * psi) % modulus
    twisted = (coeffs * twist) % q
    omega = pow(psi, 2, modulus)
    return _cyclic_ntt(twisted, modulus, omega)


def ntt_inverse_negacyclic(
    evaluations: np.ndarray, modulus: int, psi: int
) -> np.ndarray:
    """Inverse of :func:`ntt_forward_negacyclic` (natural order in and out)."""
    evaluations = np.asarray(evaluations, dtype=np.uint64)
    n = evaluations.shape[-1]
    q = np.uint64(modulus)
    omega_inv = mod_inv(pow(psi, 2, modulus), modulus)
    untwisted = _cyclic_ntt(evaluations, modulus, omega_inv)
    psi_inv = mod_inv(psi, modulus)
    n_inv = mod_inv(n, modulus)
    untwist = np.empty(n, dtype=np.uint64)
    acc = n_inv
    for j in range(n):
        untwist[j] = acc
        acc = (acc * psi_inv) % modulus
    return (untwisted * untwist) % q


def ntt_pointwise_multiply(
    a_eval: np.ndarray, b_eval: np.ndarray, modulus: int
) -> np.ndarray:
    """Point-wise product of two evaluation-domain polynomials."""
    a_eval = np.asarray(a_eval, dtype=np.uint64)
    b_eval = np.asarray(b_eval, dtype=np.uint64)
    return (a_eval * b_eval) % np.uint64(modulus)


def ntt_multiply(
    a_coeffs: np.ndarray, b_coeffs: np.ndarray, modulus: int, psi: int
) -> np.ndarray:
    """Negacyclic polynomial product computed through the NTT (fast path)."""
    a_eval = ntt_forward_negacyclic(a_coeffs, modulus, psi)
    b_eval = ntt_forward_negacyclic(b_coeffs, modulus, psi)
    return ntt_inverse_negacyclic(
        ntt_pointwise_multiply(a_eval, b_eval, modulus), modulus, psi
    )
