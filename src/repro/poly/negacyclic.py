"""Schoolbook negacyclic polynomial arithmetic (exactness oracle).

Everything here is quadratic-time and uses exact Python/NumPy object
arithmetic where needed; it exists so the NTT-based fast paths have an
unambiguous reference to be tested against.
"""

from __future__ import annotations

import numpy as np


def _as_int_array(values: np.ndarray | list[int]) -> np.ndarray:
    """Coerce to an object-dtype array of Python ints (no overflow anywhere)."""
    return np.array([int(v) for v in np.asarray(values).ravel()], dtype=object)


def poly_add(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Coefficient-wise addition modulo ``modulus`` (uint64 output)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return (a + b) % np.uint64(modulus)


def poly_sub(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Coefficient-wise subtraction modulo ``modulus`` (uint64 output)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    q = np.uint64(modulus)
    return (a + (q - b % q)) % q


def poly_negate(a: np.ndarray, modulus: int) -> np.ndarray:
    """Coefficient-wise negation modulo ``modulus``."""
    a = np.asarray(a, dtype=np.uint64)
    q = np.uint64(modulus)
    return (q - a % q) % q


def negacyclic_convolve(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Schoolbook product of two polynomials in ``Z_q[x]/(x^N + 1)``.

    O(N^2); intended for test oracles and small parameter sets only.
    """
    a_int = _as_int_array(a)
    b_int = _as_int_array(b)
    n = a_int.shape[0]
    if b_int.shape[0] != n:
        raise ValueError("operands must have the same degree")
    result = [0] * n
    for i in range(n):
        ai = int(a_int[i])
        if ai == 0:
            continue
        for j in range(n):
            product = ai * int(b_int[j])
            index = i + j
            if index >= n:
                # x^N = -1 wraps the overflow coefficients with a sign flip.
                result[index - n] = (result[index - n] - product) % modulus
            else:
                result[index] = (result[index] + product) % modulus
    return np.array(result, dtype=np.uint64)
