"""Primality testing and NTT-friendly prime generation.

Homomorphic-encryption RNS moduli must be primes ``q`` with ``q = 1 (mod 2N)``
so that a primitive ``2N``-th root of unity exists and the negacyclic NTT is
defined.  The paper uses 28-bit primes (``log2 q = 28``) for its default
parameter sets (Table IV) so that every coefficient fits a 32-bit register on
the TPU's VPU.
"""

from __future__ import annotations

# Deterministic Miller-Rabin witnesses: sufficient for all inputs below 3.3e24,
# which covers every modulus used anywhere in this library (< 2^64).
_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def is_prime(n: int) -> bool:
    """Return True if ``n`` is prime (deterministic for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_WITNESSES:
        if a >= n:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_prime(bits: int, degree: int, *, below: int | None = None) -> int:
    """Generate a prime ``q`` with ``bits`` bits and ``q = 1 (mod 2*degree)``.

    ``degree`` is the polynomial degree ``N`` (a power of two); the congruence
    guarantees a primitive ``2N``-th root of unity modulo ``q``, which the
    negacyclic NTT requires.

    Parameters
    ----------
    bits:
        Target bit-width of the prime (e.g. 28 for the paper's Set A-D).
    degree:
        Polynomial degree ``N``.
    below:
        If given, search strictly below this value instead of below ``2**bits``.
        Useful when generating a chain of distinct primes.

    Returns
    -------
    int
        A prime congruent to 1 modulo ``2*degree`` with the requested width.
    """
    if bits < 2:
        raise ValueError("prime bit-width must be at least 2")
    modulus_step = 2 * degree
    upper = below if below is not None else (1 << bits)
    lower = 1 << (bits - 1)
    # Largest candidate of the form k*2N + 1 below `upper`.
    candidate = ((upper - 2) // modulus_step) * modulus_step + 1
    while candidate > lower:
        if is_prime(candidate):
            return candidate
        candidate -= modulus_step
    raise ValueError(
        f"no {bits}-bit prime congruent to 1 mod {modulus_step} below {upper}"
    )


def generate_rns_primes(count: int, bits: int, degree: int) -> list[int]:
    """Generate ``count`` distinct NTT-friendly primes of ``bits`` bits.

    The primes are pairwise distinct (hence coprime) and each satisfies
    ``q = 1 (mod 2*degree)``, forming an RNS basis suitable for CKKS limbs.
    The first prime is the largest available so that rescaling divides by a
    modulus close to the scaling factor.
    """
    if count < 1:
        raise ValueError("need at least one RNS prime")
    primes: list[int] = []
    below: int | None = None
    for _ in range(count):
        prime = generate_ntt_prime(bits, degree, below=below)
        primes.append(prime)
        below = prime
    return primes
