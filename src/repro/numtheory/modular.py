"""Exact modular arithmetic primitives (Python-integer reference layer).

Everything in this module is an *oracle*: it uses arbitrary-precision Python
integers, so it is always correct, and every device-faithful kernel (Barrett,
Montgomery, BAT matrix multiplication, the NTT variants) is tested
against it.
"""

from __future__ import annotations

from repro.numtheory.primes import is_prime


def mod_inv(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo ``modulus``.

    Raises ``ValueError`` when the inverse does not exist.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    value %= modulus
    try:
        return pow(value, -1, modulus)
    except ValueError as exc:  # pragma: no cover - message normalisation
        raise ValueError(f"{value} has no inverse modulo {modulus}") from exc


def _factorize(n: int) -> list[int]:
    """Return the distinct prime factors of ``n`` by trial division.

    Only used on ``q - 1`` for word-sized primes, where trial division up to
    ``sqrt(n)`` is cheap enough (worst case a few tens of thousands of steps
    for 28-60 bit moduli with small factors; the 2N factor removes most of the
    work up front).
    """
    factors: list[int] = []
    remaining = n
    divisor = 2
    while divisor * divisor <= remaining:
        if remaining % divisor == 0:
            factors.append(divisor)
            while remaining % divisor == 0:
                remaining //= divisor
        divisor += 1 if divisor == 2 else 2
    if remaining > 1:
        factors.append(remaining)
    return factors


def find_generator(prime: int) -> int:
    """Find a generator (primitive root) of the multiplicative group mod ``prime``."""
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime == 2:
        return 1
    group_order = prime - 1
    factors = _factorize(group_order)
    candidate = 2
    while candidate < prime:
        if all(pow(candidate, group_order // f, prime) != 1 for f in factors):
            return candidate
        candidate += 1
    raise ValueError(f"no generator found for {prime}")  # pragma: no cover


def primitive_nth_root_of_unity(n: int, modulus: int) -> int:
    """Return a primitive ``n``-th root of unity modulo the prime ``modulus``.

    Requires ``n`` to divide ``modulus - 1``; for negacyclic NTTs of degree
    ``N`` one asks for a primitive ``2N``-th root ``psi`` and uses
    ``omega = psi**2``.
    """
    if (modulus - 1) % n != 0:
        raise ValueError(f"{n} does not divide {modulus - 1}; no n-th root exists")
    generator = find_generator(modulus)
    root = pow(generator, (modulus - 1) // n, modulus)
    if not is_primitive_nth_root(root, n, modulus):  # pragma: no cover - sanity
        raise ValueError("constructed root is not primitive")
    return root


def is_primitive_nth_root(root: int, n: int, modulus: int) -> bool:
    """Check that ``root`` has exact multiplicative order ``n`` modulo ``modulus``."""
    if pow(root, n, modulus) != 1:
        return False
    for factor in _factorize(n):
        if pow(root, n // factor, modulus) == 1:
            return False
    return True
