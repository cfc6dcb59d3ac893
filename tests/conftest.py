"""Shared fixtures: small-but-real parameter sets for exact-arithmetic tests."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.ckks import (
    CkksEncoder,
    CkksEvaluator,
    CkksParameters,
    Decryptor,
    Encryptor,
    KeyGenerator,
)
from repro.numtheory.crt import RnsBasis
from repro.numtheory.primes import generate_ntt_prime
from repro.poly import ntt_engine
from repro.poly.ring import PolyRing

TEST_DEGREE = 64
TEST_LOG_Q = 28


class EngineClock:
    """A frozen stand-in for the NTT engine's quarantine clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(autouse=True)
def engine_clock(monkeypatch) -> EngineClock:
    """Freeze this process's quarantine clock for every test.

    A quarantine then holds until the test advances the clock past its
    cooldown, never lapsing because the suite ran slowly.  Shard processes
    keep the real clock.
    """
    clock = EngineClock()
    monkeypatch.setattr(ntt_engine, "_clock", clock)
    return clock


@pytest.fixture
def rng(request) -> np.random.Generator:
    """A deterministic generator of the test's own, seeded from its node id.

    Each test draws from its own stream, so adding, removing or reordering
    tests moves no other test's draws.  Module-scoped fixtures seed their own
    generators.
    """
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture(scope="session")
def prime() -> int:
    """A 28-bit NTT-friendly prime for the default test degree."""
    return generate_ntt_prime(TEST_LOG_Q, TEST_DEGREE)


@pytest.fixture(scope="session")
def ring(prime: int) -> PolyRing:
    """A degree-64 negacyclic ring."""
    return PolyRing(degree=TEST_DEGREE, modulus=prime)


@pytest.fixture(scope="session")
def rns_basis() -> RnsBasis:
    """A 4-limb RNS basis at the test degree."""
    return RnsBasis.generate(4, TEST_LOG_Q, TEST_DEGREE)


@pytest.fixture(scope="session")
def ckks_setup():
    """A complete small CKKS instance: params, keys, encoder, evaluator."""
    params = CkksParameters.create(degree=TEST_DEGREE, limbs=3, log_q=28, dnum=2, scale_bits=21)
    keygen = KeyGenerator(params, rng=np.random.default_rng(7))
    public_key = keygen.public_key()
    relin_key = keygen.relinearization_key()
    rotation_exponents = [pow(5, 1, 2 * params.degree), pow(5, 2, 2 * params.degree),
                          2 * params.degree - 1]
    galois_keys = keygen.galois_keys(rotation_exponents)
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key, keygen)
    decryptor = Decryptor(params, keygen.secret_key)
    evaluator = CkksEvaluator(params, relin_key=relin_key, galois_keys=galois_keys)
    return {
        "params": params,
        "keygen": keygen,
        "encoder": encoder,
        "encryptor": encryptor,
        "decryptor": decryptor,
        "evaluator": evaluator,
    }
