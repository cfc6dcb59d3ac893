"""The three picklable server-side circuits and their plaintext models.

Each circuit is a plain dataclass over numpy arrays, so process mode can ship
it over the shard pipe; ``expected`` is the NumPy model the decrypted result
is checked against.  ``linear_square`` is :class:`chaos.LinearSquareCircuit`
itself (the ``examples/encrypted_inference.py`` shape) with its model added,
so every workload's circuit exposes the same two calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.encoding import rotate_slots
from repro.ckks.linear_transform import DiagonalLinearTransform, cached_transform
from repro.testing.chaos import LinearSquareCircuit

#: Non-zero generalized diagonals of the banded matvec matrix, and its BSGS
#: baby count: three hoisted baby rotations + three giant key switches.
MATVEC_DIAGONALS = 16
MATVEC_BABY_STEPS = 4


@dataclass
class MatvecSquareCircuit:
    """``(M @ x)^2``: BSGS matvec -> rescale -> square -> rescale.

    Six Galois key switches plus one relinearising HE-Mult and no per-request
    encode: the transform (and its eval-domain plaintext diagonals) is built
    once per process through ``cached_transform`` on the session's encoder.
    """

    diagonals: dict
    cache_key: tuple

    @classmethod
    def seeded(cls, rng: np.random.Generator, slots: int, seed: int):
        # Entries are scaled by 1/16 so |M @ x| <= 1 for x in [-1, 1]^slots.
        diagonals = {
            k: rng.uniform(-1.0, 1.0, slots) / MATVEC_DIAGONALS
            for k in range(MATVEC_DIAGONALS)
        }
        return cls(diagonals=diagonals, cache_key=("e2e.matvec_square", seed))

    def transform(self, encoder) -> DiagonalLinearTransform:
        return cached_transform(
            encoder,
            self.cache_key,
            lambda: DiagonalLinearTransform.from_diagonals(
                encoder, self.diagonals, n1=MATVEC_BABY_STEPS
            ),
        )

    def galois_steps(self) -> tuple:
        """Rotation steps the transform key-switches (names the Galois keys)."""
        n1 = MATVEC_BABY_STEPS
        babies = {k % n1 for k in self.diagonals}
        giants = {k - k % n1 for k in self.diagonals}
        return tuple(sorted((babies | giants) - {0}))

    def __call__(self, session, payload):
        evaluator = session.evaluator
        product = evaluator.matvec(
            payload, self.transform(session.encoder), rescale=True
        )
        return evaluator.rescale(evaluator.square(product))

    def expected(self, features: np.ndarray) -> np.ndarray:
        product = sum(
            diagonal * rotate_slots(features, k)
            for k, diagonal in self.diagonals.items()
        )
        return np.real(product) ** 2


@dataclass
class SquareRescaleCircuit:
    """``x^2``: one relinearising HE-Mult and its rescale."""

    def galois_steps(self) -> tuple:
        return ()

    def __call__(self, session, payload):
        return session.evaluator.rescale(session.evaluator.square(payload))

    def expected(self, features: np.ndarray) -> np.ndarray:
        return features**2


@dataclass
class LinearSquare(LinearSquareCircuit):
    """``(w * x + b)^2``: the chaos harness's circuit plus its plaintext model.

    Encodes the weights and the bias per request, so the client-side encoder
    is on the request path (unlike the two circuits above).
    """

    @classmethod
    def seeded(cls, rng: np.random.Generator, slots: int):
        return cls(
            weights=rng.uniform(-1.0, 1.0, slots),
            bias=rng.uniform(-0.2, 0.2, slots),
        )

    def galois_steps(self) -> tuple:
        return ()

    def expected(self, features: np.ndarray) -> np.ndarray:
        return (self.weights * features + self.bias) ** 2
