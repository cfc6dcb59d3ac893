"""Encryption and decryption for the CKKS scheme."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.keys import KeyGenerator, PublicKey, SecretKey
from repro.ckks.noise import NoiseModel
from repro.ckks.params import CkksParameters


@dataclass
class Encryptor:
    """Public-key encryptor: fresh ciphertexts at the top level."""

    params: CkksParameters
    public_key: PublicKey
    keygen: KeyGenerator
    _noise_model: NoiseModel | None = field(default=None, repr=False)

    @property
    def noise_model(self) -> NoiseModel:
        """The deterministic noise model used to stamp fresh ciphertexts."""
        if self._noise_model is None:
            self._noise_model = NoiseModel(self.params)
        return self._noise_model

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt an encoded plaintext.

        ``c0 = b*u + e0 + m`` and ``c1 = a*u + e1`` for fresh ternary ``u`` and
        Gaussian errors; decryption under ``s`` recovers ``m`` plus small noise.
        """
        basis = self.params.basis_at_level(plaintext.level)
        u = self.keygen.sample_ternary(basis)
        e0 = self.keygen._sample_error(basis)
        e1 = self.keygen._sample_error(basis)
        b = self.public_key.b.keep_limbs(plaintext.level)
        a = self.public_key.a.keep_limbs(plaintext.level)
        c0 = b.multiply(u).to_coeff().add(e0).add(plaintext.poly.to_coeff())
        c1 = a.multiply(u).to_coeff().add(e1)
        model = self.noise_model
        noise_bits = None
        if model.policy.track:
            noise_bits = model.add_bits(model.fresh_bits(), model.plaintext_bits())
        return Ciphertext(
            c0=c0,
            c1=c1,
            scale=plaintext.scale,
            level=plaintext.level,
            noise_bits=noise_bits,
        )


@dataclass
class Decryptor:
    """Secret-key decryptor."""

    params: CkksParameters
    secret_key: SecretKey

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Decrypt ``c0 + c1*s`` (plus ``c2*s**2`` if present) to a plaintext."""
        basis = self.params.basis_at_level(ciphertext.level)
        secret = self.secret_key.polynomial(basis)
        message = ciphertext.c0.to_coeff().add(
            ciphertext.c1.multiply(secret).to_coeff()
        )
        if ciphertext.c2 is not None:
            secret_squared = secret.multiply(secret).to_coeff()
            message = message.add(
                ciphertext.c2.multiply(secret_squared).to_coeff()
            )
        return Plaintext(poly=message, scale=ciphertext.scale, level=ciphertext.level)
