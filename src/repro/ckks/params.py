"""CKKS-RNS parameter objects.

``CkksParameters`` bundles everything the scheme needs: the polynomial degree,
the RNS modulus chain (one NTT-friendly prime per level), the auxiliary
("special") primes used by hybrid key switching, the encoding scale and the
digit count ``dnum``.  The paper's Sets A-D (Table IV) are available through
:func:`from_security_params`; the exact-arithmetic test-suite uses shrunken
versions produced by ``SecurityParams.scaled``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.numtheory.crt import RnsBasis
from repro.numtheory.primes import generate_ntt_prime
from repro.poly.ntt_engine import NttPlanStack, register_chain, supports

if TYPE_CHECKING:
    from repro.core.config import SecurityParams


@dataclass
class CkksParameters:
    """All static parameters of one CKKS instantiation.

    Attributes
    ----------
    degree:
        Ring degree ``N`` (power of two); the scheme packs ``N/2`` slots.
    modulus_basis:
        The ciphertext modulus chain ``{q_0 .. q_{L-1}}`` as an ``RnsBasis``.
    special_basis:
        The auxiliary primes ``{p_0 .. p_{alpha-1}}`` for hybrid key switching.
    scale:
        Default encoding scale Delta.
    dnum:
        Number of key-switching digits.
    error_stddev:
        Standard deviation of the discrete-Gaussian-style error sampler.
    """

    degree: int
    modulus_basis: RnsBasis
    special_basis: RnsBasis
    scale: float
    dnum: int = 3
    error_stddev: float = 3.2
    #: Per-instance memo of the level / extended bases (and the per-level
    #: ``[P]_{q_i}`` column and digit partition): building an ``RnsBasis``
    #: recomputes its hat inverses with ``pow``, and every HE operator asks
    #: for the same handful (the bases are immutable).
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    #: The NTT plan of the whole chain (:meth:`plan_stack`), held: it owns
    #: the tables and constants of every basis below.
    _plan: NttPlanStack | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Every basis handed out derives from these two, so it names the
        # chain and dispatches on its views (`repro.poly.rns_poly.basis_plan`).
        chain = self.modulus_basis.moduli + self.special_basis.moduli
        if supports(chain, self.degree):
            self._plan = register_chain(chain, self.degree)
            self.modulus_basis = replace(self.modulus_basis, chain=chain)
            self.special_basis = replace(self.special_basis, chain=chain)

    def __getstate__(self) -> dict:
        # The plan and the views in the memo hold locks; an unpickled copy
        # re-binds the interned chain and rebuilds the memo.
        return {**self.__dict__, "_plan": None, "_bases": {}}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    # ----------------------------------------------------------- constructors
    @classmethod
    def create(
        cls,
        degree: int,
        limbs: int,
        log_q: int = 28,
        dnum: int = 3,
        scale_bits: int = 20,
        special_limbs: int | None = None,
    ) -> "CkksParameters":
        """Generate a fresh parameter set with ``limbs`` ciphertext primes."""
        if special_limbs is None:
            special_limbs = max(1, -(-limbs // dnum))
        modulus_basis = RnsBasis.generate(limbs, log_q, degree)
        # The special primes must be distinct from the ciphertext primes; keep
        # generating below the smallest ciphertext prime.
        special_moduli: list[int] = []
        below = min(modulus_basis.moduli)
        for _ in range(special_limbs):
            prime = generate_ntt_prime(log_q, degree, below=below)
            special_moduli.append(prime)
            below = prime
        special_basis = RnsBasis(moduli=tuple(special_moduli), degree=degree)
        return cls(
            degree=degree,
            modulus_basis=modulus_basis,
            special_basis=special_basis,
            scale=float(2**scale_bits),
            dnum=dnum,
        )

    @classmethod
    def from_security_params(
        cls, params: SecurityParams, scale_bits: int = 20
    ) -> "CkksParameters":
        """Instantiate one of the paper's Table IV sets (A-D or a scaled set)."""
        return cls.create(
            degree=params.degree,
            limbs=params.limbs,
            log_q=params.log_q,
            dnum=params.dnum,
            scale_bits=scale_bits,
        )

    # -------------------------------------------------------------- accessors
    @property
    def slot_count(self) -> int:
        """Number of complex slots packed per ciphertext (``N / 2``)."""
        return self.degree // 2

    @property
    def limbs(self) -> int:
        """Number of ciphertext primes ``L`` at the top level."""
        return self.modulus_basis.size

    @property
    def special_limbs(self) -> int:
        """Number of auxiliary key-switching primes ``alpha``."""
        return self.special_basis.size

    @property
    def modulus_product(self) -> int:
        """The full ciphertext modulus ``Q``."""
        return self.modulus_basis.modulus_product

    @property
    def special_product(self) -> int:
        """The auxiliary modulus ``P``."""
        return self.special_basis.modulus_product

    def basis_at_level(self, level: int) -> RnsBasis:
        """The RNS basis after ``limbs - level`` rescalings (level counts limbs)."""
        basis = self._bases.get(level)
        if basis is None:
            if not 1 <= level <= self.limbs:
                raise ValueError(f"level must be in [1, {self.limbs}]")
            basis = self._bases[level] = self._held(
                self.modulus_basis.sub_basis(0, level)
            )
        return basis

    def digit_partition(self, level: int) -> tuple[tuple[int, int], ...]:
        """The key-switching digits of a ``level``-limb ciphertext.

        One partition serves every level: the top chain is split once into
        ``dnum`` digits of ``ceil(L / dnum)`` limbs (:func:`digit_partition`),
        and level ``l`` keeps the ``ceil(l / width)`` digits that start below
        ``l``, the last one cut at ``l``.  The gadget factor of a digit is a
        CRT idempotent (1 on its own limbs, 0 on every other), so the cut
        digits are exactly the prefix views of the one top-level switching key.
        """
        partition = self._bases.get(("digits", level))
        if partition is None:
            self.basis_at_level(level)  # validates the level
            partition = self._bases[("digits", level)] = tuple(
                (start, min(stop, level))
                for start, stop in digit_partition(self.limbs, self.dnum)
                if start < level
            )
        return partition

    def extended_basis(self, level: int) -> RnsBasis:
        """Basis ``{q_0..q_{level-1}} + {p_0..p_{alpha-1}}`` used inside keyswitch."""
        extended = self._bases.get(("extended", level))
        if extended is None:
            extended = self._bases[("extended", level)] = self._held(
                self.basis_at_level(level).extend(self.special_basis)
            )
        return extended

    def _held(self, basis: RnsBasis) -> RnsBasis:
        """``basis``, with its view of the chain held in the memo.

        A chain holds its views only weakly (so dropped parameters free it
        by refcounting); the parameters that hand a basis out keep its view.
        """
        if self._plan is not None:
            self._bases[("view", basis.moduli)] = self._plan.view(basis.moduli)
        return basis

    def plan_stack(self) -> NttPlanStack | None:
        """The NTT plan of the whole chain ``Q_L·P`` (``None`` if unplannable).

        Every level basis and extended basis transforms on views of its
        tables, so warming, probing or corrupting it reaches them all.
        """
        return self._plan

    def special_product_column(self, level: int) -> np.ndarray:
        """``[P]_{q_i}`` as a read-only ``(level, 1)`` uint64 column.

        Multiplying a level-basis residue matrix by it (with zero special
        limbs) is the exact lift to the ``P``-scaled extended basis, the
        representation key-switch accumulators are born in.
        """
        column = self._bases.get(("special_product", level))
        if column is None:
            product = self.special_product
            column = np.array(
                [product % q for q in self.basis_at_level(level).moduli],
                dtype=np.uint64,
            )[:, None]
            column.flags.writeable = False
            self._bases[("special_product", level)] = column
        return column


def digit_partition(limbs: int, dnum: int) -> list[tuple[int, int]]:
    """Partition limb indices ``0..limbs-1`` into at most ``dnum`` digit ranges."""
    alpha = -(-limbs // dnum)
    ranges = []
    start = 0
    while start < limbs:
        stop = min(start + alpha, limbs)
        ranges.append((start, stop))
        start = stop
    return ranges
