"""Number-theoretic substrate used by the CROSS reproduction.

This package provides the exact integer arithmetic that every other layer of
the library is verified against:

* primality testing and NTT-friendly prime generation (``primes``),
* modular inverses and primitive roots of unity (``modular``),
* Barrett (paper Alg. 4) and the optimized Montgomery reduction (paper
  Alg. 1) (``barrett``, ``montgomery``); the Fig. 13 ablation prices them
  beside Shoup's method in the simulator,
* Chinese-Remainder-Theorem / RNS basis utilities (``crt``),
* bit-reversal permutations used by the NTT algorithms (``bitrev``).

Scalar reference functions operate on Python integers (arbitrary precision,
always exact); the vectorized variants operate on NumPy ``uint64`` arrays and
restrict themselves to the operations a 32-bit device datapath could perform,
mirroring how the paper's kernels run on the TPU's VPU.
"""

from repro.numtheory.barrett import (
    BarrettContext,
    barrett_reduce_vector,
)
from repro.numtheory.bitrev import (
    bit_reverse_indices,
    bit_reverse_value,
    is_power_of_two,
)
from repro.numtheory.crt import RnsBasis, crt_compose, crt_decompose
from repro.numtheory.modular import (
    find_generator,
    is_primitive_nth_root,
    mod_inv,
    primitive_nth_root_of_unity,
)
from repro.numtheory.montgomery import (
    MontgomeryContext,
    montgomery_reduce,
    montgomery_reduce_vector,
)
from repro.numtheory.primes import (
    generate_ntt_prime,
    generate_rns_primes,
    is_prime,
)

__all__ = [
    "BarrettContext",
    "MontgomeryContext",
    "RnsBasis",
    "barrett_reduce_vector",
    "bit_reverse_indices",
    "bit_reverse_value",
    "crt_compose",
    "crt_decompose",
    "find_generator",
    "generate_ntt_prime",
    "generate_rns_primes",
    "is_power_of_two",
    "is_prime",
    "is_primitive_nth_root",
    "mod_inv",
    "montgomery_reduce",
    "montgomery_reduce_vector",
    "primitive_nth_root_of_unity",
]
