"""CKKS-RNS scheme: the HE substrate the paper's operators come from.

The functional layer (exact NumPy/Python arithmetic) provides encoding,
encryption, the evaluator (HE-Add/Mult/Rescale/Rotate with hybrid key
switching) and a packed-bootstrapping schedule model.  It serves two roles:

* the correctness oracle for the CROSS-compiled kernels (BAT and MAT are
  lossless, so evaluator results must match bit-for-bit at the RNS level), and
* the workload generator whose kernel schedules the performance model prices.
"""

from repro.ckks.bootstrapping import (
    BootstrappingSchedule,
    BootstrappingTransforms,
    CkksBootstrapper,
    build_bootstrapping_transforms,
    coeff_to_slot,
    coeff_to_slot_split,
    mod_raise,
    slot_to_coeff,
    slot_to_coeff_merge,
)
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encoding import (
    CkksEncoder,
    matrix_diagonals,
    matrix_from_diagonals,
    rotate_slots,
    slot_bit_reversal,
)
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evaluator import CkksEvaluator, HoistedCiphertext
from repro.ckks.noise import NoiseModel, NoisePolicy
from repro.ckks.linear_transform import (
    DiagonalLinearTransform,
    required_rotation_steps,
)
from repro.ckks.keys import (
    GaloisKey,
    GaloisKeySet,
    KeyGenerator,
    KeySwitchKey,
    PublicKey,
    RelinearizationKey,
    SecretKey,
)
from repro.ckks.keyswitch import (
    decompose_and_extend,
    mod_down,
    mod_down_stacked,
    switch_extended_eval,
    switch_key,
    switch_key_unfused,
)
from repro.ckks.params import CkksParameters
from repro.ckks.poly_eval import (
    ChebyshevPowerBasis,
    ChebyshevSeries,
    EvalModPoly,
    eval_mod,
    evaluate_chebyshev,
    evaluate_chebyshev_horner,
    ps_operation_counts,
)

__all__ = [
    "BootstrappingSchedule",
    "BootstrappingTransforms",
    "ChebyshevPowerBasis",
    "ChebyshevSeries",
    "Ciphertext",
    "CkksBootstrapper",
    "CkksEncoder",
    "CkksEvaluator",
    "CkksParameters",
    "Decryptor",
    "DiagonalLinearTransform",
    "Encryptor",
    "EvalModPoly",
    "GaloisKey",
    "GaloisKeySet",
    "HoistedCiphertext",
    "KeyGenerator",
    "KeySwitchKey",
    "NoiseModel",
    "NoisePolicy",
    "Plaintext",
    "PublicKey",
    "RelinearizationKey",
    "SecretKey",
    "build_bootstrapping_transforms",
    "coeff_to_slot",
    "coeff_to_slot_split",
    "decompose_and_extend",
    "eval_mod",
    "evaluate_chebyshev",
    "evaluate_chebyshev_horner",
    "matrix_diagonals",
    "matrix_from_diagonals",
    "mod_down",
    "mod_down_stacked",
    "mod_raise",
    "ps_operation_counts",
    "required_rotation_steps",
    "rotate_slots",
    "slot_bit_reversal",
    "slot_to_coeff",
    "slot_to_coeff_merge",
    "switch_extended_eval",
    "switch_key",
    "switch_key_unfused",
]
