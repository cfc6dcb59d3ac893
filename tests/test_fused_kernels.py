"""Exactness and mode tests for the fused element-wise kernels.

* **Kernel exactness** -- every importable implementation of the fused
  ``moddown_sub_div`` kernel (numpy always; numexpr/numba when installed) is
  bit-identical to the eager formula, swept by hypothesis.  Accelerator-only
  cases carry the ``fused`` marker and skip visibly on minimal installs.
* **Execution** -- `mod_down_stacked` runs the ``moddown_sub_div`` kernel,
  and no NTT rung runs any.
* **Mode dispatch** -- ``REPRO_FUSED_KERNELS`` selection and fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import diagnostics
from repro.errors import ParameterError
from repro.numtheory.crt import RnsBasis, inverse_column
from repro.poly import fused_kernels, ntt_engine
from repro.poly.fused_kernels import MODE_ENV


@pytest.mark.parametrize("level_offset", [0, 1])
def test_moddown_executes_the_fused_kernel(level_offset):
    """`mod_down_stacked` runs its subtract and divide as ``moddown_sub_div``."""
    from repro.ckks.keyswitch import mod_down_stacked
    from repro.ckks.params import CkksParameters

    params = CkksParameters.create(
        degree=64, limbs=3, log_q=28, dnum=2, scale_bits=21
    )
    level = params.limbs - level_offset
    extended = params.extended_basis(level)
    rng = np.random.default_rng(3)
    stacked = np.stack(
        [rng.integers(0, q, 64, dtype=np.uint64) for q in extended.moduli]
    )
    with fused_kernels.trace() as calls:
        mod_down_stacked(stacked, params, level)
    assert calls == ["moddown_sub_div"]


@pytest.mark.parametrize("backend", ntt_engine.BACKENDS)
def test_ntt_runs_no_elementwise_kernel(backend, rng):
    """No NTT rung routes through the element-wise kernels any more."""
    basis = RnsBasis.generate(3, 28, 64)
    stack = ntt_engine.NttPlanStack(basis.moduli, 64, backend=backend)
    plan = ntt_engine.NttPlanStack(basis.moduli[:1], 64, backend=backend)
    matrix = np.stack(
        [rng.integers(0, q, 64, dtype=np.uint64) for q in basis.moduli]
    )
    stack.forward(matrix)  # vet outside the trace
    plan.forward(matrix[:1])
    with fused_kernels.trace() as calls:
        stack.inverse(stack.forward(matrix))
        plan.inverse(plan.forward(matrix[:1]))
        stack.inverse(stack.forward(matrix[1:], slice(1, 3)), slice(1, 3))
    assert calls == []


# ------------------------------------------------------------ kernel exactness
MODES_PARAMS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("numexpr", id="numexpr", marks=pytest.mark.fused),
    pytest.param("numba", id="numba", marks=pytest.mark.fused),
]


def _impl_or_skip(kernel: str, mode: str):
    impls = fused_kernels.implementations(kernel)
    if mode not in impls:
        pytest.skip(f"{mode} not importable: {kernel} has no {mode} impl")
    return impls[mode]


class TestKernelExactness:
    @pytest.mark.parametrize("mode", MODES_PARAMS)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_moddown_sub_div_matches_the_eager_formula(self, mode, seed):
        impl = _impl_or_skip("moddown_sub_div", mode)
        rng = np.random.default_rng(seed)
        basis = RnsBasis.generate(3, 24, 32)
        moduli = basis.moduli_array[:, None]
        residues = np.stack(
            [rng.integers(0, q, 32, dtype=np.uint64) for q in basis.moduli]
        )
        subtrahend = np.stack(
            [rng.integers(0, q, 32, dtype=np.uint64) for q in basis.moduli]
        )
        divisor = 12289
        inverses = inverse_column(divisor, basis.moduli)
        # The eager formula, one limb and one coefficient at a time.
        expected = np.array(
            [
                [(int(r) - int(s)) * int(inverses[i, 0]) % q for r, s in zip(row, sub)]
                for i, (q, row, sub) in enumerate(zip(basis.moduli, residues, subtrahend))
            ],
            dtype=np.uint64,
        )
        got = impl(residues, subtrahend, moduli, inverses)
        assert np.array_equal(got, expected)

    def test_kernel_counters_track_calls(self):
        fused_kernels.reset_kernel_counts()
        moduli = np.array([[97], [101]], dtype=np.uint64)
        a = np.arange(16, dtype=np.uint64).reshape(2, 8)
        inverses = np.array([[3], [5]], dtype=np.uint64)
        fused_kernels.moddown_sub_div(a, a, moduli, inverses)
        fused_kernels.moddown_sub_div(a, a, moduli, inverses)
        assert fused_kernels.kernel_counts() == {"moddown_sub_div": 2}


# --------------------------------------------------------------- mode dispatch
class TestModeDispatch:
    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "warp-drive")
        with pytest.raises(ParameterError):
            fused_kernels.requested_mode()

    def test_numpy_mode_always_available(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "numpy")
        assert fused_kernels.active_mode() == "numpy"
        assert not fused_kernels.accelerated()
        assert "numpy" in fused_kernels.available_modes()

    def test_unavailable_accelerator_falls_back_with_event(self, monkeypatch):
        missing = [
            mode
            for mode in ("numexpr", "numba")
            if fused_kernels._optional_module(mode) is None
        ]
        if not missing:
            pytest.skip("every accelerator is importable in this environment")
        diagnostics.clear_events()
        monkeypatch.setenv(MODE_ENV, missing[0])
        assert fused_kernels.active_mode() == "numpy"
        assert diagnostics.events("fused_kernels_unavailable")

    @pytest.mark.fused
    def test_accelerated_mode_active_when_installed(self):
        if fused_kernels.available_modes() == ("numpy",):
            pytest.skip("no accelerator installed")
        assert fused_kernels.active_mode() in ("numexpr", "numba")
        assert fused_kernels.accelerated()
