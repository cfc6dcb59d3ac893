"""Fault-injection drills: every injected fault is detected or healed.

The guardrail contract under test: a corrupted payload, table, kernel, or
exactness fact must end in a typed :class:`repro.errors.ReproError` (the
fault is *detected*) or be *healed* with bit-exact results and an event in
`repro.diagnostics`: corrupted tables are rebuilt, and a fault a rebuild
cannot fix quarantines ``four_step`` so dispatch falls back to
``reference``.  No drill may produce a silently wrong transform or decode.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro import diagnostics
from repro.ckks.params import CkksParameters
from repro.errors import (
    BackendExactnessError,
    IncompatibleOperands,
    ParameterError,
    ReproError,
)
from repro.numtheory.crt import RnsBasis
from repro.numtheory.primes import generate_ntt_prime
from repro.poly import ntt_engine
from repro.poly.gemm_mod import set_strict
from repro.poly.rns_poly import basis_plan, stacked_ntt_forward
from repro.poly.ntt_engine import (
    BACKEND_FOUR_STEP,
    BACKEND_REFERENCE,
    QUARANTINE_COOLDOWN_MAX_S,
    QUARANTINE_COOLDOWN_S,
    NttPlanStack,
    clear_quarantine,
    plan_stack_for,
    quarantine_backend,
    quarantined_backends,
    reset_sentinels,
    verify_plan,
)
from repro.testing import (
    calibration_lie,
    corrupted_four_step_tables,
    flipped_ciphertext_bit,
    perturbed_gemm_outputs,
)

DEGREE = 64


@pytest.fixture(autouse=True)
def clean_guardrails(monkeypatch):
    """Every drill starts and ends with no quarantine and a clean event log.

    The drills steer dispatch themselves (the unpinned default or an
    explicit in-test pin), so an externally pinned ``REPRO_NTT_BACKEND`` --
    the CI cross-backend matrix -- is cleared: it would re-route the drill
    away from the backend whose guardrail is under test.
    """
    monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
    clear_quarantine()
    diagnostics.clear_events()
    yield
    clear_quarantine()
    reset_sentinels()
    diagnostics.clear_events()


@pytest.fixture(scope="module")
def ring():
    """A single-modulus ring: the cached one-limb plan stack and a probe."""
    q = generate_ntt_prime(28, DEGREE)
    plan = plan_stack_for((q,), DEGREE)
    probe = (np.arange(DEGREE, dtype=np.uint64) * np.uint64(7919)) % np.uint64(q)
    probe = probe[None, :]
    return {"q": q, "plan": plan, "probe": probe, "truth": plan.forward(probe.copy())}


def _rebuilds() -> int:
    return len(diagnostics.events("backend_tables_rebuilt"))


def _stack():
    basis = RnsBasis.generate(3, 28, DEGREE)
    stack = plan_stack_for(basis.moduli, DEGREE)
    matrix = np.stack(
        [
            (np.arange(DEGREE, dtype=np.uint64) * np.uint64(31 + i)) % np.uint64(q)
            for i, q in enumerate(basis.moduli)
        ]
    )
    return stack, matrix


class TestCiphertextBitFlip:
    def test_strict_mode_detects_non_canonical_payload(self, ckks_setup, rng):
        env = ckks_setup
        z = rng.uniform(-1, 1, env["params"].slot_count)
        ct = env["encryptor"].encrypt(env["encoder"].encode(z))
        other = env["encryptor"].encrypt(env["encoder"].encode(z))
        previous = set_strict(True)
        try:
            with flipped_ciphertext_bit(ct, bit=63):
                with pytest.raises(IncompatibleOperands, match="non-canonical"):
                    env["evaluator"].add(ct, other)
        finally:
            set_strict(previous)
        # Fault reverted: the ciphertext is healthy again.
        set_strict(True)
        try:
            env["evaluator"].add(ct, other)
        finally:
            set_strict(previous)

    def test_flip_is_reverted_on_exit(self, ckks_setup, rng):
        env = ckks_setup
        z = rng.uniform(-1, 1, env["params"].slot_count)
        ct = env["encryptor"].encrypt(env["encoder"].encode(z))
        original = int(ct.c0.residues[0, 0])
        with flipped_ciphertext_bit(ct):
            assert int(ct.c0.residues[0, 0]) != original
        assert int(ct.c0.residues[0, 0]) == original


class TestFourStepTableCorruption:
    def test_sentinel_heals_fresh_plan(self, ring):
        """A fresh (un-vetted) plan's vet catches the corruption and heals it
        by rebuilding the tables: no quarantine."""
        reset_sentinels()
        plan = ring["plan"]
        with corrupted_four_step_tables(plan):
            assert plan.resolve_backend() == BACKEND_FOUR_STEP
            out = plan.forward(ring["probe"].copy())
            assert np.array_equal(out, ring["truth"]), "healed result must be exact"
            assert _rebuilds() == 1
            assert not quarantined_backends()
            assert not diagnostics.events("backend_quarantined")
            assert np.array_equal(plan.forward(ring["probe"].copy()), ring["truth"])
        assert not quarantined_backends()
        assert np.array_equal(plan.forward(ring["probe"].copy()), ring["truth"])

    def test_verify_plan_quarantines_vetted_plan(self, ring):
        """A plan vetted before the fault needs the re-probe to catch it."""
        plan = ring["plan"]
        plan.forward(ring["probe"].copy())  # vet the tables pre-fault
        with corrupted_four_step_tables(plan):
            assert not verify_plan(plan)
            assert BACKEND_FOUR_STEP in quarantined_backends()
            out = plan.forward(ring["probe"].copy())
            assert np.array_equal(out, ring["truth"])
        assert verify_plan(ring["plan"])

    def test_strict_spot_check_detects(self, ring, monkeypatch):
        monkeypatch.setenv("REPRO_NTT_SPOT_STRIDE", "1")
        plan = ring["plan"]
        plan.forward(ring["probe"].copy())  # vet pre-fault: sentinel passes
        previous = set_strict(True)
        try:
            with corrupted_four_step_tables(plan):
                if plan.resolve_backend() == BACKEND_FOUR_STEP:
                    with pytest.raises(BackendExactnessError):
                        plan.forward(ring["probe"].copy())
                    # quarantined by the failed check: next call heals
                    out = plan.forward(ring["probe"].copy())
                    assert np.array_equal(out, ring["truth"])
        finally:
            set_strict(previous)

    def test_stack_sentinel_heals(self):
        stack, matrix = _stack()
        truth = stack.forward(matrix.copy())
        reset_sentinels()
        with corrupted_four_step_tables(stack):
            out = stack.forward(matrix.copy())
            assert np.array_equal(out, truth)
            assert _rebuilds() == 1
            assert not quarantined_backends()
        assert np.array_equal(stack.forward(matrix.copy()), truth)

    def test_verify_plan_quarantines_vetted_stack(self):
        """A stack vetted before the fault needs the re-probe to catch it."""
        stack, matrix = _stack()
        truth = stack.forward(matrix.copy())  # vet the tables pre-fault
        with corrupted_four_step_tables(stack):
            assert not verify_plan(stack)
            assert BACKEND_FOUR_STEP in quarantined_backends()
            assert np.array_equal(stack.forward(matrix.copy()), truth)
        assert verify_plan(stack)

    def test_strict_spot_check_detects_stack(self, monkeypatch):
        monkeypatch.setenv("REPRO_NTT_SPOT_STRIDE", "1")
        stack, matrix = _stack()
        truth = stack.forward(matrix.copy())  # vet pre-fault: sentinel passes
        previous = set_strict(True)
        try:
            with corrupted_four_step_tables(stack):
                assert stack.resolve_backend() == BACKEND_FOUR_STEP
                with pytest.raises(BackendExactnessError):
                    stack.forward(matrix.copy())
                assert np.array_equal(stack.forward(matrix.copy()), truth)
        finally:
            set_strict(previous)

    def test_other_chain_unaffected_by_four_step_fault(self, ring):
        """The fault stays in one chain's tables: a stack of the same ring
        with tables of its own keeps computing exactly and quarantines
        nothing."""
        other = NttPlanStack((ring["q"],), DEGREE)
        plan = ring["plan"]
        plan.forward(ring["probe"].copy())  # vet the tables pre-fault
        with corrupted_four_step_tables(plan):
            assert np.array_equal(other.forward(ring["probe"].copy()), ring["truth"])
            assert verify_plan(other)
            assert not quarantined_backends()

    def test_pinned_four_step_heals_to_reference(self, ring, monkeypatch):
        """An explicit ``REPRO_NTT_BACKEND=four_step`` pin still falls back
        once the rung is quarantined."""
        monkeypatch.setenv("REPRO_NTT_BACKEND", BACKEND_FOUR_STEP)
        plan = ring["plan"]
        assert plan.resolve_backend() == BACKEND_FOUR_STEP
        quarantine_backend(BACKEND_FOUR_STEP, reason="drill")
        assert plan.resolve_backend() == BACKEND_REFERENCE
        assert np.array_equal(plan.forward(ring["probe"].copy()), ring["truth"])


class TestGemmPerturbation:
    """A miscomputing cascade is a fault a rebuild cannot fix: the vet's
    rebuilt tables fail too, and four_step is quarantined."""

    def test_sentinel_heals_perturbed_cascade(self, ring):
        reset_sentinels()
        plan = ring["plan"]
        with perturbed_gemm_outputs():
            out = plan.forward(ring["probe"].copy())
            assert np.array_equal(out, ring["truth"])
            assert _rebuilds() == 1
            assert BACKEND_FOUR_STEP in quarantined_backends()
        assert np.array_equal(plan.forward(ring["probe"].copy()), ring["truth"])

    def test_sentinel_heals_perturbed_stack_cascade(self):
        stack, matrix = _stack()
        truth = stack.forward(matrix.copy())
        reset_sentinels()
        with perturbed_gemm_outputs():
            assert np.array_equal(stack.forward(matrix.copy()), truth)
            assert BACKEND_FOUR_STEP in quarantined_backends()
        assert np.array_equal(stack.forward(matrix.copy()), truth)


class TestCalibrationLie:
    def test_lie_heals_with_recorded_quarantine(self):
        """Tables split two ways where three are needed fail the vet, the
        rebuild fails the same way, and reference serves bit-exactly."""
        wide_q = generate_ntt_prime(30, 8192)
        plan = plan_stack_for((wide_q,), 8192)
        assert [chunks for _, chunks in ntt_engine._split_shifts(8192, (wide_q,))] == [
            3,
            2,
        ]
        probe = (np.arange(8192, dtype=np.uint64) * np.uint64(97)) % np.uint64(
            wide_q
        )
        probe = probe[None, :]
        truth = plan.forward(probe.copy())
        with calibration_lie(plan):
            assert plan.resolve_backend() == BACKEND_FOUR_STEP
            out = plan.forward(probe.copy())
            assert np.array_equal(out, truth), "lied tables must heal bit-exactly"
            assert _rebuilds() == 1
            (event,) = diagnostics.events("backend_quarantined")
            assert event["reason"] == "known-answer vet mismatch"
            assert plan.resolve_backend() == BACKEND_REFERENCE
        assert not quarantined_backends()
        assert np.array_equal(plan.forward(probe.copy()), truth)
        assert plan.resolve_backend() == BACKEND_FOUR_STEP

    def test_lie_bites_on_two_chunk_chains(self, ring):
        """On a 28-bit chain the lie reports an unsplit matrix: refused too."""
        plan = ring["plan"]
        with calibration_lie(plan):
            assert np.array_equal(plan.forward(ring["probe"].copy()), ring["truth"])
            assert BACKEND_FOUR_STEP in quarantined_backends()

    def test_lie_bites_on_the_dense_n64_chain(self):
        """The serving ring's chain runs the dense tile: one split GEMM a
        chunk short is refused, rebuilt on the same lie, and quarantined."""
        params = CkksParameters.create(
            degree=64, limbs=4, log_q=28, dnum=2, scale_bits=26
        )
        stack = params.plan_stack()
        assert ntt_engine._tile(64) == (64, 1)
        probe = np.stack(
            [ntt_engine._sentinel_vector(64, q)[::-1].copy() for q in stack.moduli]
        )
        truth = stack.forward(probe)
        with calibration_lie(stack):
            assert np.array_equal(stack.forward(probe), truth)
            assert _rebuilds() == 1
            assert BACKEND_FOUR_STEP in quarantined_backends()
        assert np.array_equal(stack.forward(probe), truth)
        assert stack.resolve_backend() == BACKEND_FOUR_STEP

    def test_direct_use_of_inexact_tables_is_typed(self):
        """Four-step tables for a ring with no exact split refuse, typed."""
        with pytest.raises(ParameterError):
            ntt_engine._FourStepStack((ntt_engine.MAX_PLAN_MODULUS - 5,), (1,), 2**17)


class TestQuarantineApi:
    def test_quarantine_is_idempotent_and_observable(self):
        quarantine_backend(BACKEND_FOUR_STEP, reason="drill")
        quarantine_backend(BACKEND_FOUR_STEP, reason="drill")
        assert quarantined_backends() == frozenset({BACKEND_FOUR_STEP})
        assert len(diagnostics.events("backend_quarantined")) == 1
        clear_quarantine()
        assert not quarantined_backends()

    def test_reference_cannot_be_quarantined(self):
        with pytest.raises(ReproError):
            quarantine_backend("reference", reason="drill")

    def test_quarantine_reroutes_resolution(self, ring):
        plan = ring["plan"]
        assert plan.resolve_backend() == BACKEND_FOUR_STEP
        quarantine_backend(BACKEND_FOUR_STEP, reason="drill")
        assert plan.resolve_backend() == BACKEND_REFERENCE
        out = plan.forward(ring["probe"].copy())
        assert np.array_equal(out, ring["truth"])
        clear_quarantine()
        assert plan.resolve_backend() == BACKEND_FOUR_STEP

    def test_unquarantined_dispatch_reads_no_clock_and_takes_no_lock(
        self, ring, monkeypatch
    ):
        """With no quarantine in force, dispatch and the quarantine query
        read no clock and take no guard lock."""
        plan = ring["plan"]
        plan.forward(ring["probe"].copy())  # vet outside the count
        touched = []

        class CountingLock:
            def __enter__(self):
                touched.append("lock")

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(ntt_engine, "_clock", lambda: touched.append("clock") or 0.0)
        monkeypatch.setattr(ntt_engine, "_GUARD_LOCK", CountingLock())
        assert np.array_equal(plan.forward(ring["probe"].copy()), ring["truth"])
        assert plan.resolve_backend() == BACKEND_FOUR_STEP
        assert quarantined_backends() == frozenset()
        assert touched == []


@contextmanager
def _offset_rows(table: np.ndarray, rows=slice(None)):
    """Offset ``rows`` of a limb-stacked table by one, then restore them.

    Unlike the `repro.testing` drills this leaves the quarantine state to
    the engine, so a quarantine it trips is lifted only by its lapse.
    """
    original = table[rows].copy()
    table[rows] += table.dtype.type(1)
    try:
        yield
    finally:
        table[rows] = original


def _four_step_matrix(stack: NttPlanStack) -> np.ndarray:
    """The chain's forward column matrix, every row of the chain."""
    return stack.four_step_stack()._fwd_pack[0]


class TestQuarantineRecovery:
    """Quarantines lapse after their cooldown; each chain re-vets first,
    rebuilding tables that fail.

    The engine clock is the test's frozen ``engine_clock``: a quarantine
    holds or lapses exactly when the test advances it.
    """

    @pytest.fixture
    def probes(self, monkeypatch):
        """Count the known-answer probes run (vets and ``verify_plan``)."""
        calls = []
        real = ntt_engine._sentinel_passes

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(ntt_engine, "_sentinel_passes", counted)
        return calls

    def _quarantine(self, source, plan, probe, monkeypatch):
        """Trip a four_step quarantine on ``plan`` through ``source``."""
        if source == "spot_check":
            monkeypatch.setenv("REPRO_NTT_SPOT_STRIDE", "1")
            previous = set_strict(True)
            try:
                with pytest.raises(BackendExactnessError):
                    plan.forward(probe.copy())
            finally:
                set_strict(previous)
        else:
            assert not verify_plan(plan)

    @pytest.mark.parametrize("source", ["spot_check", "verify_plan"])
    def test_lapse_revets_and_readmits_healthy_tables(
        self, ring, engine_clock, probes, monkeypatch, source
    ):
        plan, probe, truth = ring["plan"], ring["probe"], ring["truth"]
        cached, matrix = _stack()
        other = NttPlanStack(cached.moduli, DEGREE)  # a chain of its own
        other_truth = other.forward(matrix.copy())
        plan.forward(probe.copy())  # both chains vetted before the fault
        with _offset_rows(_four_step_matrix(plan)):
            self._quarantine(source, plan, probe, monkeypatch)
        (event,) = diagnostics.events("backend_quarantined")
        assert event["cooldown_s"] == QUARANTINE_COOLDOWN_S
        # Healthy again, but the quarantine holds until its cooldown is up.
        engine_clock.advance(QUARANTINE_COOLDOWN_S / 2)
        assert quarantined_backends() == frozenset({BACKEND_FOUR_STEP})
        assert plan.resolve_backend() == BACKEND_REFERENCE
        assert np.array_equal(plan.forward(probe.copy()), truth)

        engine_clock.advance(QUARANTINE_COOLDOWN_S / 2)
        del probes[:]
        assert np.array_equal(plan.forward(probe.copy()), truth)
        assert len(diagnostics.events("backend_quarantine_lifted")) == 1
        assert not quarantined_backends()
        assert plan.resolve_backend() == BACKEND_FOUR_STEP
        # One re-vet per chain, on its first dispatch after the lapse.
        assert len(probes) == 1
        assert np.array_equal(plan.forward(probe.copy()), truth)
        assert len(probes) == 1
        assert np.array_equal(other.forward(matrix.copy()), other_truth)
        assert len(probes) == 2
        # The passing re-vet reset the cooldown.
        quarantine_backend(BACKEND_FOUR_STEP, reason="drill")
        assert diagnostics.events("backend_quarantined")[-1]["cooldown_s"] == (
            QUARANTINE_COOLDOWN_S
        )

    def test_corrupted_tables_heal_at_the_first_lapse(
        self, ring, engine_clock, probes
    ):
        """Tables corrupted after their vet: verify_plan quarantines, and the
        re-vet at the lapse rebuilds them -- one lift, one rebuild, four_step
        back, and the cooldown reset."""
        plan, probe, truth = ring["plan"], ring["probe"], ring["truth"]
        plan.forward(probe.copy())  # vetted before the fault
        with corrupted_four_step_tables(plan):
            assert not verify_plan(plan)
            assert plan.resolve_backend() == BACKEND_REFERENCE
            engine_clock.advance(QUARANTINE_COOLDOWN_S)
            del probes[:]
            assert np.array_equal(plan.forward(probe.copy()), truth)
            assert len(diagnostics.events("backend_quarantine_lifted")) == 1
            assert _rebuilds() == 1
            assert len(probes) == 2  # the failed re-vet and the rebuild's
            assert not quarantined_backends()
            assert plan.resolve_backend() == BACKEND_FOUR_STEP
            assert np.array_equal(plan.forward(probe.copy()), truth)
        quarantine_backend(BACKEND_FOUR_STEP, reason="drill")
        cooldowns = [e["cooldown_s"] for e in diagnostics.events("backend_quarantined")]
        assert cooldowns == [QUARANTINE_COOLDOWN_S, QUARANTINE_COOLDOWN_S]

    def test_failed_revet_doubles_the_cooldown_up_to_the_cap(
        self, ring, engine_clock
    ):
        """A fault a rebuild cannot fix keeps four_step out: each lapse's
        re-vet rebuilds, fails again and doubles the cooldown."""
        plan, probe, truth = ring["plan"], ring["probe"], ring["truth"]
        reset_sentinels()
        cooldowns = []
        with perturbed_gemm_outputs():
            for _ in range(9):
                assert np.array_equal(plan.forward(probe.copy()), truth)
                assert BACKEND_FOUR_STEP in quarantined_backends()
                cooldowns.append(
                    diagnostics.events("backend_quarantined")[-1]["cooldown_s"]
                )
                engine_clock.advance(cooldowns[-1] - 1e-3)
                assert BACKEND_FOUR_STEP in quarantined_backends()
                engine_clock.advance(1e-3)
        assert cooldowns == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]
        assert QUARANTINE_COOLDOWN_MAX_S == 30.0
        assert len(diagnostics.events("backend_quarantine_lifted")) == 8
        assert _rebuilds() == 9

    def test_revet_covers_the_special_limbs(self, engine_clock, monkeypatch):
        """A chain's re-vet probes every row, the special limbs included:
        corrupted ``P`` rows of the four-step tables are caught by the re-vet
        a level basis that never touches them runs, and rebuilt -- at the
        top level and at level 1 -- with the cooldown reset each time."""
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        params = CkksParameters.create(
            degree=DEGREE, limbs=4, log_q=28, dnum=2, scale_bits=26
        )
        chain = params.plan_stack()
        special = [chain.moduli.index(p) for p in params.special_basis.moduli]
        for rebuilds, level in enumerate((params.limbs, 1), start=1):
            quarantine_backend(BACKEND_FOUR_STEP, reason="drill")
            assert diagnostics.events("backend_quarantined")[-1]["cooldown_s"] == (
                QUARANTINE_COOLDOWN_S
            )
            # The parameters' own bases dispatch on views of their own chain.
            extended, basis = params.extended_basis(level), params.basis_at_level(level)
            matrix = np.stack(
                [np.arange(DEGREE, dtype=np.uint64) % np.uint64(q) for q in basis.moduli]
            )
            truth = NttPlanStack(basis.moduli, DEGREE, backend="reference").forward(
                matrix
            )
            with _offset_rows(_four_step_matrix(basis_plan(extended)), special):
                engine_clock.advance(QUARANTINE_COOLDOWN_S)
                assert np.array_equal(stacked_ntt_forward(basis, matrix.copy()), truth)
                assert not quarantined_backends()
                assert _rebuilds() == rebuilds
