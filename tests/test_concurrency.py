"""Concurrency tests: shared evaluators, plan caches, and LRU thread safety.

The serving runtime shares one :class:`~repro.ckks.evaluator.CkksEvaluator`
per tenant across every worker thread, and all tenants share the process
wide NTT plan caches.  These tests pin down the property that makes that
sharing sound: N threads evaluating *disjoint* ciphertexts through one
evaluator produce results **bit-exact** against the serial run -- including
while a quarantine flips the dispatch ladder mid-flight -- and the bounded
LRU caches never corrupt, deadlock, or overflow under contention.
"""

from __future__ import annotations

import sys
import threading

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
from repro.diagnostics import BoundedLruCache, WeakCacheGroup
from repro.poly import ntt_engine

THREADS = 8
PER_THREAD = 3


@pytest.fixture(scope="module")
def shared_setup():
    params = CkksParameters.create(
        degree=64, limbs=4, log_q=28, dnum=2, scale_bits=26
    )
    keygen = KeyGenerator(params, rng=np.random.default_rng(11))
    rotation = pow(5, 1, 2 * params.degree)
    return {
        "params": params,
        "encoder": CkksEncoder(params),
        "encryptor": Encryptor(params, keygen.public_key(), keygen),
        "decryptor": Decryptor(params, keygen.secret_key),
        "evaluator": CkksEvaluator(
            params,
            relin_key=keygen.relinearization_key(),
            galois_keys=keygen.galois_keys([rotation]),
        ),
    }


def _make_inputs(setup, count):
    rng = np.random.default_rng(99)
    slots = setup["params"].slot_count
    out = []
    for _ in range(count):
        vec = rng.uniform(-1, 1, slots)
        weights = setup["encoder"].encode(rng.uniform(-1, 1, slots))
        out.append((setup["encryptor"].encrypt(setup["encoder"].encode(vec)), weights))
    return out


def _circuit(evaluator, ciphertext, weights):
    """mult_plain -> rescale -> rotate -> square -> rescale: exercises the
    plaintext cache, the key-switch digit cache, and both NTT directions."""
    scaled = evaluator.rescale(evaluator.multiply_plain(ciphertext, weights))
    rotated = evaluator.rotate(scaled, 1)
    return evaluator.rescale(evaluator.square(rotated))


def _residues(ciphertext):
    parts = [ciphertext.c0.residues.copy(), ciphertext.c1.residues.copy()]
    if getattr(ciphertext, "c2", None) is not None:
        parts.append(ciphertext.c2.residues.copy())
    return parts


def _run_threaded(setup, inputs, *, midflight=None):
    """Evaluate every input once, spread over THREADS threads.

    ``midflight`` is an optional callback fired from a coordinator thread
    once all workers have passed the start barrier (i.e. while circuits are
    genuinely in flight).
    """
    evaluator = setup["evaluator"]
    results: list = [None] * len(inputs)
    errors: list = []
    barrier = threading.Barrier(THREADS + (1 if midflight else 0))

    def worker(thread_index):
        try:
            barrier.wait(timeout=10.0)
            for task_index in range(
                thread_index, len(inputs), THREADS
            ):
                ciphertext, weights = inputs[task_index]
                results[task_index] = _circuit(evaluator, ciphertext, weights)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    if midflight:
        barrier.wait(timeout=10.0)
        midflight()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), "worker hung"
    assert not errors, errors
    return results


class TestSharedEvaluator:
    def test_threads_match_serial_bit_exact(self, shared_setup):
        inputs = _make_inputs(shared_setup, THREADS * PER_THREAD)
        serial = [
            _residues(_circuit(shared_setup["evaluator"], ct, w))
            for ct, w in inputs
        ]
        threaded = _run_threaded(shared_setup, inputs)
        for expected, got in zip(serial, threaded):
            for expected_part, got_part in zip(expected, _residues(got)):
                assert np.array_equal(expected_part, got_part)

    def test_bit_exact_across_midflight_quarantine(self, shared_setup):
        """Quarantining the fast backend while circuits are in flight reroutes
        dispatch (different backend, same ring) without changing one bit."""
        inputs = _make_inputs(shared_setup, THREADS * PER_THREAD)
        serial = [
            _residues(_circuit(shared_setup["evaluator"], ct, w))
            for ct, w in inputs
        ]

        def quarantine_fast_backend():
            ntt_engine.quarantine_backend(
                ntt_engine.BACKEND_FOUR_STEP, reason="mid-flight drill"
            )

        try:
            threaded = _run_threaded(
                shared_setup, inputs, midflight=quarantine_fast_backend
            )
        finally:
            ntt_engine.clear_quarantine()
        for expected, got in zip(serial, threaded):
            for expected_part, got_part in zip(expected, _residues(got)):
                assert np.array_equal(expected_part, got_part)

    def test_decode_still_correct_after_threaded_run(self, shared_setup):
        (ciphertext, weights), = _make_inputs(shared_setup, 1)
        result = _run_threaded(
            shared_setup, [(ciphertext, weights)] * 1
        )[0]
        decoded = shared_setup["encoder"].decode(
            shared_setup["decryptor"].decrypt(result)
        ).real
        assert np.isfinite(decoded).all()


class TestTransformCounters:
    """The limb-row budgets are asserted through these process-wide counters,
    which server worker threads bump concurrently: no update may be lost."""

    def test_no_lost_updates_under_contention(self):
        per_thread, rows = 5_000, 3
        barrier = threading.Barrier(THREADS)
        stop_resetting = threading.Event()

        def worker():
            barrier.wait(timeout=10.0)
            for _ in range(per_thread):
                ntt_engine._count_pass("forward", rows)
                ntt_engine._count_pass("inverse", 1)

        def snapshotter():
            # Readers must never see a pass without its limb rows.
            while not stop_resetting.is_set():
                counts = ntt_engine.transform_counts()
                assert counts["forward_limbs"] == rows * counts["forward"]

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        reader = threading.Thread(target=snapshotter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force switches inside the read-modify-write
        try:
            ntt_engine.reset_transform_counts()
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            stop_resetting.set()
            reader.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [reader])
        assert ntt_engine.transform_counts() == {
            "forward": THREADS * per_thread,
            "inverse": THREADS * per_thread,
            "forward_limbs": THREADS * per_thread * rows,
            "inverse_limbs": THREADS * per_thread,
        }

    def test_threaded_circuits_book_the_serial_row_count(self, shared_setup):
        inputs = _make_inputs(shared_setup, THREADS * PER_THREAD)
        _circuit(shared_setup["evaluator"], *inputs[0])  # warm caches
        ntt_engine.reset_transform_counts()
        _circuit(shared_setup["evaluator"], *inputs[0])
        one = ntt_engine.transform_counts()
        ntt_engine.reset_transform_counts()
        _run_threaded(shared_setup, inputs)
        total = ntt_engine.transform_counts()
        assert total == {key: value * len(inputs) for key, value in one.items()}


class TestBoundedLruCacheThreadSafety:
    def test_contended_mixed_operations(self):
        cache = BoundedLruCache(capacity=8, name="stress")
        built = [0]
        build_lock = threading.Lock()
        errors: list = []
        barrier = threading.Barrier(THREADS)

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                barrier.wait(timeout=10.0)
                for step in range(400):
                    key = int(rng.integers(0, 24))
                    op = step % 5
                    if op == 0:
                        def factory():
                            with build_lock:
                                built[0] += 1
                            return key * 2
                        assert cache.get_or_create(key, factory) == key * 2
                    elif op == 1:
                        cache.put(key, key * 2)
                    elif op == 2:
                        value = cache.get(key)
                        assert value is None or value == key * 2
                    elif op == 3:
                        cache.pop(key)
                    else:
                        for entry_key, value in cache.items():
                            assert value == entry_key * 2
                    assert len(cache) <= 8
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "cache op deadlocked"
        assert not errors, errors
        stats = cache.stats()
        assert stats["size"] <= 8
        assert built[0] >= 1

    def test_get_or_create_single_value_wins(self):
        """Racing builders may both run, but every thread adopts one entry."""
        cache = BoundedLruCache(capacity=4, name="race")
        seen = set()
        barrier = threading.Barrier(THREADS)
        seen_lock = threading.Lock()

        def worker(tag):
            barrier.wait(timeout=10.0)
            value = cache.get_or_create("k", lambda: object())
            with seen_lock:
                seen.add(id(value))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        # all threads converged on the single cached object
        assert len(seen) == 1
        assert id(cache.get("k")) in seen

    def test_group_registration_race(self):
        group = WeakCacheGroup("stress-group")
        barrier = threading.Barrier(THREADS)
        errors: list = []
        keepalive = []

        def worker(index):
            try:
                barrier.wait(timeout=10.0)
                for n in range(50):
                    cache = BoundedLruCache(capacity=2, name=f"c{index}-{n}")
                    cache.put("x", 1)
                    keepalive.append(cache)
                    group.add(cache)
                    group.stats()  # concurrent registry walk
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        totals = group.stats()
        assert totals["instances"] == THREADS * 50
        assert totals["size"] == THREADS * 50  # one live entry per member
