"""Homomorphic polynomial evaluation: Chebyshev basis + Paterson-Stockmeyer.

The last structural piece of the bootstrapping pipeline.  A function is
represented as a :class:`ChebyshevSeries` (coefficients in the Chebyshev
basis over an interval, fit either by interpolation at the Chebyshev nodes or
by least squares over a union of sub-intervals) and evaluated on a ciphertext
with the baby-step/giant-step Paterson-Stockmeyer recursion:

* the *power basis* ``T_1 .. T_{m-1}`` (baby block) and the *giants*
  ``T_m, T_2m, T_4m, ...`` are produced by the product rule
  ``T_{a+b} = 2 T_a T_b - T_{a-b}`` through one memoised cache, so a degree-d
  evaluation pays ``~2 sqrt(d)`` non-scalar multiplications instead of the
  naive ``d``;
* the series is recursively split ``f = q * T_g + r`` by exact polynomial
  division *in the Chebyshev basis* (:func:`chebyshev_divmod`), multiplying
  ciphertext-evaluated quotients against cached giants;
* scalar coefficient multiplications ride
  :meth:`CkksEvaluator.mul_plain_scalar` (a single-integer carry, no NTT) and
  every cross-depth combination is aligned by
  :meth:`CkksEvaluator.rescale_to` / :meth:`align_pair`, so callers never
  manage levels or scales themselves.

The sequential Clenshaw recurrence (the Chebyshev analogue of Horner's rule:
depth ``d``, ``d`` non-scalar multiplications) is kept as the oracle both the
tests and the CI benchmark gate compare against, and the same recursion runs
over plain scalars -- exact over ``fractions.Fraction`` -- so the
Paterson-Stockmeyer restructuring itself is property-tested bit-exact against
Horner/Clenshaw.

On top of the engine, :class:`EvalModPoly` packages the scaled-sine
approximation of ``x mod q`` that bootstrapping's EvalMod phase evaluates:
``(P/2pi) * sin(2pi x / P)`` fit as a (optionally double-angle folded)
shifted cosine on the union of intervals around the multiples of
``P = q_0/Delta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log2, pi
from typing import Callable, Sequence

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.evaluator import CkksEvaluator
from repro.errors import ParameterError

#: Coefficients whose magnitude (relative to the largest) falls below this
#: threshold are treated as structural zeros by the evaluators.
COEFFICIENT_TOLERANCE = 1e-13


# --------------------------------------------------------------------------
# Chebyshev-basis helpers (exact over any scalar ring)
# --------------------------------------------------------------------------


def chebyshev_divmod(coefficients: Sequence, divisor_degree: int):
    """Divide a Chebyshev series by ``T_n``: ``f = q * T_n + r``.

    Uses the product rule ``T_n * T_k = (T_{n+k} + T_{|n-k|}) / 2`` to peel
    the leading coefficient, so the division is exact in any scalar ring
    closed under halving (floats, complex, ``fractions.Fraction``).  Returns
    ``(quotient, remainder)`` as coefficient lists with
    ``len(remainder) == n``.
    """
    n = int(divisor_degree)
    if n < 1:
        raise ParameterError("divisor degree must be >= 1")
    work = list(coefficients)
    if len(work) - 1 < n:
        return [work[0] * 0], list(work)
    quotient = [work[0] * 0] * (len(work) - n)
    for d in range(len(work) - 1, n, -1):
        lead = work[d]
        if lead == 0:
            continue
        # lead*T_d = 2*lead*T_n*T_{d-n} - lead*T_{|2n-d|}
        quotient[d - n] = quotient[d - n] + lead + lead
        work[d] = lead * 0
        work[abs(2 * n - d)] = work[abs(2 * n - d)] - lead
    quotient[0] = quotient[0] + work[n]
    work[n] = work[n] * 0
    return quotient, work[:n]


def clenshaw(coefficients: Sequence, t):
    """Clenshaw's recurrence -- the Chebyshev analogue of Horner's rule.

    Evaluates ``sum_k c_k T_k(t)`` with ``d`` multiplications by ``t``; exact
    in any scalar ring (run it over ``fractions.Fraction`` for a bit-exact
    oracle).
    """
    coefficients = list(coefficients)
    if len(coefficients) == 1:
        return coefficients[0] + t * 0
    b_next = coefficients[0] * 0  # b_{k+2}
    b_curr = coefficients[0] * 0  # b_{k+1}
    for c in reversed(coefficients[1:]):
        b_curr, b_next = c + 2 * t * b_curr - b_next, b_curr
    return coefficients[0] + t * b_curr - b_next


def _ps_giant_degree(degree: int, baby_count: int) -> int:
    """The largest giant ``T_g`` (``g = m * 2^i <= degree``) the split uses."""
    g = baby_count
    while 2 * g <= degree:
        g *= 2
    return g


def ps_operation_counts(degree: int, baby_count: int | None = None) -> dict:
    """Planned operation counts of one Paterson-Stockmeyer evaluation.

    Simulates the recursion symbolically (no ciphertexts) and returns
    ``{"baby_count", "he_mult", "he_add", "scalar_mult", "depth"}`` where
    ``he_mult`` counts non-scalar (ciphertext x ciphertext) multiplications
    -- the ``~2 sqrt(d)`` the schedule model prices -- assuming a dense
    coefficient vector.  ``baby_count=None`` searches the power-of-two splits
    for the cheapest plan, mirroring the real evaluator.
    """
    degree = int(degree)
    if degree < 1:
        raise ParameterError("degree must be >= 1")

    def plan_cost(m: int) -> dict:
        powers: set[int] = set()

        def request(k: int) -> None:
            """Mirror of ``ChebyshevPowerBasis.power``'s memoised splitting."""
            if k <= 1 or k in powers:
                return
            powers.add(k)
            request((k + 1) // 2)
            request(k // 2)

        counts = {"he_mult": 0, "he_add": 0, "scalar_mult": 0}

        def recurse(d: int) -> None:
            if d < m:
                for k in range(1, d + 1):
                    request(k)
                    counts["scalar_mult"] += 1
                counts["he_add"] += max(d, 1)  # accumulation + constant
                return
            g = _ps_giant_degree(d, m)
            request(g)
            if d - g == 0:
                # Constant quotient: the evaluator uses a scalar multiply.
                counts["scalar_mult"] += 1
            else:
                recurse(d - g)  # quotient has degree d - g
                counts["he_mult"] += 1
            recurse(g - 1)  # dense remainder has degree g - 1
            counts["he_add"] += 1

        recurse(degree)
        power_mults = sum(1 for k in powers if k > 1)
        counts["he_mult"] += power_mults
        counts["he_add"] += 2 * power_mults  # doubling add + correction
        giant = _ps_giant_degree(degree, m) if degree >= m else max(degree, 1)
        depth = int(ceil(log2(max(giant, 2)))) + max(
            int(ceil(log2(max(min(degree, m), 2)))), 1
        )
        return {"baby_count": m, "depth": depth, **counts}

    if baby_count is not None:
        return plan_cost(int(baby_count))
    candidates = [1 << s for s in range(1, max(2, degree.bit_length()))]
    return min(
        (plan_cost(m) for m in candidates),
        key=lambda plan: (plan["he_mult"], plan["baby_count"]),
    )


# --------------------------------------------------------------------------
# Chebyshev series fitting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChebyshevSeries:
    """A function as Chebyshev coefficients over ``interval``.

    ``coefficients[k]`` multiplies ``T_k(t)`` where ``t`` is the affine image
    of ``x`` in ``[-1, 1]``; :meth:`__call__` is the NumPy reference the
    homomorphic evaluation is tested against.
    """

    coefficients: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if coefficients.ndim != 1 or coefficients.size == 0:
            raise ParameterError("coefficients must be a non-empty 1-D array")
        lo, hi = self.interval
        if not lo < hi:
            raise ParameterError(f"empty interval {self.interval}")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "interval", (float(lo), float(hi)))

    @property
    def degree(self) -> int:
        """Degree of the series (index of the last coefficient)."""
        return self.coefficients.size - 1

    def argument(self, x):
        """Affine map from ``interval`` onto the Chebyshev domain [-1, 1]."""
        lo, hi = self.interval
        return (2.0 * np.asarray(x, dtype=np.float64) - (lo + hi)) / (hi - lo)

    def __call__(self, x):
        """NumPy reference evaluation (``numpy.polynomial.chebyshev``)."""
        return np.polynomial.chebyshev.chebval(self.argument(x), self.coefficients)

    def truncated(self, tol: float = COEFFICIENT_TOLERANCE) -> "ChebyshevSeries":
        """Drop trailing coefficients below ``tol`` (relative to the max)."""
        magnitudes = np.abs(self.coefficients)
        cutoff = magnitudes.max() * tol
        keep = np.nonzero(magnitudes > cutoff)[0]
        last = int(keep.max()) if keep.size else 0
        return ChebyshevSeries(self.coefficients[: last + 1], self.interval)

    # ---------------------------------------------------------------- fitting
    @classmethod
    def fit(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        degree: int,
        interval: tuple[float, float],
    ) -> "ChebyshevSeries":
        """Interpolate ``fn`` at the ``degree + 1`` Chebyshev nodes."""
        lo, hi = float(interval[0]), float(interval[1])
        nodes = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
        x = (hi - lo) / 2.0 * nodes + (hi + lo) / 2.0
        values = np.asarray(fn(x), dtype=np.float64)
        coefficients = np.polynomial.chebyshev.chebfit(nodes, values, degree)
        return cls(coefficients, (lo, hi))

    @classmethod
    def fit_intervals(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        degree: int,
        interval: tuple[float, float],
        sub_intervals: Sequence[tuple[float, float]],
        samples_per_interval: int = 64,
    ) -> "ChebyshevSeries":
        """Least-squares fit concentrated on a union of sub-intervals.

        The EvalMod shape: the approximation only needs to be accurate near
        the multiples of the modulus, so the fit samples Chebyshev-distributed
        points from each sub-interval (all mapped through ``interval``'s
        affine change of variable) and solves one ``chebfit`` least-squares
        problem over the union.
        """
        lo, hi = float(interval[0]), float(interval[1])
        nodes = np.cos(
            np.pi * (np.arange(samples_per_interval) + 0.5) / samples_per_interval
        )
        xs = []
        for sub_lo, sub_hi in sub_intervals:
            if not lo <= sub_lo < sub_hi <= hi:
                raise ParameterError(
                    f"sub-interval ({sub_lo}, {sub_hi}) outside {interval}"
                )
            xs.append((sub_hi - sub_lo) / 2.0 * nodes + (sub_hi + sub_lo) / 2.0)
        x = np.concatenate(xs)
        t = (2.0 * x - (lo + hi)) / (hi - lo)
        values = np.asarray(fn(x), dtype=np.float64)
        coefficients = np.polynomial.chebyshev.chebfit(t, values, degree)
        return cls(coefficients, (lo, hi))


# --------------------------------------------------------------------------
# Homomorphic evaluation
# --------------------------------------------------------------------------


@dataclass
class ChebyshevPowerBasis:
    """Memoised homomorphic Chebyshev powers ``T_k`` of one argument.

    Powers are produced on demand by ``T_{a+b} = 2 T_a T_b - T_{a-b}`` with
    the balanced split ``a = ceil(k/2)`` (depth ``ceil(log2 k)`` non-scalar
    multiplications, shared across the whole evaluation -- the baby block and
    every giant ride the same cache).
    """

    evaluator: CkksEvaluator
    argument: Ciphertext
    _powers: dict[int, Ciphertext] = field(init=False, default_factory=dict)
    multiplications: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._powers[1] = self.argument

    def power(self, k: int) -> Ciphertext:
        """The ciphertext holding ``T_k(argument)``."""
        if k < 1:
            raise ParameterError("T_0 is a constant; powers start at T_1")
        cached = self._powers.get(k)
        if cached is not None:
            return cached
        evaluator = self.evaluator
        a, b = (k + 1) // 2, k // 2
        lhs, rhs = evaluator.align_for_multiply(self.power(a), self.power(b))
        product = evaluator.rescale(evaluator.multiply(lhs, rhs))
        self.multiplications += 1
        doubled = evaluator.add(product, product)
        if a == b:
            # T_{2a} = 2 T_a^2 - T_0, and T_0 = 1.
            result = evaluator.sub_scalar(doubled, 1.0)
        else:
            correction = evaluator.rescale_to(
                self.power(a - b), doubled.level, doubled.scale
            )
            result = evaluator.sub(doubled, correction)
        self._powers[k] = result
        return result


def _default_baby_count(degree: int) -> int:
    """Cheapest power-of-two baby count for a dense degree-``degree`` series."""
    return ps_operation_counts(degree)["baby_count"]


def chebyshev_argument(
    evaluator: CkksEvaluator, series: ChebyshevSeries, ciphertext: Ciphertext
) -> Ciphertext:
    """Map the ciphertext from ``series.interval`` onto [-1, 1] (one level).

    ``t = alpha * x + beta`` with ``alpha = 2/(hi-lo)``; symmetric intervals
    skip the constant.
    """
    lo, hi = series.interval
    alpha = 2.0 / (hi - lo)
    beta = -(hi + lo) / (hi - lo)
    result = evaluator.rescale(evaluator.mul_plain_scalar(ciphertext, alpha))
    if abs(beta) > 0.0:
        result = evaluator.add_scalar(result, beta)
    return result


def evaluate_chebyshev(
    evaluator: CkksEvaluator,
    series: ChebyshevSeries,
    ciphertext: Ciphertext,
    *,
    baby_count: int | None = None,
    map_argument: bool = True,
) -> Ciphertext:
    """Paterson-Stockmeyer evaluation of ``series`` on a ciphertext.

    ``~2 sqrt(d)`` non-scalar multiplications and ``O(log d)`` depth for a
    degree-``d`` series.  ``map_argument=False`` assumes the ciphertext
    already carries the Chebyshev argument ``t in [-1, 1]``.  Decrypts to
    ``series(x)`` up to CKKS noise and the fit error.
    """
    series = series.truncated()
    coefficients = series.coefficients
    if map_argument:
        argument = chebyshev_argument(evaluator, series, ciphertext)
    else:
        argument = ciphertext
    if series.degree == 0:
        return evaluator.add_scalar(
            evaluator.rescale(evaluator.mul_plain_scalar(argument, 0.0)),
            float(coefficients[0]),
        )
    basis = ChebyshevPowerBasis(evaluator, argument)
    m = _default_baby_count(series.degree) if baby_count is None else int(baby_count)
    if m < 2:
        raise ParameterError("baby count must be >= 2")
    tol = np.abs(coefficients).max() * COEFFICIENT_TOLERANCE

    def combine(coeffs: np.ndarray) -> Ciphertext:
        """Baby case: ``sum_k c_k T_k + c_0`` at one shared level.

        Each power's (slightly drifted) scale is folded into its scalar
        coefficient's carry scale so every term lands on the common product
        scale ``Delta * q`` exactly -- the combine output rescales to the
        parameter set's ``Delta`` no matter what the powers carried.
        """
        used = [k for k in range(1, len(coeffs)) if abs(coeffs[k]) > tol]
        weights = {k: float(coeffs[k]) for k in used}
        if not used:
            # Constant-only block (e.g. a divmod remainder that trimmed to
            # its constant term): a transparent zero term carries it.
            used = [1]
            weights = {1: 0.0}
        parts = [basis.power(k) for k in used]
        floor_level = min(part.level for part in parts)
        delta = evaluator.params.scale
        product_scale = delta * float(
            evaluator.params.modulus_basis.moduli[floor_level - 1]
        )
        accumulator: Ciphertext | None = None
        for k, part in zip(used, parts):
            if part.level > floor_level:
                part = evaluator.rescale_to(part, floor_level, delta)
            term = evaluator.mul_plain_scalar(
                part, weights[k], plain_scale=product_scale / part.scale
            )
            accumulator = (
                term if accumulator is None else evaluator.add(accumulator, term)
            )
        result = evaluator.rescale(accumulator)
        if abs(coeffs[0]) > 0.0:
            result = evaluator.add_scalar(result, float(coeffs[0]))
        return result

    def recurse(coeffs: np.ndarray) -> Ciphertext:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        while len(coeffs) > 1 and abs(coeffs[-1]) <= tol:
            coeffs = coeffs[:-1]
        d = len(coeffs) - 1
        if d < m:
            return combine(coeffs)
        g = _ps_giant_degree(d, m)
        quotient, remainder = chebyshev_divmod(list(coeffs), g)
        giant = basis.power(g)
        quotient = np.asarray(quotient, dtype=np.float64)
        if len(quotient) == 1:
            # Constant quotient: a scalar multiplication, not a ciphertext one.
            lhs = evaluator.rescale(
                evaluator.mul_plain_scalar(giant, float(quotient[0]))
            )
        else:
            q_ct, g_ct = evaluator.align_for_multiply(recurse(quotient), giant)
            lhs = evaluator.rescale(evaluator.multiply(q_ct, g_ct))
        rhs = recurse(np.asarray(remainder, dtype=np.float64))
        lhs, rhs = evaluator.align_pair(lhs, rhs)
        return evaluator.add(lhs, rhs)

    return recurse(coefficients)


def evaluate_chebyshev_horner(
    evaluator: CkksEvaluator,
    series: ChebyshevSeries,
    ciphertext: Ciphertext,
    *,
    map_argument: bool = True,
) -> Ciphertext:
    """Clenshaw/Horner evaluation: depth ``d``, ``d`` non-scalar multiplies.

    The naive oracle the Paterson-Stockmeyer path is benchmarked against --
    every step multiplies the running value by the argument, so the
    ciphertext must carry at least ``degree + 2`` levels.
    """
    series = series.truncated()
    coefficients = series.coefficients
    if map_argument:
        argument = chebyshev_argument(evaluator, series, ciphertext)
    else:
        argument = ciphertext
    degree = series.degree
    if degree == 0:
        return evaluator.add_scalar(
            evaluator.rescale(evaluator.mul_plain_scalar(argument, 0.0)),
            float(coefficients[0]),
        )
    if degree == 1:
        result = evaluator.rescale(
            evaluator.mul_plain_scalar(argument, float(coefficients[1]))
        )
        return evaluator.add_scalar(result, float(coefficients[0]))

    def times_argument(value: Ciphertext, double: bool) -> Ciphertext:
        arg, val = evaluator.align_for_multiply(argument, value)
        product = evaluator.rescale(evaluator.multiply(arg, val))
        return evaluator.add(product, product) if double else product

    # b_d is the constant c_d; b_{d-1} = c_{d-1} + 2 c_d t is the first
    # ciphertext -- both fold into scalar operations, and the constant b_d
    # is subtracted as a scalar when b_{d-2} consumes it.
    b_curr = evaluator.rescale(
        evaluator.mul_plain_scalar(argument, 2.0 * float(coefficients[degree]))
    )
    if coefficients[degree - 1] != 0.0:
        b_curr = evaluator.add_scalar(b_curr, float(coefficients[degree - 1]))
    b_prev: Ciphertext | float = float(coefficients[degree])
    for k in range(degree - 2, 0, -1):
        # b_k = c_k + 2 t b_{k+1} - b_{k+2}
        value = times_argument(b_curr, double=True)
        constant = float(coefficients[k])
        if isinstance(b_prev, float):
            constant -= b_prev
        else:
            value = evaluator.sub(
                value, evaluator.rescale_to(b_prev, value.level, value.scale)
            )
        if constant != 0.0:
            value = evaluator.add_scalar(value, constant)
        b_curr, b_prev = value, b_curr
    # f = c_0 + t b_1 - b_2
    result = times_argument(b_curr, double=False)
    constant = float(coefficients[0])
    if isinstance(b_prev, float):
        constant -= b_prev
    else:
        result = evaluator.sub(
            result, evaluator.rescale_to(b_prev, result.level, result.scale)
        )
    if constant != 0.0:
        result = evaluator.add_scalar(result, constant)
    return result


# --------------------------------------------------------------------------
# EvalMod: the scaled-sine approximation of x mod q
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalModPoly:
    """The EvalMod approximation ``x mod P -> (P/2pi) sin(2pi x/P)``.

    The sine is realised as the quarter-period-shifted cosine
    ``cos(2pi x/P - pi/2)``; with ``double_angle = r`` the *fitted* series
    approximates ``cos((2pi x/P - pi/2) / 2^r)`` -- a ``2^r`` times slower
    oscillation needing a correspondingly lower degree -- and ``r``
    double-angle steps (``c <- 2c^2 - 1``, one non-scalar multiplication
    each) recover the full-frequency cosine after evaluation.

    ``period`` is ``q_0/Delta`` in slot units (times the CoeffToSlot ladder's
    ``sqrt(slots)`` constant when the normalised ladder feeds it), ``k_bound``
    the covered overflow range ``|I| <= K``, and ``message_width`` the
    half-width (in slot units) of the accurate window around each multiple.
    """

    series: ChebyshevSeries
    period: float
    k_bound: int
    double_angle: int
    message_width: float

    @classmethod
    def create(
        cls,
        period: float,
        *,
        k_bound: int,
        degree: int,
        double_angle: int = 1,
        message_width: float | None = None,
        samples_per_interval: int = 64,
    ) -> "EvalModPoly":
        """Fit the folded cosine on the union of intervals around ``i * P``.

        ``degree`` is the degree of the *fitted* series (the effective degree
        of the full approximation is ``degree * 2^double_angle``).
        """
        period = float(period)
        k_bound = int(k_bound)
        double_angle = int(double_angle)
        if period <= 0:
            raise ParameterError("period must be positive")
        if k_bound < 1:
            raise ParameterError("k_bound must be >= 1")
        if double_angle < 0:
            raise ParameterError("double_angle must be >= 0")
        if message_width is None:
            message_width = period / 4.0
        message_width = float(message_width)
        if not 0 < message_width < period / 2.0:
            raise ParameterError("message_width must be in (0, period/2)")
        bound = (k_bound + 0.5) * period
        fold = float(1 << double_angle)

        def folded_cosine(x: np.ndarray) -> np.ndarray:
            return np.cos((2.0 * np.pi * x / period - np.pi / 2.0) / fold)

        sub_intervals = [
            (i * period - message_width, i * period + message_width)
            for i in range(-k_bound, k_bound + 1)
        ]
        series = ChebyshevSeries.fit_intervals(
            folded_cosine,
            degree,
            (-bound, bound),
            sub_intervals,
            samples_per_interval=samples_per_interval,
        ).truncated()
        return cls(
            series=series,
            period=period,
            k_bound=k_bound,
            double_angle=double_angle,
            message_width=message_width,
        )

    @property
    def effective_degree(self) -> int:
        """Degree of the full approximation after double-angle unfolding."""
        return self.series.degree * (1 << self.double_angle)

    @property
    def output_scaling(self) -> float:
        """The ``P/2pi`` constant restoring ``sin`` to ``x mod P`` units."""
        return self.period / (2.0 * pi)

    def reference(self, x: np.ndarray) -> np.ndarray:
        """NumPy mirror of the full homomorphic evaluation (fit included)."""
        value = self.series(np.asarray(x, dtype=np.float64))
        for _ in range(self.double_angle):
            value = 2.0 * value * value - 1.0
        return self.output_scaling * value

    def exact(self, x: np.ndarray) -> np.ndarray:
        """The target function ``(P/2pi) sin(2pi x/P)`` (no fit error)."""
        x = np.asarray(x, dtype=np.float64)
        return self.output_scaling * np.sin(2.0 * np.pi * x / self.period)

    def multiplication_count(self, baby_count: int | None = None) -> int:
        """Planned non-scalar multiplications of one EvalMod invocation.

        The argument map and the output scaling are *scalar* multiplications
        and are not counted here -- only the Paterson-Stockmeyer products and
        the double-angle squarings, matching what the evaluator's ``he_mult``
        counter measures.
        """
        plan = ps_operation_counts(self.series.degree, baby_count)
        return plan["he_mult"] + self.double_angle

    def addition_count(self, baby_count: int | None = None) -> int:
        """Planned homomorphic additions of one EvalMod invocation."""
        plan = ps_operation_counts(self.series.degree, baby_count)
        return plan["he_add"] + 2 * self.double_angle

    def depth(self, baby_count: int | None = None) -> int:
        """Planned multiplicative depth (argument map through output scaling)."""
        plan = ps_operation_counts(self.series.degree, baby_count)
        return plan["depth"] + self.double_angle + 2


def eval_mod(
    evaluator: CkksEvaluator,
    ciphertext: Ciphertext,
    evalmod: EvalModPoly,
    *,
    baby_count: int | None = None,
) -> Ciphertext:
    """Homomorphic ``x mod P`` on the slots of a ciphertext.

    Paterson-Stockmeyer on the folded cosine, ``double_angle`` unfolding
    steps, then the ``P/2pi`` output scaling.  Slots must lie in the fitted
    union of intervals (``|x - i*P| <= message_width`` for ``|i| <= K``).
    """
    value = evaluate_chebyshev(
        evaluator, evalmod.series, ciphertext, baby_count=baby_count
    )
    for _ in range(evalmod.double_angle):
        squared = evaluator.rescale(evaluator.multiply(value, value))
        value = evaluator.sub_scalar(
            evaluator.add(squared, squared), 1.0
        )
    return evaluator.rescale(
        evaluator.mul_plain_scalar(value, evalmod.output_scaling)
    )
