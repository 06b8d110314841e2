"""Per-sample controllers: the integral benchmark and the add-on repetitive
loop.

The repetitive correction is realized as a memory loop: the error plus the
loop feedback passes through the causal robustness taps, enters a delay line
shortened by the combined forward shifts (the only realizable placement of
the non-causal advances), and is read out through the causal learning filter.
Both controllers take one error per call.  The memory loop does its numeric
work once per memory block: its output at sample k depends on the error
only up to k - buffer_length, so a block is known before its first sample
arrives and computing it whole is causal.  Only the order of the
floating-point sums differs from a sample-by-sample loop.  The output equals
offline filtering by the loop's rational transfer function to float
rounding; dedicated tests pin that equivalence and the agreement with a
sample-by-sample reference, since the shift bookkeeping is the easiest thing
to get wrong here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lti import DiscreteTransferFunction
from .rc_design import RcFilterSet

BENCHMARK_INTEGRAL_GAIN = 0.01257
OVERFLOW_LIMIT = 1e12


@dataclass
class ControllerConfig:
    """Benchmark gain, timing, optional repetitive add-on, optional saturation."""

    integral_gain: float = BENCHMARK_INTEGRAL_GAIN
    sample_time: float = 0.002
    filterset: RcFilterSet | None = None
    rc_enabled: bool = False
    output_limits: tuple[float, float] | None = None

    def __post_init__(self):
        if self.sample_time <= 0:
            raise ValueError("sample_time must be positive")
        if self.rc_enabled and self.filterset is None:
            raise ConfigurationError("rc_enabled requires a filterset")
        if self.filterset is not None and \
                abs(self.filterset.sample_time - self.sample_time) > 1e-15:
            raise ConfigurationError(
                f"filterset sample time {self.filterset.sample_time} does not "
                f"match controller sample time {self.sample_time}"
            )
        if self.output_limits is not None and self.output_limits[0] >= self.output_limits[1]:
            raise ValueError("output_limits must be an increasing interval")


class IntegralController:
    """Discrete integrator y(k) = y(k-1) + gain * e(k-1).

    Optional saturation clamps the command and halts integration while
    clamped (windup flag exposed).
    """

    def __init__(self, gain: float = BENCHMARK_INTEGRAL_GAIN, sample_time: float = 0.002,
                 output_limits: tuple[float, float] | None = None):
        self.gain = gain
        self.sample_time = sample_time
        self.output_limits = output_limits
        self.windup_active = False
        self._y_prev = 0.0
        self._e_prev = 0.0

    def step(self, error: float) -> float:
        out = self._y_prev + self.gain * self._e_prev
        if self.output_limits is not None:
            lo, hi = self.output_limits
            clamped = min(max(out, lo), hi)
            self.windup_active = clamped != out
            out = clamped
        self._e_prev = error
        self._y_prev = out
        return out

    def reset(self) -> None:
        self._y_prev = 0.0
        self._e_prev = 0.0
        self.windup_active = False


class RepetitiveController:
    """Memory-loop realization of the repetitive correction, one block at a time.

    Buffer length is period_n minus both forward shifts; the learning-filter
    advance is taken between the buffer output and the loop feedback tap, the
    robustness advance by the shortening itself.  Output is exactly zero
    until the shortened buffer has filled once (first-breath neutrality).
    On numeric overflow the loop latches a fault, emits zeros, and leaves the
    outer integral controller running.

    The memory readout v(k) is the robustness-filter output of sample
    k - buffer_length, so a whole block of buffer_length samples reads only
    inputs of earlier blocks.  The first step of each block therefore runs
    the robustness FIR over the block that just ended, which gives the next
    block's readout, and derives from it the block's feedback (v delayed by
    l_shift) and correction (L_c applied to v, filter state carried between
    blocks).  Each step then only adds its error to the precomputed
    feedback, stores the sum and returns the precomputed correction.  That
    boundary step does O(buffer_length) work, so the per-sample cost is an
    average over the block.
    """

    def __init__(self, filterset: RcFilterSet):
        self.filterset = filterset
        n_short = filterset.period_n - filterset.l_shift - filterset.q_kernel.forward_shift
        if n_short <= 0:
            raise ConfigurationError(
                f"shift budget leaves no memory: period {filterset.period_n} - "
                f"l_shift {filterset.l_shift} - q_shift {filterset.q_kernel.forward_shift} "
                f"= {n_short} <= 0"
            )
        self.buffer_length = n_short
        lc = filterset.l_causal
        self._q_taps = np.asarray(filterset.q_kernel.taps, dtype=float)
        # the pure delay becomes leading zero taps, so lfilter's carried state holds it
        self._l_num = np.concatenate([np.zeros(lc.pure_delay), lc.numerator_coeffs])
        self._l_den = lc.denominator_coeffs
        self.reset()

    def step(self, error: float) -> float:
        if self.fault:
            return 0.0
        i = len(self._inputs)
        if i == self.buffer_length:
            self._next_block()
            i = 0
        self.sample_count += 1
        a = error + self._feedback[i]
        if not math.isfinite(a) or abs(a) > OVERFLOW_LIMIT:
            self._trip_fault(a)
            return 0.0
        self._inputs.append(a)
        out = self._correction[i]
        if not math.isfinite(out) or abs(out) > OVERFLOW_LIMIT:
            self._trip_fault(out)
            return 0.0
        return out

    def _next_block(self) -> None:
        from scipy.signal import lfilter

        loop_in = np.concatenate([self._input_history, self._inputs])
        memory = np.convolve(loop_in, self._q_taps, mode="valid")
        self._input_history = loop_in[len(loop_in) - len(self._input_history):]
        delayed = np.concatenate([self._memory_history, memory])
        self._memory_history = delayed[len(delayed) - len(self._memory_history):]
        correction, self._l_state = lfilter(self._l_num, self._l_den, memory,
                                            zi=self._l_state)
        self._feedback = delayed[: self.buffer_length].tolist()
        self._correction = correction.tolist()
        self._inputs = []

    def _trip_fault(self, value) -> None:
        self.fault = True
        warnings.warn(
            f"repetitive loop overflow ({float(value)!r}) at sample {self.sample_count}; "
            "correction disabled, integral controller continues",
            stacklevel=3,
        )

    def reset(self) -> None:
        n = self.buffer_length
        self._inputs: list[float] = []            # loop inputs e + w of this block
        self._input_history = np.zeros(len(self._q_taps) - 1)
        self._memory_history = np.zeros(self.filterset.l_shift)
        self._l_state = np.zeros(max(len(self._l_num), len(self._l_den)) - 1)
        self._feedback = [0.0] * n
        self._correction = [0.0] * n
        self.fault = False
        self.sample_count = 0


class VentilatorController:
    """Benchmark integral controller with the repetitive correction ahead of it.

    Per sample: e = reference - measurement; the correction (zero when
    disabled) adds to e before integration, so a disabled add-on reproduces
    the benchmark trace bit for bit.
    """

    def __init__(self, config: ControllerConfig):
        self.config = config
        self.pid = IntegralController(config.integral_gain, config.sample_time,
                                      config.output_limits)
        self.rc = RepetitiveController(config.filterset) if config.rc_enabled else None

    def step(self, reference: float, measurement: float) -> float:
        e = reference - measurement
        total = e if self.rc is None else e + self.rc.step(e)
        return self.pid.step(total)

    def reset(self) -> None:
        self.pid.reset()
        if self.rc is not None:
            self.rc.reset()


def rc_transfer_function(filterset: RcFilterSet) -> DiscreteTransferFunction:
    """Rational transfer function of the memory loop, for offline evaluation.

    Composes L_c, the robustness taps, and the shortened delay into one
    num/den pair with the remaining loop delay in the pure-delay field.  The
    denominator carries the full period, so this is an analysis tool, not a
    runtime path.
    """
    lc = filterset.l_causal
    taps = np.asarray(filterset.q_kernel.taps, dtype=float)
    q_shift = filterset.q_kernel.forward_shift
    n = filterset.period_n
    n_short = n - q_shift - filterset.l_shift
    if n_short <= 0:
        raise ConfigurationError("shift budget leaves no memory")
    feedback_delay = n - q_shift
    loop_den = np.zeros(feedback_delay + len(taps))
    loop_den[0] = 1.0
    loop_den[feedback_delay : feedback_delay + len(taps)] -= taps
    num = np.convolve(lc.numerator_coeffs, taps)
    den = np.convolve(lc.denominator_coeffs, loop_den)
    return DiscreteTransferFunction(num, den, n_short + lc.pure_delay, lc.sample_time)


def benchmark_controller_tf(gain: float = BENCHMARK_INTEGRAL_GAIN,
                            sample_time: float = 0.002) -> DiscreteTransferFunction:
    """The benchmark integral controller gain/(z-1) as a transfer function."""
    return DiscreteTransferFunction([0.0, gain], [1.0, -1.0], 0, sample_time)
