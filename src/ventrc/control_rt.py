"""Controllers: the integral benchmark and the add-on repetitive
loop.

The repetitive correction is realized as a memory loop: the error plus the
loop feedback passes through the causal robustness taps, enters a delay line
shortened by the combined forward shifts (the only realizable placement of
the non-causal advances), and is read out through the causal learning filter.
Both controllers take one error per call.  The memory loop also works a
chunk at a time: its output at sample k depends on the error only up to
k - buffer_length, so the corrections of up to buffer_length samples are
known before their errors arrive.  Only the order of the floating-point
sums differs from a sample-by-sample loop.  The output equals
offline filtering by the loop's rational transfer function to float
rounding; dedicated tests pin that equivalence and the agreement with a
sample-by-sample reference, since the shift bookkeeping is the easiest thing
to get wrong here.
"""

from __future__ import annotations

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
            raise ConfigurationError("sample_time must be positive")
        if self.rc_enabled and self.filterset is None:
            raise ConfigurationError("rc_enabled requires a filterset")
        if self.filterset is not None and \
                abs(self.filterset.sample_time - self.sample_time) > 1e-15:
            raise ConfigurationError(
                f"filterset sample time {self.filterset.sample_time} does not "
                f"match controller sample time {self.sample_time}"
            )
        if self.output_limits is not None and self.output_limits[0] >= self.output_limits[1]:
            raise ConfigurationError("output_limits must be an increasing interval")


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
    """Memory-loop realization of the repetitive correction, a chunk at a time.

    Buffer length is the filter set's buffer_length, period_n minus both
    forward shifts; the learning-filter advance is taken between the buffer
    output and the loop feedback tap, the robustness advance by the
    shortening itself.  Output is exactly zero until the shortened buffer
    has filled once (first-breath neutrality).  On numeric overflow the loop
    latches a fault, emits zeros, and leaves the outer integral controller
    running.

    The memory readout v(k) is the robustness-filter output of sample
    k - buffer_length, so the correction (L_c applied to v) and the loop
    feedback (v delayed by l_shift) of the next buffer_length samples read
    only loop inputs that already exist.  corrections(m) therefore hands out
    the next m corrections before their errors are known, and
    take_errors(errors) later takes those samples' errors.  The robustness
    FIR runs over the inputs taken so far at the next corrections() call.
    step() is the same loop one sample at a time: it hands out a whole
    buffer_length of corrections whenever none are left, so its numeric
    work happens once per memory block.
    """

    def __init__(self, filterset: RcFilterSet):
        self.filterset = filterset
        self.buffer_length = filterset.buffer_length
        lc = filterset.l_causal
        self._q_taps = np.asarray(filterset.q_kernel.taps, dtype=float)
        # the pure delay becomes leading zero taps, so lfilter's carried state holds it
        self._l_num = np.concatenate([np.zeros(lc.pure_delay), lc.numerator_coeffs])
        self._l_den = lc.denominator_coeffs
        self.reset()

    def step(self, error: float) -> float:
        if self.fault:
            return 0.0
        if not len(self._feedback):
            self.corrections(self.buffer_length)
        out = float(self._handed_out[0])
        return 0.0 if self.take_errors((error,)) is not None else out

    def corrections(self, m: int) -> np.ndarray:
        """Corrections of the next m samples, before their errors are known.

        At most buffer_length samples may be handed out and not yet taken.
        From an overflowing correction on the values are zero; the fault
        itself latches when take_errors reaches that sample.  All zeros once
        the loop has faulted.
        """
        from scipy.signal import lfilter

        if self.fault:
            return np.zeros(m)
        ahead = len(self._feedback)
        if m < 0 or ahead + m > self.buffer_length:
            raise ValueError(f"{ahead} corrections are pending; {m} more would exceed "
                             f"the memory of {self.buffer_length} samples")
        self._filter_inputs()
        # self._memory holds v for the buffer_length + l_shift samples before
        # the first pending one
        l_shift = self.filterset.l_shift
        correction, self._l_state = lfilter(
            self._l_num, self._l_den, self._memory[ahead + l_shift: ahead + l_shift + m],
            zi=self._l_state)
        if self._overflow is not None:
            correction[:] = 0.0
        else:
            over = ~(np.abs(correction) <= OVERFLOW_LIMIT)
            if over.any():
                at = int(np.argmax(over))
                self._overflow = (ahead + at, correction[at])
                correction[at:] = 0.0
        self._feedback = np.concatenate([self._feedback, self._memory[ahead: ahead + m]])
        self._handed_out = np.concatenate([self._handed_out, correction])
        return correction

    def take_errors(self, errors) -> int | None:
        """Take the errors of the oldest handed-out samples, in order.

        Returns the index into errors of the sample at which the loop faults,
        or None.  The correction is zero from that sample on, so a caller
        that used nonzero corrections there must replace them with zeros.
        """
        if self.fault:
            return None
        errors = np.asarray(errors, dtype=float)
        n = len(errors)
        if n > len(self._feedback):
            raise ValueError(f"{n} errors for {len(self._feedback)} handed-out corrections")
        loop_in = errors + self._feedback[:n]
        over = ~(np.abs(loop_in) <= OVERFLOW_LIMIT)
        at_input = int(np.argmax(over)) if over.any() else n
        at_output = self._overflow[0] if self._overflow is not None else n
        at = min(at_input, at_output)
        if at < n:
            self.sample_count += at + 1
            self._trip_fault(loop_in[at] if at_input <= at_output else self._overflow[1])
            return at
        self._inputs.append(loop_in)
        self._feedback = self._feedback[n:]
        self._handed_out = self._handed_out[n:]
        if self._overflow is not None:
            self._overflow = (self._overflow[0] - n, self._overflow[1])
        self.sample_count += n
        return None

    def _filter_inputs(self) -> None:
        """Run the robustness FIR over the inputs taken since the last call."""
        if not self._inputs:
            return
        loop_in = np.concatenate([self._input_history, *self._inputs])
        filtered = np.convolve(loop_in, self._q_taps, mode="valid")
        self._input_history = loop_in[len(loop_in) - len(self._input_history):]
        self._memory = np.concatenate([self._memory[len(filtered):], filtered])
        self._inputs = []

    def _trip_fault(self, value) -> None:
        self.fault = True
        # level 4: the caller of step(), or of the code that calls take_errors()
        warnings.warn(
            f"repetitive loop overflow ({float(value)!r}) at sample {self.sample_count}; "
            "correction disabled, integral controller continues",
            stacklevel=4,
        )

    def reset(self) -> None:
        self._inputs: list[np.ndarray] = []       # loop inputs e + w not yet filtered
        self._input_history = np.zeros(len(self._q_taps) - 1)
        self._memory = np.zeros(self.buffer_length + self.filterset.l_shift)
        self._l_state = np.zeros(max(len(self._l_num), len(self._l_den)) - 1)
        self._feedback = np.zeros(0)              # of the handed-out samples
        self._handed_out = np.zeros(0)
        self._overflow: tuple[int, float] | None = None   # (pending index, value)
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
    feedback_delay = filterset.period_n - q_shift
    loop_den = np.zeros(feedback_delay + len(taps))
    loop_den[0] = 1.0
    loop_den[feedback_delay : feedback_delay + len(taps)] -= taps
    num = np.convolve(lc.numerator_coeffs, taps)
    den = np.convolve(lc.denominator_coeffs, loop_den)
    return DiscreteTransferFunction(num, den, filterset.buffer_length + lc.pure_delay,
                                    lc.sample_time)


def benchmark_controller_tf(gain: float = BENCHMARK_INTEGRAL_GAIN,
                            sample_time: float = 0.002) -> DiscreteTransferFunction:
    """The benchmark integral controller gain/(z-1) as a transfer function."""
    return DiscreteTransferFunction([0.0, gain], [1.0, -1.0], 0, sample_time)
