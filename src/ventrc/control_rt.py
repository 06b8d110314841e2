"""Controllers: the integral benchmark and the add-on repetitive
loop.

The repetitive correction is realized as a memory loop: the error plus the
loop feedback passes through the causal robustness taps, enters a delay line
shortened by the combined forward shifts (the only realizable placement of
the non-causal advances), and is read out through the causal learning filter.
Both controllers take one error per call.  The memory loop also works a
block at a time: its output at sample k depends on the error only up to
k - buffer_length, so the corrections of up to buffer_length samples are
known before their errors arrive.  One block is out at a time: the next is
handed out only once every error of the last has been taken.  Only the
order of the floating-point sums differs from a sample-by-sample loop.  The
output equals offline filtering by the loop's rational transfer function to
float rounding; dedicated tests pin that equivalence and the agreement with
a sample-by-sample reference, since the shift bookkeeping is the easiest
thing to get wrong here.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .lti import DiscreteTransferFunction, LiftedSystem, state_space
from .rc_design import RcFilterSet

BENCHMARK_INTEGRAL_GAIN = 0.01257
OVERFLOW_LIMIT = 1e12


class IntegralController:
    """Discrete integrator y(k) = y(k-1) + BENCHMARK_INTEGRAL_GAIN * e(k-1).

    Optional saturation clamps the command and halts integration while
    clamped (windup flag exposed).
    """

    def __init__(self, output_limits: tuple[float, float] | None = None):
        self.output_limits = output_limits
        self.windup_active = False
        self._y_prev = 0.0
        self._e_prev = 0.0

    def step(self, error: float) -> float:
        out = self._y_prev + BENCHMARK_INTEGRAL_GAIN * self._e_prev
        if self.output_limits is not None:
            lo, hi = self.output_limits
            clamped = min(max(out, lo), hi)
            self.windup_active = clamped != out
            out = clamped
        self._e_prev = error
        self._y_prev = out
        return out


class RepetitiveController:
    """Memory-loop realization of the repetitive correction, a block at a time.

    Buffer length is the filter set's buffer_length, period_n minus both
    forward shifts; the learning-filter advance is taken between the buffer
    output and the loop feedback tap, the robustness advance by the
    shortening itself.  Output is exactly zero until the shortened buffer
    has filled once (first-breath neutrality).  On numeric overflow the loop
    latches a fault, emits zeros, and leaves the outer integral controller
    running.

    The memory readout v(k) is the robustness-filter output of sample
    k - buffer_length, so the correction (L_c applied to v) and the loop
    feedback w (v delayed by l_shift) of the next buffer_length samples read
    only loop inputs that already exist.  One block is out at a time:
    corrections(m) hands out the next m <= buffer_length corrections before
    their errors are known, once every error of the last block has been
    taken; take_errors(errors) takes the oldest pending errors, reading w
    from the memory, which does not change until the next hand-out.  That
    hand-out runs the robustness FIR over the inputs taken, and the learning
    filter through `lti.LiftedSystem`, carrying its state; its pure delay is
    an offset into the memory.  step() is the same loop one sample at a
    time, handing out a whole buffer_length block when the last is used up.
    """

    def __init__(self, filterset: RcFilterSet):
        self.filterset = filterset
        self.buffer_length = filterset.buffer_length
        lc = filterset.l_causal
        self._q_taps = np.asarray(filterset.q_kernel.taps, dtype=float)
        # the learning filter's pure delay is read from further back in the memory
        self._l_delay = lc.pure_delay
        self._learning = LiftedSystem(state_space(replace(lc, pure_delay=0)))
        self._l_state = np.zeros(self._learning.order)
        self._inputs: list[np.ndarray] = []       # loop inputs e + w not yet filtered
        self._input_history = np.zeros(len(self._q_taps) - 1)
        self._memory = np.zeros(self.buffer_length + max(filterset.l_shift, self._l_delay))
        self._block = np.zeros(0)     # the handed-out corrections, unclipped
        self._overflow = 0            # index in _block of the first overflowing correction
        self._pending = 0             # samples of _block whose errors are not taken yet
        self.fault = False
        self.sample_count = 0

    def step(self, error: float) -> float:
        if self.fault:
            return 0.0
        if not self._pending:
            self.corrections(self.buffer_length)
        out = float(self._block[len(self._block) - self._pending])
        return 0.0 if self.take_errors((error,)) is not None else out

    def corrections(self, m: int) -> np.ndarray:
        """Corrections of the next m samples, before their errors are known.

        m may not exceed buffer_length, and every error of the block handed
        out before must have been taken.  From an overflowing correction on
        the values are zero; the fault itself latches when take_errors
        reaches that sample.  All zeros once the loop has faulted.
        """
        if self.fault:
            return np.zeros(m)
        if self._pending or not 0 <= m <= self.buffer_length:
            raise ValueError(f"{self._pending} corrections are pending; cannot hand out {m} "
                             f"more from the memory of {self.buffer_length} samples")
        self._filter_inputs()
        # _memory[-buffer_length] is v of the block's first sample
        start = len(self._memory) - self.buffer_length - self._l_delay
        y, self._l_state = self._learning.run(self._l_state, self._memory[start: start + m])
        self._block, self._pending = y[:, 0], m
        over = ~(np.abs(self._block) <= OVERFLOW_LIMIT)
        self._overflow = int(np.argmax(over)) if over.any() else m
        return np.concatenate([self._block[:self._overflow], np.zeros(m - self._overflow)])

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
        if n > self._pending:
            raise ValueError(f"{n} errors for {self._pending} handed-out corrections")
        taken = len(self._block) - self._pending
        start = len(self._memory) - self.buffer_length - self.filterset.l_shift + taken
        loop_in = errors + self._memory[start: start + n]
        over = ~(np.abs(loop_in) <= OVERFLOW_LIMIT)
        at_input = int(np.argmax(over)) if over.any() else n
        at_output = self._overflow - taken
        at = min(at_input, at_output)
        if at < n:
            self.sample_count += at + 1
            self._trip_fault(loop_in[at] if at_input <= at_output else self._block[self._overflow])
            return at
        self._inputs.append(loop_in)
        self._pending -= n
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


class VentilatorController:
    """Benchmark integral controller with the repetitive correction ahead of it.

    Per sample: e = reference - measurement; the correction adds to e before
    integration.  The add-on runs exactly when a filter set is given; without
    one the controller is the benchmark, and a correction of zero reproduces
    the benchmark trace bit for bit.  output_limits saturate the command.
    """

    def __init__(self, filterset: RcFilterSet | None = None,
                 output_limits: tuple[float, float] | None = None):
        self.pid = IntegralController(output_limits=output_limits)
        self.rc = None if filterset is None else RepetitiveController(filterset)

    def step(self, reference: float, measurement: float) -> float:
        e = reference - measurement
        total = e if self.rc is None else e + self.rc.step(e)
        return self.pid.step(total)


def benchmark_controller_tf(sample_time: float) -> DiscreteTransferFunction:
    """The benchmark integral controller BENCHMARK_INTEGRAL_GAIN/(z-1) as a transfer function."""
    return DiscreteTransferFunction([0.0, BENCHMARK_INTEGRAL_GAIN], [1.0, -1.0], 0, sample_time)
