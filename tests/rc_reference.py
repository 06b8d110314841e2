"""Sample-by-sample memory loop: the reference that the block-wise
RepetitiveController is checked against.

Each step pushes the loop input a = e + w through the robustness taps one
product at a time, reads the shortened delay line and runs the learning
filter on it, exactly as the loop diagram is drawn.  Overflow handling and
the warning text match the controller.
"""

from __future__ import annotations

import math
import warnings
from collections import deque

from ventrc.control_rt import OVERFLOW_LIMIT
from ventrc.lti import StreamingFilter
from ventrc.rc_design import RcFilterSet


class ReferenceRepetitiveController:
    def __init__(self, filterset: RcFilterSet):
        n_short = filterset.period_n - filterset.l_shift - filterset.q_kernel.forward_shift
        self.buffer_length = n_short
        # d[0] is the oldest sample of a line, and append pushes a new one
        self._memory = deque([0.0] * n_short, maxlen=n_short)
        l_shift = filterset.l_shift
        self._advance = deque([0.0] * l_shift, maxlen=l_shift) if l_shift > 0 else None
        self._learning = StreamingFilter(filterset.l_causal)
        self._q_taps = [float(t) for t in filterset.q_kernel.taps]
        self._q_hist = deque([0.0] * len(self._q_taps), maxlen=len(self._q_taps))
        self.fault = False
        self.sample_count = 0

    def step(self, error: float) -> float:
        if self.fault:
            return 0.0
        self.sample_count += 1
        v = self._memory[0]
        w = self._advance[0] if self._advance is not None else v
        a = error + w
        if not math.isfinite(a) or abs(a) > OVERFLOW_LIMIT:
            self._trip_fault(a)
            return 0.0
        self._q_hist.appendleft(a)
        y_q = 0.0
        for t, h in zip(self._q_taps, self._q_hist):
            y_q += t * h
        out = self._learning.step(v)
        if not math.isfinite(out) or abs(out) > OVERFLOW_LIMIT:
            self._trip_fault(out)
            return 0.0
        self._memory.append(y_q)
        if self._advance is not None:
            self._advance.append(v)
        return out

    def _trip_fault(self, value) -> None:
        self.fault = True
        warnings.warn(
            f"repetitive loop overflow ({float(value)!r}) at sample {self.sample_count}; "
            "correction disabled, integral controller continues",
            stacklevel=3,
        )
