"""Offline filtering by a rational transfer function: the oracle that the
streaming and lifted filters are checked against.

scipy's direct-form recursion holds filters of any order, among them the
order-2000+ transfer function of a memory loop (`rc_transfer_function`,
below), which no lifted state-space engine can hold.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.signal import lfilter

from ventrc.lti import DiscreteTransferFunction
from ventrc.rc_design import RcFilterSet

# Denominators above this order are not root-checked in filter_stream (the
# companion-matrix eigensolve gets expensive and the result is only a warning).
_STABILITY_CHECK_MAX_ORDER = 64


class UnstableFilterWarning(UserWarning):
    """A filtering operation was asked to run with an unstable denominator."""


def filter_stream(tf: DiscreteTransferFunction, input_sequence) -> np.ndarray:
    """Filter a sequence through a causal rational filter (direct-form recursion).

    Zero initial state; output length equals input length.  An
    unstable denominator is not an error (simulations may legitimately
    diverge) but emits an UnstableFilterWarning when the order is small
    enough to root-check cheaply.
    """
    u = np.asarray(input_sequence, dtype=float)
    den = np.trim_zeros(tf.denominator_coeffs, "b")
    if len(den) - 1 <= _STABILITY_CHECK_MAX_ORDER and len(den) > 1:
        if np.any(np.abs(np.roots(den)) > 1.0 + 1e-9):
            warnings.warn(
                "filter denominator has poles outside the unit circle; output may diverge",
                UnstableFilterWarning,
                stacklevel=2,
            )
    y = lfilter(tf.numerator_coeffs, tf.denominator_coeffs, u)
    d = tf.pure_delay
    if d > 0:
        y = np.concatenate([np.zeros(d), y[:-d] if d < len(y) else y[:0]])
        if len(y) < len(u):  # input shorter than the delay
            y = np.concatenate([y, np.zeros(len(u) - len(y))])[: len(u)]
    return y


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
