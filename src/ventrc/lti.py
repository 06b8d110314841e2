"""Discrete-time LTI primitives.

Transfer functions are stored as polynomials in z^-1 (coefficients low order
first) with an explicit nonnegative integer pure-delay count, so that large
transport delays stay exact instead of being absorbed into high-order
polynomials.  Frequencies are Hz at every public surface; radians/sample only
appear internally (see :func:`hz_to_rad_per_sample`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularityError, UnstableFilterWarning

# Denominators above this order are not root-checked in filter_stream (the
# companion-matrix eigensolve gets expensive and the result is only a warning).
_STABILITY_CHECK_MAX_ORDER = 64


def hz_to_rad_per_sample(frequencies_hz, sample_time: float) -> np.ndarray:
    """Convert frequency in Hz to radians per sample for a given sample time."""
    return 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float) * sample_time


def polyval_zinv(coeffs, zinv) -> np.ndarray:
    """Evaluate a polynomial in z^-1 (coefficients low order first) at zinv."""
    zinv = np.asarray(zinv)
    out = np.zeros_like(zinv, dtype=complex)
    for c in np.asarray(coeffs)[::-1]:
        out = out * zinv + c
    return out


def _trim_trailing(coeffs, tol: float = 0.0) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= tol:
        n -= 1
    return c[:n]


@dataclass
class DiscreteTransferFunction:
    """Rational function in z^-1 with an explicit pure delay.

    H(z) = z^-pure_delay * num(z^-1) / den(z^-1), with den normalized so its
    z^0 coefficient is 1.
    """

    numerator_coeffs: np.ndarray
    denominator_coeffs: np.ndarray
    pure_delay: int = 0
    sample_time: float = 0.002

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.numerator_coeffs, dtype=float))
        den = np.atleast_1d(np.asarray(self.denominator_coeffs, dtype=float))
        if self.sample_time <= 0:
            raise ValueError(f"sample_time must be positive, got {self.sample_time}")
        if self.pure_delay < 0 or int(self.pure_delay) != self.pure_delay:
            raise ValueError(f"pure_delay must be a nonnegative integer, got {self.pure_delay}")
        if den.size == 0 or abs(den[0]) < 1e-300:
            raise ValueError("denominator leading (z^0) coefficient must be nonzero")
        lead = den[0]
        self.numerator_coeffs = num / lead
        self.denominator_coeffs = den / lead
        self.pure_delay = int(self.pure_delay)

    @property
    def nyquist_hz(self) -> float:
        return 0.5 / self.sample_time

    def poles(self) -> np.ndarray:
        """Roots of the denominator in the z plane."""
        den = _trim_trailing(self.denominator_coeffs)
        if len(den) == 1:
            return np.array([])
        return np.roots(den)

    def is_stable(self, tol: float = 0.0) -> bool:
        p = self.poles()
        return bool(p.size == 0 or np.all(np.abs(p) < 1.0 - tol))

    def dc_gain(self) -> float:
        return float(np.sum(self.numerator_coeffs) / np.sum(self.denominator_coeffs))

    # -- composition ------------------------------------------------------

    def cascade(self, other: "DiscreteTransferFunction") -> "DiscreteTransferFunction":
        """Series connection self * other (sample times must match)."""
        if abs(self.sample_time - other.sample_time) > 1e-15:
            raise ValueError("cascade requires identical sample times")
        return DiscreteTransferFunction(
            np.convolve(self.numerator_coeffs, other.numerator_coeffs),
            np.convolve(self.denominator_coeffs, other.denominator_coeffs),
            self.pure_delay + other.pure_delay,
            self.sample_time,
        )

    def feedback_complementary(self) -> "DiscreteTransferFunction":
        """Closed-loop self/(1+self) under unit negative feedback.

        The pure delay of the open loop is folded into the closed-loop
        denominator polynomial (it appears inside the loop), while the
        returned transfer function keeps the same explicit pure delay for its
        numerator path.
        """
        num = self.numerator_coeffs
        den = self.denominator_coeffs
        d = self.pure_delay
        shifted = np.concatenate([np.zeros(d), num])
        n = max(len(den), len(shifted))
        cl_den = np.zeros(n)
        cl_den[: len(den)] = den
        cl_den[: len(shifted)] += shifted
        return DiscreteTransferFunction(num, cl_den, d, self.sample_time)


@dataclass
class FirKernel:
    """Zero-phase FIR kernel, realized causally as z^forward_shift * FIR(taps).

    The taps are odd in number and symmetric about the centre tap, which
    forward_shift = (len(taps) - 1) // 2 moves to z^0.
    """

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.atleast_1d(np.asarray(self.taps, dtype=float))
        if self.taps.size % 2 == 0:
            raise ValueError(f"FirKernel needs an odd number of taps, got {self.taps.size}")
        if not np.allclose(self.taps, self.taps[::-1], rtol=0.0,
                           atol=1e-12 * max(1.0, np.max(np.abs(self.taps)))):
            raise ValueError("FirKernel taps must be symmetric about the centre tap")

    @property
    def forward_shift(self) -> int:
        return (len(self.taps) - 1) // 2

    def dc_gain(self) -> float:
        return float(np.sum(self.taps))

    def frequency_response(self, frequencies_hz, sample_time: float) -> np.ndarray:
        """Complex response of z^forward_shift * FIR(taps) on a Hz grid."""
        w = hz_to_rad_per_sample(frequencies_hz, sample_time)
        zinv = np.exp(-1j * w)
        return polyval_zinv(self.taps, zinv) * np.exp(1j * w * self.forward_shift)


@dataclass
class FrequencyResponse:
    """Complex response samples on a strictly increasing Hz grid."""

    frequencies_hz: np.ndarray
    values: np.ndarray
    sample_time: float

    def __post_init__(self):
        self.frequencies_hz = np.atleast_1d(np.asarray(self.frequencies_hz, dtype=float))
        self.values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if self.sample_time <= 0:
            raise ValueError("sample_time must be positive")
        if len(self.frequencies_hz) != len(self.values):
            raise ValueError("frequencies and values must have equal length")
        nyq = 0.5 / self.sample_time
        if np.any(self.frequencies_hz <= 0) or np.any(self.frequencies_hz > nyq + 1e-12):
            raise ValueError(f"frequencies must lie in (0, {nyq}] Hz")
        if np.any(np.diff(self.frequencies_hz) <= 0):
            raise ValueError("frequencies must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frequencies_hz)

    def same_grid(self, other: "FrequencyResponse") -> bool:
        """Same sample time, and the same frequencies to within 1e-9 Hz."""
        return (
            len(self) == len(other)
            and abs(self.sample_time - other.sample_time) < 1e-15
            and np.allclose(self.frequencies_hz, other.frequencies_hz, rtol=0.0, atol=1e-9)
        )


def evaluate(tf: DiscreteTransferFunction, frequencies_hz) -> FrequencyResponse:
    """Evaluate a transfer function on a Hz grid.

    The value at f is num(e^-iw)/den(e^-iw) * e^(-iw*pure_delay) with
    w = 2*pi*f*sample_time.  Frequencies above Nyquist raise; a denominator
    magnitude below 1e-14 at a grid point raises naming the frequency.
    """
    f = np.atleast_1d(np.asarray(frequencies_hz, dtype=float))
    if np.any(f <= 0) or np.any(f > tf.nyquist_hz + 1e-12):
        bad = f[(f <= 0) | (f > tf.nyquist_hz + 1e-12)][0]
        raise ValueError(f"frequency {bad} Hz outside (0, {tf.nyquist_hz}] Hz")
    w = hz_to_rad_per_sample(f, tf.sample_time)
    zinv = np.exp(-1j * w)
    den = polyval_zinv(tf.denominator_coeffs, zinv)
    small = np.abs(den) < 1e-14
    if np.any(small):
        raise SingularityError(
            f"denominator vanishes at {f[small][0]:.6g} Hz (|den| < 1e-14)"
        )
    vals = polyval_zinv(tf.numerator_coeffs, zinv) / den * zinv**tf.pure_delay
    return FrequencyResponse(f, vals, tf.sample_time)


def filter_stream(tf: DiscreteTransferFunction, input_sequence) -> np.ndarray:
    """Filter a sequence through a causal rational filter (direct-form recursion).

    Zero initial state; output length equals input length.  An
    unstable denominator is not an error (simulations may legitimately
    diverge) but emits an UnstableFilterWarning when the order is small
    enough to root-check cheaply.
    """
    from scipy.signal import lfilter

    u = np.asarray(input_sequence, dtype=float)
    den = _trim_trailing(tf.denominator_coeffs)
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


class DelayLine:
    """Fixed-capacity FIFO: step() returns the sample inserted `capacity` steps ago.

    Returns zeros during warm-up.  Capacity must be positive; a budget of
    zero or less means the surrounding loop's forward shifts exceed the
    available period and is a configuration error.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError(f"delay line capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._buf = [0.0] * self.capacity
        self._pos = 0

    def oldest(self) -> float:
        """Value that the next step() call will return."""
        return self._buf[self._pos]

    def push(self, value: float) -> None:
        self._buf[self._pos] = value
        self._pos = (self._pos + 1) % self.capacity

    def step(self, value: float) -> float:
        out = self._buf[self._pos]
        self.push(value)
        return out



class StreamingFilter:
    """Per-sample direct-form II transposed realization of a causal tf.

    Single-owner stateful counterpart of filter_stream; the pure delay is a
    FIFO on the input.
    """

    def __init__(self, tf: DiscreteTransferFunction):
        n = max(len(tf.numerator_coeffs), len(tf.denominator_coeffs))
        self._b = np.zeros(n)
        self._a = np.zeros(n)
        self._b[: len(tf.numerator_coeffs)] = tf.numerator_coeffs
        self._a[: len(tf.denominator_coeffs)] = tf.denominator_coeffs
        self._state = [0.0] * (n - 1)
        self._delay = DelayLine(tf.pure_delay) if tf.pure_delay > 0 else None

    def step(self, u: float) -> float:
        if self._delay is not None:
            u = self._delay.step(u)
        b, a, z = self._b, self._a, self._state
        y = b[0] * u + (z[0] if z else 0.0)
        for i in range(len(z) - 1):
            z[i] = b[i + 1] * u + z[i + 1] - a[i + 1] * y
        if z:
            z[-1] = b[len(z)] * u - a[len(z)] * y
        return y


@dataclass
class StateSpace:
    """Single-input discrete system x[k+1] = a x[k] + b u[k], y[k] = c x[k] + d u[k].

    a is (n, n), b is (n,), c is (outputs, n) and d is (outputs,).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def state_space(tf: DiscreteTransferFunction) -> StateSpace:
    """The realisation StreamingFilter runs, as matrices.

    The states are the pure-delay shift register on the input (oldest
    first), then the direct form II transposed filter states.  One output.
    """
    order = max(len(tf.numerator_coeffs), len(tf.denominator_coeffs)) - 1
    num = np.zeros(order + 1)
    den = np.zeros(order + 1)
    num[: len(tf.numerator_coeffs)] = tf.numerator_coeffs
    den[: len(tf.denominator_coeffs)] = tf.denominator_coeffs
    delay = tf.pure_delay
    size = delay + order
    a = np.zeros((size, size))
    b = np.zeros(size)
    # the filter input as (state row, input gain): the oldest register entry,
    # or the input itself without a delay
    in_row, in_gain = np.zeros(size), 0.0
    if delay:
        in_row[0] = 1.0
        a[np.arange(delay - 1), np.arange(1, delay)] = 1.0
        b[delay - 1] = 1.0
    else:
        in_gain = 1.0
    # y = num[0] * input + z[0]
    y_row, y_gain = num[0] * in_row, num[0] * in_gain
    if order:
        y_row[delay] += 1.0
    # z[i]' = num[i+1] * input + z[i+1] - den[i+1] * y
    for i in range(order):
        a[delay + i] = num[i + 1] * in_row - den[i + 1] * y_row
        if i + 1 < order:
            a[delay + i, delay + i + 1] += 1.0
        b[delay + i] = num[i + 1] * in_gain - den[i + 1] * y_gain
    return StateSpace(a, b, y_row[None, :], np.array([y_gain]))


# -- coefficient file I/O ---------------------------------------------------
#
# Plain-text format: the header "tf <sample_time> <pure_delay>", then the
# "num <k>" and "den <m>" section markers, each followed by one coefficient
# per line.


def open_input(path):
    """Open an input file for reading as text, with csv's newline handling.

    A file that cannot be opened, a missing one in particular, raises
    ConfigurationError naming the path.
    """
    try:
        return open(path, newline="")
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot open: {exc.strerror}") from None


class CoefficientFile:
    """A coefficient file read whole: a header line, then "<field> <value>" lines.

    The header must match the header spec word for word, where a word
    written "<name>" is a field read from that position.  A field named in
    array_fields takes a count as its value, and that many numbers follow on
    their own lines.  An empty file, a wrong header, a malformed line, a
    missing field, a value that does not parse and an array shorter than its
    count all raise ConfigurationError naming the path and the field.
    """

    def __init__(self, path, header: str, array_fields: tuple[str, ...]):
        self.path = path
        with open_input(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise ConfigurationError(f"{path}: file is empty")
        spec, words = header.split(), lines[0].split()
        if len(words) != len(spec) or any(
                s != w for s, w in zip(spec, words) if not s.startswith("<")):
            raise ConfigurationError(f"{path}: expected header {header!r}, got {lines[0]!r}")
        self._scalars = {s[1:-1]: w for s, w in zip(spec, words) if s.startswith("<")}
        self._arrays: dict[str, list[float]] = {}
        idx = 1
        while idx < len(lines):
            parts = lines[idx].split()
            if len(parts) != 2:
                raise ConfigurationError(
                    f"{path}: expected '<field> <value>', got {lines[idx]!r}")
            name, value = parts
            if name not in array_fields:
                self._scalars[name] = value
                idx += 1
                continue
            count = self._parse(name, value, int)
            body = lines[idx + 1 : idx + 1 + max(count, 0)]
            if count < 0 or len(body) < count:
                raise ConfigurationError(
                    f"{path}: field {name!r} declares {count} values, the file has {len(body)}")
            self._arrays[name] = [self._parse(name, v, float) for v in body]
            idx += 1 + count

    def _parse(self, field: str, text: str, kind):
        try:
            return kind(text)
        except ValueError:
            raise ConfigurationError(
                f"{self.path}: field {field!r}: {text!r} is not a valid {kind.__name__}"
            ) from None

    def scalar(self, field: str, kind, default=None):
        if field not in self._scalars:
            if default is not None:
                return default
            raise ConfigurationError(f"{self.path}: missing field {field!r}")
        return self._parse(field, self._scalars[field], kind)

    def array(self, field: str) -> list[float]:
        if field not in self._arrays:
            raise ConfigurationError(f"{self.path}: missing field {field!r}")
        return self._arrays[field]


def save_transfer_function(tf: DiscreteTransferFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"tf {float(tf.sample_time)!r} {tf.pure_delay}\n")
        fh.write(f"num {len(tf.numerator_coeffs)}\n")
        for c in tf.numerator_coeffs:
            fh.write(f"{float(c)!r}\n")
        fh.write(f"den {len(tf.denominator_coeffs)}\n")
        for c in tf.denominator_coeffs:
            fh.write(f"{float(c)!r}\n")


def load_transfer_function(path) -> DiscreteTransferFunction:
    f = CoefficientFile(path, "tf <sample_time> <pure_delay>", ("num", "den"))
    num, den = f.array("num"), f.array("den")
    pure_delay, sample_time = f.scalar("pure_delay", int), f.scalar("sample_time", float)
    try:
        return DiscreteTransferFunction(num, den, pure_delay, sample_time)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
