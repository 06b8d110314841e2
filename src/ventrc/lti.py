"""Discrete-time LTI primitives.

Transfer functions are stored as polynomials in z^-1 (coefficients low order
first) with an explicit nonnegative integer pure-delay count, so that large
transport delays stay exact instead of being absorbed into high-order
polynomials.  Frequencies are Hz at every public surface; radians/sample only
appear internally (see :func:`hz_to_rad_per_sample`).
"""

from __future__ import annotations

import csv
import io
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, SingularityError, check_number

CHUNK = 128
# LiftedSystem runs this many whole chunks per pair of matrix-matrix products
BATCH = 16
# a LiftedSystem's powers A^0..A^chunk and lifted matrix stay within this
LIFT_BUDGET_BYTES = 8 << 20
# LiftedSystem keeps the lifts of this many recent systems, so equal systems
# share one build
LIFT_MEMO = 8
# rc_design.check_stability keeps the grid responses of this many recent
# filters, so equal filters on equal grids are evaluated once
RESPONSE_MEMO = 8


def hz_to_rad_per_sample(frequencies_hz, sample_time: float) -> np.ndarray:
    """Convert frequency in Hz to radians per sample for a given sample time."""
    return 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float) * sample_time


def sorted_distinct(values) -> np.ndarray:
    """The flattened values sorted, each run of equal values kept once.

    Without NaN or -0.0 in `values` this is exactly np.unique(values), same
    dtype and bytes; np.unique is not used because its first call in a
    process imports numpy.ma (5.8 ms with numpy 2.4), which ventrc never uses.
    """
    v = np.sort(np.asarray(values), axis=None)
    keep = np.empty(v.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def same_sample_time(a: float, b: float) -> bool:
    """Whether two sample times are equal to within 1e-15 s; false for NaN."""
    return abs(a - b) <= 1e-15


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
        check_number("sample_time", self.sample_time, gt=0)
        self.pure_delay = check_number("pure_delay", self.pure_delay, ge=0, integer=True)
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            raise ValueError("coefficients must be finite")
        if den.size == 0 or abs(den[0]) < 1e-300:
            raise ValueError("denominator leading (z^0) coefficient must be nonzero")
        lead = den[0]
        self.numerator_coeffs = num / lead
        self.denominator_coeffs = den / lead

    @property
    def nyquist_hz(self) -> float:
        return 0.5 / self.sample_time

    def poles(self) -> np.ndarray:
        """Roots of the denominator in the z plane."""
        den = np.trim_zeros(self.denominator_coeffs, "b")
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
        if not same_sample_time(self.sample_time, other.sample_time):
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
        if not np.isfinite(self.taps).all():
            raise ValueError("FirKernel taps must be finite")
        if not np.allclose(self.taps, self.taps[::-1], rtol=0.0,
                           atol=1e-12 * max(1.0, np.max(np.abs(self.taps)))):
            raise ValueError("FirKernel taps must be symmetric about the centre tap")

    @property
    def forward_shift(self) -> int:
        return (len(self.taps) - 1) // 2

    def dc_gain(self) -> float:
        return float(np.sum(self.taps))

    def transfer_function(self, sample_time: float) -> DiscreteTransferFunction:
        """The causal FIR(taps): evaluated with advance forward_shift, it gives
        the kernel's response."""
        return DiscreteTransferFunction(self.taps, [1.0], 0, sample_time)


@dataclass
class FrequencyResponse:
    """Finite complex response samples on a strictly increasing Hz grid."""

    frequencies_hz: np.ndarray
    values: np.ndarray
    sample_time: float

    def __post_init__(self):
        self.frequencies_hz = np.atleast_1d(np.asarray(self.frequencies_hz, dtype=float))
        self.values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        check_number("sample_time", self.sample_time, gt=0)
        if len(self.frequencies_hz) != len(self.values):
            raise ValueError("frequencies and values must have equal length")
        if not (np.isfinite(self.frequencies_hz).all() and np.isfinite(self.values).all()):
            raise ValueError("frequencies and values must be finite")
        nyq = 0.5 / self.sample_time
        if np.any(self.frequencies_hz <= 0) or np.any(self.frequencies_hz > nyq + 1e-12):
            raise ValueError(f"frequencies must lie in (0, {nyq}] Hz")
        if np.any(np.diff(self.frequencies_hz) <= 0):
            raise ValueError("frequencies must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frequencies_hz)

    def same_grid(self, other: "FrequencyResponse") -> bool:
        """Same sample time (see same_sample_time), and the same frequencies to
        within 1e-9 Hz."""
        return (
            len(self) == len(other)
            and same_sample_time(self.sample_time, other.sample_time)
            and np.allclose(self.frequencies_hz, other.frequencies_hz, rtol=0.0, atol=1e-9)
        )


def evaluate(tf: DiscreteTransferFunction, frequencies_hz, advance: int = 0) -> FrequencyResponse:
    """Evaluate z^advance * tf, the transfer function advanced by `advance` samples, on a Hz grid.

    The value at f is num(e^-iw)/den(e^-iw) * e^(-iw*pure_delay) with
    w = 2*pi*f*sample_time, times e^(iw*advance) for a nonzero advance.
    Frequencies above Nyquist raise; a denominator magnitude below 1e-14 or
    a value that overflows at a grid point raises naming the frequency.
    """
    f = np.atleast_1d(np.asarray(frequencies_hz, dtype=float))
    if np.any(f <= 0) or np.any(f > tf.nyquist_hz + 1e-12):
        bad = f[(f <= 0) | (f > tf.nyquist_hz + 1e-12)][0]
        raise ValueError(f"frequency {bad} Hz outside (0, {tf.nyquist_hz}] Hz")
    w = hz_to_rad_per_sample(f, tf.sample_time)
    zinv = np.exp(-1j * w)
    den = np.polyval(tf.denominator_coeffs[::-1], zinv)
    small = np.abs(den) < 1e-14
    if np.any(small):
        raise SingularityError(
            f"denominator vanishes at {f[small][0]:.6g} Hz (|den| < 1e-14)"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.polyval(tf.numerator_coeffs[::-1], zinv) / den * zinv**tf.pure_delay
    if advance:
        vals = vals * np.exp(1j * w * advance)
    overflow = ~np.isfinite(vals)
    if np.any(overflow):
        raise SingularityError(f"response overflows at {f[overflow][0]:.6g} Hz")
    return FrequencyResponse(f, vals, tf.sample_time)


class StreamingFilter:
    """Per-sample direct-form II transposed realization of a causal tf.

    Single-owner, one sample per call; the pure delay is a FIFO on the
    input.
    """

    def __init__(self, tf: DiscreteTransferFunction):
        n = max(len(tf.numerator_coeffs), len(tf.denominator_coeffs))
        self._b = np.zeros(n)
        self._a = np.zeros(n)
        self._b[: len(tf.numerator_coeffs)] = tf.numerator_coeffs
        self._a[: len(tf.denominator_coeffs)] = tf.denominator_coeffs
        self._state = [0.0] * (n - 1)
        self._delay = deque([0.0] * tf.pure_delay)

    def step(self, u: float) -> float:
        self._delay.append(u)
        u = self._delay.popleft()
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


class LiftedSystem:
    """A StateSpace advanced a chunk of m samples at a time by matrix products.

    This is the lifted ("supervector") form of iterative learning control,
    [y[0..m-1]; x[m]] = [[O, T], [A^m, G]] [x[0]; u[0..m-1]], with O the
    stacked C A^j, T the lower block-triangular Toeplitz matrix of the Markov
    parameters and G = [A^(m-1) B ... B].  `chunk` is cut where the powers
    A^0..A^chunk and the lifted matrix would exceed LIFT_BUDGET_BYTES; the
    object keeps the powers, G and [O T], read-only.  They are built by
    copies and shared: a system bit-identical to one of the last LIFT_MEMO
    built, with the same requested chunk, reuses that build.

    An input is split into whole chunks from its first sample on, and a
    shorter rest.  The whole chunks go BATCH at a time, each chunk a row of
    a matrix U: one product U G^T gives every chunk's drive G u_j, a loop of
    n x n products the chunk boundary states x_(j+1) = A^m x_j + G u_j, and
    one product [X U] [O T]^T every output.  The products always have BATCH
    rows, the unused ones zero, so the bits of a chunk's results do not
    depend on how many chunks share its product: calls that split an input
    at chunk multiples give the same bits as one call.  The rest uses the
    leading rows and columns of [O T], and A^r and G's last r columns.
    """

    def __init__(self, ss: StateSpace, chunk: int = CHUNK):
        check_number("chunk", chunk, ge=1, integer=True)
        self.a, self.b, self.c, self.d = ss.a, ss.b, ss.c, ss.d
        self.chunk, self._powers, self._gamma, self._outputs_t = _lift(ss, chunk)

    @property
    def order(self) -> int:
        return len(self.b)

    def run(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Outputs (len(u), outputs) from state x, and the state after."""
        m, n, q = self.chunk, self.order, len(self.d)
        whole = len(u) - len(u) % m
        y = np.empty((len(u), q))
        for start in range(0, whole, BATCH * m):
            stop = min(start + BATCH * m, whole)
            xu, x = self._batch(x, u[start: stop])
            y[start: stop] = (xu @ self._outputs_t)[: (stop - start) // m].reshape(-1, q)
        rest = len(u) - whole
        if rest:
            xu = np.concatenate([x, u[whole:]])
            y[whole:] = (xu @ self._outputs_t[: n + rest, : rest * q]).reshape(rest, q)
            x = self.advance(x, u[whole:])
        return y, x

    def advance(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The state after the input u from state x, with run's arithmetic."""
        m = self.chunk
        whole = len(u) - len(u) % m
        for start in range(0, whole, BATCH * m):
            _, x = self._batch(x, u[start: min(start + BATCH * m, whole)])
        rest = len(u) - whole
        return self._powers[rest] @ x + self._gamma[:, m - rest:] @ u[whole:] if rest else x

    def _batch(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[X U] of u, up to BATCH whole chunks, padded to BATCH rows; and the state after.

        Row j holds the state at the start of chunk j and the chunk's inputs.
        """
        m, n = self.chunk, self.order
        chunks = len(u) // m
        xu = np.zeros((BATCH, n + m))
        xu[:chunks, n:] = u[: chunks * m].reshape(chunks, m)
        drive = xu[:, n:] @ self._gamma.T
        for j in range(chunks):
            xu[j, :n] = x
            x = self._powers[m] @ x + drive[j]
        return xu, x


def array_key(*values) -> tuple:
    """The exact dtype, shape and bytes of each value as an array: a memo key
    under which only bit-identical values meet."""
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, values))


def lru_get(memo: dict, size: int, key, build):
    """memo[key], from build() when it is missing.

    memo holds at most `size` entries, least recently used first: a hit
    moves its entry to the end, and a build evicts the first entry of a
    full memo.  An exception from build leaves memo as it was.
    """
    value = memo.pop(key, None)
    if value is None:
        value = build()
        if len(memo) >= size:
            del memo[next(iter(memo))]
    memo[key] = value
    return value


# the lifts of the last LIFT_MEMO (system, chunk) pairs, least recently used first
_LIFTS: dict[tuple, tuple] = {}


def _lift(ss: StateSpace, chunk: int) -> tuple:
    """_build_lift's result for ss and chunk, built once while in _LIFTS.

    The key is the exact dtype, shape and bytes of a, b, c and d, and the
    requested chunk, so only bit-identical systems share a build.
    """
    def build():
        lift = _build_lift(ss.a, ss.b, ss.c, ss.d, chunk)
        for array in lift[1:]:
            array.flags.writeable = False
        return lift

    return lru_get(_LIFTS, LIFT_MEMO, (chunk, *array_key(ss.a, ss.b, ss.c, ss.d)), build)


def _build_lift(a, b, c, d, chunk: int) -> tuple:
    """(chunk, A^0..A^chunk, G, [O T]^T) of a LiftedSystem, by copies.

    chunk is cut to the lift budget.  Row n + j of [O T]^T, the response of
    the chunk's outputs to its input j, is the Markov sequence delayed by j
    samples: one window of the sequence zero-padded in front.
    """
    n, q = len(b), len(d)
    while chunk > 1 and 8 * ((chunk + 1) * n * n + (chunk * q + n) * (n + chunk)) \
            > LIFT_BUDGET_BYTES:
        chunk -= 1
    powers = np.empty((chunk + 1, n, n))
    powers[0] = np.eye(n)
    for j in range(chunk):
        np.matmul(a, powers[j], out=powers[j + 1])
    ab = powers[:chunk] @ b                                   # A^i B
    markov = np.vstack([d, ab[: chunk - 1] @ c.T])            # D, C B, C A B, ...
    gamma = np.ascontiguousarray(ab[::-1].T)                  # columns A^(m-1-i) B
    # [O T] transposed, so that [X U] [O T]^T reads it in memory order
    width = chunk * q
    outputs_t = np.empty((n + chunk, width))
    outputs_t[:n] = (c @ powers[:chunk]).reshape(width, n).T
    padded = np.concatenate([np.zeros(width), markov.ravel()])
    outputs_t[n:] = np.lib.stride_tricks.sliding_window_view(padded, width)[width: 0: -q]
    return chunk, powers, gamma, outputs_t


# -- coefficient file I/O ---------------------------------------------------
#
# Plain-text format: a header line, "<field> <value>" lines, and arrays, each
# a "<field> <count>" line followed by one number per line.  A transfer
# function has the header "tf <sample_time> <pure_delay>" and the arrays
# "num" and "den".


def read_text(path) -> str:
    """The text of an input file, decoded as UTF-8, with its line endings kept.

    A file that cannot be opened, a missing one in particular, or that is
    not valid UTF-8 raises ConfigurationError naming the path.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot open: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: byte {exc.start} is "
                                 f"{data[exc.start]:#04x}") from None


@contextmanager
def open_output(path, newline=None):
    """`path` opened for writing as UTF-8, its parent directories made first.

    An OSError while opening or writing, a path that names a directory for
    instance, raises ConfigurationError "<path>: cannot write: <reason>".
    """
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _cannot_write(path, exc: OSError) -> ConfigurationError:
    return ConfigurationError(f"{path}: cannot write: {exc.strerror or exc}")


def csv_fields(column) -> list[str]:
    """A column of numbers as CSV fields: the repr of each Python number
    (`.tolist()`), so floats read back exactly and integers stay integers."""
    return list(map(repr, column.tolist()))


def csv_rows(fields) -> str:
    """The rows of columns of csv_fields, at least one row: a repr holds no
    comma, quote or line break, so each row is its fields joined by commas
    and ended by CRLF, as csv.writer writes them."""
    return "\r\n".join(map(",".join, zip(*fields))) + "\r\n"


def write_rows(paths, header, lengths, parts) -> None:
    """Write CSV files side by side: in each, the header through csv.writer,
    then, part by part, its csv_rows text of each of `parts`, which hold one
    text per path.  A header whose width is not the number of a file's
    column `lengths`, and a file's unequal lengths, raise ConfigurationError
    naming its path before any file is opened.
    """
    header = list(header)
    for path, widths in zip(paths, lengths):
        if len(header) != len(widths):
            raise ConfigurationError(f"{path}: header {header} has width {len(header)}, "
                                     f"the table {len(widths)} columns")
        if len(set(widths)) > 1:
            raise ConfigurationError(f"{path}: columns of unequal lengths {widths}")
    with ExitStack() as stack:
        files = [stack.enter_context(open_output(path, newline="")) for path in paths]
        for fh in files:
            csv.writer(fh).writerow(header)
        for part in parts:
            for path, fh, text in zip(paths, files, part):
                try:
                    fh.write(text)
                except OSError as exc:   # else the last file opened would be named
                    raise _cannot_write(path, exc) from None


def write_table(path, header, columns) -> None:
    """Write a CSV file of the header and one row per element of the columns
    (write_rows).  The bytes are csv.writer's."""
    lengths = [len(column) for column in columns]
    rows = [[csv_rows([csv_fields(column) for column in columns])]] if any(lengths) else []
    write_rows([path], header, [lengths], rows)


def read_table(path, header) -> np.ndarray:
    """The columns of a CSV file that write_table(path, header, ...) wrote.

    Returns a float array with one row per column.  The header must match
    exactly, blank lines are skipped, and every other line needs one number
    per column.  An empty file, a wrong header, a row of the wrong width, a
    value that is not a number and a file with no rows all raise
    ConfigurationError naming the path, and the line where there is one.
    """
    header = list(header)
    rows = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    got = next(reader, None)
    if got is None:
        raise ConfigurationError(f"{path}: file is empty")
    if [h.strip() for h in got] != header:
        raise ConfigurationError(f"{path}: expected header {header}, got {got}")
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ConfigurationError(f"{path}: line {reader.line_num}: expected "
                                     f"{len(header)} fields {header}, got {row}")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ConfigurationError(f"{path}: line {reader.line_num}: fields {header} "
                                     f"must be numbers, got {row}") from None
    if not rows:
        raise ConfigurationError(f"{path}: no {header} rows after the header")
    return np.array(rows).T.copy()


def parse_field(path, field: str, text: str, kind):
    """kind(text), or a ConfigurationError naming the path, the field and the text."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigurationError(
            f"{path}: field {field!r}: {text!r} is not a valid {kind.__name__}") from None


class CoefficientFile:
    """A coefficient file read whole: a header line, then "<field> <value>" lines.

    The header must match the header spec word for word, where a word
    written "<name>" is a field read from that position.  A field named in
    array_fields takes a count as its value, and that many numbers follow on
    their own lines.  An empty file, a wrong header, a malformed line, a
    missing field, a field given twice (in the header or on a line), a value
    that does not parse and an array shorter than its count all raise
    ConfigurationError naming the path and the field.
    """

    def __init__(self, path, header: str, array_fields: tuple[str, ...]):
        self.path = path
        lines = [ln.strip() for ln in io.StringIO(read_text(path), newline="") if ln.strip()]
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
            if name in self._scalars or name in self._arrays:
                raise ConfigurationError(f"{path}: field {name!r} appears twice")
            if name not in array_fields:
                self._scalars[name] = value
                idx += 1
                continue
            count = parse_field(path, name, value, int)
            body = lines[idx + 1 : idx + 1 + max(count, 0)]
            if count < 0 or len(body) < count:
                raise ConfigurationError(
                    f"{path}: field {name!r} declares {count} values, the file has {len(body)}")
            self._arrays[name] = [parse_field(path, name, v, float) for v in body]
            idx += 1 + count

    def scalar(self, field: str, kind):
        if field not in self._scalars:
            raise ConfigurationError(f"{self.path}: missing field {field!r}")
        return parse_field(self.path, field, self._scalars[field], kind)

    def array(self, field: str) -> list[float]:
        if field not in self._arrays:
            raise ConfigurationError(f"{self.path}: missing field {field!r}")
        return self._arrays[field]


def write_coefficient_file(path, header: str, scalars: dict, arrays: dict) -> None:
    """Write a file that CoefficientFile(path, header, tuple(arrays)) reads back.

    Scalars fill the header's "<name>" words, the rest get "<field> <value>"
    lines; integers are written as integers and other numbers as the repr
    of their float, so they read back exactly.  Each array follows as a
    "<field> <count>" line and one number per line.
    """
    text = {name: str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
            for name, v in scalars.items()}
    lines = [" ".join(text.pop(w[1:-1]) if w.startswith("<") else w for w in header.split())]
    lines += [f"{name} {value}" for name, value in text.items()]
    for name, values in arrays.items():
        lines += [f"{name} {len(values)}", *(repr(float(v)) for v in values)]
    with open_output(path) as fh:
        fh.write("".join(line + "\n" for line in lines))


TF_HEADER = "tf <sample_time> <pure_delay>"


def save_transfer_function(tf: DiscreteTransferFunction, path) -> None:
    write_coefficient_file(path, TF_HEADER,
                           {"sample_time": tf.sample_time, "pure_delay": tf.pure_delay},
                           {"num": tf.numerator_coeffs, "den": tf.denominator_coeffs})


def load_transfer_function(path) -> DiscreteTransferFunction:
    f = CoefficientFile(path, TF_HEADER, ("num", "den"))
    num, den = f.array("num"), f.array("den")
    pure_delay, sample_time = f.scalar("pure_delay", int), f.scalar("sample_time", float)
    try:
        return DiscreteTransferFunction(num, den, pure_delay, sample_time)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
