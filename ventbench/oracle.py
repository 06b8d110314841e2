"""Independent reference model of everything the benchmark checks.

Nothing here imports ventrc.  The plant is rebuilt from a scenario file's
physical parameters with ``scipy.signal.cont2discrete`` (zero-order hold),
the memory loop from the numbers in a filter-set file, and |Q(1 - T L)| is
evaluated with plain numpy polynomials.  Files are parsed with ``csv``,
``configparser`` and numpy.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass

import numpy as np
from scipy.signal import cont2discrete, lfilter

INTEGRAL_GAIN = 0.01257  # the benchmark controller gain/(z - 1) of the paper

_CIRCUIT_DEFAULTS = {
    "r_hose": 5.0, "r_leak": 50.0, "blower_time_constant": 0.010,
    "blower_delay_samples": 6, "measurement_delay_samples": 6, "sample_time": 0.002,
}


# -- file readers --------------------------------------------------------------

def read_columns(path) -> dict[str, np.ndarray]:
    """Columns of a numeric CSV file by header name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    body = np.array(rows[1:], dtype=float) if len(rows) > 1 else np.zeros((0, len(rows[0])))
    if body.ndim != 2 or body.shape[1] != len(rows[0]):
        raise ValueError(f"{path}: ragged CSV")
    return {name: body[:, i] for i, name in enumerate(rows[0])}


@dataclass
class Scenario:
    """Physical parameters and ventilator settings of one patient file."""

    name: str
    r_lung: float
    c_lung: float
    peep: float
    ipap: float
    t_insp: float
    t_exp: float
    r_hose: float
    r_leak: float
    blower_tau: float
    blower_delay: int
    measurement_delay: int
    sample_time: float

    @property
    def period_n(self) -> int:
        return round((self.t_insp + self.t_exp) / self.sample_time)

    def reference(self, breaths: int) -> np.ndarray:
        profile = np.full(self.period_n, self.peep)
        profile[: round(self.t_insp / self.sample_time)] = self.ipap
        return np.tile(profile, breaths)


def read_scenario(path) -> Scenario:
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValueError(f"cannot read {path}")
    pat, vent = cp["patient"], cp["ventilator"]
    circ = {**_CIRCUIT_DEFAULTS, **(dict(cp["circuit"]) if cp.has_section("circuit") else {})}
    return Scenario(
        name=pat.get("name"), r_lung=float(pat["r_lung"]), c_lung=float(pat["c_lung"]),
        peep=float(vent["peep"]), ipap=float(vent["ipap"]),
        t_insp=float(vent["t_insp"]), t_exp=float(vent["t_exp"]),
        r_hose=float(circ["r_hose"]), r_leak=float(circ["r_leak"]),
        blower_tau=float(circ["blower_time_constant"]),
        blower_delay=int(circ["blower_delay_samples"]),
        measurement_delay=int(circ["measurement_delay_samples"]),
        sample_time=float(circ["sample_time"]),
    )


@dataclass
class FilterSet:
    """The numbers of a filter-set file."""

    sample_time: float
    period_n: int
    l_shift: int
    l_delay: int
    q_shift: int
    l_num: np.ndarray
    l_den: np.ndarray
    q_taps: np.ndarray

    @property
    def memory_length(self) -> int:
        return self.period_n - self.l_shift - self.q_shift


def read_filterset(path) -> FilterSet:
    with open(path) as fh:
        tokens = [ln.split() for ln in fh if ln.strip()]
    if tokens[0] != ["ventrc-filterset", "v1"]:
        raise ValueError(f"{path}: not a filter-set file")
    scalars, arrays, i = {}, {}, 1
    while i < len(tokens):
        key, val = tokens[i]
        if key in ("l_num", "l_den", "q_taps"):
            count = int(val)
            arrays[key] = np.array([float(t[0]) for t in tokens[i + 1: i + 1 + count]])
            if len(arrays[key]) != count:
                raise ValueError(f"{path}: section {key} is short")
            i += 1 + count
        else:
            scalars[key] = val
            i += 1
    return FilterSet(
        float(scalars["sample_time"]), int(scalars["period_n"]), int(scalars["l_shift"]),
        int(scalars.get("l_delay", 0)), int(scalars["q_shift"]),
        arrays["l_num"], arrays["l_den"], arrays["q_taps"],
    )


def read_tf(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Numerator, denominator and pure delay of a ``tf`` coefficient file."""
    with open(path) as fh:
        tokens = [ln.split() for ln in fh if ln.strip()]
    if tokens[0][0] != "tf":
        raise ValueError(f"{path}: not a tf file")
    sections, i = {}, 1
    while i < len(tokens):
        name, count = tokens[i][0], int(tokens[i][1])
        sections[name] = np.array([float(t[0]) for t in tokens[i + 1: i + 1 + count]])
        i += 1 + count
    return sections["num"], sections["den"], int(tokens[0][2])


# -- plant and closed loop -----------------------------------------------------

def _zoh(a: float, b: float, ts: float) -> tuple[float, float]:
    """Discrete pole and input gain of dx/dt = a x + b u under a ZOH."""
    ad, bd, _, _, _ = cont2discrete((np.array([[a]]), np.array([[b]]),
                                     np.array([[1.0]]), np.array([[0.0]])), ts, method="zoh")
    return float(ad[0, 0]), float(bd[0, 0])


class Plant:
    """Blower lag, static airway node and lung, rebuilt from the physics.

    The blower output is read at the end of its hold interval and the lung
    integrates the blower output held over the next interval; the measured
    pressure is the airway node delayed by the measurement delay.
    """

    def __init__(self, s: Scenario):
        if s.blower_tau <= 0:
            raise ValueError("the oracle models a blower with a positive time constant")
        self.s = s
        g_hose, g_leak, g_lung = 1 / s.r_hose, 1 / s.r_leak, 1 / s.r_lung
        g_total = g_hose + g_leak + g_lung
        self.c_out, self.c_lung, self.g_lung = g_hose / g_total, g_lung / g_total, g_lung
        self.a_b, self.b_b = _zoh(-1 / s.blower_tau, 1 / s.blower_tau, s.sample_time)
        self.a_l, self.b_l = _zoh(g_lung / s.c_lung * (g_lung / g_total - 1),
                                  g_lung / s.c_lung * g_hose / g_total, s.sample_time)

    def tf(self) -> tuple[np.ndarray, np.ndarray]:
        """Command -> measured pressure as z^-1 polynomials (delays included)."""
        delay = self.s.blower_delay + self.s.measurement_delay
        node = [self.c_out, -self.c_out * self.a_l + self.c_lung * self.b_l]
        num = np.concatenate([np.zeros(delay), self.b_b * np.asarray(node)])
        den = np.convolve([1.0, -self.a_b], [1.0, -self.a_l])
        return num, den

    def replay(self, command: np.ndarray) -> dict[str, np.ndarray]:
        """Measured p_aw, lung pressure before each step, and patient flow."""
        u = _delay(command, self.s.blower_delay)
        p_out = lfilter([self.b_b], [1.0, -self.a_b], u)
        p_lung = lfilter([0.0, self.b_l], [1.0, -self.a_l], p_out)
        p_aw = self.c_out * p_out + self.c_lung * p_lung
        return {"p_aw": _delay(p_aw, self.s.measurement_delay), "p_lung": p_lung,
                "q_pat": (p_aw - p_lung) * self.g_lung}

    def closed_loop_command(self, reference: np.ndarray) -> np.ndarray:
        """Command of the unlimited integral loop, noise-free, from rest.

        Stepped sample by sample: the loop's 12-sample delay makes its
        closed-loop polynomial too ill-conditioned for a direct-form filter
        to hold 1e-9 mbar over a 20-breath run.
        """
        nb, nm = self.s.blower_delay, self.s.measurement_delay
        if nm < 1:
            raise ValueError("the integral loop needs a measurement delay of at least one sample")
        n = len(reference)
        command, p_aw = [0.0] * n, [0.0] * n
        x = p_lung = u = e = 0.0
        for k, r in enumerate(reference.tolist()):
            u += INTEGRAL_GAIN * e
            command[k] = u
            x = self.a_b * x + self.b_b * (command[k - nb] if k >= nb else 0.0)
            p_aw[k] = self.c_out * x + self.c_lung * p_lung
            e = r - (p_aw[k - nm] if k >= nm else 0.0)
            p_lung = self.a_l * p_lung + self.b_l * x
        return np.array(command)

    def closed_loop_response(self, freqs_hz: np.ndarray) -> np.ndarray:
        """Reference -> measured pressure of the integral loop on a Hz grid."""
        x = np.exp(-2j * np.pi * np.asarray(freqs_hz) * self.s.sample_time)
        num, den = self.tf()
        p = zpoly(num, x) / zpoly(den, x)
        c = INTEGRAL_GAIN * x / (1 - x)
        return c * p / (1 + c * p)


def _delay(x: np.ndarray, d: int) -> np.ndarray:
    d = min(d, len(x))
    return np.concatenate([np.zeros(d), x[: len(x) - d]])


def zpoly(coeffs, x) -> np.ndarray:
    """sum_j coeffs[j] * x**j, with x = e^{-iw}."""
    return np.polyval(np.asarray(coeffs, dtype=float)[::-1], x)


# -- repetitive loop -----------------------------------------------------------

def memory_loop(fs: FilterSet, error: np.ndarray) -> np.ndarray:
    """Correction of the repetitive loop for an error sequence, from rest.

    a = e + v delayed by l_shift; the causal Q taps filter a into a memory
    of length N - l_shift - q_shift; its output v passes the causal learning
    filter.  The loop delay N - q_shift lets whole blocks of that length be
    computed at once.
    """
    d, block = fs.memory_length, fs.period_n - fs.q_shift
    if d <= 0:
        raise ValueError("filter set leaves no memory")
    n, taps = len(error), fs.q_taps
    a, yq = np.zeros(n), np.zeros(n)
    for s in range(0, n, block):
        t = min(s + block, n)
        src = np.arange(s, t) - block
        a[s:t] = error[s:t] + np.where(src >= 0, yq[np.maximum(src, 0)], 0.0)
        lo = max(0, s - len(taps) + 1)
        yq[s:t] = np.convolve(a[lo:t], taps)[s - lo: t - lo]
    v = _delay(yq, d)
    return _delay(lfilter(fs.l_num, fs.l_den, v), fs.l_delay)


def learning_response(fs: FilterSet, freqs_hz) -> np.ndarray:
    x = np.exp(-2j * np.pi * np.asarray(freqs_hz) * fs.sample_time)
    return zpoly(fs.l_num, x) / zpoly(fs.l_den, x) * x ** (fs.l_delay - fs.l_shift)


def q_response(fs: FilterSet, freqs_hz) -> np.ndarray:
    x = np.exp(-2j * np.pi * np.asarray(freqs_hz) * fs.sample_time)
    return zpoly(fs.q_taps, x) * x ** (-fs.q_shift)


def stability_magnitude(fs: FilterSet, freqs_hz, t_values, with_q: bool = True) -> np.ndarray:
    """|Q(1 - T L)| (or |1 - T L| without Q) on a grid."""
    core = 1.0 - np.asarray(t_values) * learning_response(fs, freqs_hz)
    return np.abs(q_response(fs, freqs_hz) * core if with_q else core)


# -- breath statistics -----------------------------------------------------------

def breath_norms(reference: np.ndarray, p_aw: np.ndarray, period_n: int) -> np.ndarray:
    e = reference - p_aw
    full = len(e) // period_n
    return np.sqrt(np.sum(e[: full * period_n].reshape(full, period_n) ** 2, axis=1))


def converged_ratio(pid_norms: np.ndarray, rc_norms: np.ndarray) -> float:
    """Mean of the last five per-breath rc/pid ratios."""
    return float(np.mean((rc_norms / pid_norms)[-5:]))


SETTLE_TOLERANCE = 0.05


def learn_breaths(rc_norms: np.ndarray) -> float:
    """Breaths until the rc breath norm last crosses 1.05x its converged value.

    The converged value is the mean of the last five norms.  The crossing is
    interpolated linearly between the last breath above the threshold and the
    next one, so the figure moves smoothly with the inputs.
    """
    threshold = (1 + SETTLE_TOLERANCE) * float(np.mean(rc_norms[-5:]))
    above = np.nonzero(rc_norms > threshold)[0]
    if len(above) == 0:
        return 1.0
    k = int(above[-1])
    if k + 1 >= len(rc_norms):
        return float(len(rc_norms))
    hi, lo = rc_norms[k], rc_norms[k + 1]
    return k + 1 + float((hi - threshold) / (hi - lo))
