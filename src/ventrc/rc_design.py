"""Learning-filter and robustness-filter synthesis for the repetitive add-on.

Two-step design: invert the fitted complementary sensitivity with ZPETC to
get a causal learning filter plus a forward shift, then pick a zero-phase FIR
lowpass whose cutoff keeps |Q(1 - T*L)| below one on every patient response.
The forward shifts are later absorbed by shortening the memory loop, so the
shift budget l_shift + q_shift must leave at least one sample of the period.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DesignError
from .lti import (
    CoefficientFile,
    DiscreteTransferFunction,
    FirKernel,
    FrequencyResponse,
    evaluate,
    hz_to_rad_per_sample,
    write_coefficient_file,
    write_table,
)
from .sysid import fit_rational

# the mean response is fitted only where it is trustworthy, with relative
# (1/|T|) weighting
FIT_BAND_HZ = (0.0, 40.0)
# the paper's design choices, the defaults of every design entry point: the
# fit order and the loop delay in samples, the robustness filter's cutoff
# and order, and how far below one the small-gain bound must stay
FIT_ORDER = 4
FIT_DELAY_SAMPLES = 12
Q_CUTOFF_HZ = 23.0
Q_ORDER = 50
MIN_MARGIN = 0.05
# a grid reaches Nyquist when its top bin is at least this fraction of it:
# excited multisine grids stop one bin short
GRID_REACH = 0.98
# zeros with |z| >= 1 - UNSTABLE_ZERO_TOL are treated as uninvertible
UNSTABLE_ZERO_TOL = 1e-9


@dataclass
class RcFilterSet:
    """Causal learning filter, its forward shift, the robustness kernel, and N."""

    l_causal: DiscreteTransferFunction
    l_shift: int
    q_kernel: FirKernel
    period_n: int

    def __post_init__(self):
        if self.l_shift < 0:
            raise ConfigurationError("l_shift must be nonnegative")
        if self.period_n <= 0:
            raise ConfigurationError("period_n must be positive")
        if self.buffer_length <= 0:
            raise ConfigurationError(
                f"shift budget violated: l_shift {self.l_shift} + q shift "
                f"{self.q_kernel.forward_shift} leaves no memory in period {self.period_n}"
            )
        # up to 1% DC deficit is allowed: keeping |Q| <= 1 everywhere wins
        # over exact unity when Gibbs ripple forces a rescale
        if abs(self.q_kernel.dc_gain() - 1.0) > 1e-2:
            raise ConfigurationError(
                f"q_kernel DC gain {self.q_kernel.dc_gain():.6f} is not unity"
            )

    @property
    def sample_time(self) -> float:
        return self.l_causal.sample_time

    @property
    def buffer_length(self) -> int:
        """Samples of memory left once both forward shifts are taken from the period."""
        return self.period_n - self.l_shift - self.q_kernel.forward_shift

    def with_period(self, period_n: int) -> "RcFilterSet":
        """Same filters bound to a different period (the design is N-independent)."""
        return RcFilterSet(self.l_causal, self.l_shift, self.q_kernel, period_n)


def learning_filter_response(l_causal: DiscreteTransferFunction, l_shift: int,
                             frequencies_hz) -> np.ndarray:
    """Complex response of the non-causal L = z^l_shift * L_c on a Hz grid."""
    zinv = np.exp(-1j * hz_to_rad_per_sample(frequencies_hz, l_causal.sample_time))
    return evaluate(l_causal, frequencies_hz).values * zinv ** (-l_shift)


@dataclass
class StabilityReport:
    """Per-frequency |Q(1 - T_i L)| rows and the pass/fail verdict."""

    frequencies_hz: np.ndarray
    magnitudes: dict[str, np.ndarray]
    per_plant_max: dict[str, float] = field(init=False)
    overall_max: float = field(init=False)
    passed: bool = field(init=False)
    margin: float = field(init=False)

    def __post_init__(self):
        self.per_plant_max = {k: float(np.max(v)) for k, v in self.magnitudes.items()}
        self.overall_max = max(self.per_plant_max.values())
        self.passed = self.overall_max < 1.0
        self.margin = 1.0 - self.overall_max

    def summary(self) -> str:
        lines = [
            f"  {name}: max |Q(1-TL)| = {mx:.4f}"
            for name, mx in self.per_plant_max.items()
        ]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  overall max {self.overall_max:.4f} -> {verdict} (margin {self.margin:+.4f})")
        return "\n".join(lines)

    def save_csv(self, path) -> None:
        write_table(path, ["frequency_hz", *self.magnitudes],
                    [self.frequencies_hz, *self.magnitudes.values()])


def zpetc_invert(t_fit: DiscreteTransferFunction) -> tuple[DiscreteTransferFunction, int]:
    """Approximate stable inverse of t_fit via zero-phase error compensation.

    The numerator is factored into an invertible part (zeros strictly inside
    the unit circle) and a kept part B- (zeros on/outside, treated as
    uninvertible).  The causal result is

        L_c = den(z) * B-reversed(z) / (invertible(z) * B-(1)^2)

    and the returned shift is (relative degree incl. the degree added by the
    reversed factor) + pure delay, so that z^shift * L_c gives t_fit * L real
    and >= 0 everywhere with exact unity at DC.
    """
    num = np.asarray(t_fit.numerator_coeffs, dtype=float)
    scale = np.max(np.abs(num)) if num.size else 0.0
    if scale == 0.0:
        raise ValueError("t_fit numerator is identically zero; nothing to invert")
    tol = 1e-12 * scale
    p = 0
    while abs(num[p]) <= tol:
        p += 1
    core = np.array(num[p:])
    while len(core) > 1 and abs(core[-1]) <= tol:
        core = core[:-1]

    if len(core) > 1:
        zeros = np.roots(core)
    else:
        zeros = np.array([])
    inside = zeros[np.abs(zeros) < 1.0 - UNSTABLE_ZERO_TOL]
    kept = zeros[np.abs(zeros) >= 1.0 - UNSTABLE_ZERO_TOL]

    def poly_of(zs, gain):
        c = np.array([1.0 + 0j])
        for z0 in zs:
            c = np.convolve(c, [1.0, -z0])
        return (gain * c).real  # conjugate pairs make this real

    b_plus = poly_of(inside, core[0])
    b_minus = poly_of(kept, 1.0)
    b_minus_at_1 = float(np.sum(b_minus))
    if abs(b_minus_at_1) < 1e-9 * max(1.0, np.max(np.abs(b_minus))):
        raise ValueError(
            "uninvertible numerator factor vanishes at z = 1; the fit has a "
            "zero at DC and needs manual treatment"
        )

    l_num = np.convolve(t_fit.denominator_coeffs, b_minus[::-1])
    l_den = b_plus * b_minus_at_1**2
    l_causal = DiscreteTransferFunction(l_num, l_den, 0, t_fit.sample_time)
    l_shift = p + (len(b_minus) - 1) + t_fit.pure_delay
    return l_causal, l_shift


def design_q_fir(cutoff_hz: float, order: int, sample_time: float) -> FirKernel:
    """Windowed-sinc (Hamming) zero-phase lowpass with unit DC gain.

    order must be even; the kernel has order+1 symmetric taps and forward
    shift order/2.  Taps are normalized to unit DC gain; if Gibbs ripple
    pushes the grid maximum of |Q| above 1 + 1e-6 the taps are rescaled so
    the response never exceeds one (at the cost of a sub-0.1% DC deficit).
    """
    nyquist = 0.5 / sample_time
    if not (0.0 < cutoff_hz < nyquist):
        raise ConfigurationError(f"cutoff must lie in (0, {nyquist}) Hz, got {cutoff_hz}")
    if order <= 0 or order % 2 != 0:
        raise ConfigurationError(f"order must be a positive even integer, got {order}")
    n = np.arange(order + 1, dtype=float)
    m = n - order / 2
    wc = 2.0 * np.pi * cutoff_hz * sample_time
    taps = np.empty(order + 1)
    nz = m != 0
    taps[nz] = np.sin(wc * m[nz]) / (np.pi * m[nz])
    taps[~nz] = wc / np.pi
    taps *= 0.54 - 0.46 * np.cos(2.0 * np.pi * n / order)
    taps /= taps.sum()
    kernel = FirKernel(taps)
    probe = np.linspace(nyquist / 2048, nyquist, 2048)
    peak = float(np.max(np.abs(kernel.frequency_response(probe, sample_time))))
    if peak > 1.0 + 1e-6:
        kernel = FirKernel(taps / peak)
    return kernel


def default_stability_grid(sample_time: float = 0.002) -> np.ndarray:
    """1000 linear points to Nyquist plus 200 log points over the low band."""
    nyquist = 0.5 / sample_time
    lin = np.linspace(nyquist / 1000, nyquist, 1000)
    log = np.logspace(np.log10(nyquist / 2500), np.log10(nyquist / 5.0), 200)
    return np.unique(np.concatenate([lin, log]))


def check_stability(q: FirKernel, l_causal: DiscreteTransferFunction, l_shift: int,
                    frfs: dict[str, FrequencyResponse]) -> StabilityReport:
    """Evaluate |Q(1 - T_i L)| for every plant response on their shared grid.

    The small-gain bound quantifies over all frequencies, so the shared grid
    should reach Nyquist (a warning is emitted otherwise) and be dense enough
    near the Q cutoff; default grids satisfy this.
    """
    if not frfs:
        raise ValueError("need at least one FRF to check")
    first = next(iter(frfs.values()))
    grid, ts = first.frequencies_hz, first.sample_time
    nyq = 0.5 / ts
    if grid[-1] < GRID_REACH * nyq:
        warnings.warn(
            f"stability grid stops at {grid[-1]:.1f} Hz below Nyquist "
            f"{nyq:.1f} Hz; the bound must hold at all frequencies",
            stacklevel=2,
        )
    if not all(first.same_grid(frf) for frf in frfs.values()):
        raise ValueError("all FRFs must share one frequency grid")
    q_val = q.frequency_response(grid, ts)
    l_val = learning_filter_response(l_causal, l_shift, grid)
    rows = {name: np.abs(q_val * (1.0 - frf.values * l_val)) for name, frf in frfs.items()}
    return StabilityReport(np.asarray(grid, dtype=float), rows)


def fit_band(mean_frf: FrequencyResponse, order: int = FIT_ORDER) -> FrequencyResponse:
    """The bins of the mean response over FIT_BAND_HZ that an order-`order`
    fit uses; ConfigurationError unless there are 2 * order + 1 of them."""
    lo, hi = FIT_BAND_HZ
    sel = (mean_frf.frequencies_hz >= lo) & (mean_frf.frequencies_hz <= hi)
    if np.count_nonzero(sel) < 2 * order + 1:
        raise ConfigurationError(
            f"fit band [{lo}, {hi}] Hz keeps too few bins for an order-{order} fit")
    return FrequencyResponse(mean_frf.frequencies_hz[sel], mean_frf.values[sel],
                             mean_frf.sample_time)


def fit_loop_model(mean_frf: FrequencyResponse, order: int = FIT_ORDER,
                   delay_samples: int = FIT_DELAY_SAMPLES) -> DiscreteTransferFunction:
    """The loop model: the mean response over FIT_BAND_HZ, relative (1/|T|) weights."""
    banded = fit_band(mean_frf, order)
    return fit_rational(banded, order, delay_samples, weights=1.0 / np.abs(banded.values))


def design_pipeline(frfs: dict[str, FrequencyResponse], mean_frf: FrequencyResponse,
                    order: int = FIT_ORDER, delay_samples: int = FIT_DELAY_SAMPLES,
                    cutoff_hz: float = Q_CUTOFF_HZ, q_order: int = Q_ORDER,
                    period_n: int = 2000,
                    min_margin: float = MIN_MARGIN) -> tuple[RcFilterSet, StabilityReport]:
    """Chain fit_loop_model -> inversion -> lowpass design -> stability check.

    Raises DesignError (with the report attached) if the bound fails or the
    margin is below min_margin.
    """
    if not min_margin >= 0:   # written so that NaN fails too
        raise ConfigurationError(f"min_margin must be >= 0, got {min_margin}")
    t_fit = fit_loop_model(mean_frf, order, delay_samples)
    l_causal, l_shift = zpetc_invert(t_fit)
    q_kernel = design_q_fir(cutoff_hz, q_order, mean_frf.sample_time)
    filterset = RcFilterSet(l_causal, l_shift, q_kernel, period_n)
    filterset.t_fit = t_fit
    report = check_stability(q_kernel, l_causal, l_shift, frfs)
    if not report.passed:
        raise DesignError(
            f"stability bound failed: overall max {report.overall_max:.4f} >= 1",
            report=report,
        )
    if report.margin < min_margin:
        raise DesignError(
            f"stability margin {report.margin:.4f} below required {min_margin}",
            report=report,
        )
    return filterset, report


# -- filter-set persistence ---------------------------------------------------
#
# A coefficient file (lti.write_coefficient_file): the timing and shifts, then
# the learning-filter numerator and denominator and the robustness taps.

FILTERSET_HEADER = "ventrc-filterset v1"


def save_filterset(filterset: RcFilterSet, path) -> None:
    lc = filterset.l_causal
    write_coefficient_file(
        path, FILTERSET_HEADER,
        {"sample_time": lc.sample_time, "period_n": filterset.period_n,
         "l_shift": filterset.l_shift, "l_delay": lc.pure_delay,
         "q_shift": filterset.q_kernel.forward_shift},
        {"l_num": lc.numerator_coeffs, "l_den": lc.denominator_coeffs,
         "q_taps": filterset.q_kernel.taps})


def load_filterset(path) -> RcFilterSet:
    f = CoefficientFile(path, FILTERSET_HEADER, ("l_num", "l_den", "q_taps"))
    l_num, l_den, q_taps = f.array("l_num"), f.array("l_den"), f.array("q_taps")
    l_delay, sample_time = f.scalar("l_delay", int, default=0), f.scalar("sample_time", float)
    l_shift, q_shift = f.scalar("l_shift", int), f.scalar("q_shift", int)
    period_n = f.scalar("period_n", int)
    try:
        q_kernel = FirKernel(q_taps)
        if q_kernel.forward_shift != q_shift:
            raise ConfigurationError(
                f"field 'q_shift' is {q_shift}, but {len(q_taps)} q_taps give "
                f"{q_kernel.forward_shift}")
        l_causal = DiscreteTransferFunction(l_num, l_den, l_delay, sample_time)
        return RcFilterSet(l_causal, l_shift, q_kernel, period_n)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
