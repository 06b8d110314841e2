"""Closed-loop FRF identification and rational fitting.

The complementary sensitivity from reference to measured airway pressure is
estimated by driving the loop with a random-phase multisine around an
operating pressure, discarding transient periods, and taking DFT ratios at
the excited bins.  A parametric model is then fitted by iterative weighted
linear least squares with the transport delay factored out analytically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .closed_loop import ClosedLoop, simulate
from .errors import (
    ConfigurationError, FitConvergenceWarning, IdentificationError, check_number,
)
from .lti import (
    DiscreteTransferFunction,
    FrequencyResponse,
    hz_to_rad_per_sample,
    read_table,
    sorted_distinct,
    write_table,
)

# the rational fit stops when the relative parameter change falls below
# FIT_TOLERANCE, or after FIT_MAX_ITERATIONS passes
FIT_MAX_ITERATIONS = 50
FIT_TOLERANCE = 1e-8


def default_excitation_bins() -> np.ndarray:
    """40 log-spaced target bins between 0.5 and 100 Hz."""
    return np.logspace(np.log10(0.5), np.log10(100.0), 40)


@dataclass
class MultisineSpec:
    """Random-phase multisine excitation for closed-loop identification."""

    bins_hz: np.ndarray = field(default_factory=default_excitation_bins)
    rms_amplitude: float = 1.0           # mbar
    period_samples: int = 1000
    periods_recorded: int = 10
    periods_discarded: int = 5
    seed: int | None = 0

    def __post_init__(self):
        bins = np.asarray(self.bins_hz, dtype=float)
        bad = bins[~(np.isfinite(bins) & (bins > 0))]
        if bad.size:
            raise ConfigurationError(
                f"bins_hz: excitation frequencies must be finite and positive, got {bad[0]}")
        check_number("rms_amplitude", self.rms_amplitude, gt=0)
        for name in ("period_samples", "periods_recorded", "periods_discarded"):
            check_number(name, getattr(self, name), ge=1, integer=True)
        if self.seed is not None:
            check_number("seed", self.seed, ge=0, integer=True)

    def snapped_bins(self, sample_time: float) -> np.ndarray:
        """Requested frequencies snapped to the multisine's integer DFT bins."""
        k = np.round(np.asarray(self.bins_hz, dtype=float)
                     * self.period_samples * sample_time).astype(int)
        k = sorted_distinct(k[(k >= 1) & (k <= self.period_samples // 2 - 1)])
        if k.size == 0:
            raise IdentificationError("no excitation bins fall inside (0, Nyquist)")
        return k

    def one_period(self, sample_time: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Snapped bins and one period of the sum of unit cosines at random phases.

        The cosines are summed by one inverse real FFT and scaled to the
        RMS amplitude.
        """
        k = self.snapped_bins(sample_time)
        phases = rng.uniform(0.0, 2.0 * np.pi, k.size)
        spectrum = np.zeros(self.period_samples // 2 + 1, dtype=complex)
        spectrum[k] = 0.5 * self.period_samples * np.exp(1j * phases)
        x = np.fft.irfft(spectrum, self.period_samples)
        x *= self.rms_amplitude / np.sqrt(np.mean(x**2))
        return k, x


def estimate_frf(plant, controller: DiscreteTransferFunction, operating_pressure: float,
                 excitation: MultisineSpec | None = None) -> FrequencyResponse:
    """Estimate the closed-loop response from reference to measured pressure.

    The loop (benchmark feedback controller, repetitive add-on off) is driven
    at reference = operating_pressure + multisine, transient periods are
    discarded, and the FRF value at each excited bin is DFT(y)/DFT(r) over
    the recorded integer number of periods.

    `plant` is a VentilatorPlant: the loop is simulated from rest in chunks
    (`closed_loop.simulate`), with the sensor noise drawn from the plant's
    generator, so one instance per identification job.  The analytic closed
    loop must be stable and the output is watched against a divergence bound
    during the run.
    """
    spec = excitation or MultisineSpec()
    ts = plant.circuit.sample_time
    if plant.circuit.measurement_delay_samples < 1:
        raise IdentificationError("identification needs measurement_delay_samples >= 1")

    # closed-loop stability precondition from the analytic loop
    open_loop = plant.closed_form_tf().cascade(controller)
    closed = open_loop.feedback_complementary()
    if not closed.is_stable(tol=-1e-9):
        raise IdentificationError("closed loop is unstable; identification aborted")

    rng = np.random.default_rng(spec.seed)
    k_bins, period = spec.one_period(ts, rng)
    n_periods = spec.periods_recorded + spec.periods_discarded

    bound = 10.0 * (abs(operating_pressure) + spec.rms_amplitude * np.sqrt(2.0 * k_bins.size)) + 10.0
    m = spec.period_samples
    reference = operating_pressure + np.tile(period, n_periods)
    run = simulate(ClosedLoop(plant, controller), reference, plant.draw_noise, bound)
    if run.diverged is not None:
        raise IdentificationError(
            f"output {run.diverged:.3g} mbar exceeded the divergence bound {bound:.3g} "
            f"at sample {run.samples}; identification aborted"
        )
    rec_at = spec.periods_discarded * m
    y_rec = run.signals[0, rec_at:]
    r_rec = reference[rec_at:]

    yf = np.fft.rfft(y_rec)
    rf = np.fft.rfft(r_rec)
    idx = k_bins * spec.periods_recorded
    values = yf[idx] / rf[idx]
    freqs = k_bins / (m * ts)
    return FrequencyResponse(freqs, values, ts)


def average_frf(responses) -> FrequencyResponse:
    """Complex arithmetic mean per bin of FRFs sharing one grid."""
    responses = list(responses)
    if not responses:
        raise ConfigurationError("need at least one FRF to average")
    first = responses[0]
    for other in responses[1:]:
        if not first.same_grid(other):
            raise ConfigurationError("FRFs must share an identical frequency grid")
    mean = np.mean([r.values for r in responses], axis=0)
    return FrequencyResponse(first.frequencies_hz.copy(), mean, first.sample_time)


def fit_rational(frf: FrequencyResponse, order: int, fixed_delay_samples: int,
                 weights=None) -> DiscreteTransferFunction:
    """Fit num/den of the given order to an FRF with the delay factored out.

    The measured response is multiplied by e^{+iw*d} first, then iterative
    weighted linear least squares refines the fit: each pass reweights by the
    previous denominator magnitude, and the iterate with the smallest true
    weighted residual is kept (so the accepted-residual history is
    non-increasing by construction).  The returned model carries
    pure_delay = fixed_delay_samples and is always stable: unstable poles are
    reflected into the unit circle and the numerator is refitted, with a
    FitConvergenceWarning.

    weights: optional per-bin nonnegative weights (e.g. 1/|frf| for a
    relative-error fit); uniform by default.
    """
    check_number("order", order, ge=0, integer=True)
    check_number("fixed_delay_samples", fixed_delay_samples, ge=0, integer=True)
    f = frf.frequencies_hz
    n_par = 2 * order + 1
    if 2 * len(f) < n_par:
        raise ConfigurationError(
            f"{len(f)} bins cannot determine the {n_par} parameters of an order-{order} fit")
    w = hz_to_rad_per_sample(f, frf.sample_time)
    zinv = np.exp(-1j * w)
    target = frf.values * zinv ** (-fixed_delay_samples)
    base_w = np.ones(len(f)) if weights is None else np.asarray(weights, dtype=float)
    if np.any(base_w < 0):
        raise ConfigurationError("weights must be nonnegative")

    powers = np.column_stack([zinv**j for j in range(order + 1)])
    # the unweighted Sanathanan-Koerner rows: num(z) - target * (den(z) - 1) = target
    sk_mat = np.column_stack([powers, -target[:, None] * powers[:, 1:]])

    def residual(num, den):
        fit = np.polyval(num[::-1], zinv) / np.polyval(den[::-1], zinv)
        return float(np.sqrt(np.sum((base_w * np.abs(fit - target)) ** 2)))

    den_prev = np.ones_like(zinv)
    best = None
    prev_params = None
    residual_history = []
    for _ in range(FIT_MAX_ITERATIONS):
        sol = _weighted_lstsq(sk_mat, target, base_w / np.abs(den_prev))
        num = sol[: order + 1]
        den = np.concatenate([[1.0], sol[order + 1 :]])
        den_val = np.polyval(den[::-1], zinv)
        if np.any(np.abs(den_val) < 1e-300):
            raise np.linalg.LinAlgError("singular denominator during iteration")
        res = residual(num, den)
        if best is None or res < best[0]:
            best = (res, num, den)
            residual_history.append(res)
        if prev_params is not None:
            change = np.linalg.norm(sol - prev_params) / max(np.linalg.norm(sol), 1e-300)
            if change < FIT_TOLERANCE:
                break
        prev_params = sol
        den_prev = den_val
    else:
        warnings.warn(
            f"rational fit did not converge in {FIT_MAX_ITERATIONS} iterations; "
            "returning best iterate",
            FitConvergenceWarning,
            stacklevel=2,
        )
    _, num, den = best

    if order > 0:
        poles = np.roots(den)
        if np.any(np.abs(poles) >= 1.0):
            poles = np.where(np.abs(poles) >= 1.0, 1.0 / np.conj(poles), poles)
            den = np.real(np.poly(poles))
            den = den / den[0]
            den_val = np.polyval(den[::-1], zinv)
            # numerator-only refit against the stabilized denominator
            num = _weighted_lstsq(powers / den_val[:, None], target, base_w)
            warnings.warn(
                "fit denominator had poles on/outside the unit circle; "
                "reflected to stable and refit the numerator",
                FitConvergenceWarning,
                stacklevel=2,
            )

    tf = DiscreteTransferFunction(num, den, fixed_delay_samples, frf.sample_time)
    tf.fit_residual_history = residual_history
    return tf


def _weighted_lstsq(a: np.ndarray, rhs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The real x minimising |weights * (a x - rhs)| over complex rows, solved
    with the real and imaginary parts stacked as rows."""
    a_w = a * weights[:, None]
    rhs_w = rhs * weights
    x, *_ = np.linalg.lstsq(np.vstack([a_w.real, a_w.imag]),
                            np.concatenate([rhs_w.real, rhs_w.imag]), rcond=None)
    return x


# -- CSV persistence ----------------------------------------------------------

FRF_HEADER = ["frequency_hz", "real", "imag"]


def save_frf(frf: FrequencyResponse, path) -> None:
    write_table(path, FRF_HEADER, [frf.frequencies_hz, frf.values.real, frf.values.imag])


def load_frf(path, sample_time: float) -> FrequencyResponse:
    """A response file read at `sample_time`, which the file does not record."""
    freqs, real, imag = read_table(path, FRF_HEADER)
    values = real.astype(complex)
    values.imag = imag
    try:
        return FrequencyResponse(freqs, values, sample_time)
    except ValueError as exc:
        raise ConfigurationError(f"{path} (sample_time {sample_time}): {exc}") from None
