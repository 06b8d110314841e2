import numpy as np
import pytest

from ventrc.control_rt import benchmark_controller_tf
from ventrc.errors import ConfigurationError, FitConvergenceWarning, IdentificationError
from ventrc.harness import design_excitation_bins
from ventrc.lti import DiscreteTransferFunction, FrequencyResponse, evaluate
from ventrc.plant import VentilatorPlant, load_scenario
from ventrc.sysid import (
    MultisineSpec,
    average_frf,
    estimate_frf,
    fit_rational,
    load_frf,
    save_frf,
)

TS = 0.002


def analytic_closed_loop(name="adult"):
    scenario, circuit = load_scenario(name)
    plant = VentilatorPlant(scenario, circuit)
    controller = benchmark_controller_tf(sample_time=circuit.sample_time)
    return plant, controller, plant.closed_form_tf().cascade(controller).feedback_complementary()


class TestEstimateFrf:
    def test_matches_analytic_closed_loop(self):
        plant, controller, closed = analytic_closed_loop()
        spec = MultisineSpec(bins_hz=np.logspace(np.log10(1.0), np.log10(60.0), 12),
                             periods_recorded=6, periods_discarded=4, seed=1)
        frf = estimate_frf(plant, controller, operating_pressure=10.0, excitation=spec)
        ref = evaluate(closed, frf.frequencies_hz)
        mag_err = np.abs(np.abs(frf.values) - np.abs(ref.values)) / np.abs(ref.values)
        phase_err = np.abs(np.angle(frf.values / ref.values))
        assert np.max(mag_err) < 0.005
        assert np.max(np.degrees(phase_err)) < 0.5

    def test_error_decreases_with_longer_record(self):
        plant, controller, closed = analytic_closed_loop()
        errs = []
        for recorded, discarded in ((2, 1), (6, 3)):
            spec = MultisineSpec(bins_hz=[2.0, 8.0, 20.0], periods_recorded=recorded,
                                 periods_discarded=discarded, seed=2)
            frf = estimate_frf(plant, controller, 10.0, spec)
            ref = evaluate(closed, frf.frequencies_hz)
            errs.append(np.max(np.abs(frf.values - ref.values)))
        assert errs[1] < errs[0]

    def test_zero_amplitude_rejected(self):
        plant, controller, _ = analytic_closed_loop()
        with pytest.raises(ValueError, match="amplitude"):
            estimate_frf(plant, controller, 10.0, MultisineSpec(rms_amplitude=0.0))

    def test_unstable_loop_aborts(self):
        scenario, circuit = load_scenario("adult")
        plant = VentilatorPlant(scenario, circuit)
        hot = benchmark_controller_tf(gain=100 * 0.01257, sample_time=circuit.sample_time)
        with pytest.raises(IdentificationError, match="unstable|diverg"):
            estimate_frf(plant, hot, 10.0, MultisineSpec(seed=3))

    @pytest.mark.parametrize("field, value", [
        ("rms_amplitude", 0.0), ("rms_amplitude", -1.0), ("period_samples", 0),
        ("periods_recorded", 0), ("periods_discarded", 0), ("bins_hz", [0.0, 2.0]),
        ("bins_hz", [-1.0, 2.0]), ("bins_hz", [np.nan, 2.0]), ("bins_hz", [2.0, np.inf])])
    def test_bad_excitation_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            MultisineSpec(**{field: value})

    def test_one_period_equals_sum_of_cosines(self):
        # the inverse-FFT period against the cosines summed one bin at a time;
        # k * t is reduced modulo the period first, since the rounding of
        # arguments up to ~6000 rad alone moves the sum by ~2e-12
        spec = MultisineSpec(bins_hz=design_excitation_bins(TS), period_samples=2000,
                             rms_amplitude=1.5, seed=3)
        k, x = spec.one_period(TS, np.random.default_rng(4))
        phases = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, k.size)
        t = np.arange(spec.period_samples)
        loop = np.zeros(spec.period_samples)
        for kk, ph in zip(k, phases):
            loop += np.cos(2.0 * np.pi * (kk * t % spec.period_samples) / spec.period_samples + ph)
        loop *= spec.rms_amplitude / np.sqrt(np.mean(loop**2))
        assert k.size > 400
        assert np.max(np.abs(x - loop)) <= 1e-12

    def test_bins_snapped_and_deduplicated(self):
        spec = MultisineSpec(bins_hz=[1.0, 1.01, 1.02, 40.0], period_samples=1000)
        k = spec.snapped_bins(TS)
        assert list(k) == [2, 80]  # 1 Hz -> bin 2, 40 Hz -> bin 80 at 0.5 Hz spacing

    def test_explicit_frequency_grid_overrides_spec(self):
        plant, controller, _ = analytic_closed_loop()
        spec = MultisineSpec(bins_hz=[2.0, 11.0, 30.0], periods_recorded=2,
                             periods_discarded=1, seed=5)
        frf = estimate_frf(plant, controller, 10.0, spec)
        assert np.allclose(frf.frequencies_hz, [2.0, 11.0, 30.0])


class TestAverageFrf:
    def test_single_input_identity(self):
        frf = FrequencyResponse([1.0, 2.0], [1 + 1j, 2 - 1j], TS)
        out = average_frf([frf])
        assert np.array_equal(out.values, frf.values)

    def test_conjugates_average_to_real(self):
        a = FrequencyResponse([1.0], [0.3 + 0.7j], TS)
        b = FrequencyResponse([1.0], [0.3 - 0.7j], TS)
        assert average_frf([a, b]).values[0] == pytest.approx(0.3 + 0.0j)

    def test_six_way_mean_matches_hand_sum(self):
        rng = np.random.default_rng(4)
        grids = np.array([1.0, 5.0, 20.0])
        frfs = [FrequencyResponse(grids, rng.normal(size=3) + 1j * rng.normal(size=3), TS)
                for _ in range(6)]
        mean = average_frf(frfs)
        for bin_idx in range(3):
            hand = sum(f.values[bin_idx] for f in frfs) / 6.0
            assert mean.values[bin_idx] == pytest.approx(hand, rel=1e-15)

    def test_mismatched_grids_rejected(self):
        a = FrequencyResponse([1.0, 2.0], [1, 1], TS)
        b = FrequencyResponse([1.0, 3.0], [1, 1], TS)
        with pytest.raises(ValueError, match="grid"):
            average_frf([a, b])


class TestFitRational:
    def known_system(self):
        # stable 4th order with a 12-sample delay
        den = np.real(np.poly([0.9, 0.75, 0.6 + 0.2j, 0.6 - 0.2j]))
        num = np.array([0.04, 0.1, -0.03, 0.015, 0.005])
        return DiscreteTransferFunction(num, den, 12, TS)

    def test_round_trip_recovery(self):
        tf = self.known_system()
        frf = evaluate(tf, np.logspace(np.log10(0.5), np.log10(100.0), 40))
        fit = fit_rational(frf, order=4, fixed_delay_samples=12)
        rel_num = np.abs(fit.numerator_coeffs - tf.numerator_coeffs) / np.max(np.abs(tf.numerator_coeffs))
        rel_den = np.abs(fit.denominator_coeffs - tf.denominator_coeffs) / np.max(np.abs(tf.denominator_coeffs))
        assert np.max(rel_num) < 1e-6
        assert np.max(rel_den) < 1e-6
        assert fit.pure_delay == 12

    def test_order_zero_constant_gain(self):
        frf = FrequencyResponse([1.0, 10.0, 50.0], [2.5, 2.5, 2.5], TS)
        fit = fit_rational(frf, order=0, fixed_delay_samples=0)
        assert fit.numerator_coeffs[0] == pytest.approx(2.5, rel=1e-12)
        assert list(fit.denominator_coeffs) == [1.0]

    def test_accepted_residuals_non_increasing(self):
        tf = self.known_system()
        grid = np.logspace(np.log10(0.5), np.log10(100.0), 60)
        rng = np.random.default_rng(8)
        noisy = evaluate(tf, grid).values * (1 + 0.02 * rng.normal(size=60)
                                             + 0.02j * rng.normal(size=60))
        frf = FrequencyResponse(grid, noisy, TS)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitConvergenceWarning)
            fit = fit_rational(frf, order=4, fixed_delay_samples=12)
        hist = np.array(fit.fit_residual_history)
        assert np.all(np.diff(hist) <= 0)

    def test_unstable_target_reflected_to_stable(self):
        den = np.real(np.poly([1.05, 0.5]))  # genuinely unstable source
        tf = DiscreteTransferFunction([0.1, 0.05], den, 0, TS)
        frf = evaluate(tf, np.linspace(1.0, 240.0, 60))
        with pytest.warns(FitConvergenceWarning, match="reflected"):
            fit = fit_rational(frf, order=2, fixed_delay_samples=0)
        assert np.all(np.abs(fit.poles()) < 1.0)

    def test_relative_weights_change_emphasis(self):
        tf = self.known_system()
        grid = np.logspace(np.log10(0.5), np.log10(100.0), 40)
        frf = evaluate(tf, grid)
        fit = fit_rational(frf, 4, 12, weights=1.0 / np.abs(frf.values))
        rel = np.abs(fit.numerator_coeffs - tf.numerator_coeffs) / np.max(np.abs(tf.numerator_coeffs))
        assert np.max(rel) < 1e-6  # exact data: weighting must not break recovery

    def test_too_few_bins_rejected(self):
        frf = FrequencyResponse([1.0, 2.0], [1.0, 1.0], TS)
        with pytest.raises(ValueError, match="bins|parameters"):
            fit_rational(frf, order=4, fixed_delay_samples=0)

    @pytest.mark.parametrize("freqs, order, message", [
        ([1.0, 2.0], -1, "order must be >= 0"),
        ([1.0, 2.0], 4, "2 bins cannot determine the 9 parameters"),
        ([], 4, "0 bins cannot determine the 9 parameters"),
    ])
    def test_bad_fit_request_is_a_configuration_error(self, freqs, order, message):
        frf = FrequencyResponse(freqs, np.ones(len(freqs)), TS)
        with pytest.raises(ConfigurationError, match=message):
            fit_rational(frf, order=order, fixed_delay_samples=0)


def test_higher_loop_gain_pulls_low_band_toward_unity():
    # sanity: a stiffer (still stable) feedback tracks better at low frequency
    scenario, circuit = load_scenario("adult")
    plant = VentilatorPlant(scenario, circuit)
    f = np.array([0.5, 1.0, 2.0])

    def closed_values(gain):
        ctrl = benchmark_controller_tf(gain=gain, sample_time=circuit.sample_time)
        closed = plant.closed_form_tf().cascade(ctrl).feedback_complementary()
        assert closed.is_stable()
        return evaluate(closed, f).values

    nominal = closed_values(0.01257)
    stiff = closed_values(10 * 0.01257)
    assert np.all(np.abs(stiff - 1.0) < np.abs(nominal - 1.0))


@pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")
def test_fit_of_analytic_mean_accurate_below_30hz():
    # the order-4 fit of the patient-mean response holds to a few percent in
    # the band the target profile actually occupies (a marginal pole gets
    # reflected along the way, which the fitter reports)
    bins = np.logspace(np.log10(0.5), np.log10(100.0), 60)
    means = []
    for name in ("adult", "pediatric", "baby"):
        _, _, closed = analytic_closed_loop(name)
        means.append(evaluate(closed, bins).values)
    mean = FrequencyResponse(bins, np.mean(means, axis=0), TS)
    fit = fit_rational(mean, order=4, fixed_delay_samples=12,
                       weights=1.0 / np.abs(mean.values))
    fitted = evaluate(fit, bins).values
    sel = bins <= 30.0
    mag_err = np.abs(np.abs(fitted[sel]) - np.abs(mean.values[sel])) / np.abs(mean.values[sel])
    assert np.max(mag_err) < 0.05


def test_frf_csv_round_trip(tmp_path):
    frf = FrequencyResponse([0.5, 2.0, 30.0], [1 + 2j, -0.5 + 0.25j, 0.001 - 0.002j], TS)
    path = tmp_path / "resp.csv"
    save_frf(frf, path)
    back = load_frf(path, sample_time=TS)
    assert np.array_equal(back.frequencies_hz, frf.frequencies_hz)
    assert np.array_equal(back.values, frf.values)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [], "file is empty"),
    (lambda lines: lines[:1], "no ['frequency_hz', 'real', 'imag'] rows after the header"),
    (lambda lines: lines[:2] + ["2.0,-0.5"],
     "line 3: expected 3 fields ['frequency_hz', 'real', 'imag'], got ['2.0', '-0.5']"),
    (lambda lines: lines[:2] + ["2.0,-0.5,"],
     "line 3: fields ['frequency_hz', 'real', 'imag'] must be numbers, got ['2.0', '-0.5', '']"),
    (lambda lines: ["frequency_hz,real"] + lines[1:],
     "expected header ['frequency_hz', 'real', 'imag'], got ['frequency_hz', 'real']"),
    (None, "cannot open: No such file or directory"),
])
def test_truncated_frf_csv_fails_closed(tmp_path, edit, message):
    path = tmp_path / "resp.csv"
    if edit is not None:  # None: the file is missing
        save_frf(FrequencyResponse([0.5, 2.0, 30.0], [1 + 2j, -0.5 + 0.25j, 0.001j], TS), path)
        path.write_text("".join(ln + "\n" for ln in edit(path.read_text().splitlines())))
    with pytest.raises(ConfigurationError) as exc:
        load_frf(path, sample_time=TS)
    assert str(exc.value) == f"{path}: {message}"
