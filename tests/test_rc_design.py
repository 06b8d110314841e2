import numpy as np
import pytest

from ventrc.errors import ConfigurationError, DesignError
from ventrc.lti import DiscreteTransferFunction, FirKernel, evaluate
from ventrc.rc_design import (
    RcFilterSet,
    check_stability,
    default_stability_grid,
    design_pipeline,
    design_q_fir,
    learning_filter_response,
    load_filterset,
    save_filterset,
    zpetc_invert,
)

TS = 0.002


def compensated(t_fit, freqs):
    l_causal, l_shift = zpetc_invert(t_fit)
    t_val = evaluate(t_fit, freqs).values
    return t_val * learning_filter_response(l_causal, l_shift, freqs), l_shift


class TestZpetc:
    def test_minimum_phase_exact_inverse(self):
        t_fit = DiscreteTransferFunction([0.5, 0.1], [1.0, -0.7], 0, TS)  # zero at -0.2
        freqs = np.linspace(0.5, 250.0, 400)
        tl, l_shift = compensated(t_fit, freqs)
        assert l_shift == 0
        assert np.allclose(tl, 1.0, atol=1e-12)

    def test_pure_delay(self):
        t_fit = DiscreteTransferFunction([1.0], [1.0], 12, TS)
        l_causal, l_shift = zpetc_invert(t_fit)
        assert l_shift == 12
        assert np.allclose(l_causal.numerator_coeffs, [1.0])
        assert np.allclose(l_causal.denominator_coeffs, [1.0])
        tl, _ = compensated(t_fit, np.linspace(0.5, 250.0, 200))
        assert np.allclose(tl, 1.0, atol=1e-12)

    def test_single_unstable_zero(self):
        # numerator 1 + 2 z^-1 has a zero at z = -2
        t_fit = DiscreteTransferFunction([1.0, 2.0], [1.0, -0.5], 0, TS)
        freqs = np.linspace(0.5, 250.0, 500)
        tl, l_shift = compensated(t_fit, freqs)
        assert l_shift == 1
        w = 2 * np.pi * freqs * TS
        expected = np.abs(np.exp(1j * w) + 2.0) ** 2 / 9.0
        assert np.max(np.abs(tl.imag)) <= 1e-9 * np.max(np.abs(tl))
        assert np.allclose(tl.real, expected, rtol=1e-9)

    def test_unity_at_dc(self):
        t_fit = DiscreteTransferFunction([0.3, 0.5, 0.1], [1.0, -1.2, 0.4], 3, TS)
        l_causal, l_shift = zpetc_invert(t_fit)
        tl_dc = t_fit.dc_gain() * l_causal.dc_gain()
        assert tl_dc == pytest.approx(1.0, abs=1e-12)

    def test_relative_degree_counts_in_shift(self):
        # leading numerator zeros add to the shift
        t_fit = DiscreteTransferFunction([0.0, 0.0, 0.4, 0.2], [1.0, -0.5], 2, TS)
        _, l_shift = zpetc_invert(t_fit)
        assert l_shift == 4  # p=2 leading zeros + s=0 + d=2

    def test_zero_at_one_rejected(self):
        t_fit = DiscreteTransferFunction([1.0, -1.0], [1.0, -0.5], 0, TS)
        with pytest.raises(ValueError, match="z = 1|manual"):
            zpetc_invert(t_fit)

    def test_zero_numerator_rejected(self):
        with pytest.raises(ValueError, match="numerator"):
            zpetc_invert(DiscreteTransferFunction([0.0, 0.0], [1.0, -0.5], 0, TS))

    def test_inverse_is_stable(self):
        t_fit = DiscreteTransferFunction([0.2, 0.9, 0.3], [1.0, -1.4, 0.5], 5, TS)
        l_causal, _ = zpetc_invert(t_fit)
        assert l_causal.is_stable()


class TestQDesign:
    def test_default_design_shape(self):
        k = design_q_fir(23.0, 50, TS)
        assert len(k.taps) == 51
        assert k.forward_shift == 25
        assert np.allclose(k.taps, k.taps[::-1])
        assert k.dc_gain() == pytest.approx(1.0, abs=1e-3)

    def test_half_gain_at_cutoff(self):
        k = design_q_fir(23.0, 50, TS)
        mag = np.abs(k.frequency_response([23.0], TS)[0])
        assert 0.45 < mag < 0.55

    def test_response_never_exceeds_one(self):
        k = design_q_fir(23.0, 50, TS)
        grid = np.linspace(0.1, 250.0, 4000)
        assert np.max(np.abs(k.frequency_response(grid, TS))) <= 1.0 + 1e-6

    def test_near_nyquist_cutoff_is_near_identity(self):
        k = design_q_fir(249.0, 2, TS)
        grid = np.linspace(0.5, 250.0, 1000)
        mags = np.abs(k.frequency_response(grid, TS))
        assert np.mean(mags > 0.99) > 0.9

    def test_constant_passes_unchanged(self):
        k = design_q_fir(23.0, 50, TS)
        assert k.dc_gain() == pytest.approx(1.0, abs=1e-3)
        assert k.frequency_response([1e-6], TS)[0] == pytest.approx(k.dc_gain(), abs=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            design_q_fir(23.0, 51, TS)
        with pytest.raises(ValueError):
            design_q_fir(260.0, 50, TS)
        with pytest.raises(ValueError):
            design_q_fir(0.0, 50, TS)


class TestCheckStability:
    def test_exact_inverse_gives_unit_margin(self):
        t_fit = DiscreteTransferFunction([0.5, 0.1], [1.0, -0.7], 0, TS)
        l_causal, l_shift = zpetc_invert(t_fit)
        grid = default_stability_grid(TS)
        frf = evaluate(t_fit, grid)
        q = design_q_fir(23.0, 50, TS)
        report = check_stability(q, l_causal, l_shift, {"a": frf, "b": frf})
        assert report.passed
        assert report.overall_max < 1e-9
        assert report.margin > 0.999

    def test_short_grid_warns(self):
        t_fit = DiscreteTransferFunction([0.5, 0.1], [1.0, -0.7], 0, TS)
        l_causal, l_shift = zpetc_invert(t_fit)
        frf = evaluate(t_fit, np.linspace(0.5, 100.0, 500))
        with pytest.warns(UserWarning, match="Nyquist"):
            check_stability(FirKernel([1.0]), l_causal, l_shift,
                            {"a": frf})

    def test_mismatched_grids_rejected(self):
        t_fit = DiscreteTransferFunction([0.5, 0.1], [1.0, -0.7], 0, TS)
        l_causal, l_shift = zpetc_invert(t_fit)
        a = evaluate(t_fit, np.linspace(0.5, 250.0, 400))
        b = evaluate(t_fit, np.linspace(0.6, 250.0, 400))
        with pytest.raises(ValueError, match="grid"):
            check_stability(FirKernel([1.0]), l_causal, l_shift,
                            {"a": a, "b": b})

    def test_report_csv(self, tmp_path, design_outputs):
        report = design_outputs["report"]
        path = tmp_path / "report.csv"
        report.save_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "frequency_hz"
        assert set(header[1:]) == set(report.magnitudes)


class TestFilterSet:
    def make(self):
        lc = DiscreteTransferFunction([1.0, 0.2], [1.0, -0.3], 0, TS)
        return RcFilterSet(lc, 13, design_q_fir(23.0, 50, TS), 2000)

    def test_budget_violation_rejected(self):
        lc = DiscreteTransferFunction([1.0], [1.0], 0, TS)
        for l_shift in (30, 15):  # 15 + q shift 25 leaves no memory in 40
            with pytest.raises(ConfigurationError, match="budget"):
                RcFilterSet(lc, l_shift, design_q_fir(23.0, 50, TS), period_n=40)
        assert RcFilterSet(lc, 14, design_q_fir(23.0, 50, TS), period_n=40).buffer_length == 1

    def test_asymmetric_kernel_rejected(self):
        lc = DiscreteTransferFunction([1.0], [1.0], 0, TS)
        with pytest.raises((ConfigurationError, ValueError)):
            RcFilterSet(lc, 0, FirKernel([0.7, 0.2, 0.1]), 100)

    def test_round_trip(self, tmp_path):
        fs = self.make()
        path = tmp_path / "rc.filterset"
        save_filterset(fs, path)
        back = load_filterset(path)
        assert back.l_shift == fs.l_shift
        assert back.period_n == fs.period_n
        assert np.array_equal(back.q_kernel.taps, fs.q_kernel.taps)
        assert np.array_equal(back.l_causal.numerator_coeffs, fs.l_causal.numerator_coeffs)
        assert np.array_equal(back.l_causal.denominator_coeffs, fs.l_causal.denominator_coeffs)

    def test_with_period_rebinds(self):
        fs = self.make()
        other = fs.with_period(1000)
        assert other.period_n == 1000
        assert other.l_causal is fs.l_causal


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [], "file is empty"),
    (lambda lines: ["ventrc-filterset v2"] + lines[1:],
     "expected header 'ventrc-filterset v1', got 'ventrc-filterset v2'"),
    # cut after 8 lines: inside the learning-filter numerator
    (lambda lines: lines[:8], "field 'l_num' declares 2 values, the file has 1"),
    (lambda lines: lines[:lines.index("q_taps 51")], "missing field 'q_taps'"),
    (lambda lines: lines[:-1], "field 'q_taps' declares 51 values, the file has 50"),
    (lambda lines: lines[:7] + lines[8:], "field 'l_num': 'l_den 2' is not a valid float"),
    (lambda lines: [ln for ln in lines if not ln.startswith("period_n ")],
     "missing field 'period_n'"),
    (lambda lines: [ln.replace("l_shift 13", "l_shift") for ln in lines],
     "expected '<field> <value>', got 'l_shift'"),
    (lambda lines: lines[:-1] + ["0.5"], "FirKernel taps must be symmetric about the centre tap"),
    (lambda lines: [ln.replace("q_shift 25", "q_shift 24") for ln in lines],
     "field 'q_shift' is 24, but 51 q_taps give 25"),
    (lambda lines: [ln.replace("l_shift 13", "l_shift 1990") for ln in lines],
     "shift budget violated: l_shift 1990 + q shift 25 leaves no memory in period 2000"),
    (lambda lines: [ln.replace("l_shift 13", "l_shift 1975") for ln in lines],
     "shift budget violated: l_shift 1975 + q shift 25 leaves no memory in period 2000"),
    (lambda lines: lines[:lines.index("l_den 2") + 1] + ["0.0"] + lines[lines.index("l_den 2") + 2:],
     "denominator leading (z^0) coefficient must be nonzero"),
    (None, "cannot open: No such file or directory"),
])
def test_truncated_filterset_fails_closed(tmp_path, edit, message):
    path = tmp_path / "rc.filterset"
    if edit is not None:  # None: the file is missing
        lc = DiscreteTransferFunction([1.0, 0.2], [1.0, -0.3], 0, TS)
        save_filterset(RcFilterSet(lc, 13, design_q_fir(23.0, 50, TS), 2000), path)
        path.write_text("".join(ln + "\n" for ln in edit(path.read_text().splitlines())))
    with pytest.raises(ConfigurationError) as exc:
        load_filterset(path)
    assert str(exc.value) == f"{path}: {message}"


class TestDesignPipeline:
    @pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")
    def test_budget_violation_raises(self, design_outputs):
        frfs, mean = design_outputs["frfs"], design_outputs["mean"]
        with pytest.raises(ConfigurationError, match="budget"):
            design_pipeline(frfs, mean, period_n=30)

    @pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")
    def test_margin_enforced(self, design_outputs):
        frfs, mean = design_outputs["frfs"], design_outputs["mean"]
        with pytest.raises(DesignError) as err:
            design_pipeline(frfs, mean, period_n=2000, min_margin=0.99)
        assert err.value.report is not None

    def test_zero_phase_compensation_on_designed_fit(self, design_outputs):
        t_fit = design_outputs["t_fit"]
        fs = design_outputs["filterset"]
        grid = default_stability_grid(TS)
        l_val = learning_filter_response(fs.l_causal, fs.l_shift, grid)
        tl = evaluate(t_fit, grid).values * l_val
        assert np.max(np.abs(tl.imag) / np.abs(tl)) <= 1e-9
        assert np.all(tl.real >= -1e-12)

    def test_monotone_in_cutoff(self, design_outputs):
        # lowering the cutoff must never increase the worst-case magnitude
        frfs = design_outputs["frfs"]
        fs = design_outputs["filterset"]
        maxima = []
        for cutoff in (23.0, 20.0, 15.0, 10.0, 5.0):
            q = design_q_fir(cutoff, 50, TS)
            report = check_stability(q, fs.l_causal, fs.l_shift, frfs)
            maxima.append(report.overall_max)
        assert all(b <= a + 1e-9 for a, b in zip(maxima, maxima[1:]))

    def test_single_frf_margin_near_unity_below_cutoff(self, design_outputs):
        # checked against its own fit, the loop is nearly perfectly compensated
        # in the passband, so the bound sits close to zero there
        t_fit = design_outputs["t_fit"]
        fs = design_outputs["filterset"]
        grid = default_stability_grid(TS)
        frf = evaluate(t_fit, grid)
        report = check_stability(fs.q_kernel, fs.l_causal, fs.l_shift, {"fit": frf})
        below = grid <= 23.0
        assert np.max(report.magnitudes["fit"][below]) < 0.1
        assert report.passed

    def test_cutoff_can_rise_before_failing(self, design_outputs):
        # the margin at 23 Hz leaves headroom; push the cutoff up until the
        # bound finally breaks to locate the failure edge
        frfs = design_outputs["frfs"]
        fs = design_outputs["filterset"]

        def overall(cutoff):
            q = design_q_fir(cutoff, 50, TS)
            return check_stability(q, fs.l_causal, fs.l_shift, frfs).overall_max

        assert overall(23.0) < 1.0
        lo, hi = 23.0, 240.0
        assert overall(hi) >= 1.0
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            if overall(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert lo > 23.0  # slightly-higher cutoffs still guarantee the bound
