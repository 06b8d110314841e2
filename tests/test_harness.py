import contextlib
import inspect
import math
import multiprocessing
import re
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ventrc import harness, lti
from ventrc.errors import ConfigurationError, DesignError, ExperimentDiverged
from ventrc.harness import (
    BreathLog,
    ComparisonTable,
    IDENT_JOBS,
    SEED,
    ExperimentSpec,
    compare_runs,
    emit_comparison_report,
    emit_report,
    identify,
    identify_all,
    run_experiment,
    run_full_pipeline,
)
from ventrc.lti import DiscreteTransferFunction
from ventrc.plant import (
    save_scenario, load_scenario, reference_profile, resolve_scenario_path, PatientScenario,
)
from ventrc.rc_design import RcFilterSet
from table_reference import write_table as reference_write_table


class TestExperimentSpec:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(scenario="adult", mode="mpc")

    def test_rc_without_filterset_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(scenario="adult", mode="rc")

    def test_pid_with_filterset_rejected(self):
        # a filter set given to a pid run would be ignored without a word
        with pytest.raises(ConfigurationError, match="pid mode takes no filterset"):
            ExperimentSpec(scenario="adult", mode="pid", filterset="rc_adult.filterset")

    def test_zero_breaths_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(scenario="adult", mode="pid", breaths=0)

    @pytest.mark.parametrize("field, value", [
        ("breaths", 2.5), ("breaths", "3"), ("breaths", None), ("breaths", np.float64(3.0)),
        ("seed", 1.5), ("seed", "1"), ("seed", None)])
    def test_non_integer_breaths_or_seed_rejected(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be an integer, got {re.escape(repr(value))}$"):
            ExperimentSpec(scenario="adult", mode="pid", **{field: value})

    def test_integer_types_accepted(self):
        spec = ExperimentSpec(scenario="adult", mode="pid", breaths=np.int64(3),
                              seed=np.int64(2))
        assert (spec.breaths, spec.seed) == (3, 2)

    @pytest.mark.parametrize("limits", [
        (math.nan, 40.0), (0.0, math.nan), (0.0, 40.0, 1.0), (0.0,), (40.0, 0.0), 40.0])
    def test_bad_output_limits_rejected(self, limits):
        with pytest.raises(ConfigurationError, match="output_limits"):
            ExperimentSpec(scenario="adult", mode="pid", output_limits=limits)


class TestBenchmarkRuns:
    def test_pid_norms_settle(self, experiment_logs):
        # LTI loop under a periodic reference: the norms freeze once the
        # startup transient dies (pediatric's slow lung pole needs until
        # breath 5 to clear 1e-9; see the notes ledger)
        for name in ("adult", "pediatric", "baby"):
            norms = experiment_logs["logs"][(name, "pid")].breath_norms
            assert len(norms) == 20
            assert np.max(np.abs(norms[4:] - norms[-1])) < 1e-9
            assert abs(norms[2] - norms[-1]) < 1e-5

    def test_period_mismatch_rejected(self, design_outputs):
        fs = design_outputs["filterset"]  # bound to the 2000-sample period
        with pytest.raises(ConfigurationError, match="period"):
            run_experiment(ExperimentSpec(scenario="baby", mode="rc",
                                          breaths=2, filterset=fs))

    def test_sample_time_mismatch_rejected(self, design_outputs):
        # sample times 2e-15 s apart differ, and one ulp apart are the same
        fs = design_outputs["filterset"]
        far = replace(fs.l_causal, sample_time=0.002 + 2e-15)
        with pytest.raises(ConfigurationError, match=rf"^filterset \(period 2000, sample time "
                                                     rf"{re.escape(str(far.sample_time))} s\) "
                                                     r"does not match scenario adult"):
            run_experiment(ExperimentSpec(scenario="adult", mode="rc", breaths=1,
                                          filterset=replace(fs, l_causal=far)))
        near = replace(fs.l_causal, sample_time=math.nextafter(0.002, 1))
        log = run_experiment(ExperimentSpec(scenario="adult", mode="rc", breaths=1,
                                            filterset=replace(fs, l_causal=near)))
        assert log.complete and log.sample_time == 0.002

    def test_determinism(self):
        spec = ExperimentSpec(scenario="baby", mode="pid", breaths=2,
                              measurement_noise_rms=0.05, seed=42)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert np.array_equal(a.p_aw, b.p_aw)
        assert np.array_equal(a.command, b.command)

    def test_zero_amplitude_reference_zero_norms(self, tmp_path):
        scenario = PatientScenario(5.0, 0.05, 15, peep=0.0, ipap=0.0,
                                   t_insp=1.5, t_exp=2.5, name="flatline")
        _, circuit = load_scenario("adult")
        path = tmp_path / "flat.cfg"
        save_scenario(scenario, circuit, path)
        log = run_experiment(ExperimentSpec(scenario=path, mode="pid", breaths=3))
        assert np.all(log.breath_norms == 0.0)
        assert np.all(log.command == 0.0)


class TestRepetitiveRuns:
    def test_norms_drop_and_settle(self, experiment_logs):
        for name in ("adult", "pediatric", "baby"):
            norms = experiment_logs["logs"][(name, "rc")].breath_norms
            # monotone descent up to a <0.5% convergence wiggle
            assert np.all(norms[2:] <= norms[1:-1] * 1.005)
            assert norms[-1] < norms[1]
            # converged within ~5 breaths: successive change below 1%
            assert abs(norms[5] - norms[4]) / norms[4] < 0.01

    def test_converged_below_benchmark(self, experiment_logs):
        for name in ("adult", "pediatric", "baby"):
            rc = experiment_logs["logs"][(name, "rc")].breath_norms[-1]
            pid = experiment_logs["logs"][(name, "pid")].breath_norms[-1]
            assert rc < pid

    def test_command_periodic_after_convergence(self, design_outputs):
        fs = design_outputs["filterset"].with_period(1000)
        log = run_experiment(ExperimentSpec(scenario="baby", mode="rc",
                                            breaths=40, filterset=fs))
        n = log.period_n
        last, prev = log.command[-n:], log.command[-2 * n : -n]
        assert np.max(np.abs(last - prev)) < 1e-9

    def test_stability_guard_blocks_bad_design(self, design_outputs):
        fs = design_outputs["filterset"]
        lc = fs.l_causal
        flipped = DiscreteTransferFunction(-3.0 * lc.numerator_coeffs,
                                           lc.denominator_coeffs,
                                           lc.pure_delay, lc.sample_time)
        bad = RcFilterSet(flipped, fs.l_shift, fs.q_kernel, fs.period_n)
        with pytest.raises(DesignError, match="refusing"):
            run_experiment(ExperimentSpec(scenario="adult", mode="rc",
                                          breaths=2, filterset=bad))

    def test_divergence_aborts_with_partial_log(self, design_outputs, unguarded):
        fs = design_outputs["filterset"]
        lc = fs.l_causal
        flipped = DiscreteTransferFunction(-3.0 * lc.numerator_coeffs,
                                           lc.denominator_coeffs,
                                           lc.pure_delay, lc.sample_time)
        bad = RcFilterSet(flipped, fs.l_shift, fs.q_kernel, fs.period_n)
        with pytest.raises(ExperimentDiverged) as err:
            run_experiment(ExperimentSpec(scenario="adult", mode="rc", breaths=12,
                                          filterset=bad))
        partial = err.value.partial_log
        assert partial is not None and not partial.complete
        assert len(partial.p_aw) > 0

    def test_guard_failure_implies_report_failure(self, design_outputs):
        # divergence observed above must coincide with a failing bound
        from ventrc.rc_design import check_stability, default_stability_grid
        from ventrc.harness import _analytic_frf
        from ventrc.plant import VentilatorPlant

        fs = design_outputs["filterset"]
        lc = fs.l_causal
        flipped = DiscreteTransferFunction(-3.0 * lc.numerator_coeffs,
                                           lc.denominator_coeffs,
                                           lc.pure_delay, lc.sample_time)
        scenario, circuit = load_scenario("adult")
        frf = _analytic_frf(VentilatorPlant(scenario, circuit),
                            default_stability_grid(circuit.sample_time))
        report = check_stability(fs.q_kernel, flipped, fs.l_shift, {"adult": frf})
        assert not report.passed

    def test_bounded_over_hundred_breaths_when_bound_holds(self, design_outputs):
        fs = design_outputs["filterset"].with_period(1000)
        log = run_experiment(ExperimentSpec(scenario="baby", mode="rc",
                                            breaths=100, filterset=fs))
        assert np.max(np.abs(log.p_aw)) < 100.0
        assert log.complete

    def test_unstable_learning_filter_refused_before_simulating(self, monkeypatch,
                                                               unstable_filterset):
        # its small-gain bound reads below one on the baby's loop, but the
        # baby's pressure runs away within two breaths
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a refused filter set")

        monkeypatch.setattr(harness, "simulate", no_simulation)
        with pytest.raises(ConfigurationError, match=r"a pole at \|z\| = 1\.05 >= 1"):
            run_experiment(ExperimentSpec(scenario="baby", mode="rc", breaths=10,
                                          filterset=unstable_filterset))


class TestCompare:
    def test_identical_logs_unit_ratios(self, experiment_logs):
        log = experiment_logs["logs"][("adult", "pid")]
        table = compare_runs(log, log)
        assert np.allclose(table.ratios, 1.0, atol=0.0)
        assert table.converged_ratio == pytest.approx(1.0)

    def test_zero_baseline_guard(self):
        table = ComparisonTable("x", np.zeros(6), np.zeros(6))
        assert np.all(table.ratios == 0.0)
        table2 = ComparisonTable("x", np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert table2.ratios[0] == np.inf

    @pytest.mark.parametrize("baseline, candidate, message", [
        ([1.0, 2.0, 3.0], [0.5], "breath counts differ: 3 vs 1"),
        ([0.5], [1.0, 2.0, 3.0], "breath counts differ: 1 vs 3"),
        ([], [], "no breaths to compare"),
    ])
    def test_unequal_or_empty_norms_rejected(self, baseline, candidate, message):
        # no ratio is left unwritten, and no mean is taken of nothing
        with pytest.raises(ConfigurationError, match=message):
            ComparisonTable("x", np.array(baseline), np.array(candidate))

    @pytest.mark.parametrize("baseline, candidate, message", [
        ([1.0, 2.0], [1.0, np.nan], "candidate norm of breath 2 is nan"),
        ([np.inf, 2.0], [1.0, 1.0], "baseline norm of breath 1 is inf"),
        ([1.0, -0.5], [1.0, 1.0], "baseline norm of breath 2 is -0.5"),
    ])
    def test_norms_not_finite_or_negative_rejected(self, baseline, candidate, message):
        # a nan norm would give a nan ratio and a nan converged ratio
        with pytest.raises(ConfigurationError) as exc:
            ComparisonTable("x", np.array(baseline), np.array(candidate))
        assert str(exc.value) == f"{message}: norms must be finite and >= 0"

    def test_mismatched_lengths_rejected(self, experiment_logs):
        a = experiment_logs["logs"][("adult", "pid")]
        short = run_experiment(ExperimentSpec(scenario="adult", mode="pid", breaths=2))
        with pytest.raises(ValueError, match="breath counts"):
            compare_runs(a, short)

    def test_cross_scenario_rejected(self, experiment_logs):
        with pytest.raises(ValueError, match="scenario"):
            compare_runs(experiment_logs["logs"][("adult", "pid")],
                         experiment_logs["logs"][("baby", "pid")])


class TestReports:
    def test_files_and_contents(self, tmp_path, experiment_logs):
        log = experiment_logs["logs"][("adult", "pid")]
        paths = emit_report([log], tmp_path / "out")
        trace = paths["trace"].read_text().splitlines()
        assert trace[0] == "sample,time_s,reference,p_aw,p_lung,q_pat,command"
        assert len(trace) == 1 + 20 * 2000
        norms = paths["norms"].read_text().splitlines()
        assert norms[0] == "breath,error_norm"
        assert len(norms) == 21

    def test_svg_well_formed(self, tmp_path, experiment_logs):
        log = experiment_logs["logs"][("adult", "rc")]
        paths = emit_report([log], tmp_path / "svg")
        for key in ("pressure_svg", "norms_svg"):
            root = ET.parse(paths[key]).getroot()
            assert root.tag.endswith("svg")

    def test_empty_log(self, tmp_path):
        empty = BreathLog("empty", "pid", 0.002, 10,
                          np.array([]), np.array([]), np.array([]),
                          np.array([]), np.array([]))
        paths = emit_report([empty], tmp_path / "empty")
        assert len(paths["trace"].read_text().splitlines()) == 1  # header only
        ET.parse(paths["pressure_svg"])  # parses as XML

    def test_nan_norms_write_all_four_files(self, tmp_path):
        # every breath norm is NaN, so the norm plot has no finite value
        reference = np.tile([1.0, np.nan, 2.0], 3)
        zeros = np.zeros_like(reference)
        log = BreathLog("x", "pid", 0.002, 3, reference, zeros, zeros, zeros, zeros)
        paths = emit_report([log], tmp_path / "nan")
        assert sorted(paths) == ["norms", "norms_svg", "pressure_svg", "trace"]
        assert all(path.is_file() for path in paths.values())
        assert len(paths["norms"].read_text().splitlines()) == 4
        for key in ("pressure_svg", "norms_svg"):
            ET.parse(paths[key])

    def test_unequal_signals_raise_naming_the_trace(self, tmp_path, experiment_logs):
        log = experiment_logs["logs"][("baby", "pid")]
        short = replace(log, p_aw=log.p_aw[:-1])
        n = len(log.reference)
        path = tmp_path / "short" / "baby_pid_trace.csv"
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(path))}: columns of "
                           rf"unequal lengths \[{n}, {n}, {n}, {n - 1}, {n}, {n}, {n}\]$"):
            emit_report([short], tmp_path / "short")
        assert not path.exists()

    def test_two_logs_write_side_by_side_under_their_modes(self, tmp_path, experiment_logs):
        runs = [experiment_logs["logs"][("baby", mode)] for mode in ("pid", "rc")]
        paths = emit_report(runs, tmp_path / "both")
        assert list(paths) == [f"{mode}_{key}" for mode in ("pid", "rc")
                               for key in ("trace", "norms", "pressure_svg", "norms_svg")]
        for run in runs:
            alone = emit_report([run], tmp_path / run.mode)
            for key, path in alone.items():
                assert paths[f"{run.mode}_{key}"].read_bytes() == path.read_bytes(), key

    def test_logs_of_another_reference_rejected_before_writing(self, tmp_path, experiment_logs):
        log = experiment_logs["logs"][("baby", "pid")]
        other = replace(log, mode="rc", reference=log.reference + 1.0)
        with pytest.raises(ConfigurationError,
                           match="^the logs of baby do not share the reference$"):
            emit_report([log, other], tmp_path / "other")
        assert not (tmp_path / "other").exists()

    def test_comparison_report(self, tmp_path, experiment_logs):
        base = experiment_logs["logs"][("adult", "pid")]
        cand = experiment_logs["logs"][("adult", "rc")]
        table = compare_runs(base, cand)
        paths = emit_comparison_report(base, cand, table, tmp_path / "cmp")
        lines = paths["comparison"].read_text().splitlines()
        assert lines[0] == "breath,baseline_norm,candidate_norm,ratio"
        assert len(lines) == 21
        ET.parse(paths["norms_compare_svg"])


def crafted_log(name, reference, period_n, sample_time=0.002):
    """A log whose signals are functions of its reference."""
    reference = np.asarray(reference, dtype=float)
    return BreathLog(name, "pid", sample_time, period_n, reference, reference / 3.0,
                     -reference, reference * 1e-7, reference + 0.5)


def edge_logs(adult):
    """Logs whose traces share little or no text with the built-ins'."""
    breath = np.array([5.0, 0.0, 20.0, 20.0, 0.0])
    signed = np.tile(breath, 3)
    signed[6] = -0.0                 # one breath differs from the others only in its sign
    nan_once = np.tile(breath, 3)
    nan_once[12] = np.nan            # the third breath only
    k = 2 * adult.period_n + adult.period_n // 2
    return {
        "another_sample_time": replace(adult, scenario_name="fast", sample_time=0.001),
        "partial": replace(adult, scenario_name="partial", reference=adult.reference[:k],
                           p_aw=adult.p_aw[:k], p_lung=adult.p_lung[:k],
                           q_pat=adult.q_pat[:k], command=adult.command[:k]),
        "empty": crafted_log("empty", [], 10),
        "signed_zero": crafted_log("signed", signed, 5),
        "nan_once": crafted_log("nan_once", nan_once, 5),
        "nan_every_breath": crafted_log("nan_all", np.tile([np.nan, -0.0, 1.0], 4), 3),
        # three and a half breaths of -0.0 and nan
        "nan_partial_breath": crafted_log("nan_partial", np.tile([np.nan, -0.0, 1.0, 2.5], 4)[:14],
                                          4),
        "shorter_than_a_breath": crafted_log("short", breath[:3], 5),
    }


def partner(log):
    """A log of the other mode that shares the log's reference, its signals in
    reverse order."""
    return replace(log, mode="rc" if log.mode == "pid" else "pid", p_aw=log.command,
                   p_lung=log.q_pat, q_pat=log.p_lung, command=log.p_aw)


def reference_trace_bytes(log, path) -> bytes:
    """The trace's bytes by csv.writer, from the seven columns it has always held."""
    samples = np.arange(len(log.reference))
    reference_write_table(path, harness.TRACE_HEADER, [
        samples, samples * log.sample_time, log.reference,
        log.p_aw, log.p_lung, log.q_pat, log.command])
    return path.read_bytes()


class TestTraceBytes:
    """emit_report's trace against the csv.writer oracle."""

    @pytest.fixture(scope="class")
    def logs_and_bytes(self, experiment_logs, tmp_path_factory):
        logs = {f"{name}_{mode}": log for (name, mode), log in experiment_logs["logs"].items()}
        logs.update(edge_logs(experiment_logs["logs"][("adult", "pid")]))
        out = tmp_path_factory.mktemp("oracle")
        return logs, {key: [reference_trace_bytes(run, out / f"{key}_{run.mode}.csv")
                            for run in (log, partner(log))]
                      for key, log in logs.items()}

    # by_formatters: the rows come from run_full_pipeline's formatter jobs,
    # one breath of the log and of its partner each, formatted in another
    # process; else emit_report formats both logs' rows itself.  Either way
    # the log and its partner are written through one call
    @pytest.mark.parametrize("by_formatters", [True, False])
    @pytest.mark.parametrize("order", ["longest first", "shortest first"])
    def test_trace_is_the_csv_writer_bytes(self, tmp_path, logs_and_bytes, order, by_formatters):
        logs, expected = logs_and_bytes
        keys = sorted(logs, key=lambda key: len(logs[key].reference),
                      reverse=order == "longest first")
        with harness._formatters() if by_formatters else contextlib.nullcontext() as pool:
            for key in keys:
                runs = (logs[key], partner(logs[key]))
                if by_formatters:
                    texts = list(harness._formatted(pool, harness._breaths(*runs)))
                    assert len(texts) == math.ceil(len(runs[0].reference) / runs[0].period_n)
                    emit_report(runs, tmp_path / key, texts)
                else:
                    emit_report(runs, tmp_path / key)
                for run, oracle in zip(runs, expected[key]):
                    trace = tmp_path / key / f"{run.scenario_name}_{run.mode}_trace.csv"
                    assert trace.read_bytes() == oracle, (key, run.mode)
        assert multiprocessing.active_children() == []


def failing_rows(sample_time, start, reference, *signals):
    """A formatter job that fails; module-level, so that it pickles by name."""
    raise ConfigurationError(f"cannot format the breath from sample {start}")


class TestFullPipeline:
    @pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")
    def test_a_failed_job_stops_the_run_in_its_scenario(self, tmp_path, monkeypatch):
        # the job's error reaches the main process while it writes the first
        # trace; the pending jobs are cancelled and no child outlives the run
        monkeypatch.setattr(harness, "_trace_rows", failing_rows)
        with pytest.raises(ConfigurationError, match="^cannot format the breath from sample 0$"):
            run_full_pipeline(tmp_path, breaths=2)
        assert multiprocessing.active_children() == []
        traces = ["adult_pid_trace.csv", "adult_rc_trace.csv"]
        assert sorted(p.name for p in (tmp_path / "adult").iterdir()) == traces
        for trace in traces:   # their headers only
            assert (tmp_path / "adult" / trace).read_text().splitlines() == [
                ",".join(harness.TRACE_HEADER)]
        assert not (tmp_path / "pediatric").exists()
        assert not (tmp_path / "rc_pediatric.filterset").exists()

    @pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")
    def test_replaced_emit_report_writes_every_report(self, tmp_path, monkeypatch):
        # a tracer replaces emit_report by a closure: this process makes the
        # three calls, one per scenario, each with the formatters' rows, and
        # no child outlives the run
        original, calls = harness.emit_report, []

        def wrapper(logs, out_dir, trace_rows=None):
            calls.append(([(log.scenario_name, log.mode) for log in logs], trace_rows is not None))
            return original(logs, out_dir, trace_rows)

        monkeypatch.setattr(harness, "emit_report", wrapper)
        comparisons, _ = run_full_pipeline(tmp_path, breaths=2)
        assert multiprocessing.active_children() == []
        assert list(comparisons) == ["adult", "pediatric", "baby"]
        assert calls == [([(name, "pid"), (name, "rc")], True) for name in comparisons]
        for name in comparisons:
            scenario, circuit = load_scenario(name)
            rows = 2 * len(reference_profile(scenario, circuit.sample_time))
            for mode in ("pid", "rc"):
                assert len((tmp_path / name / f"{name}_{mode}_trace.csv").read_text()
                           .splitlines()) == 1 + rows
        assert sum(1 for p in tmp_path.rglob("*") if p.is_file()) == 43

    @pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")
    def test_every_run_precedes_the_first_report(self, tmp_path, monkeypatch):
        # the formatters are forked only after the last run, so that this
        # process makes no BLAS call while they format; then this process
        # writes the reports, one call per scenario
        calls = []
        run, emit, formatters = harness.run_experiment, harness.emit_report, harness._formatters

        def recording_run(spec):
            calls.append(("run", spec.scenario, spec.mode))
            return run(spec)

        def recording_emit(logs, out_dir, trace_rows=None):
            calls.append(("report", *[(log.scenario_name, log.mode) for log in logs]))
            return emit(logs, out_dir, trace_rows)

        def recording_formatters():
            calls.append(("fork",))
            return formatters()

        monkeypatch.setattr(harness, "run_experiment", recording_run)
        monkeypatch.setattr(harness, "emit_report", recording_emit)
        monkeypatch.setattr(harness, "_formatters", recording_formatters)
        run_full_pipeline(tmp_path, breaths=2)
        pairs = [(name, mode) for name in harness.SCENARIOS for mode in ("pid", "rc")]
        assert calls == ([("run", *pair) for pair in pairs] + [("fork",)]
                         + [("report", (name, "pid"), (name, "rc")) for name in harness.SCENARIOS])

    @pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")
    def test_pid_and_rc_traces_are_written_breath_by_breath(self, tmp_path, monkeypatch):
        # each scenario's two traces take their headers, then a breath each
        # in turn, so that no trace's text waits for the other's
        writes, opened = [], lti.open_output

        class Recording:
            def __init__(self, fh, name):
                self.fh, self.name = fh, name

            def write(self, text):
                writes.append(self.name)
                return self.fh.write(text)

        @contextlib.contextmanager
        def recording_open(path, newline=None):
            name = Path(path).name
            with opened(path, newline) as fh:
                yield Recording(fh, name) if name.endswith("_trace.csv") else fh

        monkeypatch.setattr(lti, "open_output", recording_open)
        run_full_pipeline(tmp_path, breaths=2)
        for name in harness.SCENARIOS:
            traces = [f"{name}_{mode}_trace.csv" for mode in ("pid", "rc")]
            assert [w for w in writes if w in traces] == traces * 3   # the headers, 2 breaths

    def test_non_integer_breaths_rejected_before_identification(self, tmp_path):
        with pytest.raises(ConfigurationError, match=r"^breaths must be an integer, got 2\.5$"):
            run_full_pipeline(tmp_path, breaths=2.5)
        assert list(tmp_path.glob("frf_*.csv")) == []


def test_identification_protocol_takes_only_a_seed():
    # the recorded periods and the sensor noise are IDENT_PERIODS and
    # IDENT_NOISE_RMS, for every caller
    assert list(inspect.signature(identify).parameters) == ["scenario", "level", "seed"]
    assert list(inspect.signature(identify_all).parameters) == ["seed"]
    assert list(inspect.signature(run_full_pipeline).parameters) == [
        "out_dir", "breaths", "cutoff_hz", "seed"]


def test_identify_rejects_unknown_level():
    with pytest.raises(ConfigurationError,
                       match=r"level must be one of \('peep', 'ipap'\), got 'PEEP'"):
        identify("adult", "PEEP")


def test_identify_seeds_a_builtin_by_its_job_however_named(tmp_path, monkeypatch):
    # baby/peep is job 4 of IDENT_JOBS, named with or without .cfg; a copy of
    # the built-in's file elsewhere, even one reached as baby.cfg, is job 0
    seeds = []
    plant = harness.VentilatorPlant

    def recording_plant(*args, seed, **kwargs):
        seeds.append(seed)
        return plant(*args, seed=seed, **kwargs)

    monkeypatch.setattr(harness, "VentilatorPlant", recording_plant)
    copy = tmp_path / "baby.cfg"
    copy.write_bytes(resolve_scenario_path("baby").read_bytes())
    builtin, suffixed, copied = (identify(s, "peep") for s in ("baby", "baby.cfg", copy))
    monkeypatch.chdir(tmp_path)
    identify("baby.cfg", "peep")
    assert IDENT_JOBS.index(("baby", "peep")) == 4
    assert seeds == [SEED + 1004, SEED + 1004, SEED + 1000, SEED + 1000]
    assert suffixed.values.tobytes() == builtin.values.tobytes()
    assert copied.values.tobytes() != builtin.values.tobytes()


def test_pid_and_rc_of_one_patient_build_each_lift_once(design_outputs, lift_builds):
    fs = design_outputs["filterset"]   # bound to the adult's 2000-sample period
    run_experiment(ExperimentSpec(scenario="adult", mode="pid", breaths=2))
    run_experiment(ExperimentSpec(scenario="adult", mode="rc", breaths=2, filterset=fs))
    # the closed loop's four outputs, then the learning filter's one
    assert [outputs for _, outputs, _ in lift_builds] == [4, 1]
    # a limited pair, twice: only the rc run clamps, and the clamped loop's
    # lift (one more state, five outputs) is built once, beside the loop's
    for _ in range(2):
        for mode, filterset in (("pid", None), ("rc", fs)):
            run_experiment(ExperimentSpec(scenario="adult", mode=mode, breaths=3,
                                          filterset=filterset, output_limits=(0.0, 40.0)))
    loop_order = lift_builds[0][0]
    assert lift_builds[2:] == [(loop_order + 1, 5, lift_builds[0][2])]
    assert len(lti._LIFTS) == 3
    # the limited pair of every built-in, twice: the limited benchmark
    # workload's working set (three loops, their clamped loops and the
    # learning filter) fits the memo, so the second pass builds no lift
    built = []
    for _ in range(2):
        built.append(len(lift_builds))
        for name in harness.SCENARIOS:
            scenario, circuit = load_scenario(name)
            bound = fs.with_period(len(reference_profile(scenario, circuit.sample_time)))
            for mode, filterset in (("pid", None), ("rc", bound)):
                run_experiment(ExperimentSpec(scenario=name, mode=mode, breaths=3,
                                              filterset=filterset, output_limits=(0.0, 40.0)))
    assert len(lift_builds) == built[1]
    assert len(lti._LIFTS) <= lti.LIFT_MEMO
