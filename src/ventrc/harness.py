"""Experiment orchestration: run the benchmark and the repetitive add-on on a
scenario, log per-sample signals, compute per-breath error 2-norms, and emit
CSV/SVG artifacts.

Breaths are indexed from sample 0 in blocks of exactly one period; the breath
norm is sqrt(sum of squared tracking errors over the block), deliberately not
normalized by breath length.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import svg
from .closed_loop import ClosedLoop, simulate
from .control_rt import RepetitiveController, benchmark_controller_tf
from .errors import ConfigurationError, DesignError, ExperimentDiverged, check_number
from .lti import (
    CHUNK,
    FirKernel,
    FrequencyResponse,
    csv_fields,
    csv_rows,
    evaluate,
    same_sample_time,
    save_transfer_function,
    sorted_distinct,
    write_rows,
    write_table,
)
from .plant import (
    SCENARIO_DIR, VentilatorPlant, load_scenario, reference_profile, resolve_scenario_path,
)
from .rc_design import (
    FIT_DELAY_SAMPLES, FIT_ORDER, Q_CUTOFF_HZ, Q_ORDER, RcFilterSet, StabilityReport,
    check_q_fir, check_stability, default_stability_grid, design_pipeline, load_filterset,
    save_filterset,
)
from .sysid import MultisineSpec, average_frf, estimate_frf, save_frf

# the built-in patients that run_full_pipeline identifies, designs for and runs
SCENARIOS = ("adult", "pediatric", "baby")
# the defaults of `ventrc run` and `ventrc all`: breaths per run and the seed
BREATHS = 20
SEED = 0
# the identification protocol's sensor noise (mbar RMS) and recorded periods
IDENT_NOISE_RMS = 0.01
IDENT_PERIODS = 16
# the identification jobs of run_full_pipeline: each built-in patient at its
# PEEP and its IPAP pressure.  A job's index here seeds its sensor noise.
IDENT_LEVELS = ("peep", "ipap")
IDENT_JOBS = tuple((name, level) for name in SCENARIOS for level in IDENT_LEVELS)
# the per-breath norm CSV that emit_report writes and `ventrc compare` reads
NORMS_HEADER = ("breath", "error_norm")
# the per-sample trace CSV that emit_report writes
TRACE_HEADER = ("sample", "time_s", "reference", "p_aw", "p_lung", "q_pat", "command")
# run_full_pipeline's trace formatters, and the breaths they may run ahead
FORMATTERS = 2
BREATHS_AHEAD = 8


@dataclass
class ExperimentSpec:
    """One closed-loop run: scenario, controller mode, length, outputs."""

    scenario: str | Path
    mode: str = "pid"                 # "pid" or "rc"
    breaths: int = BREATHS
    filterset: RcFilterSet | str | Path | None = None
    output_limits: tuple[float, float] | None = None
    measurement_noise_rms: float = 0.0
    seed: int = SEED

    def __post_init__(self):
        if self.mode not in ("pid", "rc"):
            raise ConfigurationError(f"mode must be 'pid' or 'rc', got {self.mode!r}")
        check_number("breaths", self.breaths, ge=1, integer=True)
        check_number("seed", self.seed, ge=0, integer=True)
        if self.mode == "rc" and self.filterset is None:
            raise ConfigurationError("rc mode needs a filterset")
        if self.mode == "pid" and self.filterset is not None:
            raise ConfigurationError("pid mode takes no filterset")
        limits = self.output_limits   # a NaN limit fails lo < hi
        if limits is not None and not (np.shape(limits) == (2,) and limits[0] < limits[1]):
            raise ConfigurationError(f"output_limits must be a pair lo < hi, got {limits!r}")


@dataclass
class BreathLog:
    """Per-sample time series of one experiment plus per-breath error norms."""

    scenario_name: str
    mode: str
    sample_time: float
    period_n: int
    reference: np.ndarray
    p_aw: np.ndarray
    p_lung: np.ndarray
    q_pat: np.ndarray
    command: np.ndarray
    complete: bool = True

    @property
    def error(self) -> np.ndarray:
        return self.reference - self.p_aw

    @property
    def breath_norms(self) -> np.ndarray:
        e = self.error
        full = len(e) // self.period_n
        if full == 0:
            return np.array([])
        blocks = e[: full * self.period_n].reshape(full, self.period_n)
        return np.sqrt(np.sum(blocks**2, axis=1))


def _analytic_frf(plant: VentilatorPlant, grid: np.ndarray) -> FrequencyResponse:
    controller = benchmark_controller_tf(sample_time=plant.circuit.sample_time)
    closed = plant.closed_form_tf().cascade(controller).feedback_complementary()
    return evaluate(closed, grid)


def run_experiment(spec: ExperimentSpec) -> BreathLog:
    """Simulate breaths * N samples of the closed loop; deterministic given seed.

    The loop runs a block of chunks at a time through `closed_loop.simulate`;
    the streaming objects (`VentilatorPlant.step`, `VentilatorController.step`)
    are its sample-by-sample reference.
    """
    scenario, circuit = load_scenario(spec.scenario)
    ts = circuit.sample_time
    profile = reference_profile(scenario, ts)
    n = len(profile)
    plant = VentilatorPlant(scenario, circuit,
                            measurement_noise_rms=spec.measurement_noise_rms,
                            seed=spec.seed)

    memory = None
    if spec.mode == "rc":
        filterset = spec.filterset
        if not isinstance(filterset, RcFilterSet):
            filterset = load_filterset(filterset)
        if filterset.period_n != n or not same_sample_time(filterset.sample_time, ts):
            raise ConfigurationError(
                f"filterset (period {filterset.period_n}, sample time "
                f"{filterset.sample_time} s) does not match scenario {scenario.name} "
                f"(period {n}, sample time {ts} s)"
            )
        frf = _analytic_frf(plant, default_stability_grid(ts))
        report = check_stability(filterset.q_kernel, filterset.l_causal,
                                 filterset.l_shift, {scenario.name: frf})
        if not report.passed:
            raise DesignError(
                f"stability bound fails for scenario {scenario.name} "
                f"(max {report.overall_max:.3f}); refusing to run the repetitive loop",
                report=report,
            )
        memory = RepetitiveController(filterset)
    # rc and pid share the chunk schedule whenever the memory holds a chunk
    chunk = CHUNK if memory is None else min(CHUNK, memory.buffer_length)
    loop = ClosedLoop(plant, benchmark_controller_tf(sample_time=ts), chunk)
    reference = np.tile(profile, spec.breaths)
    bound = 10.0 * (abs(scenario.ipap) + abs(scenario.peep)) + 100.0
    run = simulate(loop, reference, plant.draw_noise, bound, memory=memory,
                   output_limits=spec.output_limits)

    k = run.samples
    log = BreathLog(scenario.name, spec.mode, ts, n, reference[:k], *run.signals,
                    complete=run.diverged is None)
    if run.diverged is not None:
        raise ExperimentDiverged(
            f"measured pressure {run.diverged:.3g} mbar at sample {k} exceeded the "
            f"bound {bound:.3g}; aborting with partial log",
            partial_log=log,
        )
    return log


@dataclass
class ComparisonTable:
    """Per-breath baseline/candidate norms and their ratios.

    A ratio over a zero baseline norm is 0 for a zero candidate norm and inf
    otherwise.  Norm arrays of unequal length, or of none, and a norm that is
    not finite or is negative raise ConfigurationError.
    """

    scenario_name: str
    baseline_norms: np.ndarray
    candidate_norms: np.ndarray
    ratios: np.ndarray = field(init=False)
    converged_ratio: float = field(init=False)

    def __post_init__(self):
        b = self.baseline_norms
        c = self.candidate_norms
        if len(b) != len(c):
            raise ConfigurationError(f"breath counts differ: {len(b)} vs {len(c)}")
        if len(b) == 0:
            raise ConfigurationError("no breaths to compare")
        for label, norms in (("baseline", b), ("candidate", c)):
            bad = np.flatnonzero(~(np.isfinite(norms) & (norms >= 0.0)))
            if bad.size:
                raise ConfigurationError(
                    f"{label} norm of breath {bad[0] + 1} is {float(norms[bad[0]])}: "
                    "norms must be finite and >= 0")
        self.ratios = np.divide(c, b, out=np.where(c == 0.0, 0.0, np.inf), where=b != 0.0)
        self.converged_ratio = float(np.mean(self.ratios[-5:]))

    def save_csv(self, path) -> None:
        write_table(path, ["breath", "baseline_norm", "candidate_norm", "ratio"],
                    [np.arange(1, len(self.ratios) + 1), self.baseline_norms,
                     self.candidate_norms, self.ratios])


def compare_runs(baseline: BreathLog, candidate: BreathLog) -> ComparisonTable:
    """Per-breath candidate/baseline norm ratios; mean of the last 5 summarizes."""
    if baseline.scenario_name != candidate.scenario_name:
        raise ConfigurationError("runs compare only within one scenario")
    return ComparisonTable(baseline.scenario_name, baseline.breath_norms,
                           candidate.breath_norms)


def emit_report(logs, out_dir, trace_rows=None) -> dict[str, Path]:
    """Write the trace CSV, norm CSV and two SVG plots of each of one
    scenario's logs, which share the reference.  The traces, whose sample
    and time_s columns are np.arange(n) and np.arange(n) * sample_time, are
    written side by side as trace_rows's breaths arrive, each one text per
    log, or else as they are formatted here.  The pressure plot shows the
    last complete breath.  Returns every path, keyed "<key>" for one log,
    else "<mode>_<key>".
    """
    out_dir = Path(out_dir)
    # a temporary set: no copy of a reference lives on into a forked formatter
    if len({(log.sample_time, log.period_n, log.reference.tobytes()) for log in logs}) > 1:
        raise ConfigurationError(f"the logs of {logs[0].scenario_name} do not share the reference")
    stems = [f"{log.scenario_name}_{log.mode}" for log in logs]
    traces = [out_dir / f"{stem}_trace.csv" for stem in stems]
    if trace_rows is None:
        trace_rows = (_trace_rows(*job) for job in _breaths(*logs))
    write_rows(traces, TRACE_HEADER,
               [[len(log.reference)] * 2 + [len(getattr(log, name)) for name in TRACE_HEADER[2:]]
                for log in logs], trace_rows)

    paths = {}
    for log, stem, trace in zip(logs, stems, traces):
        norms = log.breath_norms
        written = {"trace": trace, "norms": out_dir / f"{stem}_breath_norms.csv",
                   "pressure_svg": out_dir / f"{stem}_pressure.svg",
                   "norms_svg": out_dir / f"{stem}_breath_norms.svg"}
        breaths = np.arange(1, len(norms) + 1)
        write_table(written["norms"], NORMS_HEADER, [breaths, norms])
        series, title = [], f"{log.scenario_name} ({log.mode})"
        if len(norms):
            rows = slice((len(norms) - 1) * log.period_n, len(norms) * log.period_n)
            t = np.arange(rows.start, rows.stop) * log.sample_time
            series = [(t, log.reference[rows], "target"), (t, log.p_aw[rows], "measured")]
            title += f", breath {len(norms)}"
        svg.line_plot(series, written["pressure_svg"], title=title,
                      xlabel="time [s]", ylabel="airway pressure [mbar]")
        svg.line_plot([(breaths, norms, log.mode)] if len(norms) else [], written["norms_svg"],
                      title=f"{log.scenario_name}: error 2-norm per breath",
                      xlabel="breath", ylabel="error 2-norm [mbar]")
        prefix = f"{log.mode}_" if len(logs) > 1 else ""
        paths.update((prefix + key, path) for key, path in written.items())
    return paths


def design_excitation_bins(sample_time: float) -> np.ndarray:
    """Dense linear+log target bins up to Nyquist for design-grade identification.

    The stability bound is checked on the identified grids, so they must be
    dense (>= 400 points) and reach toward Nyquist; the log part concentrates
    points where the robustness-filter cutoff lives.
    """
    nyq = 0.5 / sample_time
    lin = np.linspace(nyq / 500.0, nyq * 0.998, 400)
    log = np.logspace(np.log10(nyq / 1000.0), np.log10(nyq / 5.0), 150)
    return sorted_distinct(np.concatenate([lin, log]))


def identify(scenario: str | Path, level: str, seed: int = SEED) -> FrequencyResponse:
    """One design-grade identification job: the response from reference to
    measured pressure of the scenario's loop at its "peep" or "ipap" level.

    The multisine excites design_excitation_bins over a 4 s period at
    MultisineSpec's RMS; 5 periods settle and IDENT_PERIODS are recorded.
    Its phases come from `seed`, the sensor noise (IDENT_NOISE_RMS) from
    seed + 1000 + the index in IDENT_JOBS of the built-in that `scenario`
    resolves to (0 for any other scenario file), so a built-in's job, named
    with or without .cfg, is the one run_full_pipeline runs.
    """
    if level not in IDENT_LEVELS:
        raise ConfigurationError(f"level must be one of {IDENT_LEVELS}, got {level!r}")
    path = resolve_scenario_path(scenario)
    patient, circuit = load_scenario(path)
    ts = circuit.sample_time
    spec = MultisineSpec(bins_hz=design_excitation_bins(ts), period_samples=round(4.0 / ts),
                         periods_recorded=IDENT_PERIODS, periods_discarded=5, seed=seed)
    job = (path.stem, level) if path.resolve().parent == SCENARIO_DIR.resolve() else None
    index = IDENT_JOBS.index(job) if job in IDENT_JOBS else 0
    plant = VentilatorPlant(patient, circuit, measurement_noise_rms=IDENT_NOISE_RMS,
                            seed=seed + 1000 + index)
    operating = patient.peep if level == "peep" else patient.ipap
    return estimate_frf(plant, benchmark_controller_tf(sample_time=ts), operating, spec)


def identify_all(seed: int = SEED) -> dict[str, FrequencyResponse]:
    """Every job of IDENT_JOBS, keyed "<scenario>_<level>", in sorted (file name) order."""
    return {f"{name}_{level}": identify(name, level, seed) for name, level in sorted(IDENT_JOBS)}


def run_full_pipeline(out_dir, breaths: int = BREATHS, cutoff_hz: float = Q_CUTOFF_HZ,
                      seed: int = SEED) -> tuple[dict[str, ComparisonTable], StabilityReport]:
    """The whole workflow on SCENARIOS: identify x(2 per scenario) -> average
    -> fit -> design -> stability checks -> run pid and rc per scenario ->
    compare, and only then every scenario's reports.  Progress is printed.
    Returns each scenario's comparison and the stability report of the
    design.

    Identification runs with the sensor-noise hook on (design-grade realism:
    the high-frequency scatter is what forces the robustness filter, exactly
    like measured responses would); the closed-loop experiments then run
    noise-free so convergence statements stay crisp.
    """
    out_dir = Path(out_dir)
    # the settings are checked before the first identification job, so that
    # a bad run fails first
    pid_specs = {name: ExperimentSpec(scenario=name, breaths=breaths, seed=seed)
                 for name in SCENARIOS}
    loaded = {name: load_scenario(name) for name in SCENARIOS}
    periods = {name: len(reference_profile(scenario, circuit.sample_time))
               for name, (scenario, circuit) in loaded.items()}
    # the robustness filter is designed at the sample time of the mean
    # response, which is the first scenario's
    check_q_fir(cutoff_hz, Q_ORDER, loaded[SCENARIOS[0]][1].sample_time)

    print("identifying complementary-sensitivity responses "
          f"({len(SCENARIOS)} scenarios x {len(IDENT_LEVELS)} levels)...")
    frfs = identify_all(seed)
    for key, frf in frfs.items():
        save_frf(frf, out_dir / f"frf_{key}.csv")
    mean_frf = average_frf(frfs.values())
    save_frf(mean_frf, out_dir / "frf_mean.csv")

    print(f"fitting order-{FIT_ORDER} model with {FIT_DELAY_SAMPLES}-sample delay "
          "and synthesizing the filter set...")
    filterset, report = design_pipeline(frfs, mean_frf, cutoff_hz=cutoff_hz,
                                        period_n=periods[SCENARIOS[0]])
    save_transfer_function(filterset.t_fit, out_dir / "tfit.coeff")

    report_no_q = check_stability(FirKernel([1.0]),
                                  filterset.l_causal, filterset.l_shift, frfs)
    report_no_q.save_csv(out_dir / "stability_no_q.csv")
    report.save_csv(out_dir / "stability_report.csv")
    print("stability without robustness filter (expected to fail):")
    print(report_no_q.summary())
    print(f"stability with the {cutoff_hz:g} Hz / order-{Q_ORDER} filter:")
    print(report.summary())

    # every run comes before the formatters are forked: the fork stops
    # OpenBLAS's thread pool, and a BLAS call in this process after it would
    # restart the pool, whose spinning threads slow the formatters and the
    # writes.  So this process makes no BLAS call once the pool exists; it
    # writes every file, and the formatters format the traces.
    filtersets, logs, comparisons = {}, {}, {}
    for name, pid_spec in pid_specs.items():
        filtersets[name] = filterset.with_period(periods[name])
        logs[name] = []
        for spec in (pid_spec, replace(pid_spec, mode="rc", filterset=filtersets[name])):
            print(f"running {name} / {spec.mode} for {breaths} breaths...")
            logs[name].append(run_experiment(spec))
        comparisons[name] = compare_runs(*logs[name])
        print(f"  {name}: converged rc/pid norm ratio = "
              f"{comparisons[name].converged_ratio:.4f}")

    pool = _formatters()
    try:
        texts = _formatted(pool, (job for pair in list(logs.values()) for job in _breaths(*pair)))
        for name in pid_specs:
            # only the comparison outlives the scenario's reports
            runs = logs.pop(name)
            save_filterset(filtersets[name], out_dir / f"rc_{name}.filterset")
            # both traces are written as their breaths arrive
            emit_report(runs, out_dir / name, islice(texts, breaths))
            emit_comparison_report(*runs, comparisons[name], out_dir / name)
    finally:
        # an error cancels the jobs not yet started, and no child outlives it
        pool.shutdown(cancel_futures=True)
    return comparisons, report


def _breaths(first: BreathLog, *others: BreathLog):
    """_trace_rows's arguments, one breath at a time, for logs that share the
    reference: that breath's rows of it and of each log's four signals."""
    for lo in range(0, len(first.reference), first.period_n):
        rows = slice(lo, lo + first.period_n)
        yield (first.sample_time, lo, first.reference[rows],
               *([getattr(log, name)[rows] for name in TRACE_HEADER[3:]]
                 for log in (first, *others)))


def _trace_rows(sample_time: float, start: int, reference: np.ndarray,
                *signals: list[np.ndarray]) -> list[str]:
    """The trace text of rows from sample `start` on, one per log's four
    signals; the sample, time_s and reference fields, which the logs share,
    are formatted once.  It pickles by name, as a formatter's job."""
    samples = np.arange(start, start + len(reference))
    shared = [csv_fields(samples), csv_fields(samples * sample_time), csv_fields(reference)]
    return [csv_rows(shared + [csv_fields(column) for column in four]) for four in signals]


def _formatters():
    """run_full_pipeline's pool of FORMATTERS processes: forked on Linux, the
    default start method elsewhere.  Its modules are imported here, not with ventrc."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if sys.platform.startswith("linux") else None
    return ProcessPoolExecutor(FORMATTERS, mp_context=multiprocessing.get_context(method))


def _formatted(pool, jobs):
    """_trace_rows's texts for each of the jobs, in order, with at most
    BREATHS_AHEAD jobs in flight, so that this process holds few texts."""
    pending = [pool.submit(_trace_rows, *job) for job in islice(jobs, BREATHS_AHEAD)]
    while pending:
        texts = pending.pop(0).result()
        pending.extend(pool.submit(_trace_rows, *job) for job in islice(jobs, 1))
        yield texts


def emit_comparison_report(baseline: BreathLog, candidate: BreathLog,
                           comparison: ComparisonTable, out_dir) -> dict[str, Path]:
    """Comparison CSV plus the two-curve norm plot: the comparison's norms,
    labelled with the runs' modes."""
    stem = Path(out_dir) / comparison.scenario_name
    paths = {"comparison": Path(f"{stem}_comparison.csv"),
             "norms_compare_svg": Path(f"{stem}_norms_compare.svg")}
    comparison.save_csv(paths["comparison"])
    nb = np.arange(1, len(comparison.baseline_norms) + 1)
    svg.line_plot([(nb, comparison.baseline_norms, baseline.mode),
                   (nb, comparison.candidate_norms, candidate.mode)],
                  paths["norms_compare_svg"],
                  title=f"{comparison.scenario_name}: error 2-norm per breath",
                  xlabel="breath", ylabel="error 2-norm [mbar]")
    return paths
