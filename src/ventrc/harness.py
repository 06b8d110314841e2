"""Experiment orchestration: run the benchmark and the repetitive add-on on a
scenario, log per-sample signals, compute per-breath error 2-norms, and emit
CSV/SVG artifacts.

Breaths are indexed from sample 0 in blocks of exactly one period; the breath
norm is sqrt(sum of squared tracking errors over the block), deliberately not
normalized by breath length.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svg
from .closed_loop import CHUNK, ClosedLoop, simulate
from .control_rt import ControllerConfig, RepetitiveController, benchmark_controller_tf
from .errors import ConfigurationError, DesignError, ExperimentDiverged
from .lti import (
    DiscreteTransferFunction,
    FirKernel,
    FrequencyResponse,
    evaluate,
    save_transfer_function,
)
from .plant import VentilatorPlant, load_scenario, reference_profile
from .rc_design import (
    RcFilterSet,
    StabilityReport,
    check_stability,
    default_stability_grid,
    design_pipeline,
    load_filterset,
    save_filterset,
)
from .sysid import MultisineSpec, average_frf, estimate_frf, save_frf


@dataclass
class ExperimentSpec:
    """One closed-loop run: scenario, controller mode, length, outputs."""

    scenario: str | Path
    mode: str = "pid"                 # "pid" or "rc"
    breaths: int = 20
    filterset: RcFilterSet | str | Path | None = None
    output_limits: tuple[float, float] | None = None
    measurement_noise_rms: float = 0.0
    seed: int | None = 0
    skip_stability_guard: bool = False

    def __post_init__(self):
        if self.mode not in ("pid", "rc"):
            raise ConfigurationError(f"mode must be 'pid' or 'rc', got {self.mode!r}")
        if self.breaths < 1:
            raise ConfigurationError("breaths must be >= 1")
        if self.mode == "rc" and self.filterset is None:
            raise ConfigurationError("rc mode needs a filterset")


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
    def breath_boundaries(self) -> np.ndarray:
        return np.arange(0, len(self.reference) + 1, self.period_n)

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

    The loop runs in chunks through `closed_loop.simulate`; the streaming
    objects (`VentilatorPlant.step`, `VentilatorController.step`) are its
    sample-by-sample reference.
    """
    scenario, circuit = load_scenario(spec.scenario)
    ts = circuit.sample_time
    profile = reference_profile(scenario, ts)
    n = len(profile)

    filterset = None
    if spec.mode == "rc":
        filterset = spec.filterset
        if not isinstance(filterset, RcFilterSet):
            filterset = load_filterset(filterset)
        if filterset.period_n != n:
            raise ConfigurationError(
                f"filterset period {filterset.period_n} does not match scenario "
                f"period {n} for {scenario.name}"
            )
        if not spec.skip_stability_guard:
            plant_probe = VentilatorPlant(scenario, circuit)
            frf = _analytic_frf(plant_probe, default_stability_grid(ts))
            report = check_stability(filterset.q_kernel, filterset.l_causal,
                                     filterset.l_shift, {scenario.name: frf})
            if not report.passed:
                raise DesignError(
                    f"stability bound fails for scenario {scenario.name} "
                    f"(max {report.overall_max:.3f}); refusing to run the "
                    "repetitive loop (pass skip_stability_guard to override)",
                    report=report,
                )

    plant = VentilatorPlant(scenario, circuit,
                            measurement_noise_rms=spec.measurement_noise_rms,
                            seed=spec.seed)
    config = ControllerConfig(
        sample_time=ts,
        filterset=filterset,
        rc_enabled=spec.mode == "rc" and filterset is not None,
        output_limits=spec.output_limits,
    )
    memory = RepetitiveController(filterset) if config.rc_enabled else None
    # rc and pid share the chunk schedule whenever the memory holds a chunk
    chunk = CHUNK if memory is None else min(CHUNK, memory.buffer_length)
    loop = ClosedLoop(plant, benchmark_controller_tf(config.integral_gain, ts), chunk)
    reference = np.tile(profile, spec.breaths)
    bound = 10.0 * (abs(scenario.ipap) + abs(scenario.peep)) + 100.0
    run = simulate(loop, reference, plant.draw_noise, bound, memory=memory,
                   output_limits=config.output_limits)

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
    """Per-breath baseline/candidate norms and their ratios."""

    scenario_name: str
    baseline_norms: np.ndarray
    candidate_norms: np.ndarray
    ratios: np.ndarray = field(init=False)
    converged_ratio: float = field(init=False)

    def __post_init__(self):
        b = self.baseline_norms
        c = self.candidate_norms
        ratios = np.empty(len(b))
        for i, (bn, cn) in enumerate(zip(b, c)):
            if bn == 0.0:
                ratios[i] = 0.0 if cn == 0.0 else math.inf
            else:
                ratios[i] = cn / bn
        self.ratios = ratios
        tail = ratios[-5:] if len(ratios) >= 5 else ratios
        self.converged_ratio = float(np.mean(tail))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["breath", "baseline_norm", "candidate_norm", "ratio"])
            for i, (b, c, r) in enumerate(zip(self.baseline_norms,
                                              self.candidate_norms, self.ratios), 1):
                writer.writerow([i, repr(float(b)), repr(float(c)), repr(float(r))])


def compare_runs(baseline: BreathLog, candidate: BreathLog) -> ComparisonTable:
    """Per-breath candidate/baseline norm ratios; mean of the last 5 summarizes."""
    if baseline.scenario_name != candidate.scenario_name:
        raise ValueError("runs compare only within one scenario")
    b = baseline.breath_norms
    c = candidate.breath_norms
    if len(b) != len(c):
        raise ValueError(f"breath counts differ: {len(b)} vs {len(c)}")
    return ComparisonTable(baseline.scenario_name, b, c)


def emit_report(log: BreathLog, out_dir) -> dict[str, Path]:
    """Write the per-sample trace CSV, the per-breath norm CSV, and SVG plots.

    The pressure plot shows the last complete breath.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{log.scenario_name}_{log.mode}"
    paths = {}

    trace = out_dir / f"{stem}_trace.csv"
    with open(trace, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "time_s", "reference", "p_aw", "p_lung",
                         "q_pat", "command"])
        for k in range(len(log.reference)):
            writer.writerow([
                k, repr(k * log.sample_time), repr(float(log.reference[k])),
                repr(float(log.p_aw[k])), repr(float(log.p_lung[k])),
                repr(float(log.q_pat[k])), repr(float(log.command[k])),
            ])
    paths["trace"] = trace

    norms = log.breath_norms
    norms_path = out_dir / f"{stem}_breath_norms.csv"
    with open(norms_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["breath", "error_norm"])
        for i, v in enumerate(norms, 1):
            writer.writerow([i, repr(float(v))])
    paths["norms"] = norms_path

    pressure_svg = out_dir / f"{stem}_pressure.svg"
    if len(norms) > 0:
        breath = len(norms) - 1
        lo = breath * log.period_n
        hi = lo + log.period_n
        t = np.arange(lo, hi) * log.sample_time
        series = [
            (t, log.reference[lo:hi], "target"),
            (t, log.p_aw[lo:hi], "measured"),
        ]
        title = f"{log.scenario_name} ({log.mode}), breath {breath + 1}"
    else:
        series = []
        title = f"{log.scenario_name} ({log.mode})"
    svg.line_plot(series, pressure_svg, title=title,
                  xlabel="time [s]", ylabel="airway pressure [mbar]")
    paths["pressure_svg"] = pressure_svg

    norms_svg = out_dir / f"{stem}_breath_norms.svg"
    series = [(np.arange(1, len(norms) + 1), norms, log.mode)] if len(norms) else []
    svg.line_plot(series, norms_svg, title=f"{log.scenario_name}: error 2-norm per breath",
                  xlabel="breath", ylabel="error 2-norm [mbar]")
    paths["norms_svg"] = norms_svg
    return paths


def design_excitation_bins(sample_time: float = 0.002) -> np.ndarray:
    """Dense linear+log target bins up to Nyquist for design-grade identification.

    The stability bound is checked on the identified grids, so they must be
    dense (>= 400 points) and reach toward Nyquist; the log part concentrates
    points where the robustness-filter cutoff lives.
    """
    nyq = 0.5 / sample_time
    lin = np.linspace(nyq / 500.0, nyq * 0.998, 400)
    log = np.logspace(np.log10(nyq / 1000.0), np.log10(nyq / 5.0), 150)
    return np.unique(np.concatenate([lin, log]))


@dataclass
class PipelineResult:
    """Everything the full identify/design/run/compare pipeline produced."""

    frfs: dict[str, FrequencyResponse]
    mean_frf: FrequencyResponse
    t_fit: DiscreteTransferFunction
    filterset: RcFilterSet
    report_no_q: StabilityReport
    report: StabilityReport
    logs: dict[tuple[str, str], BreathLog]
    comparisons: dict[str, ComparisonTable]
    files: dict[str, Path]


def run_full_pipeline(out_dir, scenarios=("adult", "pediatric", "baby"),
                      breaths: int = 20, fit_order: int = 4, delay_samples: int = 12,
                      cutoff_hz: float = 23.0, q_order: int = 50,
                      identification_noise_rms: float = 0.01,
                      identification_periods: int = 16, seed: int = 0,
                      min_margin: float = 0.05, echo=print) -> PipelineResult:
    """The whole workflow: identify x(2 per scenario) -> average -> fit ->
    design -> stability checks -> run pid and rc per scenario -> compare.

    Identification runs with the sensor-noise hook on (design-grade realism:
    the high-frequency scatter is what forces the robustness filter, exactly
    like measured responses would); the closed-loop experiments then run
    noise-free so convergence statements stay crisp.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}

    loaded = {name: load_scenario(name) for name in scenarios}
    ts = next(iter(loaded.values()))[1].sample_time
    controller_tf = benchmark_controller_tf(sample_time=ts)
    spec = MultisineSpec(
        bins_hz=design_excitation_bins(ts),
        period_samples=round(4.0 / ts),
        periods_recorded=identification_periods,
        periods_discarded=5,
        seed=seed,
    )

    echo("identifying complementary-sensitivity responses "
         f"({len(scenarios)} scenarios x 2 levels)...")
    frfs = {}
    job = 0
    for name, (scenario, circuit) in loaded.items():
        for level in ("peep", "ipap"):
            operating = scenario.peep if level == "peep" else scenario.ipap
            plant = VentilatorPlant(scenario, circuit,
                                    measurement_noise_rms=identification_noise_rms,
                                    seed=seed + 1000 + job)
            frf = estimate_frf(plant, controller_tf, operating, spec)
            frfs[f"{name}_{level}"] = frf
            path = out_dir / f"frf_{name}_{level}.csv"
            save_frf(frf, path)
            files[f"frf_{name}_{level}"] = path
            job += 1

    mean_frf = average_frf(frfs.values())
    mean_path = out_dir / "frf_mean.csv"
    save_frf(mean_frf, mean_path)
    files["frf_mean"] = mean_path

    echo(f"fitting order-{fit_order} model with {delay_samples}-sample delay "
         "and synthesizing the filter set...")
    first_period = len(reference_profile(loaded[scenarios[0]][0], ts))
    filterset, report = design_pipeline(
        frfs, mean_frf, order=fit_order, delay_samples=delay_samples,
        cutoff_hz=cutoff_hz, q_order=q_order, period_n=first_period,
        min_margin=min_margin,
    )
    t_fit = filterset.t_fit
    tfit_path = out_dir / "tfit.coeff"
    save_transfer_function(t_fit, tfit_path)
    files["t_fit"] = tfit_path

    report_no_q = check_stability(FirKernel([1.0]),
                                  filterset.l_causal, filterset.l_shift, frfs)
    no_q_path = out_dir / "stability_no_q.csv"
    report_no_q.save_csv(no_q_path)
    files["stability_no_q"] = no_q_path
    report_path = out_dir / "stability_report.csv"
    report.save_csv(report_path)
    files["stability_report"] = report_path
    echo("stability without robustness filter (expected to fail):")
    echo(report_no_q.summary())
    echo(f"stability with the {cutoff_hz:g} Hz / order-{q_order} filter:")
    echo(report.summary())

    logs: dict[tuple[str, str], BreathLog] = {}
    comparisons: dict[str, ComparisonTable] = {}
    for name, (scenario, circuit) in loaded.items():
        period = len(reference_profile(scenario, ts))
        fs = filterset.with_period(period)
        fs_path = out_dir / f"rc_{name}.filterset"
        save_filterset(fs, fs_path)
        files[f"filterset_{name}"] = fs_path
        for mode in ("pid", "rc"):
            echo(f"running {name} / {mode} for {breaths} breaths...")
            log = run_experiment(ExperimentSpec(
                scenario=name, mode=mode, breaths=breaths,
                filterset=fs if mode == "rc" else None, seed=seed,
            ))
            logs[(name, mode)] = log
            emit_report(log, out_dir / name)
        comparison = compare_runs(logs[(name, "pid")], logs[(name, "rc")])
        comparisons[name] = comparison
        emit_comparison_report(logs[(name, "pid")], logs[(name, "rc")],
                               comparison, out_dir / name)
        echo(f"  {name}: converged rc/pid norm ratio = {comparison.converged_ratio:.4f}")

    return PipelineResult(frfs, mean_frf, t_fit, filterset, report_no_q, report,
                          logs, comparisons, files)


def emit_comparison_report(baseline: BreathLog, candidate: BreathLog,
                           comparison: ComparisonTable, out_dir) -> dict[str, Path]:
    """Comparison CSV plus the two-curve norm plot."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    cmp_path = out_dir / f"{comparison.scenario_name}_comparison.csv"
    comparison.save_csv(cmp_path)
    paths["comparison"] = cmp_path
    both_svg = out_dir / f"{comparison.scenario_name}_norms_compare.svg"
    nb = np.arange(1, len(baseline.breath_norms) + 1)
    svg.line_plot(
        [(nb, baseline.breath_norms, baseline.mode),
         (nb, candidate.breath_norms, candidate.mode)],
        both_svg,
        title=f"{comparison.scenario_name}: error 2-norm per breath",
        xlabel="breath", ylabel="error 2-norm [mbar]",
    )
    paths["norms_compare_svg"] = both_svg
    return paths
