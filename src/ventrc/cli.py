"""Command-line front end.

Subcommands mirror the pipeline stages: identify, fit, design,
check-stability, run, compare, and `all` for the whole workflow.  Exit code
is nonzero on stability-check failure or experiment divergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .control_rt import benchmark_controller_tf
from .errors import ConfigurationError, DesignError, ExperimentDiverged, VentrcError
from .harness import (
    ComparisonTable,
    ExperimentSpec,
    design_excitation_bins,
    emit_report,
    run_experiment,
    run_full_pipeline,
)
from .lti import FrequencyResponse, open_input, save_transfer_function
from .plant import VentilatorPlant, load_scenario
from .rc_design import (
    check_stability,
    design_pipeline,
    load_filterset,
    save_filterset,
)
from .sysid import MultisineSpec, average_frf, estimate_frf, fit_rational, load_frf, save_frf


def _cmd_identify(args) -> int:
    scenario, circuit = load_scenario(args.scenario)
    level = args.level.lower()
    operating = scenario.peep if level == "peep" else scenario.ipap
    ts = circuit.sample_time
    if args.dense_grid:
        bins = design_excitation_bins(ts)
        period = round(4.0 / ts)
    else:
        # a non-positive --f-min gives NaN bins, which MultisineSpec rejects
        with np.errstate(divide="ignore", invalid="ignore"):
            bins = np.logspace(np.log10(args.f_min), np.log10(args.f_max), args.bins)
        period = args.period_samples
    spec = MultisineSpec(
        bins_hz=bins, rms_amplitude=args.rms, period_samples=period,
        periods_recorded=args.periods, periods_discarded=args.discard,
        seed=args.seed,
    )
    plant = VentilatorPlant(scenario, circuit,
                            measurement_noise_rms=args.noise_rms, seed=args.seed)
    frf = estimate_frf(plant, benchmark_controller_tf(sample_time=ts), operating, spec)
    save_frf(frf, args.out)
    print(f"wrote {len(frf)} bins ({frf.frequencies_hz[0]:g}-{frf.frequencies_hz[-1]:g} Hz) "
          f"to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    frf = load_frf(args.infile, sample_time=args.sample_time)
    sel = (frf.frequencies_hz >= args.band[0]) & (frf.frequencies_hz <= args.band[1])
    banded = FrequencyResponse(frf.frequencies_hz[sel], frf.values[sel], frf.sample_time)
    weights = None if args.weighting == "uniform" else 1.0 / np.abs(banded.values)
    tf = fit_rational(banded, args.order, args.delay, weights=weights)
    save_transfer_function(tf, args.out)
    print(f"fit order {args.order}, delay {args.delay} samples -> {args.out}")
    return 0


def _load_frf_dir(frf_dir: Path, sample_time: float):
    paths = sorted(Path(frf_dir).glob("frf_*.csv"))
    paths = [p for p in paths if p.stem != "frf_mean"]
    if not paths:
        raise VentrcError(f"no frf_*.csv files in {frf_dir}")
    return {p.stem.removeprefix("frf_"): load_frf(p, sample_time) for p in paths}


def _cmd_design(args) -> int:
    frfs = _load_frf_dir(args.frf_dir, args.sample_time)
    mean_path = Path(args.frf_dir) / "frf_mean.csv"
    if mean_path.exists():
        mean_frf = load_frf(mean_path, args.sample_time)
    else:
        mean_frf = average_frf(frfs.values())
    try:
        filterset, report = design_pipeline(
            frfs, mean_frf, order=args.order, delay_samples=args.delay,
            cutoff_hz=args.cutoff_hz, q_order=args.q_order,
            period_n=args.period_n, min_margin=args.min_margin,
        )
    except DesignError as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.summary(), file=sys.stderr)
        return 1
    save_filterset(filterset, args.out)
    print(report.summary())
    print(f"wrote filter set to {args.out}")
    return 0


def _cmd_check_stability(args) -> int:
    filterset = load_filterset(args.filterset)
    frfs = _load_frf_dir(args.frf_dir, filterset.sample_time)
    report = check_stability(filterset.q_kernel, filterset.l_causal,
                             filterset.l_shift, frfs)
    if args.report:
        report.save_csv(args.report)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_run(args) -> int:
    spec = ExperimentSpec(
        scenario=args.scenario,
        mode=args.mode,
        breaths=args.breaths,
        filterset=args.filterset,
        seed=args.seed,
        measurement_noise_rms=args.noise_rms,
    )
    try:
        log = run_experiment(spec)
    except (DesignError, ExperimentDiverged) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    paths = emit_report(log, args.out_dir)
    norms = log.breath_norms
    print(f"{log.scenario_name} / {log.mode}: {len(norms)} breaths, "
          f"first norm {norms[0]:.3f}, last norm {norms[-1]:.3f} mbar")
    for key, path in paths.items():
        print(f"  {key}: {path}")
    return 0


def _read_norm_csv(path: Path) -> np.ndarray:
    norms = []
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigurationError(f"{path}: file is empty")
        if "error_norm" not in header:
            raise ConfigurationError(f"{path}: no 'error_norm' column in header {header}")
        col = header.index("error_norm")
        for row in reader:
            try:
                norms.append(float(row[col]))
            except (IndexError, ValueError):
                raise ConfigurationError(
                    f"{path}: line {reader.line_num}: no number in column 'error_norm', "
                    f"got {row}") from None
    if not norms:
        raise ConfigurationError(f"{path}: no rows after the header")
    return np.array(norms)


def _cmd_compare(args) -> int:
    base = _read_norm_csv(Path(args.baseline))
    cand = _read_norm_csv(Path(args.candidate))
    if len(base) != len(cand):
        print(f"breath counts differ: {len(base)} vs {len(cand)}", file=sys.stderr)
        return 1
    table = ComparisonTable("comparison", base, cand)
    for i, r in enumerate(table.ratios, 1):
        print(f"breath {i:3d}: ratio {r:.4f}")
    print(f"converged ratio (last 5 breaths): {table.converged_ratio:.4f}")
    if args.out:
        table.save_csv(args.out)
    return 0


def _cmd_all(args) -> int:
    try:
        result = run_full_pipeline(
            args.out_dir,
            breaths=args.breaths,
            identification_noise_rms=args.noise_rms,
            identification_periods=args.periods,
            cutoff_hz=args.cutoff_hz,
            q_order=args.q_order,
            seed=args.seed,
            min_margin=args.min_margin,
        )
    except (DesignError, ExperimentDiverged) as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1
    print("\nsummary:")
    for name, comparison in result.comparisons.items():
        print(f"  {name}: converged rc/pid ratio {comparison.converged_ratio:.4f}")
    print(f"stability margin with robustness filter: {result.report.margin:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ventrc",
        description="Repetitive-control design toolkit and ventilation testbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="estimate a closed-loop FRF from simulation")
    p.add_argument("--scenario", required=True,
                   help="scenario .cfg path or built-in name (adult/pediatric/baby)")
    p.add_argument("--level", choices=["peep", "ipap"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--f-min", type=float, default=0.5)
    p.add_argument("--f-max", type=float, default=100.0)
    p.add_argument("--rms", type=float, default=1.0, help="excitation RMS, mbar")
    p.add_argument("--periods", type=int, default=10)
    p.add_argument("--discard", type=int, default=5)
    p.add_argument("--period-samples", type=int, default=1000)
    p.add_argument("--noise-rms", type=float, default=0.0,
                   help="sensor noise hook, mbar RMS (default off)")
    p.add_argument("--dense-grid", action="store_true",
                   help="use the design-grade dense grid up to Nyquist")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("fit", help="fit a rational model to an FRF csv")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--delay", type=int, default=12)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sample-time", type=float, default=0.002)
    p.add_argument("--band", type=float, nargs=2, default=(0.0, 40.0),
                   metavar=("LO", "HI"))
    p.add_argument("--weighting", choices=["uniform", "relative"], default="relative")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("design", help="synthesize the filter set and check stability")
    p.add_argument("--frf-dir", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--delay", type=int, default=12)
    p.add_argument("--cutoff-hz", type=float, default=23.0)
    p.add_argument("--q-order", type=int, default=50)
    p.add_argument("--period-n", type=int, default=2000)
    p.add_argument("--min-margin", type=float, default=0.05)
    p.add_argument("--sample-time", type=float, default=0.002)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("check-stability", help="evaluate |Q(1-TL)| on stored FRFs")
    p.add_argument("--filterset", required=True)
    p.add_argument("--frf-dir", required=True)
    p.add_argument("--report", help="write per-frequency magnitudes to this csv")
    p.set_defaults(func=_cmd_check_stability)

    p = sub.add_parser("run", help="closed-loop experiment on one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=["pid", "rc"], required=True)
    p.add_argument("--breaths", type=int, default=20)
    p.add_argument("--filterset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--noise-rms", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="per-breath ratios between two norm csvs")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("all", help="identify -> fit -> design -> check -> run -> compare")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--breaths", type=int, default=20)
    p.add_argument("--noise-rms", type=float, default=0.01,
                   help="sensor noise during identification, mbar RMS")
    p.add_argument("--periods", type=int, default=16)
    p.add_argument("--cutoff-hz", type=float, default=23.0)
    p.add_argument("--q-order", type=int, default=50)
    p.add_argument("--min-margin", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VentrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
