"""Command-line front end.

Subcommands mirror the pipeline stages: identify, fit, design,
check-stability, run, compare, and `all` for the whole workflow.  Exit code
is nonzero on stability-check failure or experiment divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigurationError, DesignError, ExperimentDiverged, VentrcError
from .harness import (
    BREATHS,
    IDENT_LEVELS,
    IDENT_NOISE_RMS,
    IDENT_PERIODS,
    NORMS_HEADER,
    SEED,
    ComparisonTable,
    ExperimentSpec,
    emit_report,
    identify,
    run_experiment,
    run_full_pipeline,
)
from .lti import read_table, save_transfer_function
from .plant import load_scenario, reference_profile
from .rc_design import (
    FIT_DELAY_SAMPLES, FIT_ORDER, GRID_REACH, MIN_MARGIN, Q_CUTOFF_HZ, Q_ORDER,
    check_stability, design_pipeline, fit_band, fit_loop_model, load_filterset, save_filterset,
)
from .sysid import average_frf, load_frf, save_frf


def _cmd_identify(args) -> int:
    frf = identify(args.scenario, args.level, periods=args.periods,
                   noise_rms=args.noise_rms, seed=args.seed)
    save_frf(frf, args.out)
    print(f"wrote {len(frf)} bins ({frf.frequencies_hz[0]:g}-{frf.frequencies_hz[-1]:g} Hz) "
          f"to {args.out}")
    return 0


def _load_frf_dir(frf_dir: Path, sample_time: float):
    paths = sorted(Path(frf_dir).glob("frf_*.csv"))
    paths = [p for p in paths if p.stem != "frf_mean"]
    if not paths:
        raise VentrcError(f"no frf_*.csv files in {frf_dir}")
    frfs = {p.stem.removeprefix("frf_"): load_frf(p, sample_time) for p in paths}
    first = next(iter(frfs.values()))
    for path, frf in zip(paths, frfs.values()):
        if not frf.same_grid(first):
            raise ConfigurationError(f"{path}: frequency grid differs from that of {paths[0]}")
    return frfs


def _design_inputs(args):
    """As `all` builds them: the --frf-dir responses at the --scenario's sample
    time, their mean, and the scenario's breath period in samples.

    A response file records no sample time.  After the fit band's bin count,
    the grid must reach the scenario's Nyquist frequency, as an
    identification at its sample time does; a shorter grid was most likely
    measured at another sample time.
    """
    scenario, circuit = load_scenario(args.scenario)
    ts = circuit.sample_time
    frfs = _load_frf_dir(args.frf_dir, ts)
    mean_frf = average_frf(frfs.values())
    fit_band(mean_frf, args.order)
    top, nyquist = mean_frf.frequencies_hz[-1], 0.5 / ts
    if top < GRID_REACH * nyquist:
        raise ConfigurationError(
            f"{Path(args.frf_dir) / f'frf_{next(iter(frfs))}.csv'}: top bin {top:g} Hz "
            f"stops below the Nyquist frequency {nyquist:g} Hz of scenario "
            f"{args.scenario} (sample time {ts:g} s); measured at another sample time?")
    return frfs, mean_frf, len(reference_profile(scenario, ts))


def _cmd_fit(args) -> int:
    _, mean_frf, _ = _design_inputs(args)
    save_transfer_function(fit_loop_model(mean_frf, args.order, args.delay), args.out)
    print(f"fit order {args.order}, delay {args.delay} samples -> {args.out}")
    return 0


def _cmd_design(args) -> int:
    frfs, mean_frf, period_n = _design_inputs(args)
    try:
        filterset, report = design_pipeline(
            frfs, mean_frf, order=args.order, delay_samples=args.delay,
            cutoff_hz=args.cutoff_hz, q_order=args.q_order,
            period_n=period_n, min_margin=args.min_margin,
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


def _cmd_compare(args) -> int:
    _, base = read_table(args.baseline, NORMS_HEADER)
    _, cand = read_table(args.candidate, NORMS_HEADER)
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
        comparisons, report = run_full_pipeline(
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
    for name, comparison in comparisons.items():
        print(f"  {name}: converged rc/pid ratio {comparison.converged_ratio:.4f}")
    print(f"stability margin with robustness filter: {report.margin:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ventrc",
        description="Repetitive-control design toolkit and ventilation testbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="estimate a closed-loop FRF from simulation, "
                                        "by the identification protocol of `all`")
    p.add_argument("--scenario", required=True,
                   help="scenario .cfg path or built-in name (adult/pediatric/baby)")
    p.add_argument("--level", choices=IDENT_LEVELS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--periods", type=int, default=IDENT_PERIODS)
    p.add_argument("--noise-rms", type=float, default=IDENT_NOISE_RMS,
                   help="sensor noise during identification, mbar RMS")
    p.add_argument("--seed", type=int, default=SEED)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("fit", help="fit the loop model to the mean FRF, as `all` does")
    p.add_argument("--frf-dir", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--order", type=int, default=FIT_ORDER)
    p.add_argument("--delay", type=int, default=FIT_DELAY_SAMPLES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("design", help="a scenario's filter set and its check, as `all` does")
    p.add_argument("--frf-dir", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--order", type=int, default=FIT_ORDER)
    p.add_argument("--delay", type=int, default=FIT_DELAY_SAMPLES)
    p.add_argument("--cutoff-hz", type=float, default=Q_CUTOFF_HZ)
    p.add_argument("--q-order", type=int, default=Q_ORDER)
    p.add_argument("--min-margin", type=float, default=MIN_MARGIN)
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
    p.add_argument("--breaths", type=int, default=BREATHS)
    p.add_argument("--filterset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--noise-rms", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=SEED)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="per-breath ratios between two norm csvs")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("all", help="identify -> fit -> design -> check -> run -> compare")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--breaths", type=int, default=BREATHS)
    p.add_argument("--noise-rms", type=float, default=IDENT_NOISE_RMS,
                   help="sensor noise during identification, mbar RMS")
    p.add_argument("--periods", type=int, default=IDENT_PERIODS)
    p.add_argument("--cutoff-hz", type=float, default=Q_CUTOFF_HZ)
    p.add_argument("--q-order", type=int, default=Q_ORDER)
    p.add_argument("--min-margin", type=float, default=MIN_MARGIN)
    p.add_argument("--seed", type=int, default=SEED)
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
