"""Command-line front end.

Subcommands mirror the pipeline stages: identify, fit, design,
check-stability, run, compare, and `all` for the whole workflow.  Exit code
is nonzero on stability-check failure or experiment divergence.  `main` is
the one error path: it prints every toolkit error as "error: <message>", and
after a design error that carries a stability report, the report's table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigurationError, DesignError, VentrcError
from .harness import (
    BREATHS,
    IDENT_LEVELS,
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
    FIT_DELAY_SAMPLES, FIT_ORDER, GRID_REACH, Q_CUTOFF_HZ, check_stability, design_pipeline,
    fit_loop_model, load_filterset, save_filterset,
)
from .sysid import average_frf, load_frf, save_frf


def _cmd_identify(args) -> int:
    frf = identify(args.scenario, args.level, args.seed)
    save_frf(frf, args.out)
    print(f"wrote {len(frf)} bins ({frf.frequencies_hz[0]:g}-{frf.frequencies_hz[-1]:g} Hz) "
          f"to {args.out}")
    return 0


def _load_frf_dir(frf_dir: Path, sample_time: float, source: str):
    """The frf_*.csv responses in frf_dir but the mean, by file name, read at the
    sample time of `source`, a scenario or a filter set.  A response file
    records no sample time, so their one grid must reach that Nyquist
    frequency, as an identification at that sample time does."""
    paths = sorted(Path(frf_dir).glob("frf_*.csv"))
    paths = [p for p in paths if p.stem != "frf_mean"]
    if not paths:
        raise VentrcError(f"no frf_*.csv files in {frf_dir}")
    frfs = {p.stem.removeprefix("frf_"): load_frf(p, sample_time) for p in paths}
    first = next(iter(frfs.values()))
    for path, frf in zip(paths, frfs.values()):
        if not frf.same_grid(first):
            raise ConfigurationError(f"{path}: frequency grid differs from that of {paths[0]}")
    top, nyquist = first.frequencies_hz[-1], 0.5 / sample_time
    if top < GRID_REACH * nyquist:
        raise ConfigurationError(
            f"{paths[0]}: top bin {top:g} Hz stops below the Nyquist frequency {nyquist:g} Hz "
            f"of {source} (sample time {sample_time:g} s); measured at another sample time?")
    return frfs


def _design_inputs(args):
    """As `all` builds them: the --frf-dir responses at the --scenario's sample
    time, their mean, and the scenario's breath period in samples."""
    scenario, circuit = load_scenario(args.scenario)
    ts = circuit.sample_time
    frfs = _load_frf_dir(args.frf_dir, ts, f"scenario {args.scenario}")
    return frfs, average_frf(frfs.values()), len(reference_profile(scenario, ts))


def _cmd_fit(args) -> int:
    _, mean_frf, _ = _design_inputs(args)
    save_transfer_function(fit_loop_model(mean_frf), args.out)
    print(f"fit order {FIT_ORDER}, delay {FIT_DELAY_SAMPLES} samples -> {args.out}")
    return 0


def _cmd_design(args) -> int:
    frfs, mean_frf, period_n = _design_inputs(args)
    filterset, report = design_pipeline(frfs, mean_frf, cutoff_hz=args.cutoff_hz,
                                        period_n=period_n)
    save_filterset(filterset, args.out)
    print(report.summary())
    print(f"wrote filter set to {args.out}")
    return 0


def _cmd_check_stability(args) -> int:
    filterset = load_filterset(args.filterset)
    frfs = _load_frf_dir(args.frf_dir, filterset.sample_time, f"filter set {args.filterset}")
    report = check_stability(filterset.q_kernel, filterset.l_causal,
                             filterset.l_shift, frfs)
    if args.report:
        report.save_csv(args.report)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_run(args) -> int:
    spec = ExperimentSpec(
        scenario=args.scenario,
        mode="pid" if args.filterset is None else "rc",
        breaths=args.breaths,
        filterset=args.filterset,
        seed=args.seed,
        measurement_noise_rms=args.noise_rms,
    )
    log = run_experiment(spec)
    paths = emit_report([log], args.out_dir)
    norms = log.breath_norms
    print(f"{log.scenario_name} / {log.mode}: {len(norms)} breaths, "
          f"first norm {norms[0]:.3f}, last norm {norms[-1]:.3f} mbar")
    for key, path in paths.items():
        print(f"  {key}: {path}")
    return 0


def _cmd_compare(args) -> int:
    _, base = read_table(args.baseline, NORMS_HEADER)
    _, cand = read_table(args.candidate, NORMS_HEADER)
    table = ComparisonTable("comparison", base, cand)
    for i, r in enumerate(table.ratios, 1):
        print(f"breath {i:3d}: ratio {r:.4f}")
    print(f"converged ratio (last 5 breaths): {table.converged_ratio:.4f}")
    if args.out:
        table.save_csv(args.out)
    return 0


def _cmd_all(args) -> int:
    comparisons, report = run_full_pipeline(
        args.out_dir, breaths=args.breaths, cutoff_hz=args.cutoff_hz, seed=args.seed)
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
    p.add_argument("--seed", type=int, default=SEED)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("fit", help="fit the loop model to the mean FRF, as `all` does")
    p.add_argument("--frf-dir", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("design", help="a scenario's filter set and its check, as `all` does")
    p.add_argument("--frf-dir", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--cutoff-hz", type=float, default=Q_CUTOFF_HZ)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("check-stability", help="evaluate |Q(1-TL)| on stored FRFs")
    p.add_argument("--filterset", required=True)
    p.add_argument("--frf-dir", required=True)
    p.add_argument("--report", help="write per-frequency magnitudes to this csv")
    p.set_defaults(func=_cmd_check_stability)

    p = sub.add_parser("run", help="closed-loop experiment on one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--breaths", type=int, default=BREATHS)
    p.add_argument("--filterset", help="run the repetitive add-on with this filter set")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--noise-rms", type=float, default=0.0,
                   help="sensor noise during the run, mbar RMS")
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
    p.add_argument("--cutoff-hz", type=float, default=Q_CUTOFF_HZ)
    p.add_argument("--seed", type=int, default=SEED)
    p.set_defaults(func=_cmd_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VentrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DesignError) and exc.report is not None:
            print(exc.report.summary(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
