"""Benchmark worker: imports ventrc from the checkout's ``src/``, builds one
workload's inputs and runs whole rounds of its operations.

Run by ``run.py`` in a fresh interpreter, so that the import, the peak
memory and the per-layer trace belong to the workload alone.  With
``--setup-only`` it stops after building the inputs and prints the import
and set-up times.  Otherwise it runs rounds until ``--seconds`` have
passed, keeps the first round's outputs for the independent checks, checks
every later round against the first byte for byte, and writes
``result.json`` (and ``trace.json`` when tracing) into ``--dir``.

Set-up and every untraced round are timed with a ``RefClock``
(``refclock.py``), in wall seconds and in reference-host seconds.  A traced
worker stops the clock before it installs the tracer; its rounds are timed
in wall seconds only, and its set-up times are not reported.
"""

from __future__ import annotations

from refclock import RefClock

CLOCK = RefClock()
CLOCK.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import ventrc  # noqa: E402,F401

T_IMPORTED = CLOCK.lap()

import numpy as np  # noqa: E402
from ventrc import cli  # noqa: E402
from ventrc.control_rt import benchmark_controller_tf  # noqa: E402
from ventrc.errors import VentrcError  # noqa: E402
from ventrc.harness import ExperimentSpec, compare_runs, run_experiment  # noqa: E402
from ventrc.lti import evaluate  # noqa: E402
from ventrc.plant import (  # noqa: E402
    VentilatorPlant, load_scenario, reference_profile, save_scenario,
)
from ventrc.rc_design import (  # noqa: E402
    default_stability_grid, design_pipeline, save_filterset,
)
from ventrc.sysid import average_frf  # noqa: E402

BUILTIN = ("adult", "pediatric", "baby")
BREATHS = 20
ENVELOPE_PER_SETTING = 3          # drawn patients per built-in ventilator setting
R_LUNG = (5.0, 50.0)              # mbar s / L, log-uniform
C_LUNG = (0.003, 0.05)            # L / mbar, log-uniform
R_LEAK = (20.0, 100.0)            # mbar s / L, uniform
LIMITS = (0.0, 40.0)              # mbar, limited_noisy actuator range
NOISE_RMS = 0.01                  # mbar, limited_noisy sensor noise
LOG_FIELDS = ("reference", "p_aw", "p_lung", "q_pat", "command")


# -- inputs ------------------------------------------------------------------------

def design_filtersets(inputs: Path) -> dict[str, str]:
    """One filter set from the analytic loops of the built-in patients.

    Writes the design's stability report and one filter-set file per
    built-in breath period; returns each file's name by built-in setting.
    """
    grid = default_stability_grid()
    frfs, periods = {}, {}
    for name in BUILTIN:
        scenario, circuit = load_scenario(name)
        controller = benchmark_controller_tf(sample_time=circuit.sample_time)
        loop = VentilatorPlant(scenario, circuit).closed_form_tf().cascade(controller)
        frfs[name] = evaluate(loop.feedback_complementary(), grid)
        periods[name] = len(reference_profile(scenario, circuit.sample_time))
    filterset, report = design_pipeline(frfs, average_frf(frfs.values()), period_n=periods["adult"])
    report.save_csv(inputs / "design_report.csv")
    files = {}
    for name in BUILTIN:
        files[name] = f"rc_{name}.filterset"
        save_filterset(filterset.with_period(periods[name]), inputs / files[name])
    return files


def build_inputs(workload: str, seed: int, inputs: Path) -> dict:
    """The workload's patients and files, described in a JSON-ready manifest.

    File names in the manifest are relative to ``inputs``.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "breaths": BREATHS,
                "limits": None, "noise_rms": 0.0, "patients": []}
    if workload == "pipeline":
        return manifest
    filtersets = design_filtersets(inputs)
    if workload == "envelope":
        rng = np.random.default_rng(seed)
        for i in range(ENVELOPE_PER_SETTING * len(BUILTIN)):
            setting = BUILTIN[i % len(BUILTIN)]
            scenario, circuit = load_scenario(setting)
            label = f"env{i}_{setting}"
            scenario = replace(scenario, name=label,
                               r_lung=float(np.exp(rng.uniform(*np.log(R_LUNG)))),
                               c_lung=float(np.exp(rng.uniform(*np.log(C_LUNG)))))
            circuit = replace(circuit, r_leak=float(rng.uniform(*R_LEAK)))
            save_scenario(scenario, circuit, inputs / f"{label}.cfg")
            manifest["patients"].append({"label": label, "scenario": f"{label}.cfg",
                                         "filterset": filtersets[setting], "seed": 0})
    else:
        manifest.update(limits=list(LIMITS), noise_rms=NOISE_RMS)
        for i, name in enumerate(BUILTIN):
            manifest["patients"].append({"label": name, "builtin": name,
                                         "filterset": filtersets[name], "seed": seed * 10 + i})
    return manifest


# -- rounds ------------------------------------------------------------------------

def pipeline_round(manifest: dict, out: Path) -> dict:
    """One `ventrc all` invocation with its defaults into a fresh directory.

    The defaults include identification seed 0, so the benchmark seed does
    not reach this workload: some identification seeds make the design fail
    its stability bound (see CHANGES.md), and a failure that depends on the
    seed cannot be counted the same way in every run.
    """
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["all", "--out-dir", str(out)])
    return {"attempted": 1, "failed": int(code != 0), "stdout": buf.getvalue(), "logs": {}}


def closed_loop_round(manifest: dict, out: Path) -> dict:
    """pid and rc on every patient, then the per-breath comparison table."""
    inputs = out.parent / "inputs"
    out.mkdir(parents=True)
    limits = tuple(manifest["limits"]) if manifest["limits"] else None
    attempted = failed = 0
    logs = {}
    for p in manifest["patients"]:
        runs = {}
        for mode in ("pid", "rc"):
            attempted += 1
            spec = ExperimentSpec(
                scenario=p.get("builtin") or inputs / p["scenario"], mode=mode, breaths=BREATHS,
                filterset=inputs / p["filterset"] if mode == "rc" else None, output_limits=limits,
                measurement_noise_rms=manifest["noise_rms"], seed=p["seed"])
            try:
                runs[mode] = run_experiment(spec)
            except VentrcError as exc:
                print(f"{p['label']}/{mode} failed: {exc}", file=sys.stderr)
                failed += 1
        if len(runs) == 2:
            compare_runs(runs["pid"], runs["rc"]).save_csv(out / f"{p['label']}_comparison.csv")
        logs.update({f"{p['label']}/{mode}": log for mode, log in runs.items()})
    return {"attempted": attempted, "failed": failed, "stdout": "", "logs": logs}


# -- bookkeeping outside the timed region ---------------------------------------------

def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def digests(round_dir: Path, result: dict) -> dict[str, str]:
    """sha256 of every output file and every logged array of a round."""
    out = {}
    for f in sorted(p for p in round_dir.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(f, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[str(f.relative_to(round_dir))] = h.hexdigest()
    for key, log in result["logs"].items():
        for name in LOG_FIELDS:
            out[f"{key}/{name}"] = hashlib.sha256(
                np.ascontiguousarray(getattr(log, name))).hexdigest()
    out["stdout"] = hashlib.sha256(result["stdout"].encode()).hexdigest()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["pipeline", "envelope", "limited_noisy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        CLOCK.stop()  # its samples would land in the spans they interrupt
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    manifest = build_inputs(args.workload, args.seed, args.dir / "inputs")
    t_setup = CLOCK.lap() if args.trace else CLOCK.stop()
    timing = {"import_s": T_IMPORTED[0], "setup_s": t_setup[0],
              "import_wall_s": T_IMPORTED[1], "setup_wall_s": t_setup[1]}
    if args.setup_only:
        print(json.dumps(timing))
        return 0

    run_round = pipeline_round if args.workload == "pipeline" else closed_loop_round
    rounds, round_s, round_wall_s, written, mismatches = 0, [], [], [], []
    attempted = int(args.workload != "pipeline")  # the set-up design
    failed = 0
    first = None
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        rounds += 1
        round_dir = args.dir / f"round-{rounds}"
        if tracer:
            tracer.phase = "round"
            t0 = time.perf_counter()
            result = run_round(manifest, round_dir)
            ref_s = wall_s = time.perf_counter() - t0
        else:
            CLOCK.start()
            result = run_round(manifest, round_dir)
            ref_s, wall_s = CLOCK.stop()
        round_s.append(ref_s)
        round_wall_s.append(wall_s)
        if tracer:
            tracer.phase = "post"
        attempted += result["attempted"]
        failed += result["failed"]
        written.append(tree_bytes(round_dir))
        sums = digests(round_dir, result)
        if first is None:
            first = sums
            (args.dir / "round-1-stdout.txt").write_text(result["stdout"])
            np.savez(args.dir / "round-1-logs.npz", **{
                f"{key}/{name}": getattr(log, name)
                for key, log in result["logs"].items() for name in LOG_FIELDS})
        else:
            if sums != first:
                diff = sorted(k for k in set(sums) | set(first) if sums.get(k) != first.get(k))
                mismatches.append(f"round {rounds} differs from round 1 in {diff[:5]}")
            shutil.rmtree(round_dir)
        del result  # so two rounds' logs never coexist in memory

    report = {
        **timing, "manifest": manifest, "rounds": rounds, "round_s": round_s,
        "round_wall_s": round_wall_s,
        "attempted": attempted, "failed": failed, "written_bytes": written,
        "mismatches": mismatches,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        report["per_layer"] = tracer.metrics(rounds)
        with open(args.dir / "trace.json", "w") as fh:
            json.dump({"spans": tracer.span_records(),
                       "calls": {f"{ph}:{n}": v for (ph, n), v in tracer.calls.items()},
                       "total_ns": tracer.total_ns, "self_ns": tracer.self_ns}, fh)
    with open(args.dir / "result.json", "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
