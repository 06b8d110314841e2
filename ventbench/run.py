"""Run one ventrc benchmark workload from a source checkout and print its metrics.

    python3 ventbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/ventrc``.  The set-up time
is the median of several fresh interpreters that import ventrc and build
the workload's inputs.  Both it and the round time are in reference-host
seconds: wall time scaled to a fixed host speed (``refclock.py``).  A
worker process then runs whole rounds of the workload for ``--seconds``
seconds (see ``worker.py``), and this process checks the first round's
outputs against the independent oracle (``checks.py``, ``oracle.py``) and
every later round against the first.
The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``).  Outputs go under ``.ventbench/`` in
the checkout and are removed after a correct run; a traced run leaves its
spans in ``.ventbench/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("pipeline", "envelope", "limited_noisy")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIB = 1024.0 * 1024.0


def worker(root: Path, args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "ventrc" / "__init__.py").is_file():
        print(f"no ventrc source tree at {root / 'src' / 'ventrc'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import checks  # the oracle imports scipy; keep it out of the missing-source path

    run_dir = root / ".ventbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    for i in range(SETUP_REPEATS):
        proc = worker(root, [*common, "--setup-only", "--dir", str(run_dir / f"setup-{i}")],
                      SETUP_TIMEOUT_S)
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(run_dir / f"setup-{i}")
    main_dir = run_dir / "main"
    worker(root, [*common, "--dir", str(main_dir), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)], args.seconds + 120)
    with open(main_dir / "result.json") as fh:
        result = json.load(fh)

    try:
        ck, values, extras = checks.check_round(root, main_dir, result["manifest"])
        failures = ck.failures + result["mismatches"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures, values, extras = [f"outputs could not be checked: {exc!r}"], {}, {}
    correct = not failures
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = {**result["per_layer"],
                   "sysid.frf_rel_err": extras.get("frf_rel_err", 0.0),
                   "ventrc.import_s": statistics.median(s["import_s"] for s in setups)}
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(result["round_s"]),
            "written_mib": statistics.median(result["written_bytes"]) / MIB,
            "peak_rss_mib": result["peak_rss_mib"],
            **values,
        }
    if args.trace:
        shutil.copy(main_dir / "trace.json", root / ".ventbench" / f"trace-{args.workload}.json")
    if correct:
        shutil.rmtree(run_dir)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
