"""Show that the benchmark's checks pass on genuine outputs and catch planted faults.

    python3 ventbench/selfcheck.py

Run from the root of a checkout.  It runs one round of every workload,
checks each, then copies the outputs, plants one fault per copy and checks
again.  Each fault must be caught by the check meant for it.  Exits 0 when
every genuine round passes and every fault is caught.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402


def rewrite_csv(path: Path, edit) -> None:
    """Apply edit(rows) to a CSV file's rows (header included) in place."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def scale_learning_filter(run: Path) -> None:
    """Learning filter scaled 1.5x in every filter-set file of the round."""
    for path in (run / "round-1").glob("rc_*.filterset"):
        lines = path.read_text().splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.startswith("l_num "))
        count = int(lines[start].split()[1])
        for i in range(start + 1, start + 1 + count):
            lines[i] = repr(1.5 * float(lines[i]))
        path.write_text("\n".join(lines) + "\n")


def alter_trace_sample(run: Path) -> None:
    """One p_aw sample of the adult pid trace moved by 1e-3 mbar."""
    def edit(rows):
        col = rows[0].index("p_aw")
        rows[5001][col] = repr(float(rows[5001][col]) + 1e-3)
    rewrite_csv(run / "round-1" / "adult" / "adult_pid_trace.csv", edit)


def shift_frf_bin(run: Path) -> None:
    """The identified adult bin nearest 5 Hz off by 20 %."""
    def edit(rows):
        freqs = np.array([float(r[0]) for r in rows[1:]])
        i = 1 + int(np.argmin(np.abs(freqs - 5.0)))
        rows[i][1:3] = [repr(1.2 * float(v)) for v in rows[i][1:3]]
    rewrite_csv(run / "round-1" / "frf_adult_peep.csv", edit)


def edit_norm_row(run: Path) -> None:
    """Breath 10 of the adult rc breath-norm table raised by 1 %."""
    def edit(rows):
        rows[10][1] = repr(1.01 * float(rows[10][1]))
    rewrite_csv(run / "round-1" / "adult" / "adult_rc_breath_norms.csv", edit)


def command_beyond_limit(run: Path) -> None:
    """One logged adult pid command set 0.5 mbar above the upper limit."""
    path = run / "round-1-logs.npz"
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["adult/pid/command"][3000] = 40.5
    np.savez(path, **arrays)


# (workload, fault, planted by, text of the check that must report it)
FAULTS = [
    ("pipeline", "learning filter scaled 1.5x", scale_learning_filter, "rebuilt memory loop"),
    ("pipeline", "one trace sample altered", alter_trace_sample, "vs commands replayed"),
    ("pipeline", "one identified bin below 10 Hz off by 20 %", shift_frf_bin, "analytic loop"),
    ("pipeline", "one breath-norm row edited", edit_norm_row, "breath-norm CSV vs trace CSV"),
    ("limited_noisy", "one command beyond its limit", command_beyond_limit, "beyond its limits"),
]


def check(root: Path, run: Path) -> checks.Checker:
    try:
        ck, _, _ = checks.check_round(root, run, checks.load_manifest(run))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ck = checks.Checker()
        ck.expect(False, f"outputs could not be checked: {exc!r}")
    return ck


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "ventrc" / "__init__.py").is_file():
        print("run from the root of a checkout that holds src/ventrc", file=sys.stderr)
        return 2
    base = root / ".ventbench" / "selfcheck"
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    for workload in ("pipeline", "envelope", "limited_noisy"):
        run = base / workload
        subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
                        "--seed", "1", "--dir", str(run)], cwd=root, check=True,
                       capture_output=True, timeout=300)
        ck = check(root, run)
        ok &= not ck.failures
        print(f"genuine {workload}: {ck.checked} checks, {len(ck.failures)} failed")
        for line in ck.failures[:5]:
            print(f"    {line}")
    for workload, fault, plant, expected in FAULTS:
        run = base / f"{workload}-fault"
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(base / workload, run)
        plant(run)
        ck = check(root, run)
        caught = any(expected in line for line in ck.failures)
        ok &= caught
        print(f"fault '{fault}' on {workload}: {'caught' if caught else 'MISSED'}; "
              f"{len(ck.failures)} of {ck.checked} checks failed")
        for line in ck.failures[:3]:
            print(f"    {line}")
        shutil.rmtree(run)
    if ok:
        shutil.rmtree(base)
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
