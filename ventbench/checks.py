"""Checks of one round's outputs against the independent oracle.

Every closed-loop run, every identified response, every report file and
every per-breath table of the round is checked.  The checks read only files
(CSV, filter-set, tf and scenario files, and the logged arrays saved by the
worker), so a planted fault in any of them shows as a failure; see
``selfcheck.py``.  The figures the benchmark reports (converged ratio,
stability margin, learning breaths) are read from ventrc's own output
files and must agree with the oracle's recomputation.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import oracle

BUILTIN = ("adult", "pediatric", "baby")
CUTOFF_HZ = 23.0          # `ventrc all` default robustness cutoff
MIN_MARGIN = 0.05         # `ventrc all` default required margin
TOL = 1e-9                # mbar, or relative where stated
# Identified vs analytic loop below the cutoff.  The sensor noise leaves an
# error of a few 1e-3 on every bin whatever |T| is (at most 0.0044 on
# genuine runs), so the bound is absolute.
FRF_TOL = 0.01
NOISE_BAND = (0.95, 1.05)  # replay residual RMS over the sensor-noise RMS
RATIO_GATE = 0.2         # converged rc/pid ratio, unlimited workloads


class Checker:
    """Collects failed expectations instead of stopping at the first."""

    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.checked += 1
        if not bool(ok):
            self.failures.append(what)
        return bool(ok)

    def close(self, got, want, tol: float, what: str, relative: bool = False) -> bool:
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            return self.expect(False, f"{what}: shape {got.shape} != {want.shape}")
        scale = np.maximum(np.abs(want), 1e-300) if relative else 1.0
        err = float(np.max(np.abs(got - want) / scale)) if got.size else 0.0
        return self.expect(err <= tol, f"{what}: error {err:.3g} > {tol:g}")


def builtin_scenario(root: Path, name: str) -> oracle.Scenario:
    return oracle.read_scenario(root / "src" / "ventrc" / "scenarios" / f"{name}.cfg")


# -- shared checks -------------------------------------------------------------------

def check_log(ck: Checker, label: str, plant: oracle.Plant, log: dict, breaths: int,
              limits, noise_rms: float, fs: oracle.FilterSet | None) -> np.ndarray:
    """One closed-loop run: plant replay, controller and memory loop, limits.

    Returns the oracle's repetitive correction (zeros for pid).
    """
    ref, cmd, p_aw = log["reference"], log["command"], log["p_aw"]
    ck.expect(np.array_equal(ref, plant.s.reference(breaths)),
              f"{label}: reference is not the scenario's breath profile")
    ck.expect(len(cmd) == len(ref) and cmd[0] == 0.0, f"{label}: command does not start at rest")
    replay = plant.replay(cmd)
    ck.close(log["p_lung"], replay["p_lung"], TOL, f"{label}: p_lung vs commands replayed")
    ck.close(log["q_pat"], replay["q_pat"], TOL, f"{label}: q_pat vs commands replayed")
    residual = p_aw - replay["p_aw"]
    if noise_rms == 0.0:
        ck.close(p_aw, replay["p_aw"], TOL, f"{label}: p_aw vs commands replayed")
    else:
        rms = float(np.sqrt(np.mean(residual ** 2)))
        lo, hi = NOISE_BAND
        ck.expect(lo * noise_rms <= rms <= hi * noise_rms,
                  f"{label}: replay residual RMS {rms:.4g} is not the {noise_rms} mbar noise")

    error = ref - p_aw
    corr = oracle.memory_loop(fs, error) if fs is not None else np.zeros(len(error))
    nxt = cmd[1:]
    lo, hi = limits if limits else (-np.inf, np.inf)
    inside = (nxt > lo) & (nxt < hi)
    recovered = np.diff(cmd) / oracle.INTEGRAL_GAIN - error[:-1]
    ck.close(recovered[inside], corr[:-1][inside], TOL * (1.0 + float(np.max(np.abs(corr)))),
             f"{label}: correction recovered from the commands vs the rebuilt memory loop")
    predicted = cmd[:-1] + oracle.INTEGRAL_GAIN * (error[:-1] + corr[:-1])
    ck.expect(np.all(predicted[nxt == hi] >= hi - TOL) and np.all(predicted[nxt == lo] <= lo + TOL),
              f"{label}: a command sits at a limit the integrator did not reach")
    ck.expect(np.all((cmd >= lo) & (cmd <= hi)), f"{label}: a command lies beyond its limits")

    if fs is None and limits is None and noise_rms == 0.0:
        closed = plant.closed_loop_command(ref)
        ck.close(cmd, closed, TOL, f"{label}: command vs the rebuilt closed loop")
        rebuilt = plant.replay(closed)
        for name in ("p_aw", "p_lung", "q_pat"):
            ck.close(log[name], rebuilt[name], TOL, f"{label}: {name} vs the rebuilt closed loop")
    return corr


def check_pair(ck: Checker, label: str, pid: dict, rc: dict, fs: oracle.FilterSet,
               corr: np.ndarray) -> None:
    """rc equals pid until its memory has filled once, then departs from it."""
    d = fs.memory_length
    same = all(np.array_equal(pid[k][: d + 1], rc[k][: d + 1]) for k in ("command", "p_aw"))
    ck.expect(same, f"{label}: rc differs from pid before its memory fills ({d} samples)")
    ck.expect(np.all(corr[:d] == 0.0) and np.any(corr[d:] != 0.0)
              and not np.array_equal(pid["command"], rc["command"]),
              f"{label}: the memory loop never engaged")


def check_table(ck: Checker, label: str, table: dict, pid: dict, rc: dict,
                period_n: int, breaths: int) -> tuple[float, float]:
    """The comparison table follows from the traces; returns (ratio, learn breaths)."""
    pn = oracle.breath_norms(pid["reference"], pid["p_aw"], period_n)
    rn = oracle.breath_norms(rc["reference"], rc["p_aw"], period_n)
    ck.expect(len(pn) == breaths, f"{label}: {len(pn)} breaths logged, {breaths} run")
    if not ck.expect(np.array_equal(table.get("breath", []), np.arange(1, len(pn) + 1)),
                     f"{label}: comparison table rows are not breaths 1..{len(pn)}"):
        return float("nan"), float("nan")
    ck.close(table["baseline_norm"], pn, TOL, f"{label}: pid norms vs traces", relative=True)
    ck.close(table["candidate_norm"], rn, TOL, f"{label}: rc norms vs traces", relative=True)
    ck.close(table["ratio"], rn / pn, TOL, f"{label}: ratios vs traces", relative=True)
    ratio = float(np.mean(table["ratio"][-5:]))
    ck.close(ratio, oracle.converged_ratio(pn, rn), TOL, f"{label}: converged ratio", relative=True)
    return ratio, oracle.learn_breaths(table["candidate_norm"])


def check_report(ck: Checker, label: str, path: Path, fs: oracle.FilterSet,
                 responses: dict, with_q: bool = True) -> dict[str, float]:
    """A stability report equals |Q(1 - T L)| recomputed; returns per-column max."""
    cols = oracle.read_columns(path)
    grid = cols.get("frequency_hz")
    ck.expect(set(cols) == {"frequency_hz", *responses}, f"{label}: report columns {sorted(cols)}")
    peaks = {}
    for name, (freqs, values) in responses.items():
        if name not in cols or grid is None or len(grid) != len(freqs):
            ck.expect(False, f"{label}: no column {name} on the response grid")
            continue
        ck.close(grid, freqs, 1e-9, f"{label}: report grid")
        mag = oracle.stability_magnitude(fs, freqs, values, with_q)
        ck.close(cols[name], mag, TOL, f"{label}: {name} vs |Q(1-TL)| recomputed")
        peaks[name] = float(np.max(cols[name]))
    return peaks


def summarize(ck: Checker, ratios: list, learns: list, margin: float, ratio_gate) -> dict:
    ratio = max(ratios)
    ck.expect(ratio_gate(ratio), f"converged rc/pid ratio {ratio:.4f} misses its gate")
    return {"rc_pid_ratio": ratio, "stability_margin": margin, "learn_breaths": max(learns)}


def read_logs(path: Path) -> dict[str, dict[str, np.ndarray]]:
    logs: dict[str, dict[str, np.ndarray]] = {}
    with np.load(path) as data:
        for key in data.files:
            run, field = key.rsplit("/", 1)
            logs.setdefault(run, {})[field] = data[key]
    return logs


# -- pipeline ------------------------------------------------------------------------

def check_pipeline(ck: Checker, root: Path, out: Path, manifest: dict, stdout: str) -> tuple[dict, dict]:
    """Every artefact of one `ventrc all` run."""
    breaths = manifest["breaths"]
    plants = {n: oracle.Plant(builtin_scenario(root, n)) for n in BUILTIN}
    fsets = {n: oracle.read_filterset(out / f"rc_{n}.filterset") for n in BUILTIN}
    fs = fsets["adult"]
    for n, f in fsets.items():
        ck.expect(f.period_n == plants[n].s.period_n, f"{n}: filter-set period")
        ck.expect(all(np.array_equal(getattr(f, k), getattr(fs, k))
                      for k in ("l_num", "l_den", "q_taps"))
                  and (f.l_shift, f.q_shift, f.l_delay) == (fs.l_shift, fs.q_shift, fs.l_delay),
                  f"{n}: filter set differs from the adult one beyond its period")

    responses, worst = {}, 0.0
    for n in BUILTIN:
        for level in ("peep", "ipap"):
            cols = oracle.read_columns(out / f"frf_{n}_{level}.csv")
            freqs, values = cols["frequency_hz"], cols["real"] + 1j * cols["imag"]
            responses[f"{n}_{level}"] = (freqs, values)
            band = freqs < CUTOFF_HZ
            analytic = plants[n].closed_loop_response(freqs[band])
            err = np.abs(values[band] - analytic)
            worst = max(worst, float(np.max(err / np.abs(analytic))))
            ck.expect(np.max(err) <= FRF_TOL, f"frf_{n}_{level}: error {np.max(err):.3g} vs the "
                                              f"analytic loop below {CUTOFF_HZ:g} Hz exceeds {FRF_TOL}")
    mean = oracle.read_columns(out / "frf_mean.csv")
    ck.close(mean["real"] + 1j * mean["imag"], np.mean([v for _, v in responses.values()], axis=0),
             1e-12, "frf_mean: not the mean of the six responses")

    num, den, delay = oracle.read_tf(out / "tfit.coeff")
    grid = responses["adult_peep"][0]
    x = np.exp(-2j * np.pi * grid * fs.sample_time)
    tl = oracle.zpoly(num, x) / oracle.zpoly(den, x) * x ** delay * oracle.learning_response(fs, grid)
    ck.expect(np.max(np.abs(tl.imag) / np.abs(tl)) <= TOL and np.min(tl.real) > 0,
              "t_fit * L is not real and positive (zero-phase inversion)")
    dc = np.sum(num) / np.sum(den) * np.sum(fs.l_num) / np.sum(fs.l_den)
    ck.close(dc, 1.0, TOL, "t_fit * L at DC")

    peaks = check_report(ck, "stability_report", out / "stability_report.csv", fs, responses)
    margin = 1.0 - max(peaks.values(), default=np.inf)
    ck.expect(margin >= MIN_MARGIN, f"margin {margin:.4f} below {MIN_MARGIN}")
    no_q = check_report(ck, "stability_no_q", out / "stability_no_q.csv", fs, responses, with_q=False)
    for n in BUILTIN:
        ck.expect(max(no_q.get(f"{n}_{lv}", 0.0) for lv in ("peep", "ipap")) >= 1.0,
                  f"{n}: the bound without Q holds, but it must fail on identified responses")

    ratios, learns = [], []
    for n in BUILTIN:
        logs = {}
        for mode in ("pid", "rc"):
            cols = oracle.read_columns(out / n / f"{n}_{mode}_trace.csv")
            k = np.arange(len(cols["sample"]))
            ck.expect(np.array_equal(cols["sample"], k)
                      and np.array_equal(cols["time_s"], k * plants[n].s.sample_time),
                      f"{n}/{mode}: trace sample or time column")
            logs[mode] = cols
            norms = oracle.read_columns(out / n / f"{n}_{mode}_breath_norms.csv")
            ck.close(norms.get("error_norm", np.zeros(0)),
                     oracle.breath_norms(cols["reference"], cols["p_aw"], plants[n].s.period_n),
                     TOL, f"{n}/{mode}: breath-norm CSV vs trace CSV", relative=True)
            fset = fsets[n] if mode == "rc" else None
            corr = check_log(ck, f"{n}/{mode}", plants[n], cols, breaths, None, 0.0, fset)
        check_pair(ck, n, logs["pid"], logs["rc"], fsets[n], corr)
        table = oracle.read_columns(out / n / f"{n}_comparison.csv")
        ratio, learn = check_table(ck, n, table, logs["pid"], logs["rc"], plants[n].s.period_n, breaths)
        ratios.append(ratio)
        learns.append(learn)
        m = re.search(rf"^  {n}: converged rc/pid ratio ([0-9.]+)$", stdout, re.M)
        ck.expect(m and abs(float(m.group(1)) - ratio) <= 5e-5, f"{n}: printed ratio")
        for svg in (f"{n}_pid_pressure.svg", f"{n}_rc_pressure.svg", f"{n}_pid_breath_norms.svg",
                    f"{n}_rc_breath_norms.svg", f"{n}_norms_compare.svg"):
            tree = ET.parse(out / n / svg)
            ck.expect(tree.getroot().find("{http://www.w3.org/2000/svg}polyline") is not None,
                      f"{n}/{svg}: no curve")
    m = re.search(r"^stability margin with robustness filter: ([0-9.]+)$", stdout, re.M)
    ck.expect(m and abs(float(m.group(1)) - margin) <= 5e-5, "printed stability margin")
    return (summarize(ck, ratios, learns, margin, lambda r: r <= RATIO_GATE),
            {"frf_rel_err": worst})


# -- envelope and limited_noisy ------------------------------------------------------

def check_closed_loop(ck: Checker, root: Path, out: Path, manifest: dict,
                      logs_path: Path) -> tuple[dict, dict]:
    """The set-up design, then every patient's pid and rc runs and table."""
    breaths, limits, noise = manifest["breaths"], manifest["limits"], manifest["noise_rms"]
    inputs = out.parent / "inputs"
    design = oracle.read_columns(inputs / "design_report.csv")
    grid = design["frequency_hz"]
    fs = oracle.read_filterset(inputs / "rc_adult.filterset")
    responses = {n: (grid, oracle.Plant(builtin_scenario(root, n)).closed_loop_response(grid))
                 for n in BUILTIN}
    peaks = check_report(ck, "design_report", inputs / "design_report.csv", fs, responses)
    margin = 1.0 - max(peaks.values(), default=np.inf)
    ck.expect(margin >= MIN_MARGIN, f"design margin {margin:.4f} below {MIN_MARGIN}")

    logs = read_logs(logs_path)
    ratios, learns = [], []
    for p in manifest["patients"]:
        label = p["label"]
        plant = oracle.Plant(builtin_scenario(root, p["builtin"]) if "builtin" in p
                             else oracle.read_scenario(inputs / p["scenario"]))
        fset = oracle.read_filterset(inputs / p["filterset"])
        ck.expect(fset.period_n == plant.s.period_n, f"{label}: filter-set period")
        guard = oracle.stability_magnitude(fset, grid, plant.closed_loop_response(grid))
        ck.expect(np.max(guard) < 1.0, f"{label}: ran although max |Q(1-TL)| = {np.max(guard):.3f}")
        pid, rc = logs.get(f"{label}/pid"), logs.get(f"{label}/rc")
        if not ck.expect(pid is not None and rc is not None, f"{label}: run missing"):
            continue
        check_log(ck, f"{label}/pid", plant, pid, breaths, limits, noise, None)
        corr = check_log(ck, f"{label}/rc", plant, rc, breaths, limits, noise, fset)
        check_pair(ck, label, pid, rc, fset, corr)
        table = oracle.read_columns(out / f"{label}_comparison.csv")
        ratio, learn = check_table(ck, label, table, pid, rc, plant.s.period_n, breaths)
        ratios.append(ratio)
        learns.append(learn)
    gate = (lambda r: r < 1.0) if limits else (lambda r: r <= RATIO_GATE)
    return summarize(ck, ratios or [np.inf], learns or [np.inf], margin, gate), {}


def check_round(root: Path, run_dir: Path, manifest: dict) -> tuple[Checker, dict, dict]:
    """Check the kept first round of a worker run."""
    ck = Checker()
    out = run_dir / "round-1"
    if manifest["workload"] == "pipeline":
        stdout = (run_dir / "round-1-stdout.txt").read_text()
        values, extras = check_pipeline(ck, root, out, manifest, stdout)
    else:
        values, extras = check_closed_loop(ck, root, out, manifest, run_dir / "round-1-logs.npz")
    return ck, values, extras


def load_manifest(run_dir: Path) -> dict:
    with open(run_dir / "result.json") as fh:
        return json.load(fh)["manifest"]
