import multiprocessing
import shlex
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from ventrc import cli, harness
from ventrc.cli import build_parser, main
from ventrc.errors import ExperimentDiverged, VentrcError
from ventrc.harness import BREATHS, IDENT_JOBS, IDENT_LEVELS, NORMS_HEADER, SEED, TRACE_HEADER
from ventrc.rc_design import (
    Q_CUTOFF_HZ, RcFilterSet, check_stability, design_q_fir, load_filterset, save_filterset,
)
from ventrc.lti import (
    DiscreteTransferFunction, FrequencyResponse, load_transfer_function, read_table,
    save_transfer_function, write_table,
)
from ventrc.plant import load_scenario, resolve_scenario_path, save_scenario
from ventrc.sysid import load_frf, save_frf

# the noisy design-grade fit legitimately stops at the iteration cap
pytestmark = pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small `ventrc all` run shared by the CLI tests."""
    out = tmp_path_factory.mktemp("pipeline")
    rc = main(["all", "--out-dir", str(out), "--breaths", "8", "--seed", "0"])
    assert rc == 0
    return out


def test_all_exit_code_and_artifacts(pipeline_dir):
    names = [p.name for p in pipeline_dir.iterdir()]
    for expected in ("frf_adult_peep.csv", "frf_baby_ipap.csv", "frf_mean.csv",
                     "tfit.coeff", "stability_no_q.csv", "stability_report.csv",
                     "rc_adult.filterset", "rc_pediatric.filterset",
                     "rc_baby.filterset"):
        assert expected in names
    for scenario in ("adult", "pediatric", "baby"):
        sub = pipeline_dir / scenario
        assert (sub / f"{scenario}_pid_trace.csv").exists()
        assert (sub / f"{scenario}_rc_breath_norms.csv").exists()
        assert (sub / f"{scenario}_comparison.csv").exists()
        ET.parse(sub / f"{scenario}_rc_pressure.svg")


def test_written_files_read_back_bit_for_bit(pipeline_dir, tmp_path):
    # each file that ventrc reads back is rewritten byte for byte from what its
    # reader returns, so the reader loses no bit of any number
    def rewrite(path, write):
        copy = tmp_path / path.name
        write(copy)
        assert copy.read_bytes() == path.read_bytes(), path

    frf_paths = sorted(pipeline_dir.glob("frf_*.csv"))
    norm_paths = sorted(pipeline_dir.glob("*/*_breath_norms.csv"))
    trace_paths = sorted(pipeline_dir.glob("*/*_trace.csv"))
    filterset_paths = sorted(pipeline_dir.glob("rc_*.filterset"))
    assert ((len(frf_paths), len(norm_paths), len(trace_paths), len(filterset_paths))
            == (7, 6, 6, 3))
    for path in frf_paths:
        rewrite(path, lambda copy: save_frf(load_frf(path, 0.002), copy))
    for path in norm_paths:
        breath, norms = read_table(path, NORMS_HEADER)
        rewrite(path, lambda copy: write_table(copy, NORMS_HEADER, [breath.astype(int), norms]))
    for path in trace_paths:
        sample, *signals = read_table(path, TRACE_HEADER)
        rewrite(path, lambda copy: write_table(copy, TRACE_HEADER, [sample.astype(int), *signals]))
    for path in filterset_paths:
        rewrite(path, lambda copy: save_filterset(load_filterset(path), copy))
    tfit = pipeline_dir / "tfit.coeff"
    rewrite(tfit, lambda copy: save_transfer_function(load_transfer_function(tfit), copy))


DESIGN_DEFAULTS = {"cutoff_hz": Q_CUTOFF_HZ}


@pytest.mark.parametrize("argv, expected", [
    (["all", "--out-dir", "out"],
     {"out_dir": "out", "breaths": BREATHS, "seed": SEED, **DESIGN_DEFAULTS}),
    (["run", "--scenario", "adult", "--out-dir", "out"],
     {"scenario": "adult", "out_dir": "out", "breaths": BREATHS, "filterset": None,
      "noise_rms": 0.0, "seed": SEED}),
    (["identify", "--scenario", "adult", "--level", "peep", "--out", "frf.csv"],
     {"scenario": "adult", "level": "peep", "out": "frf.csv", "seed": SEED}),
    (["fit", "--frf-dir", "frfs", "--scenario", "adult", "--out", "tfit.coeff"],
     {"frf_dir": "frfs", "scenario": "adult", "out": "tfit.coeff"}),
    (["design", "--frf-dir", "frfs", "--scenario", "adult", "--out", "rc.filterset"],
     {"frf_dir": "frfs", "scenario": "adult", "out": "rc.filterset", **DESIGN_DEFAULTS}),
    (["check-stability", "--filterset", "rc.filterset", "--frf-dir", "frfs"],
     {"filterset": "rc.filterset", "frf_dir": "frfs", "report": None}),
    (["compare", "--baseline", "a.csv", "--candidate", "b.csv"],
     {"baseline": "a.csv", "candidate": "b.csv", "out": None}),
])
def test_parser_defaults_are_the_harness_constants(argv, expected):
    # each subcommand's complete option set, its defaults the package's constants:
    # the identification protocol has no option but the seed
    args = vars(build_parser().parse_args(argv))
    assert {name: value for name, value in args.items()
            if name not in ("command", "func")} == expected


def test_identify_writes_frf(tmp_path):
    out = tmp_path / "frf.csv"
    rc = main(["identify", "--scenario", "adult", "--level", "peep", "--out", str(out)])
    assert rc == 0
    frf = load_frf(out, 0.002)
    assert len(frf) > 400 and frf.frequencies_hz[-1] >= 0.98 * 250.0


def test_identify_uses_the_pipeline_grid(pipeline_dir, tmp_path):
    # default identify excites the grid that `ventrc all` designs on, which
    # reaches Nyquist, so the stability check on it does not warn
    out = tmp_path / "frf.csv"
    assert main(["identify", "--scenario", "adult", "--level", "peep", "--out", str(out)]) == 0
    frf = load_frf(out, 0.002)
    pipeline_grid = load_frf(pipeline_dir / "frf_adult_peep.csv", 0.002).frequencies_hz
    assert frf.frequencies_hz.tobytes() == pipeline_grid.tobytes()
    fs = load_filterset(pipeline_dir / "rc_adult.filterset")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_stability(fs.q_kernel, fs.l_causal, fs.l_shift, {"adult_peep": frf})


@pytest.mark.parametrize("scenario, level", [("adult", "peep"), ("baby", "ipap")])
def test_identify_repeats_the_pipeline_job(pipeline_dir, tmp_path, scenario, level):
    # pipeline_dir ran `ventrc all --seed 0`
    out = tmp_path / "frf.csv"
    rc = main(["identify", "--scenario", scenario, "--level", level, "--out", str(out),
               "--seed", "0"])
    assert rc == 0
    assert out.read_bytes() == (pipeline_dir / f"frf_{scenario}_{level}.csv").read_bytes()


def test_identify_accepts_cfg_path(tmp_path):
    from ventrc.plant import load_scenario, save_scenario

    scenario, circuit = load_scenario("baby")
    cfg = tmp_path / "custom.cfg"
    save_scenario(scenario, circuit, cfg)
    out = tmp_path / "frf.csv"
    rc = main(["identify", "--scenario", str(cfg), "--level", "ipap", "--out", str(out)])
    assert rc == 0 and out.exists()


@pytest.mark.parametrize("files", [[], ["frf_mean.csv", "notes.csv"]])
def test_frf_dir_without_responses_rejected(tmp_path, files):
    # the mean is not one of the responses
    for name in files:
        (tmp_path / name).write_text("")
    with pytest.raises(VentrcError) as exc:
        cli._load_frf_dir(tmp_path, 0.002, "scenario adult")
    assert str(exc.value) == f"no frf_*.csv files in {tmp_path}"


def test_fit_command(pipeline_dir, tmp_path):
    out = tmp_path / "model.coeff"
    rc = main(["fit", "--frf-dir", str(pipeline_dir),
               "--scenario", "adult", "--out", str(out)])
    assert rc == 0
    from ventrc.lti import load_transfer_function
    tf = load_transfer_function(out)
    assert tf.pure_delay == 12
    assert len(tf.denominator_coeffs) == 5


def test_design_command(pipeline_dir, tmp_path):
    out = tmp_path / "rc.filterset"
    rc = main(["design", "--frf-dir", str(pipeline_dir), "--scenario", "baby",
               "--out", str(out)])
    assert rc == 0
    fs = load_filterset(out)
    assert fs.period_n == 1000   # the baby's 2 s breath at 2 ms
    assert len(fs.q_kernel.taps) == 51
    # the responses `all` wrote give the filter set `all` wrote
    assert out.read_bytes() == (pipeline_dir / "rc_baby.filterset").read_bytes()


def test_design_fails_loudly_on_high_cutoff(pipeline_dir, tmp_path, capsys):
    rc = main(["design", "--frf-dir", str(pipeline_dir), "--scenario", "adult",
               "--cutoff-hz", "200", "--out", str(tmp_path / "x.filterset")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: stability bound failed: overall max " in err
    assert_stability_table(err)
    assert not (tmp_path / "x.filterset").exists()


def assert_stability_table(err):
    """err holds a failed report's summary: each response's line, then the verdict."""
    names = [f"  {name}_{level}: max |Q(1-TL)| = " for name, level in sorted(IDENT_JOBS)]
    lines = err.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith(names[0])]
    assert len(starts) == 1, err
    table = lines[starts[0]:starts[0] + len(names) + 1]
    assert [line[:len(name)] for line, name in zip(table, names)] == names
    assert table[-1].startswith("  overall max ") and table[-1].split()[4] == "FAIL"


def adult_with(path, **changes):
    """The adult scenario with some patient or circuit fields changed, saved to path."""
    scenario, circuit = load_scenario("adult")
    save_scenario(replace(scenario, **{k: v for k, v in changes.items() if k in vars(scenario)}),
                  replace(circuit, **{k: v for k, v in changes.items() if k in vars(circuit)}),
                  path)
    return path


@pytest.mark.parametrize("options, message", [
    (["--cutoff-hz", "nan"], "cutoff_hz must be positive, got nan"),
    (["--cutoff-hz", "0"], "cutoff_hz must be positive, got 0.0"),
    # a 60 ms breath is 30 samples, and the design's l_shift 13 plus the q
    # shift 25 fill them all
    ({"respiratory_rate": 1000.0, "t_insp": 0.03, "t_exp": 0.03},
     "shift budget violated: l_shift 13 + q shift 25 leaves no memory in period 30"),
    # the cutoff must lie below the Nyquist frequency
    (["--cutoff-hz", "250"], "cutoff_hz must be < 250.0, got 250.0"),
    # the FRFs reach 250 Hz, above the Nyquist frequency of 4 ms sampling
    ({"sample_time": 0.004}, "{frf_dir}/frf_adult_ipap.csv (sample_time 0.004): "
                             "frequencies must lie in (0, 125.0] Hz"),
])
def test_design_rejects_bad_request(pipeline_dir, tmp_path, capsys, options, message):
    # options: command-line options for the adult, or changes to its scenario file
    if isinstance(options, dict):
        options = ["--scenario", str(adult_with(tmp_path / "changed.cfg", **options))]
    else:
        options = ["--scenario", "adult"] + options
    out = tmp_path / "rc.filterset"
    rc = main(["design", "--frf-dir", str(pipeline_dir), "--out", str(out)] + options)
    assert rc == 1
    assert f"error: {message.format(frf_dir=pipeline_dir)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "design"])
def test_fit_band_keeps_too_few_bins(tmp_path, capsys, command):
    # 4 bins inside the 0-40 Hz fit band cannot determine the 9 parameters of
    # an order-4 fit; the grid reaches the Nyquist frequency
    save_frf(FrequencyResponse([1.0, 2.0, 5.0, 20.0, 249.5], [1.0, 0.9, 0.7j, -0.2, 0.01],
                               0.002),
             tmp_path / "frf_x.csv")
    out = tmp_path / "out"
    rc = main([command, "--frf-dir", str(tmp_path), "--scenario", "adult", "--out", str(out)])
    assert rc == 1
    assert ("error: fit band [0.0, 40.0] Hz keeps too few bins for an order-4 fit"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "check-stability"])
def test_mismatched_frf_grids_rejected(pipeline_dir, tmp_path, capsys, command):
    first, second = tmp_path / "frf_a.csv", tmp_path / "frf_b.csv"
    lines = (pipeline_dir / "frf_adult_peep.csv").read_text().splitlines(keepends=True)
    first.write_text("".join(lines))
    second.write_text("".join(lines[:-1]))   # one bin short
    options = {"design": ["--scenario", "adult", "--out", str(tmp_path / "rc.filterset")],
               "check-stability": ["--filterset", str(pipeline_dir / "rc_adult.filterset")]}
    rc = main([command, "--frf-dir", str(tmp_path)] + options[command])
    assert rc == 1
    assert (f"error: {second}: frequency grid differs from that of {first}"
            in capsys.readouterr().err)
    assert not (tmp_path / "rc.filterset").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["fit", "design", "check-stability"])
def test_non_finite_frf_rejected(pipeline_dir, tmp_path, capsys, command, value):
    # a response that is not finite fits nothing and certifies nothing
    frf = tmp_path / "frf_adult_peep.csv"
    lines = (pipeline_dir / "frf_adult_peep.csv").read_text().splitlines(keepends=True)
    freq, _, imag = lines[3].split(",")
    lines[3] = f"{freq},{value},{imag}"
    frf.write_text("".join(lines))
    out = tmp_path / "out"
    options = {"fit": ["--scenario", "adult", "--out", str(out)],
               "design": ["--scenario", "adult", "--out", str(out)],
               "check-stability": ["--filterset", str(pipeline_dir / "rc_adult.filterset")]}
    rc = main([command, "--frf-dir", str(tmp_path)] + options[command])
    assert rc == 1
    assert (f"error: {frf} (sample_time 0.002): frequencies and values must be finite"
            in capsys.readouterr().err)
    assert not out.exists()


def test_check_stability_command(pipeline_dir, tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc = main(["check-stability", "--filterset", str(pipeline_dir / "rc_adult.filterset"),
               "--frf-dir", str(pipeline_dir), "--report", str(report)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert report.exists()


def test_check_stability_refuses_an_unstable_learning_filter(pipeline_dir, tmp_path, capsys,
                                                            unstable_filterset):
    path = tmp_path / "unstable.filterset"
    save_filterset(unstable_filterset, path)
    rc = main(["check-stability", "--filterset", str(path), "--frf-dir", str(pipeline_dir)])
    assert rc == 1
    assert "error: unstable filter: a pole at |z| = 1.05 >= 1" in capsys.readouterr().err


def test_check_stability_rejects_truncated_filterset(pipeline_dir, tmp_path, capsys):
    cut = tmp_path / "cut.filterset"
    lines = (pipeline_dir / "rc_adult.filterset").read_text().splitlines(keepends=True)
    cut.write_text("".join(lines[:8]))
    rc = main(["check-stability", "--filterset", str(cut), "--frf-dir", str(pipeline_dir)])
    assert rc == 1
    assert f"error: {cut}: field 'l_num' declares" in capsys.readouterr().err


def test_run_and_compare_commands(pipeline_dir, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["run", "--scenario", "baby", "--breaths", "6",
               "--filterset", str(pipeline_dir / "rc_baby.filterset"),
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert "baby / rc: 6 breaths" in capsys.readouterr().out
    rc = main(["run", "--scenario", "baby", "--breaths", "6",
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert "baby / pid: 6 breaths" in capsys.readouterr().out
    cmp_out = tmp_path / "cmp.csv"
    rc = main(["compare", "--baseline", str(out_dir / "baby_pid_breath_norms.csv"),
               "--candidate", str(out_dir / "baby_rc_breath_norms.csv"),
               "--out", str(cmp_out)])
    assert rc == 0
    assert "converged ratio" in capsys.readouterr().out
    assert cmp_out.exists()


def test_run_rejects_period_mismatch(pipeline_dir, tmp_path, capsys):
    rc = main(["run", "--scenario", "adult", "--breaths", "2",
               "--filterset", str(pipeline_dir / "rc_baby.filterset"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "period" in capsys.readouterr().err


def test_run_rejects_missing_filterset(tmp_path, capsys):
    # --filterset makes the run rc, so a filter set that cannot be read stops it
    missing = tmp_path / "missing.filterset"
    rc = main(["run", "--scenario", "baby", "--breaths", "1", "--filterset", str(missing),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert f"error: {missing}: cannot open: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_unknown_scenario_errors(tmp_path, capsys):
    rc = main(["run", "--scenario", "walrus", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "built-ins" in capsys.readouterr().err


def test_missing_scenario_file_named_as_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--scenario", "runs/p7.cfg", "--out-dir", "out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "scenario 'runs/p7.cfg': no such file, and not a built-in" in err
    assert "built-ins: ['adult', 'baby', 'pediatric']" in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_bad_scenario_value(tmp_path, capsys):
    from ventrc.plant import load_scenario, save_scenario

    scenario, circuit = load_scenario("adult")
    cfg = tmp_path / "bad.cfg"
    save_scenario(scenario, circuit, cfg)
    cfg.write_text(cfg.read_text().replace("r_lung = 5.0", "r_lung = abc"))
    rc = main(["run", "--scenario", str(cfg), "--breaths", "1",
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert f"error: {cfg}: field 'r_lung': 'abc' is not a valid float" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "file is empty"),
    ("breath,norm\n1,2.5\n", "expected header ['breath', 'error_norm'], got ['breath', 'norm']"),
    ("breath,error_norm\n1,2.5\n2\n",
     "line 3: expected 2 fields ['breath', 'error_norm'], got ['2']"),
    ("breath,error_norm\n", "no ['breath', 'error_norm'] rows after the header"),
    (None, "cannot open: No such file or directory"),
])
def test_compare_rejects_malformed_norms(tmp_path, capsys, text, message):
    good = tmp_path / "good.csv"
    good.write_text("breath,error_norm\n1,2.5\n2,1.5\n")
    bad = tmp_path / "bad.csv"
    if text is not None:  # None: the file is missing
        bad.write_text(text)
    rc = main(["compare", "--baseline", str(good), "--candidate", str(bad)])
    assert rc == 1
    assert f"error: {bad}: {message}" in capsys.readouterr().err


def test_compare_rejects_unequal_breath_counts(tmp_path, capsys):
    good, short = tmp_path / "good.csv", tmp_path / "short.csv"
    good.write_text("breath,error_norm\n1,2.5\n2,1.5\n")
    short.write_text("breath,error_norm\n1,2.5\n")
    rc = main(["compare", "--baseline", str(good), "--candidate", str(short)])
    assert rc == 1
    assert capsys.readouterr().err == "error: breath counts differ: 2 vs 1\n"


def test_compare_rejects_a_norm_that_is_not_finite(pipeline_dir, tmp_path, capsys):
    # all's rc norms with the last breath's norm replaced by nan
    pid = pipeline_dir / "adult" / "adult_pid_breath_norms.csv"
    breath, norms = read_table(pipeline_dir / "adult" / "adult_rc_breath_norms.csv", NORMS_HEADER)
    norms[-1] = float("nan")
    bad = tmp_path / "adult_rc_breath_norms.csv"
    write_table(bad, NORMS_HEADER, [breath.astype(int), norms])
    rc = main(["compare", "--baseline", str(pid), "--candidate", str(bad)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: candidate norm of breath {len(norms)} is nan: "
                   "norms must be finite and >= 0\n")


IDENTIFY = ["identify", "--scenario", "adult", "--level", "peep"]


@pytest.mark.parametrize("option, value, message", [
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_identify_rejects_bad_option(tmp_path, capsys, option, value, message):
    rc = main(IDENTIFY + ["--out", str(tmp_path / "frf.csv"), option, value])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "frf.csv").exists()


@pytest.mark.parametrize("options, message", [
    # the responses are read at the scenario's sample time: at 1 ms their grid
    # stops short of the Nyquist frequency, at 4 ms it runs past it
    ({"sample_time": 0.001}, "{frf_dir}/frf_adult_ipap.csv: top bin 249.5 Hz stops below "
                             "the Nyquist frequency 500 Hz of scenario "),
    ({"sample_time": 0.004}, "{frf_dir}/frf_adult_ipap.csv (sample_time 0.004): "
                             "frequencies must lie in (0, 125.0] Hz"),
])
def test_fit_rejects_bad_request(pipeline_dir, tmp_path, capsys, options, message):
    # options: command-line options for the adult, or changes to its scenario file
    if isinstance(options, dict):
        options = ["--scenario", str(adult_with(tmp_path / "changed.cfg", **options))]
    else:
        options = ["--scenario", "adult"] + options
    out = tmp_path / "model.coeff"
    rc = main(["fit", "--frf-dir", str(pipeline_dir), "--out", str(out)] + options)
    assert rc == 1
    assert f"error: {message.format(frf_dir=pipeline_dir)}" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_negative_noise(tmp_path, capsys):
    rc = main(["run", "--scenario", "baby", "--breaths", "1",
               "--noise-rms", "-0.5", "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert "error: measurement_noise_rms must be >= 0, got -0.5" in capsys.readouterr().err


RUN = ["run", "--scenario", "baby", "--breaths", "1"]


@pytest.mark.parametrize("option, value, message", [
    ("--noise-rms", "inf", "measurement_noise_rms must be finite, got inf"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_run_rejects_bad_option(tmp_path, capsys, option, value, message):
    rc = main(RUN + ["--out-dir", str(tmp_path / "run"), option, value])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_into_a_file_rejected(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    rc = main(RUN + ["--out-dir", str(afile)])
    assert rc == 1
    assert f"error: {afile}/baby_pid_trace.csv: cannot write: " in capsys.readouterr().err


@pytest.mark.parametrize("source, argv", [
    ("frf_adult_peep.csv",
     ["fit", "--frf-dir", "{tmp}", "--scenario", "adult", "--out", "{tmp}/model.coeff"]),
    ("adult/adult_pid_breath_norms.csv",
     ["compare", "--baseline", "{source}", "--candidate", "{bad}"]),
    ("rc_adult.filterset", ["check-stability", "--filterset", "{bad}", "--frf-dir", "{dir}"]),
    (None, ["run", "--scenario", "{bad}", "--breaths", "1",
            "--out-dir", "{tmp}/run"]),
])
def test_input_that_is_not_utf8_rejected(pipeline_dir, tmp_path, capsys, source, argv):
    # a written input saved as UTF-16, which starts with the bytes 0xff 0xfe
    source = pipeline_dir / source if source else resolve_scenario_path("adult")
    bad = tmp_path / f"{source.stem}_utf16{source.suffix}"   # frf_*.csv stays frf_*.csv
    bad.write_bytes(b"\xff\xfe" + source.read_text().encode("utf-16-le"))
    rc = main([a.format(bad=bad, tmp=tmp_path, source=source, dir=pipeline_dir) for a in argv])
    assert rc == 1
    assert f"error: {bad}: not UTF-8 text: byte 0 is 0xff" in capsys.readouterr().err


# each command writes its output into {out}, a directory that does not exist
# yet, or that is an existing directory and cannot be written as a file
WRITERS = {
    "identify": ["identify", "--scenario", "baby", "--level", "peep", "--out", "{out}"],
    "fit": ["fit", "--frf-dir", "{dir}", "--scenario", "adult", "--out", "{out}"],
    "design": ["design", "--frf-dir", "{dir}", "--scenario", "adult", "--out", "{out}"],
    "compare": ["compare", "--baseline", "{dir}/adult/adult_pid_breath_norms.csv",
                "--candidate", "{dir}/adult/adult_rc_breath_norms.csv", "--out", "{out}"],
    "check-stability": ["check-stability", "--filterset", "{dir}/rc_adult.filterset",
                        "--frf-dir", "{dir}", "--report", "{out}"],
}


@pytest.mark.parametrize("command", WRITERS)
def test_output_into_missing_directory(pipeline_dir, tmp_path, command):
    out = tmp_path / "new" / "sub" / "output"
    rc = main([a.format(dir=pipeline_dir, out=out) for a in WRITERS[command]])
    assert rc == 0
    assert out.is_file()


@pytest.mark.parametrize("command", WRITERS)
def test_output_onto_directory_rejected(pipeline_dir, tmp_path, capsys, command):
    rc = main([a.format(dir=pipeline_dir, out=tmp_path) for a in WRITERS[command]])
    assert rc == 1
    assert f"error: {tmp_path}: cannot write: " in capsys.readouterr().err


def test_all_rejects_zero_breaths_before_writing(tmp_path, capsys):
    rc = main(["all", "--out-dir", str(tmp_path), "--breaths", "0"])
    assert rc == 1
    assert "error: breaths must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_all_rejects_negative_seed_before_writing(tmp_path, capsys):
    rc = main(["all", "--out-dir", str(tmp_path), "--seed", "-1"])
    assert rc == 1
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_all_rejects_bad_cutoff_before_writing(tmp_path, capsys):
    # a cutoff that design_q_fir would reject fails before the first
    # identification job
    out = tmp_path / "out"
    rc = main(["all", "--out-dir", str(out), "--cutoff-hz", "300"])
    assert rc == 1
    assert "error: cutoff_hz must be < 250.0, got 300.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["design", "--frf-dir", "frfs", "--scenario", "adult", "--out", "rc.filterset",
     "--q-order", "50"],
    ["all", "--out-dir", "out", "--min-margin", "0.05"],
])
def test_filter_order_and_margin_are_not_options(tmp_path, capsys, monkeypatch, argv):
    # the robustness filter's order and the required margin are the
    # constants Q_ORDER and MIN_MARGIN; only the cutoff is a design option
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_all_reports_helper_write_error(tmp_path, capsys):
    # the helper process cannot write the adult rc trace: the run stops there,
    # names the path, and leaves no child process behind
    blocked = tmp_path / "adult" / "adult_rc_trace.csv"
    blocked.mkdir(parents=True)
    rc = main(["all", "--out-dir", str(tmp_path), "--breaths", "2"])
    assert rc == 1
    assert f"error: {blocked}: cannot write: " in capsys.readouterr().err
    # every run precedes the reports, but none of the next scenario's files
    # is written
    assert not (tmp_path / "pediatric").exists()
    assert not (tmp_path / "rc_pediatric.filterset").exists()
    assert multiprocessing.active_children() == []


def test_all_stops_at_a_failed_run_before_any_report(tmp_path, capsys, monkeypatch):
    # every run precedes the first report: a run that fails stops `all` before
    # any scenario's reports or filter set is written
    run = harness.run_experiment

    def failing_run(spec):
        if (spec.scenario, spec.mode) == ("pediatric", "rc"):
            raise ExperimentDiverged("pediatric rc diverged")
        return run(spec)

    monkeypatch.setattr(harness, "run_experiment", failing_run)
    rc = main(["all", "--out-dir", str(tmp_path), "--breaths", "2"])
    assert rc == 1
    assert "error: pediatric rc diverged" in capsys.readouterr().err
    assert not (tmp_path / "adult").exists()
    assert list(tmp_path.glob("rc_*.filterset")) == []
    assert multiprocessing.active_children() == []


def test_all_reports_the_failed_stability_table(tmp_path, capsys):
    # seed 5's responses fail the bound of the default design: `all` stops
    # before any run, printing the error and every response's maximum
    rc = main(["all", "--seed", "5", "--breaths", "2", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: stability bound failed: overall max " in err
    assert_stability_table(err)
    assert not (tmp_path / "adult").exists()


@pytest.mark.parametrize("command", ["fit", "design", "check-stability"])
def test_responses_of_another_sample_time_rejected(tmp_path, capsys, command):
    # 2 ms responses stop at 249.5 Hz, well below the 500 Hz Nyquist
    # frequency of a 1 ms copy of the adult or of a 1 ms filter set
    frfs = tmp_path / "frfs"
    for level in IDENT_LEVELS:
        assert main(["identify", "--scenario", "adult", "--level", level,
                     "--out", str(frfs / f"frf_adult_{level}.csv")]) == 0
    out = tmp_path / "out"
    if command == "check-stability":
        source = tmp_path / "rc_1ms.filterset"
        l_causal = DiscreteTransferFunction([1.0], [1.0], 0, 0.001)
        save_filterset(RcFilterSet(l_causal, 0, design_q_fir(23.0, 50, 0.001), 1000), source)
        argv = [command, "--filterset", str(source), "--frf-dir", str(frfs),
                "--report", str(out)]
        named = f"filter set {source}"
    else:
        source = adult_with(tmp_path / "adult_1ms.cfg", sample_time=0.001)
        argv = [command, "--frf-dir", str(frfs), "--scenario", str(source), "--out", str(out)]
        named = f"scenario {source}"
    assert main(argv) == 1
    assert (f"error: {frfs / 'frf_adult_ipap.csv'}: top bin 249.5 Hz stops below the "
            f"Nyquist frequency 500 Hz of {named} (sample time 0.001 s)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_stage_commands_write_the_files_of_all(tmp_path):
    # the stage commands, given the settings of an `all` run, write its
    # design files and its adult files byte for byte
    settings = ["--seed", "0"]
    whole, stages = tmp_path / "all", tmp_path / "stages"
    assert main(["all", "--out-dir", str(whole), "--breaths", "2"] + settings) == 0
    frfs, adult, filterset = stages / "frfs", stages / "adult", stages / "rc_adult.filterset"
    for name, level in IDENT_JOBS:
        assert main(["identify", "--scenario", name, "--level", level,
                     "--out", str(frfs / f"frf_{name}_{level}.csv")] + settings) == 0
    for argv in (
        ["fit", "--frf-dir", frfs, "--scenario", "adult", "--out", stages / "tfit.coeff"],
        ["design", "--frf-dir", frfs, "--scenario", "adult", "--out", filterset],
        ["check-stability", "--filterset", filterset, "--frf-dir", frfs,
         "--report", stages / "stability_report.csv"],
        ["run", "--scenario", "adult", "--breaths", "2", "--out-dir", adult],
        ["run", "--scenario", "adult", "--breaths", "2",
         "--filterset", filterset, "--out-dir", adult],
        ["compare", "--baseline", adult / "adult_pid_breath_norms.csv",
         "--candidate", adult / "adult_rc_breath_norms.csv",
         "--out", adult / "adult_comparison.csv"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    written = sorted(str(p.relative_to(stages)) for p in stages.rglob("*")
                     if p.is_file() and p.parent != frfs)
    assert len(written) == 3 + 9   # the 8 files of the two runs and the comparison
    for name in written:
        assert (stages / name).read_bytes() == (whole / name).read_bytes(), name


def test_readme_stages_run_as_written(tmp_path, monkeypatch):
    # every command of the README's "Individual stages" block, in order
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Individual stages:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(c[0] == "ventrc" for c in commands)
    commands = [c[1:] for c in commands]
    assert [c[0] for c in commands] == (["identify"] * 6
                                        + ["fit", "design", "check-stability", "run", "run",
                                           "compare"])
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
