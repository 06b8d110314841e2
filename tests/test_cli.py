import multiprocessing
import shlex
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from ventrc.cli import build_parser, main
from ventrc.harness import (
    BREATHS, IDENT_JOBS, IDENT_LEVELS, IDENT_NOISE_RMS, IDENT_PERIODS, NORMS_HEADER, SEED,
    TRACE_HEADER,
)
from ventrc.rc_design import check_stability, load_filterset, save_filterset
from ventrc.lti import (
    FrequencyResponse, load_transfer_function, read_table, save_transfer_function, write_table,
)
from ventrc.plant import builtin_scenario_path, load_scenario, save_scenario
from ventrc.sysid import load_frf, save_frf

# the noisy design-grade fit legitimately stops at the iteration cap
pytestmark = pytest.mark.filterwarnings("ignore::ventrc.errors.FitConvergenceWarning")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small `ventrc all` run shared by the CLI tests."""
    out = tmp_path_factory.mktemp("pipeline")
    rc = main(["all", "--out-dir", str(out), "--breaths", "8", "--periods", "8",
               "--seed", "0"])
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
        rewrite(path, lambda copy: save_frf(load_frf(path), copy))
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


@pytest.mark.parametrize("argv, expected", [
    (["all", "--out-dir", "out"],
     {"breaths": BREATHS, "noise_rms": IDENT_NOISE_RMS, "periods": IDENT_PERIODS, "seed": SEED}),
    (["run", "--scenario", "adult", "--mode", "pid", "--out-dir", "out"],
     {"breaths": BREATHS, "seed": SEED}),
    (["identify", "--scenario", "adult", "--level", "peep", "--out", "frf.csv"],
     {"periods": IDENT_PERIODS, "noise_rms": IDENT_NOISE_RMS, "seed": SEED}),
])
def test_parser_defaults_are_the_harness_constants(argv, expected):
    args = vars(build_parser().parse_args(argv))
    assert {name: args[name] for name in expected} == expected


def test_identify_writes_frf(tmp_path):
    out = tmp_path / "frf.csv"
    rc = main(["identify", "--scenario", "adult", "--level", "peep",
               "--out", str(out), "--periods", "2"])
    assert rc == 0
    frf = load_frf(out)
    assert len(frf) > 400 and frf.frequencies_hz[-1] >= 0.98 * 250.0


def test_identify_uses_the_pipeline_grid(pipeline_dir, tmp_path):
    # default identify excites the grid that `ventrc all` designs on, which
    # reaches Nyquist, so the stability check on it does not warn
    out = tmp_path / "frf.csv"
    assert main(["identify", "--scenario", "adult", "--level", "peep", "--out", str(out)]) == 0
    frf = load_frf(out)
    pipeline_grid = load_frf(pipeline_dir / "frf_adult_peep.csv").frequencies_hz
    assert frf.frequencies_hz.tobytes() == pipeline_grid.tobytes()
    fs = load_filterset(pipeline_dir / "rc_adult.filterset")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_stability(fs.q_kernel, fs.l_causal, fs.l_shift, {"adult_peep": frf})


@pytest.mark.parametrize("scenario, level", [("adult", "peep"), ("baby", "ipap")])
def test_identify_repeats_the_pipeline_job(pipeline_dir, tmp_path, scenario, level):
    # pipeline_dir ran `ventrc all --periods 8 --seed 0`
    out = tmp_path / "frf.csv"
    rc = main(["identify", "--scenario", scenario, "--level", level, "--out", str(out),
               "--periods", "8", "--seed", "0"])
    assert rc == 0
    assert out.read_bytes() == (pipeline_dir / f"frf_{scenario}_{level}.csv").read_bytes()


def test_identify_accepts_cfg_path(tmp_path):
    from ventrc.plant import load_scenario, save_scenario

    scenario, circuit = load_scenario("baby")
    cfg = tmp_path / "custom.cfg"
    save_scenario(scenario, circuit, cfg)
    out = tmp_path / "frf.csv"
    rc = main(["identify", "--scenario", str(cfg), "--level", "ipap",
               "--out", str(out), "--periods", "2"])
    assert rc == 0 and out.exists()


def test_fit_command(pipeline_dir, tmp_path):
    out = tmp_path / "model.coeff"
    rc = main(["fit", "--order", "4", "--delay", "12", "--frf-dir", str(pipeline_dir),
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
    assert "design failed" in capsys.readouterr().err


def adult_with(path, **changes):
    """The adult scenario with some patient or circuit fields changed, saved to path."""
    scenario, circuit = load_scenario("adult")
    save_scenario(replace(scenario, **{k: v for k, v in changes.items() if k in vars(scenario)}),
                  replace(circuit, **{k: v for k, v in changes.items() if k in vars(circuit)}),
                  path)
    return path


@pytest.mark.parametrize("options, message", [
    (["--q-order", "3"], "order must be a positive even integer, got 3"),
    (["--cutoff-hz", "0"], "cutoff must lie in (0, 250.0) Hz, got 0.0"),
    # a 60 ms breath is 30 samples, and the design's l_shift 13 plus the q
    # shift 25 fill them all
    ({"respiratory_rate": 1000.0, "t_insp": 0.03, "t_exp": 0.03},
     "shift budget violated: l_shift 13 + q shift 25 leaves no memory in period 30"),
    (["--delay", "-1"], "fixed_delay_samples must be >= 0, got -1"),
    # the FRFs reach 250 Hz, above the Nyquist frequency of 4 ms sampling
    ({"sample_time": 0.004}, "{frf_dir}/frf_adult_ipap.csv (sample_time 0.004): "
                             "frequencies must lie in (0, 125.0] Hz"),
    (["--min-margin", "nan"], "min_margin must be >= 0, got nan"),
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
    # an order-4 fit
    save_frf(FrequencyResponse([1.0, 2.0, 5.0, 20.0], [1.0, 0.9, 0.7j, -0.2], 0.002),
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


def test_check_stability_command(pipeline_dir, tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc = main(["check-stability", "--filterset", str(pipeline_dir / "rc_adult.filterset"),
               "--frf-dir", str(pipeline_dir), "--report", str(report)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert report.exists()


def test_check_stability_rejects_truncated_filterset(pipeline_dir, tmp_path, capsys):
    cut = tmp_path / "cut.filterset"
    lines = (pipeline_dir / "rc_adult.filterset").read_text().splitlines(keepends=True)
    cut.write_text("".join(lines[:8]))
    rc = main(["check-stability", "--filterset", str(cut), "--frf-dir", str(pipeline_dir)])
    assert rc == 1
    assert f"error: {cut}: field 'l_num' declares" in capsys.readouterr().err


def test_run_and_compare_commands(pipeline_dir, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["run", "--scenario", "baby", "--mode", "rc", "--breaths", "6",
               "--filterset", str(pipeline_dir / "rc_baby.filterset"),
               "--out-dir", str(out_dir)])
    assert rc == 0
    rc = main(["run", "--scenario", "baby", "--mode", "pid", "--breaths", "6",
               "--out-dir", str(out_dir)])
    assert rc == 0
    cmp_out = tmp_path / "cmp.csv"
    rc = main(["compare", "--baseline", str(out_dir / "baby_pid_breath_norms.csv"),
               "--candidate", str(out_dir / "baby_rc_breath_norms.csv"),
               "--out", str(cmp_out)])
    assert rc == 0
    assert "converged ratio" in capsys.readouterr().out
    assert cmp_out.exists()


def test_run_rejects_period_mismatch(pipeline_dir, tmp_path, capsys):
    rc = main(["run", "--scenario", "adult", "--mode", "rc", "--breaths", "2",
               "--filterset", str(pipeline_dir / "rc_baby.filterset"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "period" in capsys.readouterr().err


def test_unknown_scenario_errors(tmp_path, capsys):
    rc = main(["run", "--scenario", "walrus", "--mode", "pid",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "built-ins" in capsys.readouterr().err


def test_run_rejects_bad_scenario_value(tmp_path, capsys):
    from ventrc.plant import load_scenario, save_scenario

    scenario, circuit = load_scenario("adult")
    cfg = tmp_path / "bad.cfg"
    save_scenario(scenario, circuit, cfg)
    cfg.write_text(cfg.read_text().replace("r_lung = 5.0", "r_lung = abc"))
    rc = main(["run", "--scenario", str(cfg), "--mode", "pid", "--breaths", "1",
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


IDENTIFY = ["identify", "--scenario", "adult", "--level", "peep", "--periods", "2"]


@pytest.mark.parametrize("option, value, message", [
    ("--periods", "0", "periods_recorded must be >= 1, got 0"),
    ("--noise-rms", "-1", "measurement_noise_rms must be >= 0, got -1.0"),
    ("--noise-rms", "inf", "measurement_noise_rms must be finite, got inf"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_identify_rejects_bad_option(tmp_path, capsys, option, value, message):
    rc = main(IDENTIFY + ["--out", str(tmp_path / "frf.csv"), option, value])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "frf.csv").exists()


@pytest.mark.parametrize("options, message", [
    (["--order", "-1"], "order must be >= 0, got -1"),
    # the responses are read at the scenario's sample time
    ({"sample_time": 0.004}, "{frf_dir}/frf_adult_ipap.csv (sample_time 0.004): "
                             "frequencies must lie in (0, 125.0] Hz"),
    (["--delay", "-1"], "fixed_delay_samples must be >= 0, got -1"),
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
    rc = main(["run", "--scenario", "baby", "--mode", "pid", "--breaths", "1",
               "--noise-rms", "-0.5", "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert "error: measurement_noise_rms must be >= 0, got -0.5" in capsys.readouterr().err


RUN = ["run", "--scenario", "baby", "--mode", "pid", "--breaths", "1"]


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
    (None, ["run", "--scenario", "{bad}", "--mode", "pid", "--breaths", "1",
            "--out-dir", "{tmp}/run"]),
])
def test_input_that_is_not_utf8_rejected(pipeline_dir, tmp_path, capsys, source, argv):
    # a written input saved as UTF-16, which starts with the bytes 0xff 0xfe
    source = pipeline_dir / source if source else builtin_scenario_path("adult")
    bad = tmp_path / f"{source.stem}_utf16{source.suffix}"   # frf_*.csv stays frf_*.csv
    bad.write_bytes(b"\xff\xfe" + source.read_text().encode("utf-16-le"))
    rc = main([a.format(bad=bad, tmp=tmp_path, source=source, dir=pipeline_dir) for a in argv])
    assert rc == 1
    assert f"error: {bad}: not UTF-8 text: byte 0 is 0xff" in capsys.readouterr().err


# each command writes its output into {out}, a directory that does not exist
# yet, or that is an existing directory and cannot be written as a file
WRITERS = {
    "identify": ["identify", "--scenario", "baby", "--level", "peep", "--periods", "2",
                 "--out", "{out}"],
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


def test_all_rejects_nan_min_margin(tmp_path, capsys):
    # rejected before the first identification job, like a negative margin
    for margin, shown in (("nan", "nan"), ("-1", "-1.0")):
        out = tmp_path / margin
        rc = main(["all", "--out-dir", str(out), "--periods", "1", "--min-margin", margin])
        assert rc == 1
        assert f"error: min_margin must be >= 0, got {shown}" in capsys.readouterr().err
        assert not out.exists()
        assert list(tmp_path.rglob("frf_*.csv")) == []


def test_all_reports_helper_write_error(tmp_path, capsys):
    # the helper process cannot write the adult rc trace: the run stops there,
    # names the path, and leaves no child process behind
    blocked = tmp_path / "adult" / "adult_rc_trace.csv"
    blocked.mkdir(parents=True)
    rc = main(["all", "--out-dir", str(tmp_path), "--breaths", "2", "--periods", "2"])
    assert rc == 1
    assert f"error: {blocked}: cannot write: " in capsys.readouterr().err
    assert not (tmp_path / "pediatric").exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["fit", "design"])
def test_responses_of_another_sample_time_rejected(tmp_path, capsys, command):
    # 2 ms responses stop at 249.5 Hz, well below the 500 Hz Nyquist
    # frequency of a 1 ms copy of the adult
    frfs = tmp_path / "frfs"
    for level in IDENT_LEVELS:
        assert main(["identify", "--scenario", "adult", "--level", level, "--periods", "2",
                     "--out", str(frfs / f"frf_adult_{level}.csv")]) == 0
    scenario = adult_with(tmp_path / "adult_1ms.cfg", sample_time=0.001)
    out = tmp_path / "out"
    rc = main([command, "--frf-dir", str(frfs), "--scenario", str(scenario), "--out", str(out)])
    assert rc == 1
    assert (f"error: {frfs / 'frf_adult_ipap.csv'}: top bin 249.5 Hz stops below the "
            f"Nyquist frequency 500 Hz of scenario {scenario}" in capsys.readouterr().err)
    assert not out.exists()


def test_stage_commands_write_the_files_of_all(tmp_path):
    # the stage commands, given the settings of an `all` run, write its
    # design files and its adult files byte for byte
    settings = ["--periods", "2", "--seed", "0"]
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
        ["run", "--scenario", "adult", "--mode", "pid", "--breaths", "2", "--out-dir", adult],
        ["run", "--scenario", "adult", "--mode", "rc", "--breaths", "2",
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
