import xml.etree.ElementTree as ET

import pytest

from ventrc.cli import main
from ventrc.rc_design import load_filterset
from ventrc.lti import FrequencyResponse
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


def test_identify_writes_frf(tmp_path):
    out = tmp_path / "frf.csv"
    rc = main(["identify", "--scenario", "adult", "--level", "peep",
               "--out", str(out), "--bins", "8", "--periods", "3",
               "--discard", "2", "--period-samples", "500"])
    assert rc == 0
    frf = load_frf(out)
    assert 0 < len(frf) <= 8


def test_identify_accepts_cfg_path(tmp_path):
    from ventrc.plant import load_scenario, save_scenario

    scenario, circuit = load_scenario("baby")
    cfg = tmp_path / "custom.cfg"
    save_scenario(scenario, circuit, cfg)
    out = tmp_path / "frf.csv"
    rc = main(["identify", "--scenario", str(cfg), "--level", "ipap",
               "--out", str(out), "--bins", "6", "--periods", "3",
               "--discard", "2", "--period-samples", "500"])
    assert rc == 0 and out.exists()


def test_fit_command(pipeline_dir, tmp_path):
    out = tmp_path / "model.coeff"
    rc = main(["fit", "--order", "4", "--delay", "12",
               "--in", str(pipeline_dir / "frf_mean.csv"), "--out", str(out)])
    assert rc == 0
    from ventrc.lti import load_transfer_function
    tf = load_transfer_function(out)
    assert tf.pure_delay == 12
    assert len(tf.denominator_coeffs) == 5


def test_design_command(pipeline_dir, tmp_path):
    out = tmp_path / "rc.filterset"
    rc = main(["design", "--frf-dir", str(pipeline_dir), "--period-n", "2000",
               "--out", str(out)])
    assert rc == 0
    fs = load_filterset(out)
    assert fs.period_n == 2000
    assert len(fs.q_kernel.taps) == 51


def test_design_fails_loudly_on_high_cutoff(pipeline_dir, tmp_path, capsys):
    rc = main(["design", "--frf-dir", str(pipeline_dir), "--period-n", "2000",
               "--cutoff-hz", "200", "--out", str(tmp_path / "x.filterset")])
    assert rc == 1
    assert "design failed" in capsys.readouterr().err


@pytest.mark.parametrize("options, message", [
    (["--q-order", "3"], "order must be a positive even integer, got 3"),
    (["--cutoff-hz", "0"], "cutoff must lie in (0, 250.0) Hz, got 0.0"),
    # the design's l_shift 13 plus the q shift 25 fill the whole period
    (["--period-n", "38"], "shift budget violated: l_shift 13 + q shift 25 leaves no "
                           "memory in period 38"),
])
def test_design_rejects_bad_request(pipeline_dir, tmp_path, capsys, options, message):
    out = tmp_path / "rc.filterset"
    rc = main(["design", "--frf-dir", str(pipeline_dir), "--out", str(out)] + options)
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


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
    ("breath,norm\n1,2.5\n", "no 'error_norm' column in header ['breath', 'norm']"),
    ("breath,error_norm\n1,2.5\n2\n",
     "line 3: no number in column 'error_norm', got ['2']"),
    ("breath,error_norm\n", "no rows after the header"),
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


IDENTIFY = ["identify", "--scenario", "adult", "--level", "peep", "--bins", "6",
            "--periods", "2", "--discard", "1", "--period-samples", "500"]


@pytest.mark.parametrize("option, value, message", [
    ("--discard", "0", "periods_discarded must be >= 1, got 0"),
    ("--periods", "0", "periods_recorded must be >= 1, got 0"),
    ("--rms", "0", "rms_amplitude: excitation amplitude must be positive, got 0.0"),
    ("--noise-rms", "-1", "measurement_noise_rms must be >= 0, got -1.0"),
    ("--f-min", "0", "bins_hz: excitation frequencies must be finite and positive, got nan"),
    ("--f-min", "-1", "bins_hz: excitation frequencies must be finite and positive, got nan"),
])
def test_identify_rejects_bad_option(tmp_path, capsys, option, value, message):
    rc = main(IDENTIFY + ["--out", str(tmp_path / "frf.csv"), option, value])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "frf.csv").exists()


@pytest.mark.parametrize("options, message", [
    (["--order", "-1"], "order must be >= 0, got -1"),
    (["--band", "90", "95"], "0 bins cannot determine the 9 parameters of an order-4 fit"),
])
def test_fit_rejects_bad_request(tmp_path, capsys, options, message):
    frf = tmp_path / "frf.csv"
    save_frf(FrequencyResponse([1.0, 2.0, 5.0, 20.0], [1.0, 0.9, 0.7j, -0.2], 0.002), frf)
    rc = main(["fit", "--in", str(frf), "--out", str(tmp_path / "model.coeff")] + options)
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_run_rejects_negative_noise(tmp_path, capsys):
    rc = main(["run", "--scenario", "baby", "--mode", "pid", "--breaths", "1",
               "--noise-rms", "-0.5", "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert "error: measurement_noise_rms must be >= 0, got -0.5" in capsys.readouterr().err
