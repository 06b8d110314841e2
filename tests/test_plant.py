import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ventrc.errors import ConfigurationError
from ventrc.harness import ExperimentSpec, run_experiment
from ventrc.plant import (
    MAX_PRESSURE_MBAR,
    CircuitParameters,
    PatientScenario,
    VentilatorPlant,
    load_scenario,
    reference_profile,
    resolve_scenario_path,
    save_scenario,
)

from filter_reference import filter_stream

TS = 0.002


def adult():
    return PatientScenario(r_lung=5.0, c_lung=0.050, respiratory_rate=15,
                           peep=5.0, ipap=15.0, t_insp=1.5, t_exp=2.5, name="adult")


def node_residual(p_aw, p_out, p_lung, circuit, patient):
    return ((p_out - p_aw) / circuit.r_hose
            - p_aw / circuit.r_leak
            - (p_aw - p_lung) / patient.r_lung)


def node_flows(p_out, p_lung, circuit, patient):
    """(p_aw, q_out, q_leak, q_pat) of one plant step from the given lung pressure.

    Without blower lag or delay the blower outlet pressure equals the command.
    """
    circuit = replace(circuit, blower_time_constant=0.0, blower_delay_samples=0)
    plant = VentilatorPlant(patient, circuit)
    plant.state.p_lung = p_lung
    plant.step(p_out)
    return plant.last_flows


class TestAirwayNode:
    def test_equilibrium_zero(self):
        p_aw, q_out, q_leak, q_pat = node_flows(0.0, 0.0, CircuitParameters(), adult())
        assert p_aw == q_out == q_leak == q_pat == 0.0

    def test_no_leak_equal_pressures(self):
        circuit = CircuitParameters(r_leak=math.inf)
        p_aw, q_out, q_leak, q_pat = node_flows(12.0, 12.0, circuit, adult())
        assert p_aw == pytest.approx(12.0, abs=1e-12)
        assert q_pat == pytest.approx(0.0, abs=1e-12)
        assert q_leak == 0.0

    def test_adult_node_against_scan(self):
        # independent oracle: bisection on the monotone node residual
        circuit = CircuitParameters(r_hose=5.0, r_leak=50.0)
        patient = adult()
        p_out, p_lung = 15.0, 5.0
        lo, hi = -50.0, 80.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if node_residual(mid, p_out, p_lung, circuit, patient) > 0:
                lo = mid
            else:
                hi = mid
        p_aw, q_out, q_leak, q_pat = node_flows(p_out, p_lung, circuit, patient)
        assert p_aw == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        # hand value from the three-resistor divider
        assert p_aw == pytest.approx((15 / 5 + 5 / 5) / (1 / 5 + 1 / 50 + 1 / 5), rel=1e-12)
        assert q_out == pytest.approx(q_leak + q_pat, abs=1e-12)

    def test_flow_balance_random(self):
        rng = np.random.default_rng(5)
        circuit = CircuitParameters()
        patient = adult()
        for _ in range(200):
            p_out, p_lung = rng.uniform(-40, 40, 2)
            p_aw, q_out, q_leak, q_pat = node_flows(p_out, p_lung, circuit, patient)
            assert abs(q_out - q_leak - q_pat) <= 1e-12


@pytest.mark.parametrize("field", ["blower_delay_samples", "measurement_delay_samples"])
def test_negative_delay_count_rejected(field):
    with pytest.raises(ConfigurationError, match=f"^{field} must be >= 0, got -1$"):
        CircuitParameters(**{field: -1})


@pytest.mark.parametrize("field", ["blower_delay_samples", "measurement_delay_samples"])
def test_fractional_delay_count_rejected(field):
    with pytest.raises(ConfigurationError, match=rf"^{field} must be an integer, got 2\.5$"):
        VentilatorPlant(adult(), CircuitParameters(**{field: 2.5})).state_space()


class TestStep:
    def test_zero_input_stays_zero(self):
        plant = VentilatorPlant(adult())
        for _ in range(200):
            measured, q_pat = plant.step(0.0)
            assert measured == 0.0 and q_pat == 0.0
        assert plant.state.p_lung == 0.0

    def test_constant_input_steady_state(self):
        # divider gain: R_leak / (R_leak + R_hose)
        plant = VentilatorPlant(adult())
        for _ in range(15000):  # 30 s
            measured, _ = plant.step(10.0)
        expected = 10.0 * 50.0 / 55.0
        assert plant.state.p_lung == pytest.approx(expected, abs=1e-6)
        assert measured == pytest.approx(plant.closed_form_tf().dc_gain() * 10.0, abs=1e-8)

    def test_degenerate_passthrough(self):
        circuit = CircuitParameters(r_hose=1e-9, blower_time_constant=0.0,
                                    blower_delay_samples=0, measurement_delay_samples=0)
        plant = VentilatorPlant(adult(), circuit)
        rng = np.random.default_rng(2)
        for u in rng.uniform(0, 30, 100):
            measured, _ = plant.step(u)
            assert measured == pytest.approx(u, abs=1e-6)

    def test_flow_balance_every_step(self):
        plant = VentilatorPlant(adult())
        rng = np.random.default_rng(11)
        for u in rng.normal(10.0, 5.0, 2000):
            plant.step(u)
            p_aw, q_out, q_leak, q_pat = plant.last_flows
            assert abs(q_out - q_leak - q_pat) <= 1e-12

    def test_bounded_states_for_bounded_input(self):
        plant = VentilatorPlant(adult())
        rng = np.random.default_rng(13)
        peak = 0.0
        for u in rng.uniform(-50, 50, 20000):
            measured, _ = plant.step(u)
            peak = max(peak, abs(measured), abs(plant.state.p_lung))
        assert peak < 100.0


class TestSensorNoise:
    def test_negative_noise_rejected(self):
        _, circuit = load_scenario("adult")
        for rms in (-0.5, math.nan):
            with pytest.raises(ConfigurationError, match="measurement_noise_rms"):
                VentilatorPlant(adult(), circuit, measurement_noise_rms=rms)

    def test_drawn_noise_equals_streaming_draws(self):
        # chunks of any length give the numbers peek/step add sample by sample
        _, circuit = load_scenario("adult")
        streaming = VentilatorPlant(adult(), circuit, measurement_noise_rms=0.03, seed=8)
        drawn = VentilatorPlant(adult(), circuit, measurement_noise_rms=0.03, seed=8)
        per_sample = []
        for _ in range(300):
            per_sample.append(streaming.peek_measurement())
            streaming.step(0.0)
        chunks = np.concatenate([drawn.draw_noise(m) for m in (1, 128, 7, 164)])
        assert np.array_equal(np.array(per_sample), chunks)
        assert np.array_equal(VentilatorPlant(adult(), circuit).draw_noise(5), np.zeros(5))


class TestClosedFormOracle:
    @pytest.mark.parametrize("name", ["adult", "pediatric", "baby"])
    def test_matches_step_on_white_noise(self, name):
        scenario, circuit = load_scenario(name)
        plant = VentilatorPlant(scenario, circuit)
        rng = np.random.default_rng(17)
        u = rng.normal(0.0, 1.0, 1500)
        streamed = np.array([plant.step(v)[0] for v in u])
        analytic = filter_stream(plant.closed_form_tf(), u)
        assert np.max(np.abs(streamed - analytic)) <= 1e-10

    def test_delay_field(self):
        circuit = CircuitParameters(blower_delay_samples=4, measurement_delay_samples=9)
        tf = VentilatorPlant(adult(), circuit).closed_form_tf()
        assert tf.pure_delay == 13

    def test_stable_poles(self):
        tf = VentilatorPlant(adult()).closed_form_tf()
        assert np.all(np.abs(tf.poles()) < 1.0)

    def test_linearity(self):
        scenario, circuit = load_scenario("adult")
        rng = np.random.default_rng(23)
        u1 = rng.normal(size=800)
        u2 = rng.normal(size=800)
        a, b = 2.5, -1.25

        def run(u):
            plant = VentilatorPlant(scenario, circuit)
            return np.array([plant.step(v)[0] for v in u])

        combined = run(a * u1 + b * u2)
        assert np.max(np.abs(combined - (a * run(u1) + b * run(u2)))) <= 1e-10


class TestReferenceProfile:
    def test_adult_shape(self):
        profile = reference_profile(adult(), TS)
        assert len(profile) == 2000
        assert np.all(profile[:750] == 15.0)
        assert np.all(profile[750:] == 5.0)

    def test_baby_shape(self):
        scenario, circuit = load_scenario("baby")
        profile = reference_profile(scenario, circuit.sample_time)
        assert len(profile) == 1000
        assert np.all(profile[:300] == 25.0)
        assert np.all(profile[300:] == 10.0)

    def test_pediatric_shape(self):
        scenario, circuit = load_scenario("pediatric")
        profile = reference_profile(scenario, circuit.sample_time)
        assert len(profile) == 1500
        assert np.all(profile[:500] == 35.0)
        assert np.all(profile[500:] == 5.0)

    def test_flat_profile_when_levels_equal(self):
        scenario = PatientScenario(5.0, 0.05, 15, peep=7.0, ipap=7.0,
                                   t_insp=1.5, t_exp=2.5)
        assert np.all(reference_profile(scenario, TS) == 7.0)

    def test_degenerate_sampling_rejected(self):
        with pytest.raises(ConfigurationError):
            reference_profile(adult(), sample_time=10.0)

    def test_nan_sample_time_rejected(self):
        with pytest.raises(ConfigurationError, match="^sample_time must be positive, got nan$"):
            reference_profile(adult(), float("nan"))

    def test_subnormal_sample_time_rejected(self):
        # a breath of 5e-324 s samples would be inf samples long
        scenario = load_scenario("adult")[0]
        with pytest.raises(ConfigurationError,
                           match="^sample_time must be >= 1e-06, got 5e-324$"):
            reference_profile(scenario, 5e-324)
        with pytest.raises(ConfigurationError,
                           match="^sample_time must be >= 1e-06, got 5e-324$"):
            CircuitParameters(sample_time=5e-324)


class TestScenarioFiles:
    def test_builtin_adult_values(self):
        scenario, circuit = load_scenario("adult")
        assert (scenario.r_lung, scenario.c_lung) == (5.0, 0.050)
        assert scenario.respiratory_rate == 15
        assert (scenario.peep, scenario.ipap) == (5.0, 15.0)
        assert (scenario.t_insp, scenario.t_exp) == (1.5, 2.5)
        assert circuit.sample_time == 0.002
        assert circuit.total_delay_samples == 12

    def test_builtin_table(self):
        expected = {
            "pediatric": (50.0, 0.010, 20, 5.0, 35.0, 1.0, 2.0),
            "baby": (50.0, 0.003, 30, 10.0, 25.0, 0.6, 1.4),
        }
        for name, row in expected.items():
            s, _ = load_scenario(name)
            assert (s.r_lung, s.c_lung, s.respiratory_rate, s.peep, s.ipap,
                    s.t_insp, s.t_exp) == row

    def test_round_trip(self, tmp_path):
        scenario, circuit = load_scenario("pediatric")
        path = tmp_path / "copy.cfg"
        save_scenario(scenario, circuit, path)
        back_s, back_c = load_scenario(path)
        assert back_s == scenario
        assert back_c == circuit

    @settings(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_round_trip_of_valid_values(self, tmp_path, data):
        positive = st.floats(1e-6, 1e6)
        rate = data.draw(st.floats(1.0, 120.0))
        period = 60.0 / rate
        t_insp = data.draw(st.floats(0.01, 0.99)) * period
        peep = data.draw(st.floats(0.0, 100.0))
        name = data.draw(st.text("abXY09_-.;% ", max_size=12).filter(lambda n: n == n.strip()))
        scenario = PatientScenario(
            r_lung=data.draw(positive), c_lung=data.draw(positive), respiratory_rate=rate,
            peep=peep, ipap=peep + data.draw(st.floats(0.0, 100.0)),
            t_insp=t_insp, t_exp=period - t_insp, name=name)
        circuit = CircuitParameters(
            r_hose=data.draw(positive), r_leak=data.draw(positive | st.just(math.inf)),
            blower_time_constant=data.draw(st.floats(0.0, 1.0)),
            blower_delay_samples=data.draw(st.integers(0, 50)),
            measurement_delay_samples=data.draw(st.integers(0, 50)),
            sample_time=data.draw(positive))
        path = tmp_path / "drawn.cfg"
        save_scenario(scenario, circuit, path)
        assert load_scenario(path) == (scenario, circuit)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="built-ins"):
            resolve_scenario_path("elephant")

    def test_missing_file_named_like_a_builtin_rejected(self, tmp_path, monkeypatch):
        # a path with a directory part names a file, never a built-in
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigurationError,
                           match=r"^scenario 'runs/adult\.cfg': no such file, and not a built-in"):
            resolve_scenario_path("runs/adult.cfg")

    def test_path_without_suffix_does_not_load_its_cfg_sibling(self, tmp_path):
        save_scenario(*load_scenario("adult"), tmp_path / "odd.cfg")
        odd = str(tmp_path / "odd")
        with pytest.raises(ConfigurationError,
                           match=rf"^scenario {re.escape(repr(odd))}: no such file"):
            load_scenario(odd)

    def test_pressures_up_to_the_ceiling_run_finite(self, tmp_path):
        # 1 bar above ambient is valid, and a run there stays finite
        path = tmp_path / "ceiling.cfg"
        scenario = replace(adult(), peep=MAX_PRESSURE_MBAR, ipap=MAX_PRESSURE_MBAR)
        save_scenario(scenario, CircuitParameters(), path)
        log = run_experiment(ExperimentSpec(scenario=path, mode="pid", breaths=2))
        assert np.all(np.isfinite(log.breath_norms))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PatientScenario(5.0, 0.05, 15, peep=20.0, ipap=15.0, t_insp=1.5, t_exp=2.5)
        with pytest.raises(ValueError):
            PatientScenario(5.0, 0.05, 15, peep=5.0, ipap=15.0, t_insp=1.0, t_exp=2.5)
        with pytest.raises(ValueError):
            PatientScenario(-5.0, 0.05, 15, peep=5.0, ipap=15.0, t_insp=1.5, t_exp=2.5)


@pytest.mark.parametrize("old, new, message", [
    ("r_lung = 5.0", "r_lung = abc", "field 'r_lung': 'abc' is not a valid float"),
    ("r_lung = 5.0", "", "missing field 'r_lung'"),
    ("t_exp = 2.5", "t_exp = 3.0",
     "t_insp + t_exp = 4.5 s does not match 60/respiratory_rate = 4.0 s"),
    ("r_hose = 5.0", "r_hose = -5.0", "r_hose must be positive, got -5.0"),
    ("blower_delay_samples = 6", "blower_delay_samples = 6.5",
     "field 'blower_delay_samples': '6.5' is not a valid int"),
    # zero and NaN values fail closed instead of dividing by zero or running on
    ("respiratory_rate = 15", "respiratory_rate = 0", "respiratory_rate must be positive, got 0.0"),
    ("respiratory_rate = 15", "respiratory_rate = nan",
     "respiratory_rate must be positive, got nan"),
    ("t_insp = 1.5", "t_insp = nan", "t_insp must be positive, got nan"),
    ("t_exp = 2.5", "t_exp = nan", "t_exp must be positive, got nan"),
    ("sample_time = 0.002", "sample_time = nan", "sample_time must be positive, got nan"),
    ("sample_time = 0.002", "sample_time = 5e-324",
     "sample_time must be >= 1e-06, got 5e-324"),
    ("blower_time_constant = 0.01", "blower_time_constant = nan",
     "blower_time_constant must be >= 0, got nan"),
    ("peep = 5.0", "peep = nan", "peep must be >= 0, got nan"),
    ("peep = 5.0", "peep = -1", "peep must be >= 0, got -1.0"),
    ("r_lung = 5.0", "r_lung = nan", "r_lung must be positive, got nan"),
    ("c_lung = 0.05", "c_lung = nan", "c_lung must be positive, got nan"),
    ("r_hose = 5.0", "r_hose = nan", "r_hose must be positive, got nan"),
    ("r_leak = 50.0", "r_leak = nan", "r_leak must be positive, got nan"),
    # infinite values that cut the blower off the patient or the lung off
    # (an infinite leak resistance is no leak and stays legal)
    ("r_hose = 5.0", "r_hose = inf", "r_hose must be finite, got inf"),
    ("blower_time_constant = 0.01", "blower_time_constant = inf",
     "blower_time_constant must be finite, got inf"),
    ("r_lung = 5.0", "r_lung = inf", "r_lung must be finite, got inf"),
    ("c_lung = 0.05", "c_lung = inf", "c_lung must be finite, got inf"),
    ("ipap = 15.0", "ipap = inf", "ipap must be finite, got inf"),
    # the pressures stop at MAX_PRESSURE_MBAR, 1 bar above ambient
    ("ipap = 15.0", "ipap = 1000.5", "ipap must be <= 1000.0, got 1000.5"),
    ("peep = 5.0\nipap = 15.0", "peep = 1e300\nipap = 1e300", "peep must be <= 1000.0, got 1e+300"),
    # files that configparser cannot parse fail on one line that names the line
    ("r_lung = 5.0", "r_lung = 5.0\nr_lung = 6.0",
     "cannot parse scenario file: line 4: field 'r_lung' appears twice in [patient]"),
    ("[patient]\n", "",
     "cannot parse scenario file: line 1: 'name = adult' comes before any [section] header"),
    ("c_lung = 0.05", "c_lung 0.05",
     "cannot parse scenario file: line 4: 'c_lung 0.05\\n' is not a 'field = value' line"),
    ("[circuit]", "[patient]",
     "cannot parse scenario file: line 13: section [patient] appears twice"),
])
def test_bad_scenario_file_fails_closed(tmp_path, old, new, message):
    path = tmp_path / "bad.cfg"
    save_scenario(adult(), CircuitParameters(), path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(ConfigurationError) as exc:
        load_scenario(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("field", [
    "r_lung", "c_lung", "respiratory_rate", "peep", "ipap", "t_insp", "t_exp",
    "r_hose", "r_leak", "blower_time_constant", "sample_time"])
def test_scenario_value_sweep_fails_closed_or_runs(tmp_path, field, value):
    # each float field of a saved scenario at an extreme value either fails as
    # a ConfigurationError naming the path and the field, or runs cleanly
    # (a RuntimeWarning fails the suite)
    path = tmp_path / "swept.cfg"
    save_scenario(adult(), CircuitParameters(), path)
    path.write_text(re.sub(rf"^{field} = .*$", f"{field} = {value}", path.read_text(),
                           flags=re.MULTILINE))
    try:
        run_experiment(ExperimentSpec(scenario=path, mode="pid", breaths=1))
    except ConfigurationError as exc:
        assert str(exc).startswith(f"{path}: ") and field in str(exc)
