"""Blower-hose-patient simulation.

The pressure path is: control command -> blower delay queue -> first-order
blower lag (exact zero-order-hold discretization) -> outlet pressure ->
static three-resistor airway node (hose, leak, lung branches) -> lung
pressure integration (exact ZOH of the equivalent one-pole RC dynamics) ->
measurement delay queue -> measured airway pressure.

The streaming simulator and the closed-form transfer function are derived
from the same recursions, so they agree sample-by-sample to float rounding;
tests lean on that as a mutual oracle.
"""

from __future__ import annotations

import configparser
import io
import math
from collections import deque
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, check_number
from .lti import DiscreteTransferFunction, StateSpace, open_output, parse_field, read_text


@dataclass
class PatientScenario:
    """Lung parameters and ventilator settings for one standardized scenario."""

    r_lung: float          # mbar s / L
    c_lung: float          # L / mbar
    respiratory_rate: float  # breaths / min
    peep: float            # mbar
    ipap: float            # mbar
    t_insp: float          # s
    t_exp: float           # s
    name: str = "scenario"

    def __post_init__(self):
        for name in ("r_lung", "c_lung", "respiratory_rate", "t_insp", "t_exp"):
            check_number(name, getattr(self, name), gt=0)
        for name in ("peep", "ipap"):
            check_number(name, getattr(self, name), ge=0)
        # equality allowed so a flat (zero-amplitude) profile is constructible
        if self.ipap < self.peep:
            raise ValueError(f"ipap {self.ipap!r} must be >= peep {self.peep!r}")
        period = 60.0 / self.respiratory_rate
        if abs(self.t_insp + self.t_exp - period) > 1e-9:
            raise ValueError(
                f"t_insp + t_exp = {self.t_insp + self.t_exp} s does not match "
                f"60/respiratory_rate = {period} s"
            )

    @property
    def period_s(self) -> float:
        return self.t_insp + self.t_exp


@dataclass
class CircuitParameters:
    """Hose/leak resistances, blower lag, and the loop delay split."""

    r_hose: float = 5.0            # mbar s / L
    r_leak: float = 50.0           # mbar s / L
    blower_time_constant: float = 0.010   # s
    blower_delay_samples: int = 6
    measurement_delay_samples: int = 6
    sample_time: float = 0.002     # s

    def __post_init__(self):
        for name in ("r_hose", "sample_time"):
            check_number(name, getattr(self, name), gt=0)
        # an infinite leak resistance is no leak
        check_number("r_leak", self.r_leak, gt=0, le=math.inf)
        check_number("blower_time_constant", self.blower_time_constant, ge=0)
        for name in ("blower_delay_samples", "measurement_delay_samples"):
            check_number(name, getattr(self, name), ge=0, integer=True)

    @property
    def total_delay_samples(self) -> int:
        return self.blower_delay_samples + self.measurement_delay_samples


@dataclass
class PlantState:
    """Mutable state of one simulator instance."""

    p_lung: float = 0.0
    blower_lag_state: float = 0.0
    blower_queue: deque = field(default_factory=deque)
    measurement_queue: deque = field(default_factory=deque)


class VentilatorPlant:
    """Streaming simulator of the blower-hose-patient chain.

    Single-owner: one instance per experiment.  `measurement_noise_rms`
    enables the optional additive sensor-noise hook used for identification
    realism; it defaults to off and never affects the underlying dynamics.
    """

    def __init__(self, patient: PatientScenario, circuit: CircuitParameters | None = None,
                 measurement_noise_rms: float = 0.0, seed: int | None = None):
        self.patient = patient
        self.circuit = circuit or CircuitParameters()
        self.measurement_noise_rms = check_number("measurement_noise_rms",
                                                  float(measurement_noise_rms), ge=0)
        self._rng = np.random.default_rng(seed)
        c = self.circuit
        g_hose = 1.0 / c.r_hose
        g_leak = 1.0 / c.r_leak
        g_lung = 1.0 / patient.r_lung
        g_total = g_hose + g_leak + g_lung
        self._g_hose, self._g_leak, self._g_lung, self._g_total = g_hose, g_leak, g_lung, g_total
        # blower lag pole; output sampled at the end of the ZOH interval so a
        # zero time constant degenerates to exact pass-through
        self._a_blower = math.exp(-c.sample_time / c.blower_time_constant) \
            if c.blower_time_constant > 0 else 0.0
        # lung node reduces to dp_lung/dt = (k_dc*p_out - p_lung) * beta / c_lung
        # (k_dc in conductance form so an infinite leak resistance stays finite)
        self._k_dc = g_hose / (g_hose + g_leak)
        beta = (g_hose + g_leak) / (patient.r_lung * g_total)
        self._a_lung = math.exp(-beta * c.sample_time / patient.c_lung)
        self.reset()

    def reset(self) -> None:
        c = self.circuit
        self.state = PlantState(
            blower_queue=deque([0.0] * c.blower_delay_samples),
            measurement_queue=deque([0.0] * c.measurement_delay_samples),
        )
        self._pending_noise = None

    def _sample_noise(self) -> float:
        # one draw per sample, shared between peek_measurement() and step()
        if self.measurement_noise_rms <= 0.0:
            return 0.0
        if self._pending_noise is None:
            self._pending_noise = self.measurement_noise_rms * self._rng.standard_normal()
        return self._pending_noise

    def draw_noise(self, count: int) -> np.ndarray:
        """Sensor noise for the next count samples, from the same generator.

        Gives the numbers that count calls of peek_measurement() and step()
        would add, without touching the streaming state.
        """
        if self.measurement_noise_rms <= 0.0:
            return np.zeros(count)
        return self.measurement_noise_rms * self._rng.standard_normal(count)

    def peek_measurement(self) -> float:
        """Measured airway pressure for the current sample, before step().

        Requires measurement_delay_samples >= 1 (otherwise the measurement
        depends on the yet-unknown control input of this sample).
        """
        if self.circuit.measurement_delay_samples < 1:
            raise ConfigurationError(
                "peek_measurement needs measurement_delay_samples >= 1"
            )
        return self.state.measurement_queue[0] + self._sample_noise()

    def step(self, p_control: float):
        """Advance one sample; returns (measured_p_aw, q_pat) for this sample."""
        st = self.state
        c = self.circuit
        # blower delay queue
        if c.blower_delay_samples > 0:
            st.blower_queue.append(p_control)
            u_delayed = st.blower_queue.popleft()
        else:
            u_delayed = p_control
        # blower lag, output at end of interval
        p_out = self._a_blower * st.blower_lag_state + (1.0 - self._a_blower) * u_delayed
        # static airway node
        p_aw = (p_out * self._g_hose + st.p_lung * self._g_lung) / self._g_total
        q_pat = (p_aw - st.p_lung) * self._g_lung
        self.last_flows = (
            p_aw,
            (p_out - p_aw) * self._g_hose,   # q_out
            p_aw * self._g_leak,             # q_leak
            q_pat,
        )
        # measurement delay queue
        if c.measurement_delay_samples > 0:
            st.measurement_queue.append(p_aw)
            measured = st.measurement_queue.popleft()
        else:
            measured = p_aw
        measured += self._sample_noise()
        self._pending_noise = None
        # state updates (exact ZOH over the step)
        st.p_lung = self._a_lung * st.p_lung + (1.0 - self._a_lung) * self._k_dc * p_out
        st.blower_lag_state = p_out
        return measured, q_pat

    def state_space(self) -> StateSpace:
        """The recursions of step() as one state-space model, noise-free.

        States, in order: the blower queue (oldest first), the blower lag
        state, p_lung and the measurement queue (oldest first).  The input is
        the control command.  The outputs are the measured airway pressure,
        p_lung before the step and q_pat.  The measured pressure must not
        depend on this sample's command, so measurement_delay_samples >= 1.
        """
        c = self.circuit
        nb, nm = c.blower_delay_samples, c.measurement_delay_samples
        if nm < 1:
            raise ConfigurationError("the state-space model needs measurement_delay_samples >= 1")
        n = nb + 2 + nm
        lag, lung, measured = nb, nb + 1, nb + 2
        a_b, a_l = self._a_blower, self._a_lung
        # p_out and p_aw of this sample as (state row, command gain)
        p_out, p_out_in = np.zeros(n), 0.0
        p_out[lag] = a_b
        if nb:
            p_out[0] = 1.0 - a_b
        else:
            p_out_in = 1.0 - a_b
        c_out, c_lung = self._g_hose / self._g_total, self._g_lung / self._g_total
        p_aw, p_aw_in = c_out * p_out, c_out * p_out_in
        p_aw[lung] += c_lung
        a, b = np.zeros((n, n)), np.zeros(n)
        for i in (*range(nb - 1), *range(measured, n - 1)):
            a[i, i + 1] = 1.0                          # both queues move up one place
        if nb:
            b[nb - 1] = 1.0
        a[lag], b[lag] = p_out, p_out_in
        gain = (1.0 - a_l) * self._k_dc
        a[lung], b[lung] = gain * p_out, gain * p_out_in
        a[lung, lung] += a_l
        a[n - 1], b[n - 1] = p_aw, p_aw_in
        out, out_in = np.zeros((3, n)), np.zeros(3)
        out[0, measured] = 1.0
        out[1, lung] = 1.0
        out[2], out_in[2] = self._g_lung * p_aw, self._g_lung * p_aw_in
        out[2, lung] -= self._g_lung
        return StateSpace(a, b, out, out_in)

    def closed_form_tf(self) -> DiscreteTransferFunction:
        """Exact transfer function from p_control to measured p_aw.

        Matches step() sample-by-sample; the delay field carries the full
        blower + measurement delay.
        """
        c = self.circuit
        a_b, a_l = self._a_blower, self._a_lung
        c0 = self._g_hose / self._g_total
        c1 = -a_l * c0 + self._k_dc * (1.0 - a_l) * self._g_lung / self._g_total
        num = np.convolve([1.0 - a_b] if a_b > 0 else [1.0], [c0, c1])
        den = np.convolve([1.0, -a_b] if a_b > 0 else [1.0], [1.0, -a_l])
        return DiscreteTransferFunction(num, den, c.total_delay_samples, c.sample_time)


def reference_profile(scenario: PatientScenario, sample_time: float) -> np.ndarray:
    """One period of the target pressure: PEEP -> IPAP -> PEEP square wave.

    N = round(period/sample_time) samples.
    """
    check_number("sample_time", sample_time, gt=0)
    n_insp = round(scenario.t_insp / sample_time)
    n_total = round(scenario.period_s / sample_time)
    if abs(scenario.t_insp - n_insp * sample_time) > sample_time / 2 or n_total <= 0:
        raise ConfigurationError(
            f"sample_time {sample_time} s does not divide the breath timing"
        )
    profile = np.full(n_total, float(scenario.peep))
    profile[:n_insp] = scenario.ipap
    return profile


# -- scenario config files ----------------------------------------------------
#
# INI-style files with [patient], [ventilator], [circuit] sections; the three
# canonical files (adult.cfg, pediatric.cfg, baby.cfg) ship with the package.

SCENARIO_DIR = Path(__file__).parent / "scenarios"
# the fields of each section, in the order save_scenario writes them
SCENARIO_SECTIONS = {
    "patient": ("name", "r_lung", "c_lung"),
    "ventilator": ("respiratory_rate", "peep", "ipap", "t_insp", "t_exp"),
    "circuit": tuple(f.name for f in fields(CircuitParameters)),
}


def _builtin_names() -> list[str]:
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.cfg"))


def resolve_scenario_path(name_or_path) -> Path:
    """The scenario file that name_or_path names.  An existing file is that
    file; anything else must be a bare built-in name, with or without .cfg."""
    p = Path(name_or_path)
    if p.is_file():
        return p
    builtin = SCENARIO_DIR / f"{p.name.removesuffix('.cfg')}.cfg"
    if str(name_or_path) != p.name or not builtin.is_file():
        raise ConfigurationError(f"scenario {str(name_or_path)!r}: no such file, and not a "
                                 f"built-in; built-ins: {_builtin_names()}")
    return builtin


def _parse_failure(exc: configparser.Error) -> str:
    """Where and what configparser could not parse, on one line."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        return "; ".join(f"line {lineno}: {line} is not a 'field = value' line"
                         for lineno, line in exc.errors)
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: field {exc.option!r} appears twice in [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] appears twice"
    return " ".join(str(exc).split())


def load_scenario(path) -> tuple[PatientScenario, CircuitParameters]:
    path = resolve_scenario_path(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        # newline=None reads any line ending, as cp.read would
        cp.read_file(io.StringIO(read_text(path), newline=None), source=str(path))
    except configparser.Error as exc:
        raise ConfigurationError(
            f"{path}: cannot parse scenario file: {_parse_failure(exc)}") from None
    # an omitted field takes its default, whose type is the field's: the file
    # name for the patient's name, CircuitParameters' for the circuit; every
    # other field is a float and must be given
    values = {"name": Path(path).stem, **vars(CircuitParameters())}
    for section, names in SCENARIO_SECTIONS.items():
        entries = cp[section] if cp.has_section(section) else {}
        for name in names:
            if name in entries:
                values[name] = parse_field(path, name, entries[name], type(values.get(name, 0.0)))
            elif name not in values:
                raise ConfigurationError(f"{path}: missing field {name!r}")
    try:
        circuit = CircuitParameters(**{n: values.pop(n) for n in SCENARIO_SECTIONS["circuit"]})
        return PatientScenario(**values), circuit
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def save_scenario(scenario: PatientScenario, circuit: CircuitParameters, path) -> None:
    values = {**vars(scenario), **vars(circuit)}
    cp = configparser.ConfigParser(interpolation=None)
    for section, names in SCENARIO_SECTIONS.items():
        cp[section] = {name: str(values[name]) for name in names}
    with open_output(path) as fh:
        cp.write(fh)
