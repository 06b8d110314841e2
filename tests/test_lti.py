import contextlib
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ventrc
from ventrc import harness, lti, rc_design, sysid
from ventrc.closed_loop import ClosedLoop
from ventrc.errors import ConfigurationError, SingularityError
from ventrc.lti import (
    BATCH,
    LIFT_MEMO,
    DiscreteTransferFunction,
    FirKernel,
    FrequencyResponse,
    LiftedSystem,
    StateSpace,
    StreamingFilter,
    evaluate,
    load_transfer_function,
    same_sample_time,
    save_transfer_function,
    write_rows,
    write_table,
)
from ventrc.plant import load_scenario

from filter_reference import UnstableFilterWarning, filter_stream
from lifted_reference import per_chunk_run, stacked_lift
from table_reference import write_table as reference_write_table

TS = 0.002
KI = 0.01257


def integrator():
    # benchmark controller gain/(z-1) in z^-1 form
    return DiscreteTransferFunction([0.0, KI], [1.0, -1.0], 0, TS)


class TestEvaluate:
    def test_integrator_magnitude(self):
        tf = integrator()
        for f in (1.0, 10.0, 77.3):
            w = 2 * np.pi * f * TS
            expected = KI / abs(np.exp(1j * w) - 1.0)
            got = abs(evaluate(tf, [f]).values[0])
            assert got == pytest.approx(expected, rel=1e-12)

    def test_integrator_at_nyquist(self):
        # e^{i pi} = -1, so |den| = 2
        val = evaluate(integrator(), [250.0]).values[0]
        assert abs(val) == pytest.approx(KI / 2.0, rel=1e-12)

    def test_unit_gain(self):
        tf = DiscreteTransferFunction([1.0], [1.0], 0, TS)
        resp = evaluate(tf, np.linspace(0.5, 250.0, 40))
        assert np.allclose(resp.values, 1.0 + 0.0j, atol=1e-15)

    def test_pure_delay(self):
        tf = DiscreteTransferFunction([1.0], [1.0], 12, TS)
        f = np.array([3.0, 40.0, 125.0])
        resp = evaluate(tf, f)
        w = 2 * np.pi * f * TS
        assert np.allclose(resp.values, np.exp(-1j * w * 12), atol=1e-13)
        assert np.allclose(np.abs(resp.values), 1.0, atol=1e-13)

    def test_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist|outside"):
            evaluate(integrator(), [251.0])

    def test_singularity_names_frequency(self):
        tf = DiscreteTransferFunction([1.0], [1.0, 1.0], 0, TS)  # root at z = -1
        with pytest.raises(SingularityError, match="250"):
            evaluate(tf, [100.0, 250.0])

    def test_overflow_names_frequency(self):
        # |num| reaches 2e308 near DC: a value that is not finite certifies nothing
        tf = DiscreteTransferFunction([1e308, 1e308], [1.0], 0, TS)
        with pytest.raises(SingularityError, match="response overflows at 0.5 Hz"):
            evaluate(tf, [0.5, 100.0])


class TestFilterStream:
    def test_integrator_ramp(self):
        y = filter_stream(integrator(), np.ones(6))
        assert np.allclose(y, [0.0, KI, 2 * KI, 3 * KI, 4 * KI, 5 * KI], atol=1e-15)

    def test_unit_gain_identity(self):
        u = np.random.default_rng(0).normal(size=50)
        tf = DiscreteTransferFunction([1.0], [1.0], 0, TS)
        assert np.array_equal(filter_stream(tf, u), u)

    def test_pure_delay_shift(self):
        u = np.arange(1.0, 21.0)
        tf = DiscreteTransferFunction([1.0], [1.0], 12, TS)
        y = filter_stream(tf, u)
        assert np.all(y[:12] == 0.0)
        assert np.array_equal(y[12:], u[:8])

    def test_unstable_warns_but_runs(self):
        tf = DiscreteTransferFunction([1.0], [1.0, -1.5], 0, TS)
        with pytest.warns(UnstableFilterWarning):
            y = filter_stream(tf, np.ones(10))
        assert np.all(np.isfinite(y))
        assert y[-1] > y[0]

    # pure delays from none to a 1,988-sample line, about a breath
    @pytest.mark.parametrize("delay", [0, 1, 2, 17, 1988])
    def test_streaming_filter_matches_batch(self, delay):
        rng = np.random.default_rng(3)
        tf = DiscreteTransferFunction([0.4, -0.2, 0.05], [1.0, -1.1, 0.3], delay, TS)
        u = rng.normal(size=delay + 400)
        batch = filter_stream(tf, u)
        sf = StreamingFilter(tf)
        stream = np.array([sf.step(v) for v in u])
        assert np.allclose(stream, batch, atol=1e-12)


def fir_response(kernel, frequencies_hz):
    """The kernel's response: its taps as a transfer function, advanced by its shift."""
    return evaluate(kernel.transfer_function(TS), frequencies_hz, kernel.forward_shift).values


class TestFirApplication:
    def test_single_tap_identity(self):
        k = FirKernel([1.0])
        assert k.forward_shift == 0
        resp = fir_response(k, np.linspace(0.5, 250.0, 32))
        assert np.allclose(resp, 1.0, atol=0.0)

    def test_symmetric_three_tap_circular(self):
        # the centred kernel spreads an impulse one sample either side:
        # 0.25 e^{iw} + 0.5 + 0.25 e^{-iw} = 0.5 + 0.5 cos w, real for every w
        k = FirKernel([0.25, 0.5, 0.25])
        f = np.linspace(0.5, 250.0, 64)
        expected = 0.5 + 0.5 * np.cos(2 * np.pi * f * TS)
        assert np.allclose(fir_response(k, f), expected, atol=1e-15)

    def test_dc_preserved_by_unit_sum_kernel(self):
        taps = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        k = FirKernel(taps)
        assert k.dc_gain() == pytest.approx(1.0, abs=1e-12)
        assert fir_response(k, [1e-6])[0] == pytest.approx(1.0, abs=1e-12)

    def test_shift_beyond_taps_rejected(self):
        # the shift follows from the taps: an even count has no centre tap,
        # and the shift cannot be set apart from the taps
        with pytest.raises(ValueError, match="odd"):
            FirKernel([1.0, 0.5])
        k = FirKernel([0.25, 0.5, 0.25])
        assert k.forward_shift == 1
        with pytest.raises(AttributeError):
            k.forward_shift = 5

    def test_zero_phase_response_is_real(self):
        taps = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        k = FirKernel(taps / taps.sum())
        resp = fir_response(k, np.linspace(0.5, 250.0, 500))
        assert np.max(np.abs(resp.imag)) <= 1e-12 * np.max(np.abs(resp))

    def test_asymmetric_zero_phase_flag_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FirKernel([0.5, 0.5, 0.1])


def test_evaluate_filter_stream_consistency():
    # steady-state sinusoid response must match the frequency-domain value
    tf = DiscreteTransferFunction([0.3, 0.1], [1.0, -1.55, 0.6], 3, TS)
    f = 5.0
    n_settle, n_meas = 7000, 1000  # 14 s settle >> 20 time constants; 10 full cycles
    t = np.arange(n_settle + n_meas) * TS
    u = np.cos(2 * np.pi * f * t)
    y = filter_stream(tf, u)[n_settle:]
    k = round(f * n_meas * TS)
    coeff = np.fft.rfft(y)[k] / np.fft.rfft(u[n_settle:])[k]
    ref = evaluate(tf, [f]).values[0]
    assert abs(coeff) == pytest.approx(abs(ref), rel=1e-3)
    assert np.angle(coeff / ref) == pytest.approx(0.0, abs=1e-3)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(num=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
       poles=st.lists(st.floats(-0.8, 0.8), max_size=3),
       delay=st.integers(0, 20), advance=st.integers(0, 60),
       ts=st.sampled_from([0.0005, 0.002, 0.01]))
def test_evaluate_advances_by_whole_samples(num, poles, delay, advance, ts):
    tf = DiscreteTransferFunction(num, np.poly(poles), delay, ts)
    f = np.linspace(0.05 / ts, 0.5 / ts, 97)
    z = np.exp(2j * np.pi * f * ts)
    b, a = tf.numerator_coeffs, tf.denominator_coeffs
    want = (sum(c * z**-j for j, c in enumerate(b)) / sum(c * z**-j for j, c in enumerate(a))
            * z ** -(delay - advance))
    got = evaluate(tf, f, advance).values
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    # no advance is the causal arithmetic, bit for bit
    w = 2.0 * np.pi * f * ts
    zinv = np.exp(-1j * w)
    causal = np.polyval(b[::-1], zinv) / np.polyval(a[::-1], zinv) * zinv**delay
    assert evaluate(tf, f, 0).values.tobytes() == causal.tobytes()


def test_transfer_function_normalizes_denominator():
    tf = DiscreteTransferFunction([2.0, 4.0], [2.0, -1.0], 0, TS)
    assert tf.denominator_coeffs[0] == 1.0
    assert np.allclose(tf.numerator_coeffs, [1.0, 2.0])


def test_fractional_delay_rejected():
    with pytest.raises(ConfigurationError, match=r"^pure_delay must be an integer, got 1\.5$"):
        DiscreteTransferFunction([1.0], [1.0], 1.5, TS)


def test_cascade_across_sample_times_rejected():
    with pytest.raises(ValueError, match="^cascade requires identical sample times$"):
        integrator().cascade(DiscreteTransferFunction([1.0], [1.0], 0, 0.001))
    # sample times 2e-15 s apart differ, and one ulp apart are the same
    with pytest.raises(ValueError, match="^cascade requires identical sample times$"):
        integrator().cascade(DiscreteTransferFunction([1.0], [1.0], 0, TS + 2e-15))
    ulp = integrator().cascade(DiscreteTransferFunction([1.0], [1.0], 0, math.nextafter(TS, 1)))
    assert ulp.sample_time == TS


@pytest.mark.parametrize("a, b, same", [
    (TS, TS, True), (TS, math.nextafter(TS, 1), True), (TS, TS + 2e-15, False),
    (TS, math.nan, False), (math.nan, math.nan, False)])
def test_same_sample_time(a, b, same):
    assert same_sample_time(a, b) is same
    assert same_sample_time(b, a) is same


@pytest.mark.parametrize("frequencies, values, message", [
    ([1.0, 2.0], [1.0], "frequencies and values must have equal length"),
    ([1.0, 2.0, 2.0], [1.0, 1.0, 1.0], "frequencies must be strictly increasing"),
    ([2.0, 1.0], [1.0, 1.0], "frequencies must be strictly increasing"),
])
def test_malformed_frequency_response_rejected(frequencies, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FrequencyResponse(frequencies, values, TS)


def test_coefficient_file_round_trip(tmp_path):
    tf = DiscreteTransferFunction([0.25, -0.125, 0.0625], [1.0, -0.5, 0.25], 7, TS)
    path = tmp_path / "filt.coeff"
    save_transfer_function(tf, path)
    back = load_transfer_function(path)
    assert back.pure_delay == 7
    assert back.sample_time == TS
    assert np.array_equal(back.numerator_coeffs, tf.numerator_coeffs)
    assert np.array_equal(back.denominator_coeffs, tf.denominator_coeffs)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [], "file is empty"),
    (lambda lines: lines[:lines.index("den 3")], "missing field 'den'"),
    (lambda lines: lines[:-1], "field 'den' declares 3 values, the file has 2"),
    (lambda lines: ["tf 0.002"] + lines[1:],
     "expected header 'tf <sample_time> <pure_delay>', got 'tf 0.002'"),
    (lambda lines: ["fir 0.002 7"] + lines[1:],
     "expected header 'tf <sample_time> <pure_delay>', got 'fir 0.002 7'"),
    (lambda lines: ["tf 0.002 seven"] + lines[1:], "field 'pure_delay': 'seven' is not a valid int"),
    (lambda lines: lines[:-3] + ["0.0"] + lines[-2:],
     "denominator leading (z^0) coefficient must be nonzero"),
    (lambda lines: ["tf -0.002 7"] + lines[1:], "sample_time must be positive, got -0.002"),
    (lambda lines: ["tf nan 7"] + lines[1:], "sample_time must be positive, got nan"),
    (lambda lines: ["tf inf 7"] + lines[1:], "sample_time must be finite, got inf"),
    # a second value would silently replace the header's 2 ms
    (lambda lines: lines[:1] + ["sample_time 0.001"] + lines[1:],
     "field 'sample_time' appears twice"),
    (None, "cannot open: No such file or directory"),
])
def test_truncated_coefficient_file_fails_closed(tmp_path, edit, message):
    path = tmp_path / "filt.coeff"
    if edit is not None:  # None: the file is missing
        save_transfer_function(
            DiscreteTransferFunction([0.25, -0.125], [1.0, -0.5, 0.25], 7, TS), path)
        path.write_text("".join(ln + "\n" for ln in edit(path.read_text().splitlines())))
    with pytest.raises(ConfigurationError) as exc:
        load_transfer_function(path)
    assert str(exc.value) == f"{path}: {message}"


# floats whose repr takes each of its forms: signed zero, the non-finite
# values, a subnormal, and the switches to and from exponent notation
TABLE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-05, 1e-04,
                123456789.125, -2.5e-300]


@st.composite
def tables(draw):
    """A header and columns of one length, up to 3,072 rows."""
    rows = draw(st.integers(0, 3072))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8))
        else:
            values = draw(st.lists(st.sampled_from(TABLE_FLOATS) | st.floats(),
                                   min_size=1, max_size=8))
        columns.append(np.resize(np.array(values), rows))
    header = draw(st.lists(st.text(st.sampled_from('ab_ ,"\n'), max_size=5),
                           min_size=len(columns), max_size=len(columns)))
    return header, columns


@settings(deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables())
@example((["sample", "value"], [np.arange(0), np.zeros(0)]))
@example((["value"], [np.array(TABLE_FLOATS)]))
@example((["sample", "value"], [np.arange(2051), np.resize(np.array(TABLE_FLOATS), 2051)]))
@example((["a,b", 'say "x"', " pad "], [np.arange(3), np.ones(3), -np.zeros(3)]))
def test_write_table_writes_the_csv_writer_bytes(tmp_path, table):
    header, columns = table
    write_table(tmp_path / "table.csv", header, columns)
    reference_write_table(tmp_path / "reference.csv", header, columns)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("header, columns, message", [
    (["a", "b"], [np.arange(3), np.ones(2)], "columns of unequal lengths [3, 2]"),
    (["a", "b"], [np.arange(3), np.zeros(4)], "columns of unequal lengths [3, 4]"),
    (["a", "b", "c"], [np.arange(3), np.ones(3)],
     "header ['a', 'b', 'c'] has width 3, the table 2 columns"),
    (["a"], [np.arange(0), np.ones(0)], "header ['a'] has width 1, the table 2 columns"),
])
def test_write_table_rejects_a_ragged_table_before_writing(tmp_path, header, columns, message):
    path = tmp_path / "table.csv"
    with pytest.raises(ConfigurationError) as exc:
        write_table(path, header, columns)
    assert str(exc.value) == f"{path}: {message}"
    assert not path.exists()


def test_write_rows_checks_every_file_before_opening_any(tmp_path):
    # the second file's ragged columns stop the write before the first opens
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    with pytest.raises(ConfigurationError) as exc:
        write_rows(paths, ["a", "b"], [[1, 1], [1, 2]], [["1,2\r\n", "3,4\r\n"]])
    assert str(exc.value) == f"{paths[1]}: columns of unequal lengths [1, 2]"
    assert not any(path.exists() for path in paths)


def test_write_rows_writes_each_part_side_by_side(tmp_path):
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    write_rows(paths, ["a"], [[2], [2]], [["1\r\n", "3\r\n"], ["2\r\n", "4\r\n"]])
    assert [path.read_bytes() for path in paths] == [b"a\r\n1\r\n2\r\n", b"a\r\n3\r\n4\r\n"]


def test_write_rows_names_the_file_whose_write_fails(tmp_path, monkeypatch):
    # the disk under the first of two open files fills after its header
    class Full:
        def write(self, text):
            if text != "a\r\n":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    opened = lti.open_output

    @contextlib.contextmanager
    def open_output(path, newline=None):
        with opened(path, newline) as fh:
            yield Full() if path.name == "first.csv" else fh

    monkeypatch.setattr(lti, "open_output", open_output)
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    with pytest.raises(ConfigurationError) as exc:
        write_rows(paths, ["a"], [[1], [1]], [["1\r\n", "2\r\n"]])
    assert str(exc.value) == f"{paths[0]}: cannot write: {os.strerror(errno.ENOSPC)}"


@st.composite
def lifted_runs(draw):
    """A random stable system, its chunk, a start state and an input of 1-40 chunks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, q, chunk = draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    a = rng.normal(size=(n, n))
    if n:
        a *= draw(st.floats(0.0, 0.99)) / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-3)
    ss = StateSpace(a, rng.normal(size=n), rng.normal(size=(q, n)), rng.normal(size=q))
    length = draw(st.integers(1, 40)) * chunk + draw(st.integers(0, chunk - 1))
    return ss, chunk, rng.normal(size=n), rng.normal(size=length)


def close(got, want):
    return np.max(np.abs(got - want), initial=0.0) <= 1e-12 * (1.0 + np.max(np.abs(want),
                                                                           initial=0.0))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(lifted_runs(), st.data())
def test_batched_lifted_run_matches_chunk_by_chunk(case, data):
    ss, chunk, x, u = case
    system = LiftedSystem(ss, chunk)
    y, x_end = system.run(x, u)
    want_y, want_x = per_chunk_run(ss, chunk, x, u)
    assert y.shape == want_y.shape and close(y, want_y) and close(x_end, want_x)
    assert system.advance(x, u).tobytes() == x_end.tobytes()
    # the same input in calls of at most BATCH whole chunks, the rest last
    pieces, state, at = [], x, 0
    while at < len(u):
        size = data.draw(st.integers(1, BATCH)) * chunk
        piece, state = system.run(state, u[at: at + size])
        pieces.append(piece)
        at += size
    assert np.concatenate(pieces).tobytes() == y.tobytes()
    assert state.tobytes() == x_end.tobytes()


@st.composite
def clamped_loops(draw):
    """A loop of a random stable plant and controller, a start state, a limit and an input.

    The controller's command is its first state, so the loop can be clamped.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, order, chunk = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    a = rng.normal(size=(n, n))
    a *= draw(st.floats(0.0, 0.99)) / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-3)
    plant = StateSpace(a, rng.normal(size=n), rng.normal(size=(3, n)),
                       np.append(0.0, rng.normal(size=2)))
    controller = DiscreteTransferFunction(np.append(0.0, rng.normal(size=order)),
                                          np.poly(rng.uniform(-0.9, 0.9, order)), 0)
    loop = ClosedLoop(SimpleNamespace(state_space=lambda: plant), controller, chunk)
    length = draw(st.integers(1, 40)) * chunk + draw(st.integers(0, chunk - 1))
    return loop, rng.normal(size=loop.order), rng.normal(), rng.normal(size=length)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(clamped_loops())
def test_clamped_lift_matches_clamping_sample_by_sample(case):
    # k samples of the clamped lift, over any number of chunks, are k
    # updates "set the command state to the limit, then step"
    loop, x, limit, u = case
    s = loop.command_state
    y, state = loop.clamped.run(np.append(x, limit), u)
    want = np.empty((len(u), 5))
    for k, u_k in enumerate(u):
        want[k, 4] = x[s]
        x = x.copy()
        x[s] = limit
        want[k, :4] = loop.c @ x + loop.d * u_k
        x = loop.a @ x + loop.b * u_k
    assert close(y, want) and close(state, np.append(x, limit))


def random_system(seed: int, n: int = 3, q: int = 2) -> StateSpace:
    rng = np.random.default_rng(seed)
    return StateSpace(0.3 * rng.normal(size=(n, n)), rng.normal(size=n),
                      rng.normal(size=(q, n)), rng.normal(size=q))


def edge_case(n: int, chunk: int, length: int):
    rng = np.random.default_rng(n)
    return random_system(n, n), chunk, rng.normal(size=n), rng.normal(size=length)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(lifted_runs())
@example(edge_case(0, 5, 23))     # no state
@example(edge_case(3, 1, 40))     # one-sample chunks
def test_lift_by_copies_matches_the_stacked_construction(case):
    ss, chunk, x, u = case
    with mock.patch.object(lti, "_LIFTS", {}):
        system = LiftedSystem(ss, chunk)
    with mock.patch.object(lti, "_LIFTS", {}), mock.patch.object(lti, "_build_lift", stacked_lift):
        stacked = LiftedSystem(ss, chunk)
    assert system.chunk == stacked.chunk
    for got, want in [(system._powers, stacked._powers), (system._gamma, stacked._gamma),
                      (system._outputs_t, stacked._outputs_t)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for piece in (u, u[: len(u) - 1]):
        y, x_end = system.run(x, piece)
        want_y, want_x = stacked.run(x, piece)
        assert y.tobytes() == want_y.tobytes() and x_end.tobytes() == want_x.tobytes()
        assert system.advance(x, piece).tobytes() == stacked.advance(x, piece).tobytes()


def test_equal_systems_share_one_lift(lift_builds):
    ss = random_system(0)
    first = LiftedSystem(ss, 8)
    second = LiftedSystem(StateSpace(ss.a.copy(), ss.b.copy(), ss.c.copy(), ss.d.copy()), 8)
    assert lift_builds == [(3, 2, 8)] and second._outputs_t is first._outputs_t
    LiftedSystem(ss, 7)
    assert len(lift_builds) == 2


def test_one_ulp_apart_builds_again(lift_builds):
    ss = random_system(0)
    a = ss.a.copy()
    a[1, 2] = np.nextafter(a[1, 2], np.inf)
    first, second = LiftedSystem(ss, 8), LiftedSystem(StateSpace(a, ss.b, ss.c, ss.d), 8)
    assert len(lift_builds) == 2
    assert first._powers[2].tobytes() != second._powers[2].tobytes()


def test_lift_memo_keeps_the_most_recently_used(lift_builds):
    systems = [random_system(seed) for seed in range(LIFT_MEMO + 3)]
    for ss in systems[:LIFT_MEMO]:
        LiftedSystem(ss, 8)
    LiftedSystem(systems[0], 8)               # reused, so no longer the least recent
    LiftedSystem(systems[LIFT_MEMO], 8)       # evicts systems[1]
    assert len(lift_builds) == LIFT_MEMO + 1 and len(lti._LIFTS) == LIFT_MEMO
    LiftedSystem(systems[0], 8)
    assert len(lift_builds) == LIFT_MEMO + 1
    LiftedSystem(systems[1], 8)
    assert len(lift_builds) == LIFT_MEMO + 2
    for ss in systems:
        LiftedSystem(ss, 8)
        assert len(lti._LIFTS) <= LIFT_MEMO


def test_lift_chunk_below_one_rejected():
    with pytest.raises(ConfigurationError, match="^chunk must be >= 1, got 0$"):
        LiftedSystem(random_system(0), 0)


def test_lift_arrays_refuse_writes(lift_builds):
    system = LiftedSystem(random_system(0), 8)
    for array in (system._powers, system._gamma, system._outputs_t):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


RC_RUN_PROBE = """
import json
import sys
import warnings
import numpy
eager = "numpy.ma" in sys.modules
from ventrc import (ExperimentSpec, design_pipeline, load_scenario, reference_profile,
                    run_experiment)
from ventrc.harness import identify
scenario, circuit = load_scenario("baby")
frf = identify("baby", "peep")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    fs, _ = design_pipeline({"baby_peep": frf}, frf,
                            period_n=len(reference_profile(scenario, circuit.sample_time)))
run_experiment(ExperimentSpec("baby", "rc", breaths=2, filterset=fs))
print(json.dumps({"scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
                  "numpy.ma": ["numpy.ma" in sys.modules, eager]}))
"""


def test_import_does_not_load_scipy_signal():
    # scipy.signal takes about a second to import; ventrc identifies, designs
    # and runs, the learning filter included, on numpy alone. numpy.ma (loaded
    # by np.unique's first call in numpy 2.x) is loaded only if importing
    # numpy loads it
    src = Path(ventrc.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", RC_RUN_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    loaded = json.loads(out.stdout)
    assert loaded["scipy"] == []
    after_run, after_import = loaded["numpy.ma"]
    assert after_run == after_import


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scenario", ["adult", "pediatric", "baby"])
def test_grids_as_with_np_unique(scenario):
    ts = load_scenario(scenario)[1].sample_time

    def grids():
        spec = sysid.MultisineSpec(bins_hz=harness.design_excitation_bins(ts),
                                   period_samples=round(4.0 / ts))
        return (rc_design.default_stability_grid(ts), harness.design_excitation_bins(ts),
                spec.snapped_bins(ts))

    got = grids()
    with mock.patch.object(rc_design, "sorted_distinct", np.unique), \
            mock.patch.object(harness, "sorted_distinct", np.unique), \
            mock.patch.object(sysid, "sorted_distinct", np.unique):
        want = grids()
    for g, w in zip(got, want):
        assert_same_array(g, w)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-300, 1e300), max_size=40), st.integers(1, 5))
def test_sorted_distinct_matches_np_unique_on_positive_floats(values, repeat):
    drawn = np.array(values * repeat, dtype=float)
    assert_same_array(lti.sorted_distinct(drawn), np.unique(drawn))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-1000, 1000), max_size=60), st.integers(1, 4))
def test_sorted_distinct_matches_np_unique_on_integers(values, repeat):
    drawn = np.array(values * repeat, dtype=int)
    assert_same_array(lti.sorted_distinct(drawn), np.unique(drawn))


@pytest.mark.parametrize("dtype", [float, int])
def test_sorted_distinct_of_nothing(dtype):
    assert_same_array(lti.sorted_distinct(np.array([], dtype=dtype)),
                      np.unique(np.array([], dtype=dtype)))

