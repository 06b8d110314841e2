"""Exact simulation of the plant in closed loop, a chunk of samples at a time.

The plant (`VentilatorPlant.state_space`) and the controller's realisation
(`lti.state_space`) form one discrete system x[k+1] = A x[k] + B v[k],
y[k] = C x[k] + D v[k].  Its input is v = reference + correction - sensor
noise, the error the controller integrates apart from the noise-free
measurement.  Its outputs are the measured airway pressure (noise-free), the
lung pressure before the step, the patient flow and the command.

Over a chunk of m samples the outputs and the final state follow from the
start state and the chunk's inputs alone.  This is the lifted
("supervector") form of iterative learning control:

    [y[0..m-1]; x[m]] = [[O, T], [A^m, G]] [x[0]; v[0..m-1]]

with O the stacked C A^j, T the lower block-triangular Toeplitz matrix of
the Markov parameters and G = [A^(m-1) B ... B].  `simulate` precomputes
that matrix once and advances a whole chunk with one product.  Where a
chunk holds an event, it rebuilds the exact state at the event's sample and
goes on from there:

- a command outside the actuator limits is clamped, and integration
  stops, one sample at a time until the command is back inside them;
- a fault of the repetitive loop zeroes its correction from the faulting
  sample on;
- a measurement beyond the divergence bound ends the run at that sample.

Only the order of the floating-point sums differs from stepping the
streaming objects; tests pin the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lti import DiscreteTransferFunction, state_space

CHUNK = 128
OUTPUTS = ("p_aw", "p_lung", "q_pat", "command")


class ClosedLoop:
    """The plant under a linear controller, lifted over chunks of up to `chunk` samples.

    `plant` is a VentilatorPlant (its coefficients are read, its streaming
    state is not used); `controller` is the transfer function from the
    error to the command.
    """

    def __init__(self, plant, controller: DiscreteTransferFunction, chunk: int = CHUNK):
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        p, k = plant.state_space(), state_space(controller)
        n_p = len(p.b)
        n = n_p + len(k.b)
        measured = p.c[0]   # no feedthrough (measurement delay >= 1)
        # the command, from the controller input e = v - measured
        u_row = np.concatenate([-k.d[0] * measured, k.c[0]])
        u_in = k.d[0]
        a = np.zeros((n, n))
        a[:n_p] = np.outer(p.b, u_row)
        a[:n_p, :n_p] += p.a
        a[n_p:, :n_p] = -np.outer(k.b, measured)
        a[n_p:, n_p:] = k.a
        b = np.concatenate([p.b * u_in, k.b])
        c = np.zeros((len(OUTPUTS), n))
        c[:3] = np.outer(p.d, u_row)
        c[:3, :n_p] += p.c
        c[3] = u_row
        d = np.append(p.d * u_in, u_in)
        self.a, self.b, self.c, self.d = a, b, c, d
        self.chunk = chunk
        # the state that holds the command, if the command is one state alone
        unit = np.flatnonzero(c[3])
        self.command_state = int(unit[0]) if (
            len(unit) == 1 and c[3, unit[0]] == 1.0 and d[3] == 0.0) else None

        powers = np.empty((chunk + 1, n, n))
        powers[0] = np.eye(n)
        for j in range(chunk):
            powers[j + 1] = a @ powers[j]
        ab = powers[:chunk] @ b                               # A^i B
        markov = np.vstack([d, ab[: chunk - 1] @ c.T])        # D, C B, C A B, ...
        lag = np.arange(chunk)[:, None] - np.arange(chunk)[None, :]
        toeplitz = np.where((lag >= 0)[:, :, None], markov[np.maximum(lag, 0)], 0.0)
        q = len(OUTPUTS)
        self._powers = powers
        self._gamma = np.ascontiguousarray(ab[::-1].T)        # columns A^(m-1-i) B
        self._lifted = np.block([
            [(c @ powers[:chunk]).reshape(chunk * q, n),
             toeplitz.transpose(0, 2, 1).reshape(chunk * q, chunk)],
            [powers[chunk], self._gamma],
        ])

    @property
    def order(self) -> int:
        return len(self.b)

    def run(self, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Outputs (len(v), 4) of up to `chunk` samples from state x, and the state after."""
        m, n, q = len(v), self.order, len(OUTPUTS)
        xv = np.concatenate([x, v])
        if m == self.chunk:
            z = self._lifted @ xv
            return z[: m * q].reshape(m, q), z[m * q:]
        return (self._lifted[: m * q, : n + m] @ xv).reshape(m, q), self.advance(x, v)

    def advance(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The state after up to `chunk` samples of input v from state x."""
        m = len(v)
        return self._powers[m] @ x + self._gamma[:, self.chunk - m:] @ v


@dataclass
class LoopRun:
    """Logged signals of a simulated run, one row per output of OUTPUTS.

    The measured pressure includes the sensor noise.  When a measurement
    crossed the divergence bound, the run ends before that sample and
    `diverged` holds the measurement.
    """

    signals: np.ndarray
    diverged: float | None = None

    @property
    def samples(self) -> int:
        return self.signals.shape[1]


def _first(flags: np.ndarray) -> int:
    return int(np.argmax(flags)) if flags.any() else len(flags)


def simulate(loop: ClosedLoop, reference: np.ndarray, noise, bound: float, memory=None,
             output_limits: tuple[float, float] | None = None) -> LoopRun:
    """Run the closed loop from rest over the whole reference.

    noise(m) returns the next m sensor-noise samples.  A measurement that is
    not finite or exceeds `bound` in magnitude ends the run.  memory
    supplies the repetitive correction: `corrections(m)` for the next
    m <= loop.chunk samples before their errors exist, then
    `take_errors(errors)`, which returns the index of a faulting sample (the
    correction is zero from there on) or None.  output_limits clamps the
    command, which must then be a state of the loop, and stops integrating
    while clamped.
    """
    if output_limits is not None and loop.command_state is None:
        raise ConfigurationError("output limits need a controller whose command is one state")
    total = len(reference)
    signals = np.empty((len(OUTPUTS), total))
    x = np.zeros(loop.order)
    stepping = False           # inside a clamp episode: one sample at a time
    k = 0
    while k < total:
        m = min(loop.chunk, total - k)
        r = reference[k: k + m]
        c = memory.corrections(m) if memory is not None else np.zeros(m)
        n = noise(m)
        v = r + c - n
        j = 0
        while j < m:
            if stepping:
                s = x[loop.command_state]
                lo, hi = output_limits
                stepping = s < lo or s > hi
                if stepping:
                    x[loop.command_state] = min(max(s, lo), hi)
                measured = loop.c[0] @ x + n[j]
                if not abs(measured) <= bound:
                    return LoopRun(signals[:, : k + j], float(measured))
                if memory is not None and memory.take_errors(r[j: j + 1] - measured) is not None:
                    c[j:] = 0.0
                    v[j:] = r[j:] - n[j:]
                signals[:, k + j] = loop.c @ x + loop.d * v[j]
                signals[0, k + j] = measured
                x = loop.advance(x, v[j: j + 1])
                j += 1
                continue

            y, x_end = loop.run(x, v[j:])
            measured = y[:, 0] + n[j:]
            stop = _first(~(np.abs(measured) <= bound))
            clamp = len(measured)
            if output_limits is not None:
                command = y[:, 3]
                clamp = _first((command < output_limits[0]) | (command > output_limits[1]))
            end = min(stop, clamp)
            if memory is not None:
                fault = memory.take_errors(r[j: j + end] - measured[:end])
                if fault is not None and c[j + fault:].any():
                    # rebuild the state at the faulting sample and go on without correction
                    signals[:, k + j: k + j + fault] = y[:fault].T
                    signals[0, k + j: k + j + fault] = measured[:fault]
                    x = loop.advance(x, v[j: j + fault])
                    c[j + fault:] = 0.0
                    v[j + fault:] = r[j + fault:] - n[j + fault:]
                    j += fault
                    continue
            signals[:, k + j: k + j + end] = y[:end].T
            signals[0, k + j: k + j + end] = measured[:end]
            if end == len(measured):
                x = x_end
                break
            if end == stop:
                return LoopRun(signals[:, : k + j + end], float(measured[end]))
            x = loop.advance(x, v[j: j + end])
            j += end
            stepping = True
        k += m
    return LoopRun(signals)
