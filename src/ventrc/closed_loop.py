"""Exact simulation of the plant in closed loop, a block of samples at a time.

The plant (`VentilatorPlant.state_space`) and the controller's realisation
(`lti.state_space`) form one discrete system x[k+1] = A x[k] + B v[k],
y[k] = C x[k] + D v[k].  Its input is v = reference + correction - sensor
noise, the error the controller integrates apart from the noise-free
measurement.  Its outputs are the measured airway pressure (noise-free), the
lung pressure before the step, the patient flow and the command.

`simulate` advances it a block of whole chunks at a time through the lifted
form (`lti.LiftedSystem`), which runs up to BATCH chunks in two matrix-matrix
products.  A block is BATCH chunks without the repetitive loop, and as many
whole chunks as its memory hands out in one piece with it, so that each
block takes one hand-out of corrections.  While the command is clamped at an
actuator limit the loop is linear too: `ClosedLoop.clamped` is that loop,
lifted the same way, with the limit as one more, constant, state.  Where a
block holds an event, it rebuilds the exact state at the event's sample and
goes on from there through the lift the event calls for:

- a command state outside the actuator limits is clamped, and integration
  stops, through the clamped lift until the command state is back inside
  them or beyond the other limit;
- a fault of the repetitive loop zeroes its correction from the faulting
  sample on;
- a measurement beyond the divergence bound ends the run at that sample.

pid and rc share the block rule's chunks: chunk boundaries lie at multiples
of the chunk length in either kind of block (after an event the run first
finishes the event's chunk), and each chunk's products have BATCH rows
however many chunks share them.  So a chunk's bits do not depend on the
block it falls in, and an rc run is bit-identical to pid until its memory
first fills.  Only the order of the floating-point sums differs from
stepping the streaming objects; tests pin the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .lti import BATCH, CHUNK, DiscreteTransferFunction, LiftedSystem, StateSpace, state_space

OUTPUTS = ("p_aw", "p_lung", "q_pat", "command")


class ClosedLoop(LiftedSystem):
    """The plant under a linear controller, lifted over chunks of up to `chunk` samples.

    `plant` is a VentilatorPlant (its coefficients are read, its streaming
    state is not used); `controller` is the transfer function from the
    error to the command.
    """

    def __init__(self, plant, controller: DiscreteTransferFunction, chunk: int = CHUNK):
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
        super().__init__(StateSpace(a, b, c, d), chunk)
        # the state that holds the command, if the command is one state alone
        unit = np.flatnonzero(c[3])
        self.command_state = int(unit[0]) if (
            len(unit) == 1 and c[3, unit[0]] == 1.0 and d[3] == 0.0) else None

    @cached_property
    def clamped(self) -> LiftedSystem:
        """The loop while its command is held at a limit, lifted with the loop's chunk.

        Its state is the loop's state before the clamp and the limit, a
        constant; its matrices are A P, A e, C P and C e, where P zeroes the
        command state and e is that state's unit vector.  Its outputs are
        OUTPUTS and then the command state before the clamp.
        """
        s = self.command_state

        def held(m):   # [m P, m e]
            out = np.column_stack([m, m[:, s]])
            out[:, s] = 0.0
            return out

        limit = np.eye(1, self.order + 1, self.order)
        a = np.vstack([held(self.a), limit])
        c = np.vstack([held(self.c), np.eye(1, self.order + 1, s)])
        return LiftedSystem(StateSpace(a, np.append(self.b, 0.0), c, np.append(self.d, 0.0)),
                            self.chunk)


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
    hits = flags.nonzero()[0]
    return int(hits[0]) if len(hits) else len(flags)


def simulate(loop: ClosedLoop, reference: np.ndarray, noise, bound: float, memory=None,
             output_limits: tuple[float, float] | None = None) -> LoopRun:
    """Run the closed loop from rest over the whole reference.

    noise(m) returns the next m sensor-noise samples.  A measurement that is
    not finite or exceeds `bound` in magnitude ends the run.  memory
    supplies the repetitive correction: `corrections(m)` for the next
    m <= memory.buffer_length samples before their errors exist, then
    `take_errors(errors)`, which returns the index of a faulting sample (the
    correction is zero from there on) or None.  output_limits clamps the
    command, which must then be a state of the loop, and stops integrating
    while clamped: a command state below the lower limit or above the upper
    one is set to that limit before the step.

    The reference is taken a block at a time (see the module docstring):
    BATCH chunks without memory, and with it the whole chunks of
    buffer_length, at most BATCH, with one hand-out of corrections.  Each
    block is run in segments, each through the free lift (`loop`) or the
    clamped one (`loop.clamped`) as the command state at its first sample
    says, up to the block's end or, after an event, the end of the event's
    chunk.
    """
    if output_limits is not None and loop.command_state is None:
        raise ConfigurationError("output limits need a controller whose command is one state")
    chunk = loop.chunk
    chunks = BATCH if memory is None else min(BATCH, memory.buffer_length // chunk)
    if chunks < 1:
        raise ConfigurationError(f"the repetitive loop's memory of {memory.buffer_length} "
                                 f"samples holds no whole chunk of {chunk} samples")
    lo, hi = output_limits or (None, None)
    total = len(reference)
    signals = np.empty((len(OUTPUTS), total))
    x = np.zeros(loop.order)
    k = 0
    while k < total:
        m = min(chunks * chunk, total - k)
        r = reference[k: k + m]
        c = memory.corrections(m) if memory is not None else np.zeros(m)
        n = noise(m)
        v = r + c - n
        j = 0
        while j < m:
            # to the end of the block, or of the chunk an event left
            last = m if j % chunk == 0 else min(m, j - j % chunk + chunk)
            # -1, 0 or 1: the command state below, inside or above the limits
            side = 0
            if output_limits is not None:
                command = float(x[loop.command_state])
                side = (command > hi) - (command < lo)
            if side:
                system, state = loop.clamped, np.append(x, lo if side < 0 else hi)
            else:
                system, state = loop, x
            y, state_end = system.run(state, v[j: last])
            y[:, 0] += n[j: last]      # the measurement, with the sensor noise
            measured = y[:, 0]
            stop = _first(~(np.abs(measured) <= bound))
            switch = len(measured)
            if output_limits is not None:
                # the command state before any clamp; the first sample's side is side
                before = y[1:, 3 if side == 0 else 4]
                leaves = ((before < lo) | (before > hi) if side == 0
                          else ~(before < lo) if side < 0 else ~(before > hi))
                switch = 1 + _first(leaves)
            end = min(stop, switch)
            if memory is not None:
                fault = memory.take_errors(r[j: j + end] - measured[:end])
                if fault is not None and c[j + fault:].any():
                    # rebuild the state at the faulting sample and go on without correction
                    end = fault
                    c[j + fault:] = 0.0
                    v[j + fault:] = r[j + fault:] - n[j + fault:]
            signals[:, k + j: k + j + end] = y[:end, :4].T
            if end == len(measured):
                x = state_end[: loop.order]
                j = last
                continue
            if end == stop:
                return LoopRun(signals[:, : k + j + end], float(measured[end]))
            x = system.advance(state, v[j: j + end])[: loop.order]
            j += end
        k += m
    return LoopRun(signals)
