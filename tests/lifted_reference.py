"""A state-space system run one chunk per lifted matrix-vector product: the
oracle that the batched lti.LiftedSystem.run and advance are checked against.

The lifted matrix [[O, T], [A^m, G]] of each chunk length m is built here
element by element from its definition, apart from lti's construction.
`stacked_lift` is lti's earlier construction of the same arrays, which
lti's build by copies must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from ventrc.lti import LIFT_BUDGET_BYTES, StateSpace


def lifted_matrix(ss: StateSpace, m: int) -> np.ndarray:
    """[y[0..m-1] (row-major, one row of outputs per sample); x[m]] from [x[0]; u[0..m-1]]."""
    a, b, c, d = ss.a, ss.b, ss.c, ss.d
    n, q = len(b), len(d)
    power = [np.eye(n)]
    for _ in range(m):
        power.append(a @ power[-1])
    lifted = np.zeros((m * q + n, n + m))
    for i in range(m):
        lifted[i * q: (i + 1) * q, :n] = c @ power[i]
        lifted[i * q: (i + 1) * q, n + i] = d
        for j in range(i):
            lifted[i * q: (i + 1) * q, n + j] = c @ power[i - j - 1] @ b
    lifted[m * q:, :n] = power[m]
    for j in range(m):
        lifted[m * q:, n + j] = power[m - j - 1] @ b
    return lifted


def per_chunk_run(ss: StateSpace, chunk: int, x: np.ndarray, u: np.ndarray):
    """Outputs (len(u), outputs) and the state after, one product per chunk."""
    q = len(ss.d)
    lifted = {}
    pieces = []
    for at in range(0, len(u), chunk):
        piece = u[at: at + chunk]
        m = len(piece)
        if m not in lifted:
            lifted[m] = lifted_matrix(ss, m)
        z = lifted[m] @ np.concatenate([x, piece])
        pieces.append(z[: m * q].reshape(m, q))
        x = z[m * q:]
    return np.concatenate(pieces), x


def stacked_lift(a, b, c, d, chunk: int) -> tuple:
    """lti._build_lift's (chunk, powers, G, [O T]^T), built as lti built them before.

    Each power is a new array, the Toeplitz part is gathered by fancy
    indexing under np.where, and [O T] is stacked with hstack, then
    transposed and copied.
    """
    n, q = len(b), len(d)
    while chunk > 1 and 8 * ((chunk + 1) * n * n + (chunk * q + n) * (n + chunk)) \
            > LIFT_BUDGET_BYTES:
        chunk -= 1
    powers = np.empty((chunk + 1, n, n))
    powers[0] = np.eye(n)
    for j in range(chunk):
        powers[j + 1] = a @ powers[j]
    ab = powers[:chunk] @ b
    markov = np.vstack([d, ab[: chunk - 1] @ c.T])
    lag = np.arange(chunk)[:, None] - np.arange(chunk)[None, :]
    toeplitz = np.where((lag >= 0)[:, :, None], markov[np.maximum(lag, 0)], 0.0)
    gamma = np.ascontiguousarray(ab[::-1].T)
    outputs_t = np.ascontiguousarray(np.hstack([
        (c @ powers[:chunk]).reshape(chunk * q, n),
        toeplitz.transpose(0, 2, 1).reshape(chunk * q, chunk)]).T)
    return chunk, powers, gamma, outputs_t
