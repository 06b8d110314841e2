"""A state-space system run one chunk per lifted matrix-vector product: the
oracle that the batched lti.LiftedSystem.run and advance are checked against.

The lifted matrix [[O, T], [A^m, G]] of each chunk length m is built here
element by element from its definition, apart from lti's construction.
"""

from __future__ import annotations

import numpy as np

from ventrc.lti import StateSpace


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
