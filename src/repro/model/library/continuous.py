"""Continuous-time blocks — integrated by the engine's fixed-step solver.

These model the *plant* side of the paper's single-model diagrams (the DC
motor, the mechanical load); the controller side is discrete because it
will become generated C code.
"""

from __future__ import annotations

import numpy as np

from ..block import Block, BlockContext, CONTINUOUS


class Integrator(Block):
    """``dy/dt = u`` with optional saturation limits on the state."""

    n_in = 1
    n_out = 1
    direct_feedthrough = False
    num_continuous_states = 1
    sample_time = CONTINUOUS
    time_invariant = True

    def __init__(
        self,
        name: str,
        initial: float = 0.0,
        lower: float = -np.inf,
        upper: float = np.inf,
    ):
        super().__init__(name)
        if upper <= lower:
            raise ValueError("upper limit must exceed lower limit")
        self.initial = float(initial)
        self.lower = float(lower)
        self.upper = float(upper)

    def initial_continuous_states(self):
        return [self.initial]

    def outputs(self, t, u, ctx):
        return [float(np.clip(ctx.x[0], self.lower, self.upper))]

    def derivatives(self, t, u, ctx):
        x = ctx.x[0]
        # stop integrating into a saturated limit (anti-windup on the state)
        if x >= self.upper and u[0] > 0:
            return [0.0]
        if x <= self.lower and u[0] < 0:
            return [0.0]
        return [u[0]]

    def supports_batch(self):
        return True

    def batch_outputs(self, t, u, ctx):
        return [np.clip(ctx.x[0], self.lower, self.upper)]

    def batch_derivatives(self, t, u, ctx):
        x = ctx.x[0]
        du = u[0]
        hold = ((x >= self.upper) & (du > 0)) | ((x <= self.lower) & (du < 0))
        return [np.where(hold, 0.0, du)]


class StateSpace(Block):
    """``dx/dt = A x + B u;  y = C x + D u`` (MIMO)."""

    sample_time = CONTINUOUS
    time_invariant = True

    def __init__(self, name: str, A, B, C, D=None, x0=None):
        super().__init__(name)
        self.A = np.atleast_2d(np.asarray(A, dtype=np.float64))
        self.B = np.atleast_2d(np.asarray(B, dtype=np.float64))
        self.C = np.atleast_2d(np.asarray(C, dtype=np.float64))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B row count must match A")
        if self.C.shape[1] != n:
            raise ValueError("C column count must match A")
        m = self.B.shape[1]
        p = self.C.shape[0]
        self.D = (
            np.zeros((p, m))
            if D is None
            else np.atleast_2d(np.asarray(D, dtype=np.float64))
        )
        if self.D.shape != (p, m):
            raise ValueError(f"D must be {p}x{m}")
        self.x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
        if self.x0.shape != (n,):
            raise ValueError(f"x0 must have length {n}")
        self.n_in = m
        self.n_out = p
        self.num_continuous_states = n
        self.direct_feedthrough = bool(np.any(self.D != 0.0))

    def initial_continuous_states(self):
        return list(self.x0)

    def outputs(self, t, u, ctx):
        uv = np.asarray(u, dtype=np.float64)
        y = self.C @ ctx.x + self.D @ uv
        return list(y)

    def derivatives(self, t, u, ctx):
        uv = np.asarray(u, dtype=np.float64)
        return list(self.A @ ctx.x + self.B @ uv)


class TransferFunction(StateSpace):
    """SISO continuous transfer function ``num(s)/den(s)`` (descending
    powers), realised in controllable canonical form."""

    def __init__(self, name: str, num, den):
        num = [float(v) for v in num]
        den = [float(v) for v in den]
        #: the coefficients as given: what the model document stores
        self.num, self.den = num, den
        if not den or den[0] == 0.0:
            raise ValueError("den[0] must be nonzero")
        if len(num) > len(den):
            raise ValueError("improper transfer function")
        a0 = den[0]
        den = [v / a0 for v in den]
        num = [v / a0 for v in num]
        n = len(den) - 1
        if n == 0:
            raise ValueError("static gain has no state; use Gain instead")
        num = [0.0] * (len(den) - len(num)) + num
        d = num[0]
        # controllable canonical form
        A = np.zeros((n, n))
        A[:-1, 1:] = np.eye(n - 1)
        A[-1, :] = [-den[n - i] for i in range(n)]
        B = np.zeros((n, 1))
        B[-1, 0] = 1.0
        # y = sum (b_i - d*a_i) x_i  with coefficients aligned to the state order
        C = np.array([[num[n - i] - d * den[n - i] for i in range(n)]])
        D = np.array([[d]])
        super().__init__(name, A, B, C, D)
