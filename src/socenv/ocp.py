"""Continuous-time Bolza problem model and the bundled academic benchmark.

Path constraints are componentwise boxes on states and controls; the envelope
transcription bounds each spline channel, so general nonlinear path
constraints are deliberately not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


@dataclass
class OcpProblem:
    """Continuous Bolza problem: dynamics, costs, boxes, initial state, horizon.

    ``dynamics(x, u)`` returns xdot; ``dynamics_jacobians`` optionally supplies
    (df/dx, df/du) callbacks.  ``terminal_constraint`` follows the g(x) <= 0
    convention.  All callbacks must be pure.
    """

    n_x: int
    n_u: int
    dynamics: Callable[[Vector, Vector], Vector]
    stage_cost: Callable[[Vector, Vector], float]
    x_lower: Vector
    x_upper: Vector
    u_lower: Vector
    u_upper: Vector
    x0: Vector
    t0: float
    tf: float
    terminal_cost: Optional[Callable[[Vector], float]] = None
    terminal_constraint: Optional[Callable[[Vector], Vector]] = None
    dynamics_jacobians: Optional[tuple] = None
    stage_cost_grad: Optional[Callable[[Vector, Vector], tuple]] = None
    stage_cost_hess: Optional[Callable[[Vector, Vector], tuple]] = None
    terminal_cost_grad: Optional[Callable[[Vector], Vector]] = None
    name: str = "ocp"

    def __post_init__(self):
        for attr in ("x_lower", "x_upper", "u_lower", "u_upper", "x0"):
            setattr(self, attr, np.asarray(getattr(self, attr), dtype=float))
        if not self.tf > self.t0:
            raise ValueError(f"tf={self.tf} must exceed t0={self.t0}")
        if np.any(self.x_lower > self.x_upper) or np.any(self.u_lower > self.u_upper):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        if np.any(self.x0 < self.x_lower) or np.any(self.x0 > self.x_upper):
            raise ValueError("initial state violates the state box")
        for v, n in ((self.x_lower, self.n_x), (self.x_upper, self.n_x),
                     (self.u_lower, self.n_u), (self.u_upper, self.n_u),
                     (self.x0, self.n_x)):
            if v.shape != (n,):
                raise ValueError(f"bound/initial vector has shape {v.shape}, expected ({n},)")


def academic_problem() -> OcpProblem:
    """Scalar constrained LQ benchmark.

    min (1/2) int_0^1 (x^2 + u^2) dt  s.t.  xdot = -x + u,
    0.2 <= x <= 1.0,  -0.3 <= u <= -0.1,  x(0) = 1.
    """

    def dynamics(x, u):
        return np.array([-x[0] + u[0]])

    fx = lambda x, u: np.array([[-1.0]])
    fu = lambda x, u: np.array([[1.0]])

    def stage_cost(x, u):
        return 0.5 * float(x[0] ** 2 + u[0] ** 2)

    def stage_cost_grad(x, u):
        return np.array([x[0]]), np.array([u[0]])

    def stage_cost_hess(x, u):
        return np.array([[1.0]]), np.zeros((1, 1)), np.array([[1.0]])

    return OcpProblem(
        n_x=1,
        n_u=1,
        dynamics=dynamics,
        stage_cost=stage_cost,
        x_lower=np.array([0.2]),
        x_upper=np.array([1.0]),
        u_lower=np.array([-0.3]),
        u_upper=np.array([-0.1]),
        x0=np.array([1.0]),
        t0=0.0,
        tf=1.0,
        dynamics_jacobians=(fx, fu),
        stage_cost_grad=stage_cost_grad,
        stage_cost_hess=stage_cost_hess,
        name="academic",
    )
