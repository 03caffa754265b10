"""Continuous-time Bolza problem model and the bundled academic benchmark.

Path constraints are componentwise boxes on states and controls; the envelope
transcription bounds each spline channel, so general nonlinear path
constraints are deliberately not modeled.  Model derivatives are required:
every transcription and the reference solve use them.  The one exception is
``terminal_constraint``, whose Jacobian the solver takes by central
differences; no bundled problem sets one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .polynomial import TimeMap

Vector = np.ndarray


@dataclass
class OcpProblem:
    """Continuous Bolza problem: dynamics, costs, boxes, initial state, horizon.

    ``dynamics(x, u)`` returns xdot and ``dynamics_jacobians`` is the pair of
    (df/dx, df/du) callbacks.  ``dynamics_hessian(x, u, mult)`` returns the
    (n_x + n_u) square Hessian of mult' f over (x, u), states first; the
    collocation SQP uses it for the constraint curvature of its Lagrangian
    Hessian.  ``stage_cost_grad(x, u)`` returns (l_x, l_u)
    and ``stage_cost_hess(x, u)`` returns (l_xx, l_xu, l_uu).  A
    ``terminal_cost`` comes with its ``terminal_cost_grad`` and its
    ``terminal_cost_hess`` (the n_x square Hessian).  ``terminal_constraint``
    follows the g(x) <= 0 convention.  The horizon [t0, tf] is finite.  All
    callbacks must be pure.
    """

    n_x: int
    n_u: int
    dynamics: Callable[[Vector, Vector], Vector]
    dynamics_jacobians: tuple
    dynamics_hessian: Callable[[Vector, Vector, Vector], np.ndarray]
    stage_cost: Callable[[Vector, Vector], float]
    stage_cost_grad: Callable[[Vector, Vector], tuple]
    stage_cost_hess: Callable[[Vector, Vector], tuple]
    x_lower: Vector
    x_upper: Vector
    u_lower: Vector
    u_upper: Vector
    x0: Vector
    t0: float
    tf: float
    terminal_cost: Optional[Callable[[Vector], float]] = None
    terminal_cost_grad: Optional[Callable[[Vector], Vector]] = None
    terminal_cost_hess: Optional[Callable[[Vector], np.ndarray]] = None
    terminal_constraint: Optional[Callable[[Vector], Vector]] = None

    def __post_init__(self):
        if self.terminal_cost is not None:
            for name in ("terminal_cost_grad", "terminal_cost_hess"):
                if getattr(self, name) is None:
                    raise ValueError(f"terminal_cost needs {name}")
        for attr in ("x_lower", "x_upper", "u_lower", "u_upper", "x0"):
            setattr(self, attr, np.asarray(getattr(self, attr), dtype=float))
        TimeMap(self.t0, self.tf)   # rejects a non-finite or empty horizon
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
    f_hess = lambda x, u, mult: np.zeros((2, 2))   # linear dynamics

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
        dynamics_hessian=f_hess,
        stage_cost_grad=stage_cost_grad,
        stage_cost_hess=stage_cost_hess,
    )
