"""Fixed-step RK4 helpers shared by the shooting transcription and analysis."""

from __future__ import annotations

import numpy as np


def rk4_step(f, x, u, h):
    """One RK4 step with the control held constant over the step."""
    k1 = f(x, u)
    k2 = f(x + 0.5 * h * k1, u)
    k3 = f(x + 0.5 * h * k2, u)
    k4 = f(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_timed(f, x, u0, um, u1, h):
    """One RK4 step with the control sampled at the stage times t, t + h/2, t + h."""
    k1 = f(x, u0)
    k2 = f(x + 0.5 * h * k1, um)
    k3 = f(x + 0.5 * h * k2, um)
    k4 = f(x + h * k3, u1)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_jacobians(f, fx, fu, x, u, h):
    """RK4 step and its exact Jacobians w.r.t. x and u (control held constant).

    ``fx``/``fu`` evaluate the continuous-time Jacobians; the step Jacobians
    follow by chaining them through the four stages.
    """
    n = x.shape[0]
    eye = np.eye(n)

    k1 = f(x, u)
    a1, b1 = fx(x, u), fu(x, u)
    dk1_dx, dk1_du = a1, b1

    x2 = x + 0.5 * h * k1
    k2 = f(x2, u)
    a2, b2 = fx(x2, u), fu(x2, u)
    dk2_dx = a2 @ (eye + 0.5 * h * dk1_dx)
    dk2_du = a2 @ (0.5 * h * dk1_du) + b2

    x3 = x + 0.5 * h * k2
    k3 = f(x3, u)
    a3, b3 = fx(x3, u), fu(x3, u)
    dk3_dx = a3 @ (eye + 0.5 * h * dk2_dx)
    dk3_du = a3 @ (0.5 * h * dk2_du) + b3

    x4 = x + h * k3
    k4 = f(x4, u)
    a4, b4 = fx(x4, u), fu(x4, u)
    dk4_dx = a4 @ (eye + h * dk3_dx)
    dk4_du = a4 @ (h * dk3_du) + b4

    x_next = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    jx = eye + (h / 6.0) * (dk1_dx + 2.0 * dk2_dx + 2.0 * dk3_dx + dk4_dx)
    ju = (h / 6.0) * (dk1_du + 2.0 * dk2_du + 2.0 * dk3_du + dk4_du)
    return x_next, jx, ju
