"""Curvilinear single-track vehicle model for the valet-parking benchmark.

State ordering: x = [v_x, v_y, r, s, w, theta, w_p, theta_p, delta, t_r]
  v_x, v_y   body-frame velocities (m/s)
  r          yaw rate (rad/s)
  s          arc-length progress along the centerline (m)
  w, theta   lateral deviation (m) and heading error (rad) to the centerline
  w_p, theta_p  parking-spot position (m) and heading (rad) tracking errors
  delta      steering angle (rad)
  t_r        normalized longitudinal acceleration command (-)
Input: u = [t_r_dot, delta_dot] (rates; the model is input-rate augmented).

The derivative is a convex fusion of a dynamic single-track model (linear
tires, slip angles guarded by a smooth floor on v_x so the model stays
differentiable through standstill) and a kinematic single-track model, so the
vehicle can start from and come to rest:

    xdot = lam * f_dyn(x, u) + (1 - lam) * f_kin(x, u)

The model and its derivatives are derived symbolically by
``vehicle_codegen`` and committed as the generated module ``vehicle_model``:
three plain-float math-module functions, f; (df/dx, df/du) in one call; and
the Hessian over (x, u) of mult' f for a multiplier vector mult. They take
the physical parameters as arguments, so nothing is derived or compiled at
run time and sympy is not imported. The curvature kappa_c(s) and its
s-derivative kappa' enter as runtime arguments; kappa' scales the df/dkappa
term of the chain rule in every s-derivative. The Hessian takes
kappa'' = 0, which is exact for kappa linear in s (clothoid track
segments); it only shapes the SQP's quadratic model, while the solver's
stopping test uses the exact first derivatives.

All numeric parameter defaults are artifact-chosen compact-EV-scale values
(the benchmark properties do not depend on the exact numbers); see
``configs/avp_default.yaml`` for the documented schema with units.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import vehicle_model
from .errors import DomainError, SingularCurvilinearError
from .ocp import OcpProblem

N_STATES = 10
N_INPUTS = 2

_SINGULARITY_TOL = 1e-9

# The float fields of VehicleParams, each settable from a config file.
_SCALAR_FIELDS = (
    "mass", "inertia_z", "l_f", "l_r", "c_alpha_f", "c_alpha_r", "a_max",
    "drive_split", "roll_resist", "drag_coeff", "v_eps", "fusion_lambda",
    "kappa_const", "w_min", "w_max", "s_target", "blend_sharpness", "v_ref",
    "q_wp", "q_theta_p",
)
_UPPER = np.triu_indices(N_STATES + N_INPUTS)   # (x, u) Hessian entries generated


def _default_q() -> np.ndarray:
    return np.diag([1.0, 0.1, 0.1, 0.0, 5.0, 2.0, 0.0, 0.0, 0.1, 0.1])


def _default_r() -> np.ndarray:
    return np.diag([0.5, 0.5])


@dataclass
class VehicleParams:
    """Physical, track and cost parameters of the parking benchmark."""

    mass: float = 1200.0          # kg
    inertia_z: float = 1800.0     # kg m^2
    l_f: float = 1.25             # m, CoG to front axle
    l_r: float = 1.35             # m, CoG to rear axle
    c_alpha_f: float = 60000.0    # N/rad, front cornering stiffness
    c_alpha_r: float = 65000.0    # N/rad, rear cornering stiffness
    a_max: float = 3.0            # m/s^2, acceleration at t_r = 1
    drive_split: float = 0.5      # front-axle share of longitudinal force
    roll_resist: float = 140.0    # N, rolling-resistance magnitude
    drag_coeff: float = 0.45      # N s^2/m^2, aerodynamic drag
    v_eps: float = 0.1            # m/s, smooth floor for slip-angle divisions
    fusion_lambda: float = 0.2    # dynamic/kinematic blend in [0, 1]
    kappa_const: float = 0.0      # 1/m, centerline curvature when no callback set
    curvature: Optional[Callable[[float], float]] = None        # kappa(s), 1/m
    curvature_deriv: Optional[Callable[[float], float]] = None  # dkappa/ds, given with curvature
    w_min: float = -3.0           # m, right track limit
    w_max: float = 3.0            # m, left track limit
    s_target: float = 8.0         # m, parking-spot arc length
    blend_sharpness: float = 0.5  # 1/m^2, parking-objective fade-in rate
    v_ref: float = 1.5            # m/s, tracked forward speed
    Q: np.ndarray = field(default_factory=_default_q)    # 10x10, PSD
    R: np.ndarray = field(default_factory=_default_r)    # 2x2, PD
    q_wp: float = 1.0
    q_theta_p: float = 1.0

    def __post_init__(self):
        if (self.curvature is None) != (self.curvature_deriv is None):
            raise ValueError("curvature and curvature_deriv must be given together")
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        # NaN passes every comparison below, so finiteness is checked first.
        for name in _SCALAR_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("Q", "R"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must have finite entries")
        for name in ("mass", "inertia_z", "l_f", "l_r", "c_alpha_f", "c_alpha_r",
                     "a_max", "v_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.fusion_lambda <= 1.0:
            raise ValueError("fusion_lambda must lie in [0, 1]")
        if self.Q.shape != (N_STATES, N_STATES) or self.R.shape != (N_INPUTS, N_INPUTS):
            raise ValueError("Q must be 10x10 and R 2x2")
        if np.min(np.linalg.eigvalsh(0.5 * (self.Q + self.Q.T))) < -1e-10:
            raise ValueError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(0.5 * (self.R + self.R.T))) <= 0:
            raise ValueError("R must be positive definite")

    def kappa_at(self, s: float) -> float:
        return self.curvature(s) if self.curvature is not None else self.kappa_const


# The physical parameters of a VehicleParams, in the order the generated
# functions take them last.
_model_params = operator.attrgetter(*vehicle_model.PARAMS)


def _model_point(x, u, p: VehicleParams) -> list:
    """[*x, *u, kappa(s), lambda] as floats, checked for the 1 - kappa*w singularity."""
    point = np.asarray(x, dtype=float).tolist() + np.asarray(u, dtype=float).tolist()
    s, w = point[3], point[4]
    kap = p.kappa_at(s)
    if abs(1.0 - kap * w) < _SINGULARITY_TOL:
        raise SingularCurvilinearError(f"1 - kappa*w = {1.0 - kap * w:.3e} at s={s:.3f}")
    return point + [kap, p.fusion_lambda]


def _evaluate(fun, args: list, p: VehicleParams) -> np.ndarray:
    """fun(*args, *params) as a float array; DomainError where it overflows,
    fails or is not finite."""
    try:
        out = fun(*args, *_model_params(p))
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"vehicle model undefined: {exc}") from exc
    if not math.isfinite(sum(args) + sum(out)):
        raise DomainError("vehicle model not finite at this state and control")
    return np.array(out, dtype=float)


def vehicle_dynamics(x, u, p: VehicleParams) -> np.ndarray:
    """Fused state derivative.

    Raises a DomainError where the model is undefined: SingularCurvilinearError
    at 1 - kappa*w ~ 0, and a plain DomainError at a non-finite state or
    control, or where the model overflows or leaves a math-function domain.
    """
    return _evaluate(vehicle_model.f, _model_point(x, u, p), p)


def _derivative_point(x, u, p: VehicleParams) -> list:
    """The ``_model_point`` followed by dkappa/ds, as the derivative functions take it."""
    point = _model_point(x, u, p)
    return point + [p.curvature_deriv(point[3]) if p.curvature_deriv is not None else 0.0]


def vehicle_jacobians(x, u, p: VehicleParams):
    """Analytic (df/dx, df/du), with the curvature s-dependence chained in.

    The two are views of one array. Raises the DomainErrors of vehicle_dynamics.
    """
    jac = _evaluate(vehicle_model.jac, _derivative_point(x, u, p), p)
    return (jac[:N_STATES * N_STATES].reshape(N_STATES, N_STATES),
            jac[N_STATES * N_STATES:].reshape(N_STATES, N_INPUTS))


def vehicle_dynamics_hessian(x, u, mult, p: VehicleParams) -> np.ndarray:
    """The (12, 12) Hessian of mult' f over (x, u), states first.

    The curvature enters as in ``vehicle_jacobians``, with kappa'' taken as 0
    (see the module docstring). Raises the DomainErrors of vehicle_dynamics,
    and a DomainError at a non-finite multiplier.
    """
    args = _derivative_point(x, u, p) + np.asarray(mult, dtype=float).tolist()
    upper = _evaluate(vehicle_model.hess, args, p)
    hess = np.empty((N_STATES + N_INPUTS, N_STATES + N_INPUTS))
    hess[_UPPER] = upper
    hess.T[_UPPER] = upper
    return hess


def avp_stage_cost(x, u, x_ref, p: VehicleParams) -> float:
    """Quadratic tracking cost plus the distance-gated parking objective."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dx = x - np.asarray(x_ref, dtype=float)
    gate = np.exp(-p.blend_sharpness * (x[3] - p.s_target) ** 2)
    parking = (1.0 - gate) * (p.q_wp * x[6] ** 2 + p.q_theta_p * x[7] ** 2)
    return float(dx @ p.Q @ dx + u @ p.R @ u + parking)


def avp_stage_cost_grad(x, u, x_ref, p: VehicleParams):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dx = x - np.asarray(x_ref, dtype=float)
    gx = 2.0 * p.Q @ dx
    gate = np.exp(-p.blend_sharpness * (x[3] - p.s_target) ** 2)
    quad = p.q_wp * x[6] ** 2 + p.q_theta_p * x[7] ** 2
    gx[3] += 2.0 * p.blend_sharpness * (x[3] - p.s_target) * gate * quad
    gx[6] += (1.0 - gate) * 2.0 * p.q_wp * x[6]
    gx[7] += (1.0 - gate) * 2.0 * p.q_theta_p * x[7]
    return gx, 2.0 * p.R @ u


def avp_stage_cost_hess(x, u, x_ref, p: VehicleParams):
    """(lxx, lxu, luu) of the stage cost; the gate couples s with (w_p, theta_p)."""
    x = np.asarray(x, dtype=float)
    lxx = 2.0 * p.Q.copy()
    a = p.blend_sharpness
    ds = x[3] - p.s_target
    gate = np.exp(-a * ds ** 2)
    quad = p.q_wp * x[6] ** 2 + p.q_theta_p * x[7] ** 2
    lxx[3, 3] += (2.0 * a - 4.0 * a ** 2 * ds ** 2) * gate * quad
    c_wp = 2.0 * a * ds * gate * 2.0 * p.q_wp * x[6]
    c_tp = 2.0 * a * ds * gate * 2.0 * p.q_theta_p * x[7]
    lxx[3, 6] += c_wp
    lxx[6, 3] += c_wp
    lxx[3, 7] += c_tp
    lxx[7, 3] += c_tp
    lxx[6, 6] += (1.0 - gate) * 2.0 * p.q_wp
    lxx[7, 7] += (1.0 - gate) * 2.0 * p.q_theta_p
    return lxx, np.zeros((N_STATES, N_INPUTS)), 2.0 * p.R.copy()


def avp_reference(p: VehicleParams) -> np.ndarray:
    """Zero reference for all states except the tracked forward speed."""
    x_ref = np.zeros(N_STATES)
    x_ref[0] = p.v_ref
    return x_ref


def avp_problem(p: Optional[VehicleParams] = None, t0: float = 0.0, tf: float = 2.0,
                x0: Optional[np.ndarray] = None) -> OcpProblem:
    """Single-shot valet-parking OCP, initialized near the lateral track limit."""
    p = p or VehicleParams()
    if x0 is None:
        x0 = np.zeros(N_STATES)
        x0[0] = 1.0      # rolling start
        x0[4] = 2.99     # just inside the lateral bound
    x_ref = avp_reference(p)

    x_lower = np.array([-1.0, -2.0, -2.0, -1.0, p.w_min, -np.pi / 2,
                        -5.0, -np.pi, -0.6, -1.0])
    x_upper = np.array([10.0, 2.0, 2.0, 50.0, p.w_max, np.pi / 2,
                        5.0, np.pi, 0.6, 1.0])
    u_lower = np.array([-1.0, -0.7])
    u_upper = np.array([1.0, 0.7])

    return OcpProblem(
        n_x=N_STATES,
        n_u=N_INPUTS,
        dynamics=lambda x, u: vehicle_dynamics(x, u, p),
        stage_cost=lambda x, u: avp_stage_cost(x, u, x_ref, p),
        x_lower=x_lower,
        x_upper=x_upper,
        u_lower=u_lower,
        u_upper=u_upper,
        x0=np.asarray(x0, dtype=float),
        t0=t0,
        tf=tf,
        dynamics_jacobians=(
            lambda x, u: vehicle_jacobians(x, u, p)[0],
            lambda x, u: vehicle_jacobians(x, u, p)[1],
        ),
        dynamics_hessian=lambda x, u, mult: vehicle_dynamics_hessian(x, u, mult, p),
        stage_cost_grad=lambda x, u: avp_stage_cost_grad(x, u, x_ref, p),
        stage_cost_hess=lambda x, u: avp_stage_cost_hess(x, u, x_ref, p),
    )


def _config_number(section: dict, key: str) -> float:
    try:
        return float(section[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r} must be a number, got {section[key]!r}") from exc


def vehicle_params_from_dict(d: dict) -> VehicleParams:
    """Build params from a config mapping; Q/R are given as diagonals or full matrices."""
    unknown = set(d) - set(_SCALAR_FIELDS) - {"q_diag", "r_diag", "Q", "R"}
    if unknown:
        raise ValueError(f"unknown vehicle config keys: {sorted(unknown)}")
    kwargs = {key: _config_number(d, key) for key in _SCALAR_FIELDS if key in d}
    for diag, full in (("q_diag", "Q"), ("r_diag", "R")):
        if diag in d and full in d:
            raise ValueError(f"config gives both {diag} and {full}; give one")
        if diag in d:
            kwargs[full] = np.diag(np.asarray(d[diag], dtype=float))
        elif full in d:
            kwargs[full] = np.asarray(d[full], dtype=float)
    return VehicleParams(**kwargs)


def load_config(path) -> dict:
    """Parse a YAML config file with optional vehicle/problem mapping sections."""
    # Imported on first use: yaml adds ~15 ms to `import socenv`, and only a
    # --config file needs it.
    import yaml
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ValueError(f"config root must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {"vehicle", "problem"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    cfg = {name: {} if raw.get(name) is None else raw[name] for name in ("vehicle", "problem")}
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a mapping, "
                             f"got {type(section).__name__}")
    return cfg


def avp_problem_from_config(path) -> OcpProblem:
    """The valet-parking OCP of a YAML config; the problem section sets t0/tf."""
    sections = load_config(path)
    problem = sections["problem"]
    unknown = set(problem) - {"t0", "tf"}
    if unknown:
        raise ValueError(f"unknown problem config keys: {sorted(unknown)}")
    return avp_problem(vehicle_params_from_dict(sections["vehicle"]),
                       **{k: _config_number(problem, k) for k in problem})
