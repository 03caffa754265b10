"""Spline collocation trajectory optimization with convex safety envelopes.

Submodules:

* ``polynomial`` -- Legendre bases, LGL grids and weights, spline evaluation.
* ``envelope`` -- Bernstein-form envelope matrices bounding a spline everywhere.
* ``ocp`` / ``vehicle`` -- problem models (scalar benchmark, curvilinear
  single-track vehicle). ``vehicle_model`` is the generated vehicle model;
  ``vehicle_codegen`` regenerates it from its sympy derivation.
* ``transcription`` -- collocation and multiple-shooting NLP assembly.
* ``nlp`` -- dense SQP solver with an active-set QP subsolver.
* ``analysis`` -- reference oracles, rollout/violation metrics, benchmarks.
* ``cli`` -- command-line front end (``socenv`` entry point).
"""

__version__ = "0.1.0"

from .envelope import envelope_matrix, spline_bounds
from .nlp import solve_sqp
from .ocp import OcpProblem, academic_problem
from .polynomial import TimeMap, basis_matrix, lgl_grid
from .transcription import (CollocationConfig, decode, transcribe,
                            transcribe_multiple_shooting)
from .vehicle import VehicleParams, avp_problem

__all__ = [
    "__version__",
    "envelope_matrix", "spline_bounds",
    "solve_sqp",
    "OcpProblem", "academic_problem",
    "TimeMap", "basis_matrix", "lgl_grid",
    "CollocationConfig", "decode", "transcribe", "transcribe_multiple_shooting",
    "VehicleParams", "avp_problem",
]
