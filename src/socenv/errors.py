"""Exception types shared across the package."""


class DomainError(ValueError):
    """Evaluation point outside the valid domain."""


class NonConvergenceError(RuntimeError):
    """An internal iteration failed its residual tolerance (a defect, not user error)."""


class DofViolationError(ValueError):
    """Transcription would over-constrain the NLP; carries both sides of the count."""

    def __init__(self, free_coeffs: int, eq_rows: int):
        self.free_coeffs = free_coeffs
        self.eq_rows = eq_rows
        super().__init__(
            f"degrees-of-freedom violation: {free_coeffs} spline coefficients "
            f"< {eq_rows} equality rows"
        )


class SingularCurvilinearError(DomainError):
    """Curvilinear projection singular: vehicle at the curvature center (1 - kappa*w ~ 0)."""


class LayoutError(ValueError):
    """Decision-vector length does not match the declared variable layout."""
