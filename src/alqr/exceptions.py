"""Exception hierarchy shared across the package."""


class AlqrError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AlqrError):
    """Invalid configuration value or dimension mismatch.

    ``field`` names the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NotStabilizableError(AlqrError):
    """Riccati iteration failed to converge: (A, B) not stabilizable."""


class NotStabilizingError(AlqrError):
    """A gain failed stability certification; carries the spectral radius."""

    def __init__(self, spectral_radius):
        super().__init__(f"closed loop is not stable: rho = {spectral_radius:.6g}")
        self.spectral_radius = spectral_radius


class ModelInvariantError(AlqrError):
    """A model-level SDP was infeasible or unbounded."""


class SynthesisError(AlqrError):
    """Relaxed-SDP policy synthesis failed (infeasible / did not converge)."""


class DegenerateSolutionError(SynthesisError):
    """The barrier oracle's policy extraction (``sdp.extract_policy``) hit a
    numerically singular state block."""


class CertificateError(AlqrError):
    """Stability-certificate arithmetic received a non-PD matrix."""


class ScheduleError(AlqrError):
    """A schedule constant could not be computed (fixed point / domain)."""


class InvalidSampleError(AlqrError):
    """A sampled matrix violated the precondition it was supposed to satisfy."""


class BlowUpError(AlqrError):
    """State norm exceeded the runaway threshold; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class IncompleteTrajectoryError(AlqrError):
    """A trajectory record is missing arrays required by the consumer."""
