"""Shared exception types for the flow pipeline."""


class CkflowError(Exception):
    """Base class for all package errors."""


class ConfigError(CkflowError):
    """Malformed or inconsistent run configuration."""


class DomainExit(CkflowError):
    """A point left the chart domain (or came too close to its boundary)."""


class ScheduleInfeasible(CkflowError):
    """No positive lower bound c for Lambda*phi^3 - X_rot(phi) on the shell."""


class SeedInfeasible(CkflowError):
    """Requested seed surface is not strictly starshaped for the chosen field."""


class MeshDegenerate(CkflowError):
    """Mesh quality collapsed (tiny angles, flipped or vanishing triangles)."""


class StarshapeLost(CkflowError):
    """Support function u dropped to zero or below during the flow."""


class EllipticityLost(CkflowError):
    """Flux Jacobian eigenvalue bounds degenerated on the working shell."""


class GradientBoundExceeded(CkflowError):
    """Leaf gradient of the graph variable exceeded its a-priori bound."""


class ProfileNotMonotone(CkflowError):
    """Leaf volume profile failed to be strictly increasing in the radius."""
