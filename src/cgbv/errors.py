"""Exception taxonomy shared by every module in the package.

Each class marks one way a computation can be handed inconsistent data or
produce a result that fails its own certificate.  Callers that want to treat
all of them uniformly can catch :class:`VerificationError`.
"""


class VerificationError(Exception):
    """Base class for every error raised by this package."""


class DegreeError(VerificationError):
    """Form degree incompatible with the requested operation."""


class ShapeError(VerificationError):
    """Matrix or coefficient array has the wrong dimensions."""


class ChartError(VerificationError):
    """Point, chart, or domain data is inconsistent (dimension, bounds, kind)."""


class RankError(VerificationError):
    """Bundle or matrix rank does not match what the operation requires."""


class ProjectorError(VerificationError):
    """Claimed projector is not idempotent or not symmetric at a sample point."""


class VanishingSectionError(VerificationError):
    """Section passed where a nowhere-zero section is required vanishes."""


class NonFiniteError(VerificationError):
    """Input data is NaN or infinite where a construction evaluates it."""


class ConsistencyError(VerificationError):
    """Two routes to the same quantity disagree beyond tolerance."""


class SymmetryPreconditionError(VerificationError):
    """Map claimed as a symmetry fails to preserve the structure it must."""


class HomotopyError(VerificationError):
    """Homotopy data malformed: endpoint mismatch or domain incompatibility."""


class TransversalityError(VerificationError):
    """Section has a degenerate zero, so its count is not stable."""


class BoundaryZeroError(VerificationError):
    """Section vanishes on or too close to the boundary of its domain."""


class ChainMapError(VerificationError):
    """Claimed chain map fails to commute with the differentials."""


class ComplexError(VerificationError):
    """Differential fails d*d = 0 or has incompatible block sizes."""


class SurjectivityError(VerificationError):
    """Restriction map fails to hit a required cohomology class."""


class ClosednessError(VerificationError):
    """Form expected to be closed has a nonzero exterior derivative."""


class SignConventionError(VerificationError):
    """The odd-rank dual pair is not closed, so its pinned unit normalization fails."""


class ConfigError(VerificationError):
    """Command-line or scenario configuration is invalid."""


class BumpError(VerificationError):
    """Cutoff profile violates its support or normalization contract."""
