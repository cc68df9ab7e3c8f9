"""Exception types shared across the toolkit."""


class TorsionlabError(Exception):
    """Base class for every error raised by this package."""


class InputError(TorsionlabError, ValueError):
    """Out-of-range argument, flag or scenario; the CLI exits 2."""


class ExprSyntaxError(TorsionlabError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(TorsionlabError):
    """Identifier outside the allowed variable/function/constant set."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class DomainError(TorsionlabError):
    """Evaluation left the domain of a sub-expression (log, sqrt, division)."""


class ZeroVector(TorsionlabError):
    """A path sample has zero norm; carries the sample index or parameter."""

    def __init__(self, where):
        super().__init__(f"zero vector at {where!r}")
        self.where = where


class RefinementExhausted(TorsionlabError):
    """Angle refinement hit its depth bound; sampling is too coarse."""


class NotClosed(TorsionlabError):
    """Winding number requested for an open path."""


class NonIntegralWinding(TorsionlabError):
    """Closed-path lift did not land near an integer number of turns."""

    def __init__(self, residue: float):
        super().__init__(f"winding residue {residue:.6f} exceeds 0.1")
        self.residue = residue


class NotALift(TorsionlabError):
    """Circle-map lift fails F(x+1) = F(x) + 1 at a probe point."""


class OriginNotInCover(TorsionlabError):
    """The origin has no preimage under the annular covering map."""


class SolverDiverged(TorsionlabError):
    """Generating-function contraction failed; the twist bound is suspect."""

    def __init__(self, iterations: int, last_residual: float):
        super().__init__(
            f"contraction did not reach tolerance after {iterations} iterations"
            f" (last residual {last_residual:.3e})"
        )
        self.iterations = iterations
        self.last_residual = last_residual


class TwistBoundViolation(TorsionlabError):
    """Sampled mixed second derivative exceeds the declared twist bound."""


class StartsSingular(TorsionlabError):
    """Leaf integration was started at a singular point of the field."""


class AllStationary(TorsionlabError):
    """Every path segment fell below the stationary tolerance."""


class SingularOnCircle(TorsionlabError):
    """Direction field vanishes at a sample of the classification circle."""

    def __init__(self, sample: int):
        super().__init__(f"singular direction at circle sample {sample}")
        self.sample = sample


class FixedPointOnCurve(TorsionlabError):
    """The map fixes a sample of the index curve; the degree is undefined."""

    def __init__(self, sample):
        super().__init__(f"fixed point on curve at sample {sample!r}")
        self.sample = sample


class CenterNotFixed(TorsionlabError):
    """The isotopy moves the point it was claimed to fix."""


class IdentityCheckFailed(TorsionlabError):
    """eval(0, z) differs from z at a probe point."""


class NotFixed(TorsionlabError):
    """A claimed fixed point of the time-one map moves."""

    def __init__(self, which: str):
        super().__init__(f"point {which} is not fixed by the time-one map")
        self.which = which


class TrajectoryCollision(TorsionlabError):
    """Two trajectories got too close for a linking number."""

    def __init__(self, t: float):
        super().__init__(f"trajectories collide near t = {t:.6f}")
        self.t = t


class NotOrientationPreserving(TorsionlabError):
    """Matrix has non-positive determinant."""


class UnknownFixture(TorsionlabError):
    """Requested fixture name is not in the catalog."""

    def __init__(self, name: str):
        super().__init__(f"unknown fixture '{name}'")
        self.name = name
