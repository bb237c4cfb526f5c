"""Exception types shared across the toolkit."""


class BilockError(Exception):
    """Base class for all library errors."""


# --- geometry / differentiation ---

class RotationNearPi(BilockError):
    """Rotation log requested within 1e-6 rad of the pi singularity."""


class EvaluationFailure(BilockError):
    """User-supplied function raised while being differentiated."""


# --- kinematics ---

class Unreachable(BilockError):
    """Wrist target outside the reachable annulus of the arm."""


class ElbowSingular(BilockError):
    """Elbow angle within tolerance of 0 or pi; IK conditioning degraded."""


class DegenerateSEW(BilockError):
    """Shoulder and wrist coincide; the SEW angle is undefined."""


class JointLimitViolation(BilockError):
    """IK solution violates joint limits.

    Attributes:
        indices: offending joint indices (0-based).
    """

    def __init__(self, msg, indices):
        super().__init__(msg)
        self.indices = tuple(indices)


# --- world simulation / episodes ---

class UnreachableGrasp(BilockError):
    """Box initial pose admits no IK solution for a grasp pose."""


class PathInfeasible(BilockError):
    """A scripted waypoint segment has no IK solution on the fixed branch."""


class SchemaMismatch(BilockError):
    """Serialized record carries an unsupported schema version."""


class MalformedRecord(BilockError):
    """Unparseable dataset record.

    Attributes:
        line: 1-based line number in the offending file.
    """

    def __init__(self, msg, line):
        super().__init__(f"line {line}: {msg}")
        self.line = line


# --- perturbation ---

class IkFailureDuringPerturb(BilockError):
    """Perturbed pose unreachable; exceeds the tolerated failure budget."""


# --- metrics / statistics ---

class EmptyDataset(BilockError):
    """Operation requires at least one episode."""


class NoTransportPhase(BilockError):
    """Episode contains no transport-phase knots."""


class MissingEventLog(BilockError):
    """Episode carries no world event log to classify."""


class InvalidCounts(BilockError):
    """Success/trial counts are inconsistent."""


class DegenerateSample(BilockError):
    """Sample too small or with zero variance for the statistic."""


class GridTooCoarse(BilockError):
    """Density mass is not resolved by the quadrature grid."""


class InsufficientCategory(BilockError):
    """An outcome category has too few rollouts for density estimation."""


# --- manifold ---

class RankDeficient(BilockError):
    """Constraint Jacobian is rank deficient at the query point.

    Attributes:
        sigma_min: smallest singular value observed.
    """

    def __init__(self, msg, sigma_min):
        super().__init__(f"{msg} (sigma_min={sigma_min:.3e})")
        self.sigma_min = sigma_min
