"""Exception types shared across the toolkit."""


class SymstratError(Exception):
    """Base class for all toolkit errors."""


# --- symbol expression language ---

class SymbolSyntaxError(SymstratError):
    """Malformed symbol text. Carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DimensionError(SymstratError):
    """Variable index exceeds the declared dimension (or is zero)."""


class EvalError(SymstratError):
    """Evaluation failure: division by zero, or a branch-cut demand the
    evaluator refuses to resolve silently."""


# --- symbol order / ellipticity ---

class GridError(SymstratError):
    """A sample set of the ellipticity check or the order fit violates its
    preconditions, or gives an ellipticity ratio that is not finite."""


class DegenerateFit(SymstratError):
    """Order fit impossible: the symbol vanishes along the requested ray."""


class OrderMismatch(SymstratError):
    """A declared order disagrees: with the growth symbols.check_order
    fits, or a target space order with source minus symbol order."""


# --- geometry ---

class DegenerateConeError(SymstratError):
    """Cone contains a line, or is not full-dimensional."""


class UnsupportedModelError(SymstratError):
    """Unknown model domain name."""


class CoverageError(SymstratError):
    """Greedy covering left a required point uncovered (eps too small for
    the sampling density)."""


# --- factorization ---

class NonEllipticOnLine(SymstratError):
    """Reduced symbol vanishes on the quadrature line."""


class BranchJumpError(SymstratError):
    """The adaptive winding grid reached its node cap with an interval
    still unresolved, so the argument branch is not tracked there; the
    tail is TailJumpError's case."""


class TailJumpError(BranchJumpError):
    """The reduced symbol's phases at -CUTOFF and +CUTOFF differ by more than
    pi/2: the symbol does not close up at infinity along the line, so the
    tail correction would guess a branch."""


class ZeroOnCircle(SymstratError):
    """Laurent symbol vanishes (numerically) on the unit circle."""


class GrowthViolation(SymstratError):
    """A factor vanishes on a ray into its analyticity tube, so its growth
    exponent there has no fit."""


class SlopeDisagreement(SymstratError):
    """Growth slopes measured along different rays disagree too much to
    average."""


class MissingStratumReport(SymstratError):
    """A boundary stratum has no factorization report."""


# --- lattice lab ---

class SupportOverlapError(SymstratError):
    """Cutoff functions overlap or are closer than the required separation."""


class MissingPatchError(SymstratError):
    """Partition bump without a matching operator in the patch family."""


class UnstableRank(SymstratError):
    """Numerical kernel count did not stabilize between section sizes."""


class NormNotConverged(SymstratError):
    """PROPACK found no operator norm with any Lanczos basis it tried."""


# --- pipeline ---

class ConfigError(SymstratError):
    """Invalid analysis configuration."""
