"""Exception types shared across the package."""


class InvalidSystemError(ValueError):
    """Rejected (type, rank) pair or malformed input data."""


class SliceCoverageError(RuntimeError):
    """A query needs group elements beyond the enumerated length cutoff.

    The message always names the cutoff that would have sufficed, so the
    caller can re-enumerate ("enlarge cutoff") instead of guessing.
    """


class ResourceCapError(RuntimeError):
    """A computation would exceed a resource cap, so it is refused up front.

    Raised when a slice enumeration passes its configured element-count cap
    (``--max-elements``), when a Kostant partition function would need a
    coordinate box larger than ``rootsys.KOSTANT_BOX_CAP``, and when the
    dominant weights below a highest weight would need a root-coordinate box
    larger than ``characters.DOMINANT_BOX_CAP``.
    """


class CacheFormatError(RuntimeError):
    """A cache file failed its magic, version, or checksum validation."""


class InvariantViolation(RuntimeError):
    """An internal mathematical invariant failed; always a bug or a finding."""


class LevelWarning(UserWarning):
    """A level l outside the usual root-of-unity hypotheses (even, a multiple
    of 3 for G2, or not above the Coxeter number); results stay combinatorial."""
