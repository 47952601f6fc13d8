"""Exact combinatorics of finite and affine Weyl groups.

Everything is computed in exact integer arithmetic: root systems and
weight lattices, affine Weyl group elements with alcove geometry,
Kazhdan-Lusztig polynomial tables, Weyl characters and decomposition
matrices, and the dimension bookkeeping for Ext groups of quantum groups
at a root of unity, together with the effective constants that bound
them.
"""

__version__ = "0.1.0"

from .errors import (
    CacheFormatError,
    InvalidSystemError,
    InvariantViolation,
    ResourceCapError,
    SliceCoverageError,
)
from .rootsys import RootSystemData, build_root_system

__all__ = [
    "CacheFormatError",
    "InvalidSystemError",
    "InvariantViolation",
    "ResourceCapError",
    "SliceCoverageError",
    "RootSystemData",
    "build_root_system",
]
