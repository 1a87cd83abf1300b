"""Exception hierarchy. Every error carries a stable ``code`` string that the
CLI maps onto its exit codes."""

from __future__ import annotations


class JuliafitError(Exception):
    code = "ERROR"


# --- curve ingestion / geometry ---

class ParseError(JuliafitError):
    code = "PARSE_ERROR"


class TooFewPoints(JuliafitError):
    code = "TOO_FEW_POINTS"


class NotSimple(JuliafitError):
    """Polyline self-intersects; carries the offending segment pair."""

    code = "NOT_SIMPLE"

    def __init__(self, i: int, j: int, msg: str | None = None):
        self.segments = (i, j)
        super().__init__(msg or f"segments {i} and {j} intersect")


class OffsetCollapse(JuliafitError):
    code = "OFFSET_COLLAPSE"


class EmptySet(JuliafitError):
    code = "EMPTY_SET"


# --- conformal map ---

class MapDiverged(JuliafitError):
    code = "MAP_DIVERGED"


class BadBasepoint(JuliafitError):
    code = "BAD_BASEPOINT"


class OutOfDomain(JuliafitError):
    code = "OUT_OF_DOMAIN"


class Aliasing(JuliafitError):
    code = "ALIASING"


# --- shape polynomial ---

class NoEpsilon(JuliafitError):
    code = "NO_EPSILON"


class DuplicateRoots(JuliafitError):
    code = "DUPLICATE_ROOTS"


# --- dynamics / certification ---

class SamplingFailure(JuliafitError):
    code = "SAMPLING_FAILURE"


class NoDegreeFound(JuliafitError):
    """No degree in the schedule certified; carries the best failing margins."""

    code = "NO_DEGREE_FOUND"

    def __init__(self, msg: str, best: dict | None = None):
        self.best = best or {}
        super().__init__(msg)


class GeometryRejected(JuliafitError):
    code = "GEOMETRY_REJECTED"


# --- rendering / verification ---

class BboxTooSmall(JuliafitError):
    code = "BBOX_TOO_SMALL"
