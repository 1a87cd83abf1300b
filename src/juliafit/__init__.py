"""Fit Julia sets and rational-map basins to prescribed plane curves."""

from .curves import (
    AnnulusSpec,
    JordanCurve,
    hausdorff_distance,
    load_curve,
    offset_annulus,
)
from .conformal import ExteriorMap, build_exterior_map, evaluate_map, laurent_coefficients
from .shapepoly import (
    ScaledComplex,
    ShapePolynomial,
    make_circle_shape,
    sample_roots,
    select_epsilon,
)
from .dynamics import EscapeCertificate, OrbitStatus, certify, classify_orbits, find_min_degree
from .rational import AnnulusSystem, MultiShapeSystem, certify_S, certify_multi
from .render import EscapeField, verify_hausdorff, write_image

__version__ = "0.1.0"

__all__ = [
    "AnnulusSpec", "AnnulusSystem", "EscapeCertificate", "EscapeField",
    "ExteriorMap", "JordanCurve", "MultiShapeSystem", "OrbitStatus",
    "ScaledComplex", "ShapePolynomial",
    "build_exterior_map", "certify", "certify_S", "certify_multi",
    "classify_orbits", "evaluate_map", "find_min_degree",
    "hausdorff_distance", "laurent_coefficients", "load_curve",
    "make_circle_shape", "offset_annulus", "sample_roots",
    "select_epsilon", "verify_hausdorff", "write_image",
]
