"""Fit Julia sets and rational-map basins to prescribed plane curves."""

from .curves import (
    AnnulusSpec,
    JordanCurve,
    RegionLabel,
    hausdorff_distance,
    load_curve,
    offset_annulus,
    winding_region,
)
from .conformal import ExteriorMap, build_exterior_map, evaluate_map, laurent_coefficients
from .shapepoly import (
    EscapedLarge,
    ScaledComplex,
    ShapePolynomial,
    eval_P,
    eval_omega,
    make_circle_shape,
    sample_roots,
    select_epsilon,
)
from .dynamics import EscapeCertificate, OrbitStatus, certify, classify_orbits, find_min_degree
from .rational import (
    AnnulusSystem,
    MultiShapeSystem,
    certify_S,
    certify_multi,
    eval_Omega,
    eval_R,
    eval_S,
)
from .render import EscapeField, boundary_pixels, render, verify_hausdorff, write_image

__version__ = "0.1.0"

__all__ = [
    "AnnulusSpec", "AnnulusSystem", "EscapeCertificate", "EscapeField",
    "EscapedLarge", "ExteriorMap", "JordanCurve", "MultiShapeSystem",
    "OrbitStatus", "RegionLabel", "ScaledComplex", "ShapePolynomial",
    "boundary_pixels", "build_exterior_map", "certify", "certify_S",
    "certify_multi", "classify_orbits", "eval_Omega", "eval_P", "eval_R",
    "eval_S", "eval_omega", "evaluate_map", "find_min_degree",
    "hausdorff_distance", "laurent_coefficients", "load_curve",
    "make_circle_shape", "offset_annulus", "render", "sample_roots",
    "select_epsilon", "verify_hausdorff", "winding_region", "write_image",
]
