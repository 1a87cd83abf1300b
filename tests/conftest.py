import numpy as np
import pytest

from juliafit.conformal import build_exterior_map
from juliafit.curves import AnnulusSpec, offset_annulus
from juliafit.shapes import FIXTURES, make_circle, write_curve_file


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    for name, make in FIXTURES.items():
        write_curve_file(make(), d / f"{name}.txt")
    write_curve_file(make_circle(1.0, -2.5), d / "circle_left.txt")
    write_curve_file(make_circle(1.0, +2.5), d / "circle_right.txt")
    write_curve_file(make_circle(2.0), d / "ring_outer.txt")
    write_curve_file(make_circle(1.0), d / "ring_inner.txt")
    return d


@pytest.fixture(scope="session")
def circle_annulus():
    return AnnulusSpec(outer=make_circle(1.1), inner=make_circle(0.9),
                       width_hint=0.2)


@pytest.fixture(scope="session")
def circle_map():
    return build_exterior_map(make_circle(1.0))


@pytest.fixture(scope="session")
def ellipse_map():
    from juliafit.shapes import make_ellipse
    return build_exterior_map(make_ellipse(1.5, 0.5))


@pytest.fixture(scope="session")
def square_map():
    from juliafit.shapes import make_square
    return build_exterior_map(make_square(1.0))


@pytest.fixture(scope="session")
def built_shapes():
    """Numerically built shape pipeline per fixture curve: translated curve,
    annulus, map, builder. Shared across tests to amortize map construction."""
    from juliafit.shapepoly import sample_roots, select_epsilon

    out = {}
    for name, make in FIXTURES.items():
        curve = make()
        t = curve.centroid
        ann = offset_annulus(curve, 0.05 * curve.diameter)
        curve_t = curve.translated(-t)
        ann_t = ann.translated(-t)
        p = curve_t.centroid
        m = build_exterior_map(curve_t, p)
        band = ann_t.translated(-p)
        eps = select_epsilon(m, band)

        def build(n, m=m, eps=eps, t=t, p=p):
            return sample_roots(m, eps, n, t=t, frame_offset=p)

        out[name] = {"curve": curve, "t": t, "annulus": ann, "annulus_t": ann_t,
                     "map": m, "band": band, "epsilon": eps, "build": build}
    return out
