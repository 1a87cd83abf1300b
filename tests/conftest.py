import numpy as np
import pytest

from helpers import centroid_map
from juliafit.curves import AnnulusSpec, JordanCurve, offset_annulus
from juliafit.shapes import FIXTURES, make_circle, make_square, write_curve_file


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    for name, make in FIXTURES.items():
        write_curve_file(make(), d / f"{name}.txt")
    write_curve_file(make_circle(1.0, -2.5), d / "circle_left.txt")
    write_curve_file(make_circle(1.0, +2.5), d / "circle_right.txt")
    write_curve_file(make_circle(2.0), d / "ring_outer.txt")
    write_curve_file(make_circle(1.0), d / "ring_inner.txt")
    # the outer C of c_shaped_pair at half size: clear of circle_left, inside
    # ring_outer, and its centroid (-0.149) lies outside it
    write_curve_file(annular_sector(0.5, 1.0, 30, 330), d / "c_shape.txt")
    return d


def annular_sector(r0, r1, a0, a1, n=256):
    """Counterclockwise boundary of {r0 <= |z| <= r1, a0 <= arg z <= a1},
    angles in degrees."""
    th = np.radians(np.linspace(a0, a1, n))
    radial = np.linspace(r1, r0, 10)[1:-1]
    return np.concatenate((r1 * np.exp(1j * th), radial * np.exp(1j * th[-1]),
                           r0 * np.exp(1j * th[::-1]), radial[::-1] * np.exp(1j * th[0])))


@pytest.fixture(scope="session")
def c_shaped_pair():
    """Two nested C-shaped curves; the inner one's centroid (-0.453) lies in
    the gap of the outer C, outside the outer curve."""
    return (JordanCurve.from_points(annular_sector(1.0, 2.0, 30, 330)),
            JordanCurve.from_points(annular_sector(1.3, 1.7, 45, 315)))


@pytest.fixture(scope="session")
def squares_touching_at_vertices():
    """The boundaries of [0, 1]^2 and [0.5, 1.5]^2, which cross only at the
    common vertices 0.5+1j and 1+0.5j, so no two segments cross properly;
    the second square starts at 1.5+1j, outside the first."""
    a = make_square()
    b = make_square(corner=0.5 + 0.5j)
    start = int(np.argmin(np.abs(b.points - (1.5 + 1j))))
    return a, JordanCurve.from_points(np.roll(b.points, -start))


@pytest.fixture(scope="session")
def diamond_on_square():
    """The unit square and a diamond inside it whose bottom vertex 0.5+0j
    lies on the square's bottom edge: no two segments cross properly, but
    the curves share that point."""
    corners = 0.5 + 0.25j + 0.25 * 1j ** np.arange(5)
    t = np.arange(4) / 4
    return make_square(), JordanCurve.from_points(np.concatenate(
        [a + (b - a) * t for a, b in zip(corners[:-1], corners[1:])]))


@pytest.fixture(scope="session")
def circle_annulus():
    return AnnulusSpec(outer=make_circle(1.1), inner=make_circle(0.9))


@pytest.fixture(scope="session")
def circle_map():
    return centroid_map(make_circle(1.0))


@pytest.fixture(scope="session")
def ellipse_map():
    from juliafit.shapes import make_ellipse
    return centroid_map(make_ellipse(1.5, 0.5))


@pytest.fixture(scope="session")
def square_map():
    from juliafit.shapes import make_square
    return centroid_map(make_square(1.0))


@pytest.fixture(scope="session")
def built_shapes():
    """Numerically built shape pipeline per fixture curve: translated curve,
    annulus, map, largest and used inflation, builder. Shared across tests
    to amortize map construction."""
    from juliafit.shapepoly import sample_roots, select_epsilon

    out = {}
    for name, make in FIXTURES.items():
        curve = make()
        t = curve.centroid
        ann = offset_annulus(curve, 0.05 * curve.diameter)
        curve_t = curve.translated(-t)
        ann_t = ann.translated(-t)
        m = centroid_map(curve_t)
        band = ann_t.translated(-m.t)
        # the roots use half the largest inflation, as the commands' fit does
        eps_max = select_epsilon(m, band)
        eps = eps_max / 2

        def build(n, m=m, eps=eps, t=t):
            return sample_roots(m, eps, n, t=t)

        out[name] = {"curve": curve, "t": t, "annulus": ann, "annulus_t": ann_t,
                     "map": m, "band": band, "epsilon_max": eps_max, "epsilon": eps,
                     "build": build}
    return out


@pytest.fixture(scope="session")
def fixture_systems(fixture_dir, tmp_path_factory):
    """The certified rational map of circle_left/circle_right and annulus map
    of ring_outer/ring_inner, from their dumps, with (escape, capture) radii."""
    from juliafit.cli import main
    from juliafit.dumps import load_dump
    from juliafit.dynamics import EscapeCertificate
    from juliafit.rational import AnnulusSystem, MultiCertificate, MultiShapeSystem, SCertificate

    out = {}
    d = tmp_path_factory.mktemp("systems")
    for command, names in (("rational", ("circle_left", "circle_right")),
                           ("annulus", ("ring_outer", "ring_inner"))):
        assert main([command, *(str(fixture_dir / f"{n}.txt") for n in names),
                     "--delta", "0.3", "--grid", "16", "--out", str(d / command)]) == 0
        system = load_dump(d / command / "system.json", (MultiShapeSystem, AnnulusSystem))
        cert = load_dump(d / command / "certificate.json",
                         (EscapeCertificate, MultiCertificate, SCertificate))
        out[command] = (system, (cert.escape_radius, cert.capture_radius))
    return out
