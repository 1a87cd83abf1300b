"""Reference implementations that the fast kernels are tested against.

Geometry: the all-pairs bodies that `juliafit.curves` used before its
kernels learned to skip (query, edge) pairs that cannot affect the answer.
They compare every query against every edge, so the fast kernels must equal
them bit for bit. The contact test of two curves as it was before
`juliafit.curves.relation` replaced it: a proper crossing, or a vertex at
distance zero from the other curve.

Conformal map: the slit-map pullback as it was before it reused its work
buffers, and the inflation search that evaluates every ring point of every
inflation it tries (each ring image once per map), with the band test it
used before it took the one region rule `juliafit.curves.enclosed`: inside
the band and farther than ON_TOL_REL times the outer curve's diameter from
both band curves. The fast versions must return the same bits and the same
inflations.

Dynamics: the scalar scaled-complex arithmetic that `juliafit.shapepoly` and
`juliafit.rational` evaluated single points with before all evaluation went
through the array kernels. It renormalizes after every product and works on
scaled arguments, so orbits can be followed far past double range; from it,
a shape's leading coefficient -1/prod(p - r_k). The node product as it was
before it was renormalized once per block of roots: after every 8th root. The
block kernel must return the same bits.

Render: the render as it was before it settled far-field pixels with the
map's `step_floor` and interior pixels with its `step_ceiling`:
`classify_orbits` on whole tiles, every pixel stepped. The render with both
bounds must give the same bytes.

Verification: the Hausdorff distance of two pixel masks from the full-grid
Euclidean distance transform of `scipy.ndimage`, and from every pair of
pixels; and the check as it was before it queried only the disagreeing
pixels and took the target region from a row scan: those distances, with
`enclosed` over every pixel centre. The fast check must give the same report
bit for bit. The Hausdorff distances of point sets and of masks as they were
before `juliafit` had a nearest-point engine of its own: from the nearest
points of a `scipy.spatial` k-d tree, with ties between pixel offsets closed
by a ball query. The engine must return the same bits.

Dumps: the field writer as it was before it wrote the base64 arrays to the
file itself, a single `json.dump`. The fast writer must write the same bytes.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from juliafit.conformal import evaluate_map
from juliafit import curves
from juliafit.curves import _segment_pairs_intersect, curve_gap, enclosed, hausdorff_distance
from juliafit.dynamics import classify_orbits
from juliafit.errors import NoEpsilon
from juliafit.rational import AnnulusSystem, MultiShapeSystem
from juliafit.render import CURVE_SAMPLES, HausdorffReport, _dilate4, pixel_centres
from juliafit.shapepoly import (
    EPS_HALVINGS,
    EPS_SAMPLES,
    ShapePolynomial,
    _renorm,
)

#: exponent saturation of the scalar reference arithmetic
EXP_CAP = 2 ** 30
#: relative tolerance (times the outer curve's diameter) of the strict band test
ON_TOL_REL = 1e-9
#: slack of the tie rule of ``mask_hausdorff_kdtree``, as a share of the
#: grid's larger extent: above the k-d tree's rounding of a distance
TIE_SLACK = 1e-9
_CHUNK = 4096


@dataclass(frozen=True)
class EscapedLarge:
    """Symbolic stand-in for a value too large to materialize."""

    log2_magnitude: float

    def __abs__(self):
        return math.inf


class Indeterminate(Exception):
    """The map is indeterminate at the point."""


def _as_points(z) -> np.ndarray:
    a = np.asarray(z, dtype=np.complex128)
    return a.reshape(-1)


def winding_numbers(z, points: np.ndarray) -> np.ndarray:
    z = _as_points(z)
    a = points
    b = np.roll(points, -1)
    ax, ay = a.real, a.imag
    bx, by = b.real, b.imag
    out = np.empty(z.shape, dtype=np.int64)
    for lo in range(0, z.size, _CHUNK):
        zz = z[lo:lo + _CHUNK]
        px = zz.real[:, None]
        py = zz.imag[:, None]
        up = (ay[None, :] <= py) & (by[None, :] > py)
        dn = (ay[None, :] > py) & (by[None, :] <= py)
        cross = (bx - ax)[None, :] * (py - ay[None, :]) - (px - ax[None, :]) * (by - ay)[None, :]
        out[lo:lo + _CHUNK] = (up & (cross > 0)).sum(axis=1) - (dn & (cross < 0)).sum(axis=1)
    return out


def distance_to_polyline(z, points: np.ndarray) -> np.ndarray:
    z = _as_points(z)
    a = points
    e = np.roll(points, -1) - points
    ee = np.maximum((e * e.conjugate()).real, 1e-300)
    out = np.empty(z.shape, dtype=np.float64)
    for lo in range(0, z.size, _CHUNK):
        zz = z[lo:lo + _CHUNK][:, None]
        t = ((zz - a[None, :]) * e.conjugate()[None, :]).real / ee[None, :]
        np.clip(t, 0.0, 1.0, out=t)
        proj = a[None, :] + t * e[None, :]
        out[lo:lo + _CHUNK] = np.abs(zz - proj).min(axis=1)
    return out


def segment_pairs_intersect(points: np.ndarray, other: np.ndarray | None = None,
                            touch: bool = False):
    a1 = points
    b1 = np.roll(points, -1)
    if other is None:
        a2, b2 = a1, b1
    else:
        a2, b2 = other, np.roll(other, -1)
    n1, n2 = len(a1), len(a2)

    def orient(p, q, r):
        return ((q.real - p.real) * (r.imag - p.imag)
                - (q.imag - p.imag) * (r.real - p.real))

    def on(d, p, q, r):
        return ((d == 0)
                & (np.minimum(p.real, q.real) <= r.real) & (r.real <= np.maximum(p.real, q.real))
                & (np.minimum(p.imag, q.imag) <= r.imag) & (r.imag <= np.maximum(p.imag, q.imag)))

    for lo in range(0, n1, 512):
        hi = min(lo + 512, n1)
        A1 = a1[lo:hi, None]
        B1 = b1[lo:hi, None]
        d1 = orient(A1, B1, a2[None, :])
        d2 = orient(A1, B1, b2[None, :])
        d3 = orient(a2[None, :], b2[None, :], A1)
        d4 = orient(a2[None, :], b2[None, :], B1)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        if touch:
            hit |= (on(d1, A1, B1, a2[None, :]) | on(d2, A1, B1, b2[None, :])
                    | on(d3, a2[None, :], b2[None, :], A1) | on(d4, a2[None, :], b2[None, :], B1))
        if other is None:
            i_idx = np.arange(lo, hi)[:, None]
            j_idx = np.arange(n2)[None, :]
            adj = (i_idx == j_idx) | ((i_idx + 1) % n1 == j_idx) | ((j_idx + 1) % n1 == i_idx)
            hit &= ~adj
        if hit.any():
            i, j = np.argwhere(hit)[0]
            return int(i + lo), int(j)
    return None


def curves_meet(a, b) -> bool:
    """Whether two polylines cross or touch: a proper crossing of two
    segments, or a shared point (where they can cross through a vertex)."""
    return (_segment_pairs_intersect(a.points, b.points) is not None
            or curve_gap(a, b) == 0)


def relation(a, b) -> str:
    if curves_meet(a, b):
        return "meet"
    if winding_numbers(b.points[:1], a.points)[0] != 0:
        return "contains"
    if winding_numbers(a.points[:1], b.points)[0] != 0:
        return "inside"
    return "apart"


# ---------------------------------------------------------------------------
# conformal map


def chain_pullback(chain, u: np.ndarray) -> np.ndarray:
    """Map points of the closed unit disk back to the inverted-plane region."""
    a = chain.a_disk
    zeta = (a - u * np.conjugate(a)) / (1.0 - u)
    s = 1j * np.sqrt(zeta)
    zeta = s * chain.b_close / (chain.b_close + s)
    for c, b in zip(chain.cs[::-1], chain.bs[::-1]):
        ratio = np.zeros_like(zeta)
        nz = zeta != 0
        ratio[nz] = c / zeta[nz]
        u2 = zeta * np.sqrt(1.0 - ratio * ratio)
        u2[~nz] = 1j * c
        zeta = u2 * b / (b + u2) if math.isfinite(b) else u2
    q = -zeta * zeta
    return (chain.z1 - q * chain.z0) / (1.0 - q)


def strictly_in_band(annulus, z) -> np.ndarray:
    """True where points are strictly between the two band curves: inside the
    band and farther than ON_TOL_REL times the outer diameter from both."""
    tol = ON_TOL_REL * annulus.outer.diameter
    # the fast distance kernel equals the all-pairs one above bit for bit,
    # and keeps full-ring searches quick
    ok = enclosed(z, (annulus.outer, annulus.inner))
    ok &= curves.distance_to_polyline(z, annulus.outer.points) > tol
    ok &= curves.distance_to_polyline(z, annulus.inner.points) > tol
    return ok


#: the ring images of ``select_epsilon``, per map and halving: {id(m): (m,
#: {k: image})}. Each map is held here, so its id stays its own
_RING_IMAGES: dict[int, tuple[object, dict[int, np.ndarray]]] = {}


def ring_image(m, k: int) -> np.ndarray:
    """The map's image of all EPS_SAMPLES points of the circle of radius
    1 + 2**-k, evaluated once per map and k."""
    _, images = _RING_IMAGES.setdefault(id(m), (m, {}))
    if k not in images:
        th = 2.0 * np.pi * np.arange(EPS_SAMPLES) / EPS_SAMPLES
        images[k] = evaluate_map(m, (1.0 + 2.0 ** -k) * np.exp(1j * th))
        images[k].setflags(write=False)
    return images[k]


def select_epsilon(m, annulus) -> float:
    """Largest inflation from the halving schedule 1/2, 1/4, ... whose image
    circle, all EPS_SAMPLES points of it, stays strictly inside the band. A
    ring with a point outside the band fails before its distance margins are
    taken: the strict test keeps only points inside it."""
    band = (annulus.outer, annulus.inner)
    for k in range(1, EPS_HALVINGS + 1):
        z = ring_image(m, k)
        if np.all(enclosed(z, band)) and np.all(strictly_in_band(annulus, z)):
            return 2.0 ** -k
    raise NoEpsilon(f"no inflation down to 2**-{EPS_HALVINGS} stays inside the annulus")


# ---------------------------------------------------------------------------
# scalar scaled-complex arithmetic


@dataclass(frozen=True)
class ScaledComplex:
    """Complex number as mantissa * 2**exponent with |mantissa| near 1.

    Precision is relative to the magnitude: a component more than ~300 orders
    of magnitude below |z| falls out of the mantissa's double range and is
    flushed, which never matters for products and sums anchored at |z|.
    """

    mantissa: complex
    exponent: int

    @staticmethod
    def from_value(z) -> "ScaledComplex":
        z = complex(z)
        if z == 0:
            return ScaledComplex(0j, 0)
        _, e = math.frexp(abs(z))
        return ScaledComplex(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e)

    @staticmethod
    def one() -> "ScaledComplex":
        return ScaledComplex(0.5 + 0j, 1)

    def _norm(self, m: complex, e: int) -> "ScaledComplex":
        if m == 0:
            return ScaledComplex(0j, 0)
        _, sh = math.frexp(abs(m))
        e = e + sh
        if e >= EXP_CAP:
            e = EXP_CAP
        elif e <= -EXP_CAP:
            e = -EXP_CAP
        return ScaledComplex(complex(math.ldexp(m.real, -sh), math.ldexp(m.imag, -sh)), e)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def log2_abs(self) -> float:
        if self.is_zero:
            return -math.inf
        return math.log2(abs(self.mantissa)) + self.exponent

    def mul(self, other: "ScaledComplex") -> "ScaledComplex":
        return self._norm(self.mantissa * other.mantissa,
                          self.exponent + other.exponent)

    def mul_complex(self, z: complex) -> "ScaledComplex":
        return self._norm(self.mantissa * z, self.exponent)

    def reciprocal(self) -> "ScaledComplex":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of scaled zero")
        return self._norm(1.0 / self.mantissa, -self.exponent)

    def add(self, other: "ScaledComplex") -> "ScaledComplex":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        hi, lo = (self, other) if self.exponent >= other.exponent else (other, self)
        d = hi.exponent - lo.exponent
        if d > 64:
            return hi
        m = hi.mantissa + complex(math.ldexp(lo.mantissa.real, -d),
                                  math.ldexp(lo.mantissa.imag, -d))
        return self._norm(m, hi.exponent)

    def add_complex(self, z: complex) -> "ScaledComplex":
        return self.add(ScaledComplex.from_value(z))

    def sub_complex(self, z: complex) -> "ScaledComplex":
        return self.add(ScaledComplex.from_value(-z))

    def to_complex(self) -> complex:
        """Materialize; only valid up to the top of the double range. Below
        it, ldexp gives the subnormal, or zero."""
        if self.is_zero:
            return 0j
        if self.exponent > 1020:
            raise OverflowError(f"exponent {self.exponent} outside double range")
        return complex(math.ldexp(self.mantissa.real, self.exponent),
                       math.ldexp(self.mantissa.imag, self.exponent))


def scaled_power(base: complex, k: int) -> ScaledComplex:
    """base**k for integer k (binary exponentiation, exact renormalization)."""
    neg = k < 0
    k = abs(k)
    acc = ScaledComplex.one()
    b = ScaledComplex.from_value(base)
    while k:
        if k & 1:
            acc = acc.mul(b)
        b = b.mul(b)
        k >>= 1
    return acc.reciprocal() if neg else acc


def _omega_scaled(shape: ShapePolynomial, z) -> ScaledComplex:
    if isinstance(z, ScaledComplex):
        acc = ScaledComplex.one()
        for r in shape.roots:
            acc = acc.mul(z.sub_complex(complex(r)))
    else:
        z = complex(z)
        acc = ScaledComplex.one()
        for r in shape.roots:
            acc = acc.mul_complex(z - complex(r))
    return acc.mul(shape.cap_pow)


def cap_pow(shape: ShapePolynomial) -> ScaledComplex:
    """-1/prod(p - r_k) at the shape's basepoint p."""
    acc = ScaledComplex.one()
    for r in shape.roots:
        acc = acc.mul_complex(complex(shape.basepoint) - complex(r))
    inv = acc.reciprocal()
    return ScaledComplex(-inv.mantissa, inv.exponent)


def eval_omega(shape: ShapePolynomial, z, frame: str = "translated") -> ScaledComplex:
    """Node product at z, as a scaled complex (never overflows). In the
    original frame the argument is shifted by -t first."""
    if frame == "original":
        z = z.sub_complex(shape.t) if isinstance(z, ScaledComplex) else complex(z) - shape.t
    elif frame != "translated":
        raise ValueError(f"unknown frame {frame!r}")
    return _omega_scaled(shape, z)


def _p_from_omega(omega: ScaledComplex, z) -> ScaledComplex:
    zsc = z if isinstance(z, ScaledComplex) else ScaledComplex.from_value(z)
    return omega.add_complex(1.0).mul(zsc)


def eval_P_scaled(shape: ShapePolynomial, z, frame: str = "translated") -> ScaledComplex:
    if frame == "original":
        zt = z.sub_complex(shape.t) if isinstance(z, ScaledComplex) else complex(z) - shape.t
        res = _p_from_omega(_omega_scaled(shape, zt), zt)
        return res.add_complex(shape.t)
    return _p_from_omega(_omega_scaled(shape, z), z)


def eval_P(shape: ShapePolynomial, z, frame: str = "translated"):
    """The dynamic map z * (omega(z) + 1), conjugated by the frame shift when
    frame="original". Returns a complex number, or EscapedLarge when the
    result exceeds double range."""
    res = eval_P_scaled(shape, z, frame)
    try:
        return res.to_complex()
    except OverflowError:
        return EscapedLarge(res.log2_abs)


def eval_Omega(system: MultiShapeSystem, z, frame: str = "translated") -> ScaledComplex:
    """Harmonic combination of the node products at a single point. A single
    shape short-circuits to omega + 1 itself (exact degeneration)."""
    if frame == "original":
        z = complex(z) - system.t
    terms = [eval_omega(s, z).add_complex(1.0) for s in system.shapes]
    if len(terms) == 1:
        return terms[0]
    if any(t.is_zero for t in terms):
        raise Indeterminate(
            "a node product hit -1 exactly; point sits on a vanishing locus")
    acc = terms[0].reciprocal()
    for t in terms[1:]:
        acc = acc.add(t.reciprocal())
    if acc.is_zero:
        raise Indeterminate("reciprocal sum vanished")
    return acc.reciprocal()


def eval_R(system: MultiShapeSystem, z, frame: str = "translated"):
    """R(z) = z * Omega(z), conjugated by the frame shift for frame='original'.
    Returns complex or EscapedLarge."""
    zt = complex(z) - system.t if frame == "original" else complex(z)
    res = eval_Omega(system, zt).mul_complex(zt)
    if frame == "original":
        res = res.add_complex(system.t)
    try:
        return res.to_complex()
    except OverflowError:
        return EscapedLarge(res.log2_abs)


def eval_S(system: AnnulusSystem, z, frame: str = "translated"):
    """S(z) = P_outer(z) + 1/(omega_inner(z) + 1). Returns complex or
    EscapedLarge; indeterminate points raise."""
    t = system.outer_shape.t
    zt = complex(z) - t if frame == "original" else complex(z)
    p = eval_P_scaled(system.outer_shape, zt)
    den = eval_omega(system.inner_shape, zt).add_complex(1.0)
    if den.is_zero:
        raise Indeterminate("inner node product hit -1 exactly")
    res = p.add(den.reciprocal())
    if frame == "original":
        res = res.add_complex(t)
    try:
        return res.to_complex()
    except OverflowError:
        return EscapedLarge(res.log2_abs)


# ---------------------------------------------------------------------------
# array node product


def node_product(shape: ShapePolynomial, z: np.ndarray):
    """prod(z - r_k) over plain complex points (shifted frame), renormalized
    after every 8th root. Returns (mantissa, exponent) arrays. Every product
    goes to a new array, as in the kernel, so a length-1 array rounds as a
    batch does."""
    w = np.ones(z.shape, dtype=np.complex128)
    e = np.zeros(z.shape, dtype=np.int64)
    for j, r in enumerate(shape.roots):
        w = w * (z - r)
        if j % 8 == 7:
            _renorm(w, e)
    _renorm(w, e)
    return w, e


def omega_scaled_array(shape: ShapePolynomial, z: np.ndarray):
    """The node product times the shape's leading coefficient, renormalized
    after every 8th root. Returns (mantissa, exponent) arrays."""
    w, e = node_product(shape, z)
    cp = shape.cap_pow
    w = w * cp.mantissa
    _renorm(w, e)
    e += cp.exponent
    # an exact zero (z on a root) keeps exponent 0, so that omega + 1 is 1
    e[w == 0] = 0
    return w, e


# ---------------------------------------------------------------------------
# render


def render_floorless(kernel, bbox, width: int, height: int, escape_radius: float,
                     capture_radius: float, max_iter: int, tile_rows: int = 16):
    """(status, iterations) of every pixel center of the bbox grid, each tile
    of tile_rows rows classified without a floor or a ceiling."""
    lo, hi = bbox
    dx = (hi.real - lo.real) / width
    dy = (hi.imag - lo.imag) / height
    xs = lo.real + (np.arange(width) + 0.5) * dx
    status, iters = [], []
    for r0 in range(0, height, tile_rows):
        ys = hi.imag - (np.arange(r0, min(r0 + tile_rows, height)) + 0.5) * dy
        z = (xs[None, :] + 1j * ys[:, None]).reshape(-1) - kernel.t
        s, i = classify_orbits(kernel, z, escape_radius, capture_radius, max_iter,
                               np.full(z.shape, -np.inf), np.full(z.shape, np.inf))
        status.append(s)
        iters.append(i)
    return (np.concatenate(status).reshape(height, width),
            np.concatenate(iters).reshape(height, width))


# ---------------------------------------------------------------------------
# verification


def mask_hausdorff(a: np.ndarray, b: np.ndarray, dx: float, dy: float) -> float:
    """Hausdorff distance between two pixel masks from the distance transforms
    of the whole grid."""
    if not a.any() or not b.any():
        return math.inf
    d_ab = float(distance_transform_edt(~b, sampling=(dy, dx))[a].max())
    d_ba = float(distance_transform_edt(~a, sampling=(dy, dx))[b].max())
    return max(d_ab, d_ba)


def mask_hausdorff_all_pairs(a: np.ndarray, b: np.ndarray, dx: float, dy: float) -> float:
    """Hausdorff distance between two pixel masks over every pixel pair, in
    the transform's arithmetic."""
    if not a.any() or not b.any():
        return math.inf

    def directed(a, b):
        ai, aj = np.nonzero(a)
        bi, bj = np.nonzero(b)
        d = np.sqrt(((ai[:, None] - bi[None, :]) * dy) ** 2
                    + ((aj[:, None] - bj[None, :]) * dx) ** 2)
        return float(d.min(axis=1).max())

    return max(directed(a, b), directed(b, a))


def kdtree_hausdorff(x, y) -> float:
    """Hausdorff distance of two finite point sets from the nearest points of
    k-d trees."""
    x, y = _as_points(x), _as_points(y)

    def directed(a, b):
        tree = cKDTree(np.column_stack((b.real, b.imag)))
        return float(tree.query(np.column_stack((a.real, a.imag)), k=1)[0].max())

    return max(directed(x, y), directed(y, x))


def _ball_pairs(tree, xy, r):
    near = tree.query_ball_point(xy, r, return_sorted=False)
    sizes = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
    cols = np.fromiter((k for ks in near for k in ks), dtype=np.intp, count=int(sizes.sum()))
    return np.repeat(np.arange(len(near)), sizes), cols


def mask_hausdorff_kdtree(a: np.ndarray, b: np.ndarray, dx: float, dy: float) -> float:
    """Hausdorff distance between two pixel masks in the transform's
    arithmetic, from a k-d tree over the 4-boundary of the other mask,
    scaled by (dy, dx). Offsets of equal length may round apart, so the
    tree's pick can miss the least recomputed distance by a unit in the last
    place: every query within TIE_SLACK of the largest distance is closed by
    a ball query of that much more than its distance."""
    if not a.any() or not b.any():
        return math.inf

    def directed(a, b):
        qi, qj = np.nonzero(a & ~b)
        if qi.size == 0:
            return 0.0
        bi, bj = np.nonzero(b & _dilate4(~b))
        tree = cKDTree(np.column_stack((bi * dy, bj * dx)))
        query = np.column_stack((qi * dy, qj * dx))

        def dist(q, p):
            return np.sqrt(((qi[q] - bi[p]) * dy) ** 2 + ((qj[q] - bj[p]) * dx) ** 2)

        _, pick = tree.query(query)
        d = dist(np.arange(qi.size), pick)
        slack = TIE_SLACK * max(a.shape[0] * dy, a.shape[1] * dx)
        tied = np.flatnonzero(d >= d.max() - slack)
        slot, cols = _ball_pairs(tree, query[tied], d[tied] + slack)
        best = np.full(tied.size, np.inf)
        np.minimum.at(best, slot, dist(tied[slot], cols))
        return float(best.max())

    return max(directed(a, b), directed(b, a))


def verify_hausdorff(field, targets, delta: float) -> HausdorffReport:
    """The report of ``juliafit.render.verify_hausdorff`` for valid target
    curves and bbox, from every pixel centre."""
    centers = pixel_centres(field.bbox, field.width, field.height, np.arange(field.height))
    inside = enclosed(centers, targets).reshape(centers.shape)
    samples = np.concatenate([c.boundary_samples(CURVE_SAMPLES) for c in targets])
    dx, dy = field.pixel_size
    d_k = mask_hausdorff(inside, field.captured_mask | field.undecided_mask, dx, dy)
    d_l = mask_hausdorff(~inside, field.escaped_mask, dx, dy)
    jb_mask = field.boundary_mask()
    d_j = hausdorff_distance(samples, centers[jb_mask]) if jb_mask.any() else math.inf
    tol = delta + field.pixel_diag
    return HausdorffReport(d_K=d_k, d_J=d_j, d_L=d_l, delta=delta,
                           pixel_diag=field.pixel_diag,
                           passed=bool(d_k < tol and d_j < tol and d_l < tol))


# ---------------------------------------------------------------------------
# dumps


def save_field(field, path, config: dict) -> None:
    obj = {
        "kind": field.kind,
        "bbox": [[field.bbox[0].real, field.bbox[0].imag],
                 [field.bbox[1].real, field.bbox[1].imag]],
        "width": field.width,
        "height": field.height,
        "escape_radius": field.escape_radius,
        "capture_radius": field.capture_radius,
        "max_iter": field.max_iter,
        "status_b64": base64.b64encode(field.status.tobytes()).decode("ascii"),
        "iterations_b64": base64.b64encode(
            field.iterations.astype("<u4").tobytes()).decode("ascii"),
        "config": config,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
