"""The nearest-point engine: exact least distances from query points to
target points, in numpy alone.

``_Cells`` sorts the targets into square cells by one argsort and searches
growing disks about each query until its best candidate lies within one,
comparing exact squared distances. ``curves.distance_to_polyline`` bounds
its search by an edge midpoint near each query (``_Cells.reach``), and
``curves.hausdorff_distance`` and ``render``'s mask distance take the
largest least distance of one set to another (``_Cells.farthest``).
``_range_pairs`` expands runs of indices into pairs, here and for the
crossing rule of ``curves``.
"""

from __future__ import annotations

import numpy as np

#: bound on the (query, edge) pairs a kernel holds in memory at once
_PAIR_CHUNK = 1 << 18
#: targets per occupied cell that ``_Cells`` aims at where they crowd
_CROWD = 4.0


def _range_pairs(first: np.ndarray, last: np.ndarray):
    """Every (row, k) with first[row] <= k < last[row], rows ascending, in
    chunks of at most _PAIR_CHUNK pairs."""
    count = last - first
    end = np.cumsum(count)
    total = int(end[-1]) if end.size else 0
    # the pair p of a row has k = p + shift[row]
    shift = first - (end - count)
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, total)
        r0 = int(np.searchsorted(end, lo, side="right"))
        r1 = int(np.searchsorted(end, hi - 1, side="right")) + 1
        size = np.minimum(end[r0:r1], hi) - np.maximum(end[r0:r1] - count[r0:r1], lo)
        row = np.repeat(np.arange(r0, r1), size)
        k = np.arange(lo, hi)
        k += shift[row]
        yield row, k


class _Cells:
    """The nearest-point engine. Target points (x, y) lie at distance
    sqrt(((qx - x) * sx)**2 + ((qy - y) * sy)**2) from a query (qx, qy):
    with sx = sy = 1 that is the arithmetic of a k-d tree's nearest-point
    query, and on pixel indices with the pixel sides as scales that of a
    Euclidean distance transform. Squared distances are compared and one
    sqrt is taken at the end; sqrt is correctly rounded and monotone, so a
    least distance has the bits of either.

    One argsort sorts the targets into square cells of side h (in the
    metric), and a table holds where each cell's targets start, so the
    targets of a run of cells along a row are one slice. The side would
    give one target per cell if the targets spread over their box; where
    they crowd onto fewer cells (a curve), it shrinks to about _CROWD
    targets per occupied cell, but to no less than a quarter, which keeps
    the table within about 16 entries per target. Cell indices are taken
    from halved coordinates, so a span past the largest float still has
    finite cells.

    A query's disk of radius r is one run per row of cells where its chord
    reaches the grid's columns, over the columns the chord meets. The disk is
    widened by 2e-9 of r and twice by a slack, 1e-9 of the coordinates
    and 2**-500, far above the rounding of cell indices and of distances
    and what underflow can hide in a squared distance, so it holds every
    target within r.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, sx: float = 1.0, sy: float = 1.0):
        n = x.size
        self.sx, self.sy = sx, sy
        self.x0, self.x1, self.y0, self.y1 = x.min(), x.max(), y.min(), y.max()
        # half the spans, which do not overflow
        wx, wy = (0.5 * self.x1 - 0.5 * self.x0) * sx, (0.5 * self.y1 - 0.5 * self.y0) * sy
        h = 2.0 * max(np.sqrt(wx) * np.sqrt(wy) / np.sqrt(n), max(wx, wy) / n)
        if h == 0.0:
            h = 1.0
        else:
            crowd = n / np.count_nonzero(np.bincount(self._keys(x, y, h)))
            h *= max(min(1.0, _CROWD / crowd), 0.25)
        key = self._keys(x, y, h)
        self.h = h
        self.order = np.argsort(key)
        self.x, self.y = x[self.order], y[self.order]
        self.start = np.zeros(self.ncols * self.nrows + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=self.ncols * self.nrows), out=self.start[1:])

    def _keys(self, x, y, h):
        """Each target's cell at side h, row by row; sets the grid."""
        # half a cell's sides in the coordinates
        self.cx, self.cy = 0.5 * h / self.sx, 0.5 * h / self.sy
        ix, iy = self._units(x, y)
        ix, iy = ix.astype(np.intp), iy.astype(np.intp)
        self.ncols, self.nrows = int(ix.max()) + 1, int(iy.max()) + 1
        return iy * self.ncols + ix

    def _units(self, x, y):
        """x and y in cells from the grid's corner, from halved coordinates."""
        return (0.5 * x - 0.5 * self.x0) / self.cx, (0.5 * y - 0.5 * self.y0) / self.cy

    def _frame(self, qx, qy):
        """The queries in cell units, kept within 2**60 cells of the grid
        (which moves a far query toward every target alike), and their
        slack."""
        fx, fy = self._units(qx, qy)
        fx = np.clip(fx, -2.0 ** 60, 2.0 ** 60)
        fy = np.clip(fy, -2.0 ** 60, 2.0 ** 60)
        slack = 1e-9 * np.maximum(
            (np.abs(qx) + abs(self.x0) + abs(self.x1)) * self.sx,
            (np.abs(qy) + abs(self.y0) + abs(self.y1)) * self.sy) + 2.0 ** -500
        return fx, fy, slack

    def _runs(self, fx, fy, slack, r):
        """The runs first:last of sorted targets of each query's disk of
        radius r, and the query q of each. A row's gap to the query is
        taken a slack short, which covers the cancellation in the chord of
        a row that the disk only grazes."""
        w = (r * (1.0 + 2e-9) + 2.0 * slack) / self.h
        # the rows where the disk's chord reaches the grid's columns
        gap = np.maximum(np.maximum(-fx, fx - self.ncols) - slack / self.h, 0.0)
        v = np.sqrt(np.maximum(w * w - gap * gap, 0.0))
        jlo = np.clip(np.floor(fy - v), 0, self.nrows).astype(np.intp)
        jhi = np.clip(np.floor(fy + v), -1, self.nrows - 1).astype(np.intp)
        rows = np.maximum(jhi - jlo + 1, 0)
        q = np.repeat(np.arange(fx.size), rows)
        j = np.arange(q.size) + np.repeat(jlo - (np.cumsum(rows) - rows), rows)
        fyq = fy[q]
        gap = np.maximum(np.maximum(j - fyq, fyq - (j + 1)) - (slack / self.h)[q], 0.0)
        half = (w * w)[q] - gap * gap
        np.sqrt(np.maximum(half, 0.0, out=half), out=half)
        fxq = fx[q]
        ilo = np.clip(np.floor(fxq - half), 0, self.ncols).astype(np.intp)
        ihi = np.clip(np.floor(fxq + half), -1, self.ncols - 1).astype(np.intp)
        j *= self.ncols
        return q, self.start[j + ilo], self.start[j + np.maximum(ihi + 1, ilo)]

    def within(self, qx, qy, r):
        """Chunks of (query, target) index pairs that hold every target within
        r of each query, and some farther."""
        with np.errstate(over="ignore"):
            q, first, last = self._runs(*self._frame(qx, qy), r)
        for run, k in _range_pairs(first, last):
            yield q[run], self.order[k]

    def _search(self, qx, qy):
        """A search's state: the queries, in cell units too, their slack,
        the radius about each that holds the whole grid, the radius of its
        next disk (at first one cell past the targets' bounding box), and
        its best squared distance so far."""
        fx, fy, slack = self._frame(qx, qy)
        gx = np.maximum(np.maximum(self.x0 - qx, qx - self.x1), 0.0) * self.sx
        gy = np.maximum(np.maximum(self.y0 - qy, qy - self.y1), 0.0) * self.sy
        far = np.hypot(np.maximum(fx, self.ncols - fx), np.maximum(fy, self.nrows - fy)) * self.h
        r = np.hypot(gx, gy) + self.h
        return qx, qy, fx, fy, slack, far, r, np.full(qx.size, np.inf)

    def _round(self, search, todo):
        """One disk for each query of todo; returns which of them it
        settles. A query is settled once its best candidate lies within the
        disk, or the disk holds the whole grid: no target outside can be
        nearer. Else its next disk has exactly the best candidate's
        distance, which settles it, or twice the radius if there is no
        candidate. Squared distances that overflow are inf."""
        qx, qy, fx, fy, slack, far, r, best = search
        rt = r[todo]
        q, first, last = self._runs(fx[todo], fy[todo], slack[todo], rt)
        got = best[todo]
        xr, yr = qx[todo][q], qy[todo][q]
        for run, t in _range_pairs(first, last):
            dx = np.take(xr, run)
            dx -= np.take(self.x, t)
            dy = np.take(yr, run)
            dy -= np.take(self.y, t)
            if self.sx != 1.0 or self.sy != 1.0:
                dx *= self.sx
                dy *= self.sy
            dx *= dx
            dy *= dy
            dx += dy
            np.minimum.at(got, np.take(q, run), dx)
        best[todo] = got
        d = np.sqrt(got)
        r[todo] = np.where(np.isinf(d), 2.0 * rt, d)
        return (d <= rt) | (far[todo] <= rt)

    def reach(self, qx, qy) -> np.ndarray:
        """Per finite query, the squared distance to a target of the first of
        its disks that holds one, whose radius is at most twice the least
        distance plus a cell: at most that radius plus a cell's diagonal.
        inf where every such distance overflows."""
        with np.errstate(over="ignore"):
            search = self._search(qx, qy)
            best = search[-1]
            todo = np.arange(qx.size)
            while todo.size:
                done = self._round(search, todo)
                todo = todo[~done & np.isinf(best[todo])]
        return best

    def farthest(self, qx, qy, low: float) -> float:
        """The larger of low and the largest least squared distance from a
        finite query to the targets.

        A query's least distance is at most that of the first query of its
        cell, its representative, plus their distance apart. So the
        representatives are settled first, and only the queries whose bound
        reaches the largest least distance settled so far take disks of
        their own, the first as wide as the bound if their representative
        lies far; a query leaves once a candidate lies within it."""
        with np.errstate(over="ignore"):
            search = self._search(qx, qy)
            qx, qy, fx, fy, slack, far, r, best = search
            idx = np.arange(qx.size)
            inside = (fx >= 0) & (fx < self.ncols) & (fy >= 0) & (fy < self.nrows)
            key = (np.floor(fy[inside]) * self.ncols + np.floor(fx[inside])).astype(np.intp)
            first = np.empty(self.start.size - 1, dtype=np.intp)
            first[key[::-1]] = idx[inside][::-1]
            rep = idx.copy()
            rep[inside] = first[key]
            low = self._settle(search, idx[rep == idx], low)
            bound = (np.sqrt(best[rep]) + np.hypot((qx - qx[rep]) * self.sx,
                                                  (qy - qy[rep]) * self.sy)) * (1.0 + 1e-9) + slack
            todo = idx[(rep != idx) & (bound >= np.sqrt(low))]
            r[todo] = np.minimum(bound[todo], np.maximum(r[todo], np.sqrt(best[rep[todo]])))
            return self._settle(search, todo, low)

    def _settle(self, search, todo, low):
        """The larger of low and the least squared distances of the queries
        todo that exceed it."""
        best = search[-1]
        while todo.size:
            todo = todo[best[todo] > low]
            done = self._round(search, todo)
            low = best[todo[done]].max(initial=low)
            todo = todo[~done]
        return low

