"""Sampled and all-pairs forms of the unit-disk geometry.

``verify_covering`` samples the target disk on a grid and checks that every
sample lies within 1 of some covering point; it is the reference for the
exact lattice certificate ``constructions.check_covering``.
``intersection_edges`` compares every pair of centres in Fractions; it is
the reference for the cell-bucketed ``DiskConfiguration.intersection_graph``.
"""

from __future__ import annotations

import numpy as np


def verify_covering(points, radius: float, step: float = 0.01, tol: float = 1e-9) -> bool:
    """Dense-grid check that every sampled point of the target disk lies
    within distance 1 of some covering point (squared-distance tolerance)."""
    if radius == 0:
        px = np.array([p[0] for p in points])
        py = np.array([p[1] for p in points])
        return bool(np.min(px * px + py * py) <= 1.0 + tol)
    xs = np.arange(-radius, radius + step / 2, step)
    pts = np.array(points)
    for x in xs:
        span = (radius * radius - x * x)
        if span < 0:
            continue
        h = span ** 0.5
        ys = np.arange(-h, h + step / 2, step)
        dx = x - pts[:, 0]
        d2 = dx[None, :] * dx[None, :] + (ys[:, None] - pts[None, :, 1]) ** 2
        if not np.all(d2.min(axis=1) <= 1.0 + tol):
            return False
    return True


def intersection_edges(centers) -> list[tuple[int, int]]:
    """Every pair i < j of centres at distance at most 2, in order."""
    return [
        (i, j)
        for i in range(len(centers))
        for j in range(i + 1, len(centers))
        if (centers[i][0] - centers[j][0]) ** 2 + (centers[i][1] - centers[j][1]) ** 2 <= 4
    ]
