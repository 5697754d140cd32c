"""Maximal Lyapunov exponent estimation via a growing-window line fit.

The observable is the log of the separation distance between two segments of
one relative-angle series; its slope against time is the exponent (Rosenstein
et al., Physica D 65:117, 1993).  The least-squares line through every point
so far is kept as five running sums, so each new point costs O(1):

    slope = (n Σur - Σu Σr) / (n Σu² - (Σu)²)

with u = t - t₀ and r = y - y₀ measured from the first point.  The anchoring
keeps the sums small and makes a flat series give a slope of exactly 0.
"""

from __future__ import annotations

import math

from .errors import ClassificationTimeout

# Distances can hit exact zero at oscillation nodes; clamp before the log.
EPS_DISTANCE = 1e-12  # rad


def log_distance(d: float) -> float:
    """Natural log of the separation, clamped away from log(0)."""
    if d < 0.0:
        raise ValueError("distances are magnitudes; got a negative value")
    return math.log(max(d, EPS_DISTANCE))


class LineFit:
    """Least-squares line ``y = slope * t + intercept`` through pushed points.

    ``slope()`` needs two distinct times; with fewer it divides by zero.
    """

    __slots__ = ("t0", "y0", "n", "su", "suu", "sr", "sur")

    def __init__(self):
        self.n = 0
        self.su = self.suu = self.sr = self.sur = 0.0

    def push(self, t: float, y: float) -> None:
        t, y = float(t), float(y)
        if not self.n:
            self.t0, self.y0 = t, y
        u, r = t - self.t0, y - self.y0
        self.n += 1
        self.su += u
        self.suu += u * u
        self.sr += r
        self.sur += u * r

    def slope(self) -> float:
        n, su = self.n, self.su
        return (n * self.sur - su * self.sr) / (n * self.suu - su * su)

    def intercept(self) -> float:
        slope = self.slope()
        return self.y0 + (self.sr - slope * self.su) / self.n - slope * self.t0


def iter_mle(d, w: int, m_n: int, dt: float):
    """Yield (time, lambda_hat) pairs as the fit absorbs the distance series.

    ``d`` is the distance series ``d_j = |theta_{j+w} - theta_j|`` of
    :func:`~lyapstab.swings.distance_series`; the fitted points are
    L_i = log d_{m_n - w + i} at absolute times (m_n + i) * dt, to the end
    of ``d``.  The fit runs on times ``i * dt`` from the fitting start, which
    leaves the slope unchanged.  The first value arrives with the second
    point; with fewer than two points to fit, the first ``next()`` raises
    :class:`ClassificationTimeout`.
    """
    if w < 1:
        raise ValueError(f"w must be at least 1, got {w}")
    if m_n < w:
        raise ValueError(f"m_n must be at least w={w}, got {m_n}")
    if len(d) + w < m_n + 2:
        raise ClassificationTimeout(
            f"need at least {m_n + 2} angle samples to start fitting, "
            f"have {len(d) + w}")
    fit = LineFit()
    for i, di in enumerate(d[m_n - w:].tolist()):
        fit.push(i * dt, log_distance(di))
        if i:
            yield (m_n + i) * dt, fit.slope()
