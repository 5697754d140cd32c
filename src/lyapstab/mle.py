"""Maximal Lyapunov exponent estimation via growing-window recursive least squares.

The observable is the log of the separation distance between two segments of
one relative-angle series; its slope against time is the exponent.  The
recursive update never inverts a matrix after initialisation:

    gain  g = P x / (1 + x' P x)
    est   E += g (y - x' E)
    cov   P -= g x' P

with regressor x = (t, 1).  A two-point exact fit seeds the recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SingularInitError

# Distances can hit exact zero at oscillation nodes; clamp before the log.
EPS_DISTANCE = 1e-12  # rad


def log_distance(d: float) -> float:
    """Natural log of the separation, clamped away from log(0)."""
    if d < 0.0:
        raise ValueError("distances are magnitudes; got a negative value")
    return math.log(max(d, EPS_DISTANCE))


@dataclass
class RlsState:
    """Running line fit L = lambda_hat * t + c_hat, covariance P in p00/p01/p11.

    ``k`` counts observations absorbed beyond the two-point initialisation;
    ``residual_stat`` accumulates squared innovations as a fit diagnostic.
    """

    lambda_hat: float
    c_hat: float
    p00: float
    p01: float
    p11: float
    k: int = 1
    residual_stat: float = 0.0
    t_last: float = field(default=math.nan)


def rls_init(L0: float, L1: float, t0: float, t1: float) -> RlsState:
    """Exact two-point initialisation: line through the first observations.

    P is the inverse of the 2x2 normal matrix of rows (t0, 1), (t1, 1),
    written in closed form: det = (t0 - t1)^2.
    """
    L0, L1, t0, t1 = float(L0), float(L1), float(t0), float(t1)
    if not t1 > t0:
        raise SingularInitError(f"need t1 > t0, got t0={t0!r}, t1={t1!r}")
    lam = (L1 - L0) / (t1 - t0)
    det = (t0 - t1) ** 2
    return RlsState(lambda_hat=lam, c_hat=L0 - lam * t0, p00=2.0 / det,
                    p01=-(t0 + t1) / det, p11=(t0 * t0 + t1 * t1) / det,
                    k=1, t_last=t1)


def rls_update(state: RlsState, L_new: float, t_new: float) -> RlsState:
    """Absorb one observation; updates the state in place and returns it."""
    y, t = float(L_new), float(t_new)
    if not math.isfinite(y):
        raise ValueError("non-finite observation")
    if not t > state.t_last:
        raise ValueError(f"times must increase: {t_new!r} after {state.t_last!r}")
    px0 = state.p00 * t + state.p01   # Px with x = (t, 1)
    px1 = state.p01 * t + state.p11
    den = 1.0 + (t * px0 + px1)
    g0, g1 = px0 / den, px1 / den
    innovation = y - (state.lambda_hat * t + state.c_hat)
    state.lambda_hat += g0 * innovation
    state.c_hat += g1 * innovation
    state.p01 = 0.5 * ((state.p01 - g0 * px1) + (state.p01 - g1 * px0))
    state.p00 -= g0 * px0
    state.p11 -= g1 * px1
    state.k += 1
    state.residual_stat += innovation * innovation
    state.t_last = t
    return state


def iter_mle(d, w: int, m_n: int, dt: float):
    """Yield (time, lambda_hat) pairs as the fit absorbs the distance series.

    ``d`` is the distance series ``d_j = |theta_{j+w} - theta_j|`` of
    :func:`~lyapstab.swings.distance_series`; the fitted points are
    L_i = log d_{m_n - w + i} at absolute times (m_n + i) * dt, to the end
    of ``d``.  Internally the fit runs on times relative to the fitting start
    (pure reparameterisation: the slope is unchanged and better
    conditioned).  The first value arrives with the second point.
    """
    if w < 1:
        raise ValueError(f"w must be at least 1, got {w}")
    if m_n < w:
        raise ValueError(f"m_n must be at least w={w}, got {m_n}")
    if len(d) + w < m_n + 2:
        raise ValueError(
            f"need at least {m_n + 2} angle samples to start fitting, "
            f"have {len(d) + w}")
    fitted = d[m_n - w:].tolist()
    state = rls_init(log_distance(fitted[0]), log_distance(fitted[1]), 0.0, dt)
    yield (m_n + 1) * dt, state.lambda_hat
    for i in range(2, len(fitted)):
        rls_update(state, log_distance(fitted[i]), i * dt)
        yield (m_n + i) * dt, state.lambda_hat
