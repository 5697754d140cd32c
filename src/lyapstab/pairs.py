"""Severely disturbed generator pair (SDGP) selection and pair traces.

A pair couples one strongly accelerated generator with the least disturbed
one; the relative rotor angle of that pair is the signal everything
downstream watches.  Ranking uses clearing-instant speed magnitudes only, so
any common scaling of the disturbance leaves the selection unchanged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import AssessmentConfig
from .errors import LyapstabError, LyapstabWarning
from .ingest import AlignedDataset

# When the "least disturbed" machine is itself strongly disturbed the event
# looks like a common-mode acceleration (e.g. islanding); flag but proceed.
COMMON_MODE_RATIO = 0.5


@dataclass
class SdgpTrace:
    """Sign-oriented relative series of one pair, anchored at clearing.

    Orientation guarantees ``rel_speed[0] >= 0``; when the raw pair had a
    negative initial relative speed both channels were negated and
    ``sign_flipped`` records it.
    """

    severe: str
    least: str
    rel_angle: np.ndarray
    rel_speed: np.ndarray
    dt: float
    sign_flipped: bool = False

    def __len__(self) -> int:
        return len(self.rel_angle)


def _id_key(gen_id: str):
    """Sort key giving numeric ids numeric order, then lexicographic.

    An id is numeric when ``float`` reads it as a number other than NaN: an
    id such as ``nan`` compares false both ways with every number, so it
    would make the order depend on the order of the ids.
    """
    try:
        value = float(gen_id)
    except ValueError:
        value = math.nan
    return (1, 0.0, gen_id) if math.isnan(value) else (0, value, gen_id)


def identify_sdgp(data: AlignedDataset,
                  sigma: float = AssessmentConfig.sigma) -> list[tuple[str, str]]:
    """Pick the severe generators and pair each with the least disturbed one.

    Severity is judged on clearing-instant speed magnitudes (index 0 of the
    aligned data): |w_g| / max|w| > ``sigma`` marks generator g severe.  Ties
    for the least disturbed generator break toward the lowest id; the least
    generator is never its own pair partner.
    """
    if len(data.gen_ids) < 2:
        raise LyapstabError("need at least two generators to form a pair")
    speeds = data.clearing_speeds()
    w_star = max(abs(v) for v in speeds.values())
    if w_star == 0.0:
        raise LyapstabError("all clearing-instant speeds are zero")

    ids = sorted(speeds, key=_id_key)
    least = min(ids, key=lambda g: (abs(speeds[g]), _id_key(g)))
    severe = [g for g in ids if abs(speeds[g]) / w_star > sigma and g != least]
    if not severe:
        raise LyapstabError(
            "no severely disturbed generator left after excluding the reference")
    if abs(speeds[least]) / w_star > COMMON_MODE_RATIO:
        warnings.warn(
            f"least disturbed generator {least!r} is itself strongly disturbed "
            f"(|w|/w* = {abs(speeds[least]) / w_star:.2f}); pairs may not isolate "
            "the event", LyapstabWarning, stacklevel=2)
    return [(g, least) for g in severe]


def build_pair_trace(data: AlignedDataset, pair: tuple[str, str]) -> SdgpTrace:
    """Relative (severe - least) angle/speed series, oriented so v0 >= 0."""
    severe, least = pair
    i = data.index(severe)
    j = data.index(least)
    if i == j:
        raise LyapstabError(f"a pair needs two different generators, got "
                            f"{severe!r} twice")
    rel_angle = data.angles[i] - data.angles[j]
    rel_speed = data.speeds[i] - data.speeds[j]
    flipped = rel_speed[0] < 0.0
    if flipped:
        rel_angle = -rel_angle
        rel_speed = -rel_speed
    return SdgpTrace(severe=severe, least=least, rel_angle=rel_angle,
                     rel_speed=rel_speed, dt=data.dt, sign_flipped=flipped)
