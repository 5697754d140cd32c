"""Trace file I/O, resampling, and alignment to the assessment grid.

Trace files are CSV with header ``t,gen_id,delta_rad,omega_rad_per_s``, one
row per (sample, generator), LF line endings, ``.`` decimal separator.
Floats are written with ``repr`` so a parse/re-emit cycle is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, OrderingError, RangeError, TraceParseError
from .simulator import GeneratorTrace

CSV_HEADER = "t,gen_id,delta_rad,omega_rad_per_s"
ASSESSMENT_RATE = 120.0  # samples/s

# Parsed timestamps may jitter around the nominal grid; gaps beyond twice the
# nominal step are data loss and rejected outright.
MAX_GAP_FACTOR = 2.0
# Seconds after clearing that every trace must cover to be aligned at all.
MIN_HORIZON = 0.5


@dataclass(frozen=True)
class EventMeta:
    """Fault timing metadata; clearing time anchors every downstream index."""

    t_fault: float
    t_clear: float
    faulted_element: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t_fault) and math.isfinite(self.t_clear)):
            raise ValueError("fault and clearing times must be finite")
        if self.t_clear < self.t_fault:
            raise ValueError("t_clear must not precede t_fault")

    def to_json(self) -> str:
        return json.dumps({"fault_time_s": self.t_fault,
                           "clear_time_s": self.t_clear,
                           "faulted_element": self.faulted_element},
                          sort_keys=True)

    @classmethod
    def from_file(cls, path) -> "EventMeta":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(t_fault=float(raw["fault_time_s"]),
                   t_clear=float(raw["clear_time_s"]),
                   faulted_element=raw.get("faulted_element"))


@dataclass
class AlignedDataset:
    """Per-generator series on the 120 Hz grid anchored at fault clearing.

    Index 0 is the first grid point at or after ``t_clear``; sample ``k`` sits
    at absolute time ``(grid_offset + k) / rate`` so the timestamps stay an
    exact arithmetic progression.
    """

    gen_ids: tuple[str, ...]
    angles: np.ndarray  # (n_gen, n_samples)
    speeds: np.ndarray  # (n_gen, n_samples)
    grid_offset: int
    rate: float = ASSESSMENT_RATE

    def __post_init__(self):
        if self.angles.shape != self.speeds.shape:
            raise ValueError("angle/speed arrays must have the same shape")
        if self.angles.shape[0] != len(self.gen_ids):
            raise ValueError("one series per generator id required")

    @property
    def dt(self) -> float:
        return 1.0 / self.rate

    @property
    def n_samples(self) -> int:
        return self.angles.shape[1]

    def sample_times(self) -> np.ndarray:
        return (self.grid_offset + np.arange(self.n_samples)) * self.dt

    def index(self, gen_id: str) -> int:
        try:
            return self.gen_ids.index(gen_id)
        except ValueError:
            raise KeyError(f"unknown generator id {gen_id!r}") from None

    def clearing_speeds(self) -> dict[str, float]:
        return {gid: float(self.speeds[i, 0]) for i, gid in enumerate(self.gen_ids)}

    def to_traces(self) -> list[GeneratorTrace]:
        times = self.sample_times()
        return [
            GeneratorTrace(gen_id=gid, t0=float(times[0]), dt=self.dt,
                           angles=self.angles[i].copy(),
                           speeds=self.speeds[i].copy(),
                           stamps=times.copy())
            for i, gid in enumerate(self.gen_ids)
        ]


# ---------------------------------------------------------------------------
# CSV read / write
# ---------------------------------------------------------------------------

def write_traces(traces: list[GeneratorTrace], path) -> None:
    """Emit the CSV schema above, interleaving generators sample by sample.

    Traces sharing one grid produce time-major rows; otherwise each trace is
    written as its own block.  Either layout re-parses into the same data.
    """
    same_grid = (
        len({len(tr) for tr in traces}) == 1
        and len({(tr.t0, tr.dt) for tr in traces}) == 1
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        if same_grid:
            times = traces[0].sample_times()
            for i, t in enumerate(times):
                for tr in traces:
                    fh.write(f"{float(t)!r},{tr.gen_id},"
                             f"{float(tr.angles[i])!r},{float(tr.speeds[i])!r}\n")
        else:
            for tr in traces:
                for t, a, s in zip(tr.sample_times(), tr.angles, tr.speeds):
                    fh.write(f"{float(t)!r},{tr.gen_id},{float(a)!r},{float(s)!r}\n")


def parse_traces(path, speed_offset: float = 0.0) -> list[GeneratorTrace]:
    """Read a trace CSV back into one trace per generator.

    ``speed_offset`` is subtracted from every speed sample, for sources that
    log absolute rotor speed instead of the deviation from synchronous speed.
    Rejects duplicate (t, gen_id) rows, non-monotone timestamps, and gaps
    larger than twice the nominal step.
    """
    per_gen: dict[str, list[tuple[float, float, float]]] = {}
    order: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise TraceParseError(f"expected header {CSV_HEADER!r}", line=1)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise TraceParseError(f"expected 4 fields, got {len(parts)}",
                                      line=lineno)
            try:
                t = float(parts[0])
                angle = float(parts[2])
                speed = float(parts[3])
            except ValueError:
                raise TraceParseError(f"non-numeric field in {line!r}",
                                      line=lineno) from None
            if not (math.isfinite(t) and math.isfinite(angle) and math.isfinite(speed)):
                raise TraceParseError("non-finite value", line=lineno)
            gid = parts[1]
            if not gid:
                raise TraceParseError("empty generator id", line=lineno)
            rows = per_gen.get(gid)
            if rows is None:
                per_gen[gid] = rows = []
                order.append(gid)
            elif rows:
                if t == rows[-1][0]:
                    raise TraceParseError(
                        f"duplicate sample for generator {gid!r} at t={t!r}",
                        line=lineno)
                if t < rows[-1][0]:
                    raise OrderingError(
                        f"timestamps for generator {gid!r} go backwards",
                        line=lineno)
            rows.append((t, angle, speed))

    traces = []
    for gid in order:
        rows = per_gen[gid]
        if len(rows) < 2:
            raise TraceParseError(f"generator {gid!r} has fewer than 2 samples")
        times = np.array([r[0] for r in rows])
        diffs = np.diff(times)
        dt = float(np.median(diffs))
        if dt <= 0.0:
            raise OrderingError(f"generator {gid!r} has a non-positive time step")
        if diffs.max() > MAX_GAP_FACTOR * dt:
            raise TraceParseError(
                f"generator {gid!r} has a gap of {diffs.max():.6g} s "
                f"(> {MAX_GAP_FACTOR} * {dt:.6g} s)")
        traces.append(GeneratorTrace(
            gen_id=gid, t0=float(times[0]), dt=dt,
            angles=np.array([r[1] for r in rows]),
            speeds=np.array([r[2] for r in rows]) - speed_offset,
            stamps=times))
    return traces


# ---------------------------------------------------------------------------
# Resampling and alignment
# ---------------------------------------------------------------------------

def _interp(trace: GeneratorTrace, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    src = trace.sample_times()
    eps = 1e-9 * trace.dt
    if at[0] < src[0] - eps or at[-1] > src[-1] + eps:
        raise RangeError(
            f"requested samples [{at[0]:.6f}, {at[-1]:.6f}] s outside the "
            f"span [{src[0]:.6f}, {src[-1]:.6f}] s of generator {trace.gen_id!r}")
    return np.interp(at, src, trace.angles), np.interp(at, src, trace.speeds)


def resample(trace: GeneratorTrace, rate: float) -> GeneratorTrace:
    """Linear interpolation onto a uniform grid at ``rate``, from ``t0`` on.

    The grid starts exactly at the first source sample and extends as far as
    the source span allows, so grid points never leave the data.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    src = trace.sample_times()
    n_out = int(math.floor((src[-1] - src[0]) * rate + 1e-9)) + 1
    stamps = src[0] + np.arange(n_out) * (1.0 / rate)
    angles, speeds = _interp(trace, stamps)
    return GeneratorTrace(gen_id=trace.gen_id, t0=float(stamps[0]), dt=1.0 / rate,
                          angles=angles, speeds=speeds, diverged=trace.diverged,
                          stamps=stamps)


def align(traces: list[GeneratorTrace], meta: EventMeta,
          rate: float = ASSESSMENT_RATE) -> AlignedDataset:
    """Put every trace on the shared ``rate`` grid anchored at fault clearing.

    Index 0 is the first point of the absolute grid ``k / rate`` at or after
    ``meta.t_clear``; all series are truncated to the longest span every
    trace can cover.  Traces missing ``[t_clear, t_clear + MIN_HORIZON]``
    raise :class:`CoverageError` naming the offenders.
    """
    if not traces:
        raise ValueError("no traces to align")
    dt = 1.0 / rate
    offset = math.ceil(meta.t_clear * rate - 1e-9)
    t_start = offset * dt

    short = [tr.gen_id for tr in traces
             if tr.sample_times()[0] > meta.t_clear + 1e-9 * dt
             or tr.t_end < meta.t_clear + MIN_HORIZON - 1e-9 * dt]
    if short:
        raise CoverageError(
            f"traces must cover [{meta.t_clear:.4f}, "
            f"{meta.t_clear + MIN_HORIZON:.4f}] s; offenders: {short}")

    n_samples = min(
        int(math.floor((tr.t_end - t_start) * rate + 1e-9)) + 1 for tr in traces)
    stamps = (offset + np.arange(n_samples)) * dt

    angles = np.empty((len(traces), n_samples))
    speeds = np.empty((len(traces), n_samples))
    for i, tr in enumerate(traces):
        angles[i], speeds[i] = _interp(tr, stamps)
    return AlignedDataset(gen_ids=tuple(tr.gen_id for tr in traces),
                          angles=angles, speeds=speeds,
                          grid_offset=offset, rate=rate)
