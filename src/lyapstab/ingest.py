"""Trace file I/O, resampling, and alignment to the assessment grid.

Trace files are CSV with header ``t,gen_id,delta_rad,omega_rad_per_s``, one
row per (sample, generator), LF line endings, ``.`` decimal separator.
Floats are written with ``repr`` so a parse/re-emit cycle is byte-identical.

A well-formed file is converted by ``np.loadtxt`` on its path.  Any file
whose rows that pass refuses is converted again line by line, which names
the first line at fault; the line pass only converts lines.  Both passes
give their rows in file order to one assembly step, which applies the stop
rule of a caller that needs no sample after some time ``until`` (see
:func:`parse_traces`), checks each generator's time order and builds the
traces, so both give bit-identical traces for the files they accept.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LyapstabError, utf8_fault
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise LyapstabError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise LyapstabError(f"{path}: event metadata must be a JSON object "
                                "with 'fault_time_s' and 'clear_time_s'")
        times = []
        for key in ("fault_time_s", "clear_time_s"):
            if key not in raw:
                raise LyapstabError(f"{path}: missing key {key!r}")
            value = raw[key]
            try:
                if type(value) not in (int, float):  # bool, str, null, ...
                    raise TypeError
                times.append(float(value))  # a huge int overflows
            except (TypeError, OverflowError):
                raise LyapstabError(f"{path}: {key!r} must be a number, got "
                                    f"{value!r}") from None
        element = raw.get("faulted_element")
        if element is not None and not isinstance(element, str):
            raise LyapstabError(f"{path}: 'faulted_element' must be a string "
                                f"or null, got {element!r}")
        try:
            return cls(*times, faulted_element=element)
        except ValueError as exc:
            raise LyapstabError(f"{path}: {exc}") from None


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
        if len(set(self.gen_ids)) < len(self.gen_ids):
            dup = next(g for g in self.gen_ids if self.gen_ids.count(g) > 1)
            raise ValueError(f"generator id {dup!r} appears more than once")

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
            raise LyapstabError(f"unknown generator id {gen_id!r}; the traces "
                                f"have {', '.join(self.gen_ids)}") from None

    def clearing_speeds(self) -> dict[str, float]:
        return {gid: float(self.speeds[i, 0]) for i, gid in enumerate(self.gen_ids)}


# ---------------------------------------------------------------------------
# CSV read / write
# ---------------------------------------------------------------------------

# Instants that write_traces formats at a time: bounds the strings it holds.
_WRITE_CHUNK = 1024


def write_traces(traces: list[GeneratorTrace], path) -> None:
    """Emit the CSV schema above, interleaving generators sample by sample.

    Traces with equal sample times are written as one time-major block;
    otherwise each trace is its own block.  Either layout re-parses into the
    same data.  A generator id the CSV cannot hold raises ``ValueError``
    before the file is opened.
    """
    for tr in traces:
        if not tr.gen_id or any(c in tr.gen_id for c in ",\r\n"):
            raise ValueError(f"generator id {tr.gen_id!r} cannot be written "
                             "to a trace CSV: it must be non-empty, without "
                             "',' or line breaks")
    same_grid = bool(traces) and all(
        np.array_equal(tr.sample_times(), traces[0].sample_times())
        for tr in traces[1:])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for block in [traces] if same_grid else [[tr] for tr in traces]:
            stamps = block[0].sample_times()
            # the six fields of each row of one instant, [t, ",gid,", delta,
            # ",", omega, "\n"], time and values left to fill
            instant = [f for tr in block
                       for f in ("", f",{tr.gen_id},", "", ",", "", "\n")]
            width = len(instant)
            for first in range(0, len(stamps), _WRITE_CHUNK):
                rows = slice(first, first + _WRITE_CHUNK)
                t = list(map(repr, stamps[rows].tolist()))
                fields = instant * len(t)
                for k, tr in enumerate(block):
                    angles, speeds = tr.angles[rows], tr.speeds[rows]
                    fields[6 * k::width] = t
                    fields[6 * k + 2::width] = map(repr, angles.tolist())
                    fields[6 * k + 4::width] = map(repr, speeds.tolist())
                fh.write("".join(fields))


def parse_traces(path, speed_offset: float = 0.0,
                 until: float = math.inf) -> list[GeneratorTrace]:
    """Read a trace CSV back into one trace per generator.

    ``speed_offset`` is subtracted from every speed sample, for sources that
    log absolute rotor speed instead of the deviation from synchronous speed.
    Rejects bytes that are not UTF-8, files without samples, duplicate
    (t, gen_id) rows, non-monotone timestamps, and gaps larger than twice the
    median step of the samples read.

    ``until`` is the last time the caller needs.  If the file's first two
    rows share a timestamp, reading ends at the first row R after which every
    generator seen so far has a sample before ``until`` and one at or after
    it; rows after R are neither parsed nor checked, and a generator first
    seen after R is not returned.  Otherwise (one generator at the first
    instant, as in a file written trace by trace, or no such R) the whole
    file is read.  The default reads every file whole.  The gap rule sees
    only the rows read, so a file whose step changes after R may be judged
    differently than in a whole read.

    A well-formed file is read in one bulk pass; a file whose rows that pass
    refuses is read again line by line, which names the first line at fault.
    """
    traces = _parse_bulk(path, speed_offset, until)
    if traces is None:
        traces = _parse_lines(path, speed_offset, until)
    return traces


# One CSV row; the generator id stays the exact text between the commas.
_ROW = np.dtype([("t", "f8"), ("gen_id", "O"), ("delta", "f8"), ("omega", "f8")])


def _loadtxt(path, count: int | None = None) -> np.ndarray:
    """The first ``count`` rows (default: all) after the header of ``path``.

    Given a path, ``loadtxt`` reads the file in chunks with its C reader.
    It skips blank lines, and warns of each one that ``count`` does not
    count; the caller silences that warning.
    """
    return np.loadtxt(path, dtype=_ROW, delimiter=",", comments=None,
                      skiprows=1, max_rows=count, ndmin=1, encoding="utf-8")


def _rows_to_read(lines, until: float) -> int | None:
    """Rows of a time-major file up to ``until``, with one instant to spare.

    Predicted from the first instants in ``lines``, which are read up to the
    first row of the second timestamp: the number of rows at the first
    timestamp and the step to the next one.  None means "read the whole
    file": the stop rule does not apply or nothing can be predicted.
    """
    if until == math.inf:
        return None  # the default whole read needs no prediction
    stamps = []
    for line in lines:
        if not line.strip():
            continue  # no row: loadtxt skips it, or refuses it if not empty
        stamps.append(float(line.partition(",")[0]))
        if stamps[-1] != stamps[0]:
            break
    else:
        return None  # one timestamp throughout
    per_instant = len(stamps) - 1
    instants = (until - stamps[0]) / (stamps[-1] - stamps[0])
    if per_instant < 2 or not 0.0 < instants < 1e9:  # also NaN
        return None
    return per_instant * (math.ceil(instants) + 2)


def _codes(ids: list) -> tuple[dict, np.ndarray]:
    """Each id's rank in first-seen order, and the rank of every row."""
    rank = {gid: i for i, gid in enumerate(dict.fromkeys(ids))}
    return rank, np.fromiter(map(rank.__getitem__, ids), dtype=np.intp,
                             count=len(ids))


def _stop_row(t: np.ndarray, codes: np.ndarray, until: float) -> int | None:
    """The number of rows up to and including R of :func:`parse_traces`'s
    stop rule, or None if the rule keeps every row."""
    n = len(t)
    if n < 2 or not t[1] == t[0]:
        return None
    seen = np.maximum.accumulate(codes)  # highest rank seen so far
    first = np.flatnonzero(np.diff(seen, prepend=-1))  # each id's first row
    reached = np.full(len(first), n)  # first row at or after until; n: none
    late = np.flatnonzero(t >= until)
    ranks, at = np.unique(codes[late], return_index=True)
    reached[ranks] = late[at]
    reached[t[first] >= until] = n  # no sample before until
    # row r ends the read once every id seen by r has reached until by r
    done = np.flatnonzero(np.maximum.accumulate(reached[codes]) <= np.arange(n))
    return int(done[0]) + 1 if len(done) else None


def _parse_bulk(path, speed_offset: float,
                until: float = math.inf) -> list[GeneratorTrace] | None:
    """Parse ``path`` with ``np.loadtxt``, or return None.

    ``loadtxt`` converts the rows; :func:`_assemble` stops, checks the time
    order and builds the traces, as for :func:`_parse_lines`, so the two
    give bit-identical traces for every file that both accept.  Any file
    whose rows ``loadtxt`` or the assembly refuses returns None, so the line
    loop reports the line at fault.  ``loadtxt`` converts numbers with the
    same C parser as ``float``, but is stricter: it refuses lines of only
    whitespace and ``1_0``-style underscores, which the line loop reads.

    With a finite ``until``, the first instants of the file predict how many
    rows reach it; those are read first, and the whole file only if R of
    the stop rule is not among them.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                return None
            count = _rows_to_read(fh, until)
        with warnings.catch_warnings():
            # blank lines are skipped, and "input contained no data" is
            # refused by the assembly
            warnings.simplefilter("ignore", UserWarning)
            rows = _loadtxt(path, count)
            rank, codes = _codes(rows["gen_id"].tolist())
            end = _stop_row(rows["t"], codes, until)
            if end is None and len(rows) == count:  # R lies further on
                rows = _loadtxt(path)
                rank, codes = _codes(rows["gen_id"].tolist())
                end = _stop_row(rows["t"], codes, until)
    except ValueError:  # also UnicodeDecodeError
        return None
    return _assemble(rows, rank, codes, end, speed_offset)


def _parse_lines(path, speed_offset: float = 0.0,
                 until: float = math.inf) -> list[GeneratorTrace]:
    """The line-by-line reader behind :func:`parse_traces`.

    Converts lines only: it checks each one (UTF-8, the header, then 4
    fields, numbers, finite values and a non-empty id; blank lines are
    skipped), keeps the rows with their line numbers, and stops at the
    first line it refuses, holding that error back for :func:`_assemble`.
    Reads every file the bulk pass reads, to the same traces, plus the few
    that pass refuses but ``float`` reads; raises on every malformed file,
    naming the first line at fault where a line is to blame.
    """
    kept, lines, held = [], [], None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            # the header is line 1 even in an empty file
            for lineno, raw in enumerate(itertools.chain([fh.readline()], fh),
                                         start=1):
                fault = utf8_fault(raw)
                if fault:
                    raise LyapstabError(f"line {lineno}: {fault}")
                if lineno == 1:
                    if raw.rstrip("\n") != CSV_HEADER:
                        raise LyapstabError(
                            f"line 1: expected header {CSV_HEADER!r}")
                    continue
                line = raw.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise LyapstabError(
                        f"line {lineno}: expected 4 fields, got {len(parts)}")
                try:
                    t = float(parts[0])
                    angle = float(parts[2])
                    speed = float(parts[3])
                except ValueError:
                    raise LyapstabError(
                        f"line {lineno}: non-numeric field in {line!r}") from None
                if not (math.isfinite(t) and math.isfinite(angle)
                        and math.isfinite(speed)):
                    raise LyapstabError(f"line {lineno}: non-finite value")
                if not parts[1]:
                    raise LyapstabError(f"line {lineno}: empty generator id")
                kept.append((t, parts[1], angle, speed))
                lines.append(lineno)
        except LyapstabError as exc:
            held = exc
    rows = np.array(kept, dtype=_ROW)
    rank, codes = _codes(rows["gen_id"].tolist())
    return _assemble(rows, rank, codes, _stop_row(rows["t"], codes, until),
                     speed_offset, lines, held)


def _assemble(rows: np.ndarray, rank: dict, codes: np.ndarray,
              end: int | None, speed_offset: float, lines: list | None = None,
              held: LyapstabError | None = None) -> list[GeneratorTrace] | None:
    """One trace per generator from a file's sample rows, in file order.

    ``rank`` and ``codes`` are :func:`_codes` of the rows' ids and ``end`` is
    :func:`_stop_row` of the rows: the rows after R are dropped unchecked.
    The first row kept whose time repeats or goes back on its generator's
    previous sample raises the error of its line in ``lines``; ``held``, the
    error of the line after the last row, is raised next unless R comes
    before it.  Rows without ``lines`` are the bulk pass's, which ``loadtxt``
    did not check line by line: where they hold no row, a non-finite value,
    an empty id or a row out of time order, returns None instead.
    """
    if end is not None:
        rows, codes, held = rows[:end], codes[:end], None
        rank = dict(itertools.islice(rank.items(), int(codes.max()) + 1))
    t, delta, omega = rows["t"], rows["delta"], rows["omega"]
    if lines is None and not (len(rows) and np.isfinite(t).all()
                              and np.isfinite(delta).all()
                              and np.isfinite(omega).all() and "" not in rank):
        return None
    ends = np.cumsum(np.bincount(codes))
    by_gen = np.argsort(codes, kind="stable")  # file order within each id
    times = t[by_gen]
    increasing = np.diff(times) > 0.0
    increasing[ends[:-1] - 1] = True  # the steps from one id's rows to the next
    if not increasing.all():
        if lines is None:
            return None
        steps = np.flatnonzero(~increasing) + 1
        k = steps[np.argmin(by_gen[steps])]  # the first in file order
        at, gid = lines[by_gen[k]], rows["gen_id"][by_gen[k]]
        if times[k] == times[k - 1]:
            raise LyapstabError(f"line {at}: duplicate sample for generator "
                                f"{gid!r} at t={float(times[k])!r}")
        raise LyapstabError(
            f"line {at}: timestamps for generator {gid!r} go backwards")
    if held is not None:
        raise held
    if not len(rows):
        raise LyapstabError("no samples after the header")
    angles, speeds = delta[by_gen], omega[by_gen] - speed_offset
    return [_trace(gid, times[a:b], angles[a:b], speeds[a:b])
            for gid, a, b in zip(rank, [0] + ends[:-1].tolist(), ends.tolist())]


def _trace(gid: str, times: np.ndarray, angles: np.ndarray,
           speeds: np.ndarray) -> GeneratorTrace:
    """One generator's samples, already strictly increasing in time, as a trace.

    Refuses fewer than 2 samples and gaps larger than twice the median step.
    """
    if len(times) < 2:
        raise LyapstabError(f"generator {gid!r} has fewer than 2 samples")
    diffs = np.diff(times)
    dt = float(np.median(diffs))
    if diffs.max() > MAX_GAP_FACTOR * dt:
        raise LyapstabError(
            f"generator {gid!r} has a gap of {diffs.max():.6g} s "
            f"(> {MAX_GAP_FACTOR} * {dt:.6g} s)")
    return GeneratorTrace(gen_id=gid, t0=float(times[0]), dt=dt, angles=angles,
                          speeds=speeds, stamps=times)


# ---------------------------------------------------------------------------
# Resampling and alignment
# ---------------------------------------------------------------------------

def grid_offset(t_clear: float, rate: float) -> int:
    """Index on the absolute grid ``k / rate`` of the first point at or after
    ``t_clear``: sample 0 of :func:`align`'s series."""
    return math.ceil(t_clear * rate - 1e-9)


def align(traces: list[GeneratorTrace], meta: EventMeta,
          rate: float = ASSESSMENT_RATE) -> AlignedDataset:
    """Resample every trace linearly onto the ``rate`` grid anchored at clearing.

    Index 0 is the first point of the absolute grid ``k / rate`` at or after
    ``meta.t_clear``; all series are truncated to the longest span every
    trace can cover.  Traces missing ``[t_clear, t_clear + MIN_HORIZON]``
    raise :class:`LyapstabError` naming the offenders.
    """
    if not traces:
        raise ValueError("no traces to align")
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be finite and > 0")
    dt = 1.0 / rate
    offset = grid_offset(meta.t_clear, rate)
    t_start = offset * dt

    short = [tr.gen_id for tr in traces
             if tr.sample_times()[0] > meta.t_clear + 1e-9 * dt
             or tr.t_end < meta.t_clear + MIN_HORIZON - 1e-9 * dt]
    if short:
        raise LyapstabError(
            f"traces must cover [{meta.t_clear:.4f}, "
            f"{meta.t_clear + MIN_HORIZON:.4f}] s; offenders: {short}")

    n_samples = min(
        int(math.floor((tr.t_end - t_start) * rate + 1e-9)) + 1 for tr in traces)
    stamps = (offset + np.arange(n_samples)) * dt

    angles = np.empty((len(traces), n_samples))
    speeds = np.empty((len(traces), n_samples))
    # coverage lets the grid pass a trace end by ~2e-9 of a grid step; there
    # np.interp holds the end value, off by that share of one step's change
    for i, tr in enumerate(traces):
        src = tr.sample_times()
        angles[i] = np.interp(stamps, src, tr.angles)
        speeds[i] = np.interp(stamps, src, tr.speeds)
    return AlignedDataset(gen_ids=tuple(tr.gen_id for tr in traces),
                          angles=angles, speeds=speeds,
                          grid_offset=offset, rate=rate)
