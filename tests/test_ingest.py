"""Trace file round trips, resampling, and clearing-instant alignment."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_smib
from lyapstab.errors import LyapstabError
from lyapstab import ingest
from lyapstab.ingest import (CSV_HEADER, MIN_HORIZON, EventMeta, _parse_bulk,
                             _parse_lines, align, parse_traces, write_traces)
from lyapstab.network import FaultSpec, load_network_file
from lyapstab.simulator import GeneratorTrace, simulate


def make_trace(gen_id="G1", rate=120.0, duration=2.0, f=1.0, amp=0.3, t0=0.0):
    t = t0 + np.arange(int(duration * rate) + 1) * (1.0 / rate)
    angles = amp * np.sin(2 * np.pi * f * t)
    speeds = amp * 2 * np.pi * f * np.cos(2 * np.pi * f * t)
    return GeneratorTrace(gen_id=gen_id, t0=t0, dt=1.0 / rate, angles=angles,
                          speeds=speeds, stamps=t)


# ---------------------------------------------------------------------------
# CSV parse / write
# ---------------------------------------------------------------------------

def test_parse_well_formed(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text(
        "t,gen_id,delta_rad,omega_rad_per_s\n"
        "0.0,G1,0.1,0.0\n0.0,G2,0.2,0.0\n"
        "0.5,G1,0.11,0.01\n0.5,G2,0.21,0.01\n"
        "1.0,G1,0.12,0.02\n1.0,G2,0.22,0.02\n", encoding="utf-8")
    traces = parse_traces(path)
    assert [tr.gen_id for tr in traces] == ["G1", "G2"]
    assert all(len(tr) == 3 for tr in traces)
    assert traces[1].angles[2] == 0.22


def test_parse_duplicate_row_names_line(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "t,gen_id,delta_rad,omega_rad_per_s\n"
        "0.0,G1,0.1,0.0\n0.0,G1,0.1,0.0\n", encoding="utf-8")
    with pytest.raises(LyapstabError, match="line 3"):
        parse_traces(path)


def test_parse_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "t,gen_id,delta_rad,omega_rad_per_s\n"
        "0.0,G1,0.1,0.0\n0.1,G1,zzz,0.0\n", encoding="utf-8")
    with pytest.raises(LyapstabError, match="line 3"):
        parse_traces(path)


def test_parse_backwards_time_is_ordering_error(tmp_path):
    path = tmp_path / "ord.csv"
    path.write_text(
        "t,gen_id,delta_rad,omega_rad_per_s\n"
        "0.1,G1,0.1,0.0\n0.0,G1,0.1,0.0\n", encoding="utf-8")
    with pytest.raises(LyapstabError, match="go backwards"):
        parse_traces(path)


def test_parse_rejects_large_gap(tmp_path):
    path = tmp_path / "gap.csv"
    rows = [f"{i / 120.0!r},G1,0.1,0.0" for i in range(10)]
    rows.append(f"{(10 / 120.0) + 0.5!r},G1,0.1,0.0")
    path.write_text("t,gen_id,delta_rad,omega_rad_per_s\n"
                    + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(LyapstabError, match="gap"):
        parse_traces(path)


def test_simulator_output_round_trips_bit_identically(tmp_path, networks_dir):
    model = load_network_file(networks_dir / "smib.net")
    traces = run_smib(model, t_clear=0.2, horizon=1.0)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_traces(traces, first)
    write_traces(parse_traces(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_block_layout_round_trips_bit_identically(tmp_path):
    # unequal lengths leave no shared grid, so each trace is its own block
    traces = [make_trace("G1", duration=0.1), make_trace("G2", duration=0.05),
              make_trace("G3", rate=60.0, duration=0.1, t0=0.01)]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_traces(traces, first)
    lines = first.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == (
        ["G1"] * 13 + ["G2"] * 7 + ["G3"] * 7)
    write_traces(parse_traces(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_traces_sharing_a_grid_but_not_stamps_round_trip(tmp_path):
    # same length, t0 and dt; B's fifth sample arrived 1 ms late
    a, b = make_trace("A", duration=9 / 120), make_trace("B", duration=9 / 120)
    b.stamps = b.stamps.copy()
    b.stamps[4] += 0.001
    path = tmp_path / "jittered.csv"
    write_traces([a, b], path)
    back = {tr.gen_id: tr.sample_times() for tr in parse_traces(path)}
    assert np.array_equal(back["A"], a.stamps)
    assert np.array_equal(back["B"], b.stamps)


def _row_writer(traces, path):
    """The reference writer: one f-string a row, in the layout of
    :func:`write_traces`."""
    same_grid = bool(traces) and all(
        np.array_equal(tr.sample_times(), traces[0].sample_times())
        for tr in traces[1:])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for block in [traces] if same_grid else [[tr] for tr in traces]:
            ids = [tr.gen_id for tr in block]
            samples = zip(map(repr, block[0].sample_times().tolist()),
                          zip(*(tr.angles.tolist() for tr in block)),
                          zip(*(tr.speeds.tolist() for tr in block)))
            fh.writelines(f"{t},{gid},{a!r},{s!r}\n"
                          for t, angles, speeds in samples
                          for gid, a, s in zip(ids, angles, speeds))


_CHUNK = ingest._WRITE_CHUNK
# -0.0, the smallest subnormal, another subnormal, and huge values
_EDGE_VALUES = (-0.0, 5e-324, 2.5e-310, 1e300, -1e300)


@st.composite
def writable_traces(draw):
    """1-5 traces that share one grid (one time-major block) or each have
    their own (one block a trace), of lengths around the writer's chunk,
    with jittered stamps or none, and edge values at drawn samples."""
    shared = draw(st.booleans())
    lengths = st.sampled_from([2, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK + 1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(lengths)
    stamps = None
    traces = []
    for k in range(draw(st.integers(1, 5))):
        if not shared or k == 0:
            n = n if shared else draw(lengths)
            jitter = rng.normal(0.0, 1e-5, n) if draw(st.booleans()) else None
            stamps = None if jitter is None else np.arange(n) / 120.0 + jitter
        values = rng.normal(0.0, 2.0, (2, n))
        for row in values:
            at = draw(st.lists(st.integers(0, n - 1), max_size=4))
            row[at] = [draw(st.sampled_from(_EDGE_VALUES)) for _ in at]
        # in block layout the grids differ through t0 if not through stamps
        t0 = 0.0 if shared else 0.001 * k
        traces.append(GeneratorTrace(f"G{k}", t0, 1.0 / 120.0, *values,
                                     stamps=None if stamps is None
                                     else stamps + t0))
    return traces


@pytest.fixture(scope="module")
def write_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("write")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(traces=writable_traces())
def test_writer_matches_the_row_at_a_time_writer(write_dir, traces):
    write_traces(traces, write_dir / "traces.csv")
    _row_writer(traces, write_dir / "reference.csv")
    assert ((write_dir / "traces.csv").read_bytes()
            == (write_dir / "reference.csv").read_bytes())


@pytest.mark.parametrize("gen_id", ["", "G,1", "G\r1", "G\n1"],
                         ids=["empty", "comma", "cr", "lf"])
def test_write_refuses_ids_the_csv_cannot_hold(tmp_path, gen_id):
    path = tmp_path / "bad.csv"
    traces = [make_trace("G0", duration=0.1), make_trace(gen_id, duration=0.1)]
    with pytest.raises(ValueError) as exc:
        write_traces(traces, path)
    assert repr(gen_id) in str(exc.value)
    assert not path.exists()


def test_parse_speed_offset(tmp_path):
    path = tmp_path / "abs.csv"
    path.write_text(
        "t,gen_id,delta_rad,omega_rad_per_s\n"
        "0.0,G1,0.0,377.0\n0.1,G1,0.0,377.5\n", encoding="utf-8")
    traces = parse_traces(path, speed_offset=377.0)
    assert traces[0].speeds == pytest.approx([0.0, 0.5])


def test_parse_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "latin1.csv"
    rows = "".join(f"{i / 120.0!r},G1,0.1,0.0\n" for i in range(2000))
    path.write_bytes(("t,gen_id,delta_rad,omega_rad_per_s\n" + rows).encode()
                     + b"0.5,G\xfc,0.1,0.0\n")
    with pytest.raises(LyapstabError, match="line 2002: invalid UTF-8 byte 0xfc"):
        parse_traces(path)


def test_parse_header_only_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,gen_id,delta_rad,omega_rad_per_s\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LyapstabError, match="no samples"):
            parse_traces(path)


def _assert_same_traces(got, want):
    assert [tr.gen_id for tr in got] == [tr.gen_id for tr in want]
    for a, b in zip(got, want):
        assert (a.t0, a.dt, a.diverged) == (b.t0, b.dt, b.diverged)
        for name in ("angles", "speeds", "stamps"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("block_layout", [False, True])
def test_bulk_parse_matches_written_traces_and_line_loop(tmp_path, networks_dir,
                                                         block_layout):
    model = load_network_file(networks_dir / "fourmachine.net")
    fault = FaultSpec(bus="6", t_fault=0.1, t_clear=0.25,
                      removed_branches=("T56B",))
    traces = simulate(model, fault, dt=1 / 240, horizon=2.0)
    if block_layout:  # unequal lengths: one block of rows per generator
        traces[0] = GeneratorTrace(traces[0].gen_id, traces[0].t0, traces[0].dt,
                                   traces[0].angles[:-3], traces[0].speeds[:-3])
    path = tmp_path / "event.csv"
    write_traces(traces, path)
    bulk = _parse_bulk(path, 0.0)
    assert bulk is not None  # well-formed files take the bulk pass
    assert [tr.gen_id for tr in bulk] == [tr.gen_id for tr in traces]
    for got, want in zip(bulk, traces):
        assert np.array_equal(got.stamps, want.sample_times())
        assert np.array_equal(got.angles, want.angles)
        assert np.array_equal(got.speeds, want.speeds)
    _assert_same_traces(bulk, _parse_lines(path, 0.0))
    offset = 2 * math.pi * 60.0
    _assert_same_traces(_parse_bulk(path, offset), _parse_lines(path, offset))


# Mutations of a well-formed file: each edits the list of rows (field lists,
# or raw strings for extra lines) and says whether the file is now malformed.
def _blank_line(draw, rows):
    rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(
        ["", "  ", " \t"])))
    return False


def _intact(rows):
    return [r for r in rows if isinstance(r, list) and len(r) == 4 and r[1]]


def _sample_row(draw, rows):
    return draw(st.sampled_from(_intact(rows)))


def _underscore(draw, rows):  # float() reads "1_0" as 10.0; loadtxt refuses it
    _sample_row(draw, rows)[draw(st.sampled_from([2, 3]))] = "1_0"
    return False


def _duplicate(draw, rows):
    row = _sample_row(draw, rows)
    rows.insert(rows.index(row) + 1, list(row))
    return True


def _backwards(draw, rows):
    gid = _sample_row(draw, rows)[1]
    same = [r for r in _intact(rows) if r[1] == gid]
    if len(same) < 2:
        return False
    same[0][0], same[1][0] = same[1][0], same[0][0]
    return True


def _bad_number(draw, rows):
    row = _sample_row(draw, rows)
    row[draw(st.sampled_from([0, 2, 3]))] = draw(st.sampled_from(
        ["zzz", "nan", "inf", "-inf", "1e999", ""]))
    return True


def _empty_id(draw, rows):  # all rows of one generator, so it has 2 samples
    gid = _sample_row(draw, rows)[1]
    for row in _intact(rows):
        if row[1] == gid:
            row[1] = ""
    return True


def _field_count(draw, rows):
    row = _sample_row(draw, rows)
    if draw(st.booleans()):
        row.append("0.0")
    else:
        row.pop()
    return True


MUTATIONS = (_blank_line, _underscore, _duplicate, _backwards, _bad_number,
             _empty_id, _field_count)


# Shapes of a file that a horizon read must handle: each edits the rows of
# one generator, and may leave it too short or with a gap, an error that no
# line is to blame for.
def _jitter(draw, rows):
    gid = _sample_row(draw, rows)[1]
    for row in _intact(rows):
        if row[1] == gid:
            row[0] = repr(float(row[0]) + 1e-4)


def _drop_sample(draw, rows):
    rows.remove(_sample_row(draw, rows))


def _late_join(draw, rows):
    gid = _sample_row(draw, rows)[1]
    same = [r for r in _intact(rows) if r[1] == gid]
    if len(same) < 2:
        return
    for row in same[:draw(st.integers(1, len(same) - 1))]:
        rows.remove(row)


def _early_leave(draw, rows):
    gid = _sample_row(draw, rows)[1]
    same = [r for r in _intact(rows) if r[1] == gid]
    if len(same) < 2:
        return
    for row in same[draw(st.integers(1, len(same) - 1)):]:
        rows.remove(row)


SHAPES = (_jitter, _drop_sample, _late_join, _early_leave)
GEN_IDS = ("G1", "G2", "Gen 3", "G\u00fc", " 7")
SPELLINGS = (repr, "{:.3e}".format, " {!r} ".format, "{:+.6f}".format)
NOT_UTF8 = (b"\xff", b"\xc3", b"\xed\xa0\x80")


def _time_major_rows(draw, min_ids, max_instants):
    """The rows of a well-formed time-major file: one per instant and id."""
    ids = draw(st.lists(st.sampled_from(GEN_IDS), min_size=min_ids,
                        max_size=3, unique=True))
    number = st.floats(-1e3, 1e3, allow_nan=False)
    rows = [[repr(k / 120.0), gid, draw(st.sampled_from(SPELLINGS))(draw(number)),
             draw(st.sampled_from(SPELLINGS))(draw(number))]
            for k in range(draw(st.integers(2, max_instants))) for gid in ids]
    return ids, rows


def _shape(draw, rows):
    """Draws shape edits into ``rows``: None if it made one, else False."""
    malformed = False
    for shape in draw(st.lists(st.sampled_from(SHAPES), max_size=2)):
        shape(draw, rows)
        malformed = None
    return malformed


@st.composite
def trace_files(draw, max_instants=4, shaped=False):
    """(file bytes, malformed): a small well-formed file plus mutations.

    With ``shaped``, shape edits are drawn too, and ``malformed`` is None
    where one may have made the file an error.
    """
    ids, rows = _time_major_rows(draw, 1, max_instants)
    if draw(st.booleans()):  # block layout
        rows.sort(key=lambda row: ids.index(row[1]))
    malformed = _shape(draw, rows) if shaped else False
    # at most two, and no more than the intact rows that shape edits left,
    # so that each one still finds an intact row to edit, and distinct, so
    # that a second swap cannot undo the first; _empty_id goes last, since
    # it may leave no intact row
    mutations = draw(st.lists(st.sampled_from(MUTATIONS),
                              max_size=min(2, len(_intact(rows))), unique=True))
    for mutate in sorted(mutations, key=lambda m: m is _empty_id):
        if mutate(draw, rows):
            malformed = True
    if draw(st.integers(0, 9)) == 0:  # header only, blank lines kept
        rows = [r for r in rows if isinstance(r, str)]
        malformed = True
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [CSV_HEADER] + [",".join(r) if isinstance(r, list) else r
                            for r in rows]
    raw = (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(NOT_UTF8)) + raw[at:]
        malformed = True
    return raw, malformed


@st.composite
def time_major_files(draw, max_instants=12):
    """(file bytes, malformed): a time-major file of two or more generators
    with LF line endings, with shape edits but no mutations, so that reads
    up to a horizon reach the stop rule's row R far more often than
    ``trace_files`` does; ``malformed`` as there."""
    _, rows = _time_major_rows(draw, 2, max_instants)
    malformed = _shape(draw, rows)
    lines = [CSV_HEADER] + [",".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8"), malformed


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.csv"


def _outcome(parse, path, offset, until=math.inf):
    try:
        return parse(path, offset, until)
    except LyapstabError as exc:  # any other exception fails the test
        return exc


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=trace_files(), offset=st.sampled_from([0.0, 376.99111843077515]))
def test_bulk_and_line_parsers_agree(fuzz_path, case, offset):
    raw, malformed = case
    fuzz_path.write_bytes(raw)
    want = _outcome(_parse_lines, fuzz_path, offset)
    got = _outcome(parse_traces, fuzz_path, offset)
    assert isinstance(want, LyapstabError) == malformed
    if malformed:
        assert type(got) is type(want) and str(got) == str(want)
    else:
        _assert_same_traces(got, want)


# before the first row, on and between the stamps, past the end, and none
UNTIL = st.one_of(st.sampled_from([-1.0, 100.0, math.inf]),
                  st.integers(0, 12).map(lambda k: k / 120.0),
                  st.integers(0, 12).map(lambda k: (k + 0.5) / 120.0))


def _time_id_rows(raw):
    """The ``(t, gen_id)`` of every line of ``raw`` that has both."""
    rows = []
    for line in raw.decode("utf-8", "replace").splitlines()[1:]:
        fields = line.split(",")
        try:
            rows.append((float(fields[0]), fields[1]))
        except (ValueError, IndexError):
            pass  # a line with no time or no id is no row
    return rows


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=trace_files(max_instants=12, shaped=True),
       offset=st.sampled_from([0.0, 376.99111843077515]), until=UNTIL)
def test_bulk_and_line_parsers_agree_up_to_a_horizon(fuzz_path, case, offset,
                                                     until):
    raw, malformed = case
    fuzz_path.write_bytes(raw)
    # each of the file's own stamps too: most files that stop, stop at one
    stamps = sorted({t for t, _ in _time_id_rows(raw) if math.isfinite(t)})
    for at in (until, *stamps):
        want = _outcome(_parse_lines, fuzz_path, offset, at)
        got = _outcome(parse_traces, fuzz_path, offset, at)
        if at > 1.0 and malformed is not None:  # past every stamp: whole
            assert isinstance(want, LyapstabError) == malformed
        if isinstance(want, LyapstabError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            _assert_same_traces(got, want)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=time_major_files(),
       offset=st.sampled_from([0.0, 376.99111843077515]), until=UNTIL)
def test_bulk_and_line_parsers_agree_up_to_a_horizon_on_time_major_files(
        fuzz_path, case, offset, until):
    """The horizon fuzz's assertions on files whose reads mostly reach R."""
    test_bulk_and_line_parsers_agree_up_to_a_horizon.hypothesis.inner_test(
        fuzz_path, case, offset, until)


def _reference_stop_row(rows, until):
    """The stop rule of :func:`parse_traces`, row by row: the number of
    ``(t, gen_id)`` rows up to and including R, or None."""
    if len(rows) < 2 or not rows[1][0] == rows[0][0]:
        return None
    waiting, seen = set(), set()  # waiting: no sample at or after until yet
    stuck = False  # some id has no sample before until
    for n, (t, gid) in enumerate(rows, start=1):
        if gid not in seen:
            seen.add(gid)
            waiting.add(gid)
            stuck |= t >= until
        if t >= until:
            waiting.discard(gid)
        if not (waiting or stuck):
            return n
    return None


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=trace_files(max_instants=12, shaped=True), until=UNTIL)
def test_stop_row_matches_the_row_by_row_rule(case, until):
    rows = _time_id_rows(case[0])
    _, codes = ingest._codes([gid for _, gid in rows])
    t = np.array([t for t, _ in rows], dtype=float)
    for at in (until, *t.tolist()):  # each stamp too: most files stop there
        assert ingest._stop_row(t, codes, at) == _reference_stop_row(rows, at)


# ---------------------------------------------------------------------------
# reading up to a horizon
# ---------------------------------------------------------------------------

def _two_machine_file(path, extra=(), at=None):
    """Two generators, 2 s at 120 Hz, time-major; ``extra`` rows are inserted
    before data row ``at`` (default: appended)."""
    write_traces([make_trace("G1"), make_trace("G2", amp=0.1)], path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    at = len(rows) if at is None else at
    rows[at:at] = extra
    path.write_text("\n".join([header, *rows, ""]), encoding="utf-8")
    return rows


def _samples(traces):
    return {tr.gen_id: len(tr) for tr in traces}


# G1's first row at 1.0 s is data row 241, G2's (R) row 242: line 243
BAD_ROWS = {
    "non-numeric": "0.5,G2,abc,0.0",
    "duplicate": "0.5,G1,0.1,0.0",
    "backwards": "0.25,G2,0.1,0.0",
}


@pytest.mark.parametrize("fault", list(BAD_ROWS))
def test_rows_after_the_stop_row_are_not_read(tmp_path, fault):
    clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
    _two_machine_file(clean)
    rows = _two_machine_file(bad, [BAD_ROWS[fault]], at=242)
    assert rows[241].startswith("1.0,G2,")
    with pytest.raises(LyapstabError, match="line 244: "):
        parse_traces(bad)  # the whole file: the row is at fault
    for parse in (parse_traces, _parse_lines):
        got = parse(bad, 0.0, 1.0)
        assert _samples(got) == {"G1": 121, "G2": 121}
        _assert_same_traces(got, parse_traces(clean, until=1.0))


@pytest.mark.parametrize("fault", list(BAD_ROWS))
def test_a_fault_before_the_stop_row_keeps_its_message(tmp_path, fault):
    path = tmp_path / "bad.csv"
    _two_machine_file(path, [BAD_ROWS[fault]], at=241)
    with pytest.raises(LyapstabError) as whole:
        parse_traces(path)
    assert str(whole.value).startswith("line 243: ")
    for until in (1.0, 0.999):
        with pytest.raises(LyapstabError) as early:
            parse_traces(path, until=until)
        assert str(early.value) == str(whole.value)


# two faulty rows inserted at data row 10 (lines 12 and 13), after G1's
# sample at 4/120 s; the first one's message
FIRST_FAULT_WINS = {
    "backwards-then-non-numeric": (
        ["0.0,G1,0.1,0.0", "0.5,G2,abc,0.0"],
        "line 12: timestamps for generator 'G1' go backwards"),
    "non-numeric-then-backwards": (
        ["0.5,G2,abc,0.0", "0.0,G1,0.1,0.0"],
        "line 12: non-numeric field in '0.5,G2,abc,0.0'"),
    "empty-id-then-duplicate": (
        ["0.5,,0.1,0.0", f"{4 / 120!r},G1,0.1,0.0"],
        "line 12: empty generator id"),
    "duplicate-then-empty-id": (
        [f"{4 / 120!r},G1,0.1,0.0", "0.5,,0.1,0.0"],
        f"line 12: duplicate sample for generator 'G1' at t={4 / 120!r}"),
}


@pytest.mark.parametrize("case", list(FIRST_FAULT_WINS))
def test_the_first_line_at_fault_wins_whatever_its_kind(tmp_path, case):
    extra, message = FIRST_FAULT_WINS[case]
    path = tmp_path / "two_faults.csv"
    rows = _two_machine_file(path, extra, at=10)
    assert rows[9].startswith(f"{4 / 120!r},G2,")
    for parse in (parse_traces, _parse_lines):
        for until in (math.inf, 1.0):  # the whole file, and R past both rows
            with pytest.raises(LyapstabError) as exc:
                parse(path, 0.0, until)
            assert str(exc.value) == message


def test_one_generator_at_the_first_instant_reads_the_whole_file(tmp_path):
    path = tmp_path / "blocks.csv"  # unequal lengths: one block per trace
    write_traces([make_trace("G1"), make_trace("G2", duration=1.5)], path)
    for parse in (parse_traces, _parse_lines):
        assert _samples(parse(path, 0.0, 0.5)) == {"G1": 241, "G2": 181}


def test_stop_row_ignores_generators_first_seen_after_it(tmp_path):
    path = tmp_path / "late.csv"
    _two_machine_file(path, ["1.5,G3,0.0,0.0", "1.6,G3,0.0,0.0"])
    for parse in (parse_traces, _parse_lines):
        assert _samples(parse(path, 0.0, 1.0)) == {"G1": 121, "G2": 121}
        assert _samples(parse(path, 0.0, math.inf))["G3"] == 2


def test_a_generator_joining_before_the_stop_row_is_read(tmp_path):
    # two rows per instant at first, three from G3's first row on: the rows
    # predicted from the first instants end before R, and the rest is read
    path = tmp_path / "join.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(
        f"{k / 120.0!r},{gid},0.1,0.0\n" for k in range(241)
        for gid in ("G1", "G2", "G3") if k or gid != "G3"), encoding="utf-8")
    for until in (0.05, 1.0):
        bulk = _parse_bulk(path, 0.0, until)
        assert bulk is not None
        assert _samples(bulk) == {"G1": 1 + round(until * 120),
                                  "G2": 1 + round(until * 120),
                                  "G3": round(until * 120)}
        _assert_same_traces(bulk, _parse_lines(path, 0.0, until))


def test_a_blank_line_before_the_stop_row_is_read_in_bulk(tmp_path):
    # loadtxt skips blank lines, and a prefix read does not count them among
    # its rows, so R is found in the prefix or in the whole file; right after
    # the first row, the blank lines lie among the instants that predict how
    # many rows to read
    rows = [f"{k / 120.0!r},{gid},0.1,0.0" for k in range(241)
            for gid in ("G1", "G2")]
    path = tmp_path / "blank.csv"
    for at in (1, 9):
        path.write_text("\n".join([CSV_HEADER] + rows[:at] + ["", ""]
                                  + rows[at:]) + "\n", encoding="utf-8")
        for until in (0.05, 1.0):
            bulk = _parse_bulk(path, 0.0, until)
            assert bulk is not None
            assert _samples(bulk) == dict.fromkeys(("G1", "G2"),
                                                   1 + round(until * 120))
            _assert_same_traces(bulk, _parse_lines(path, 0.0, until))


def test_the_bulk_pass_reads_short_for_any_number_of_generators(
        tmp_path, monkeypatch):
    ids = [f"G{i}" for i in range(70)]
    path = tmp_path / "wide.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(
        f"{k / 120.0!r},{gid},0.1,0.0\n" for k in range(25) for gid in ids),
        encoding="utf-8")
    counts, loadtxt = [], ingest._loadtxt
    monkeypatch.setattr(ingest, "_loadtxt", lambda path, count=None: (
        counts.append(count) or loadtxt(path, count)))
    assert _samples(_parse_bulk(path, 0.0, 0.1)) == dict.fromkeys(ids, 13)
    assert counts == [70 * 14]  # the rows to 12/120 s and one instant more


def test_a_generator_without_a_sample_before_until_reads_the_whole_file(
        tmp_path):
    # G3's first row comes before R but after until: align would name it
    path = tmp_path / "late.csv"
    _two_machine_file(path, ["1.0,G3,0.0,0.0", "1.5,G3,0.0,0.0"], at=241)
    for parse in (parse_traces, _parse_lines):
        assert _samples(parse(path, 0.0, 1.0)) == {"G1": 241, "G2": 241,
                                                   "G3": 2}


def test_the_gap_rule_sees_only_the_rows_read(tmp_path):
    # 240 Hz with a 1/60 s gap for 1 s, then 30 Hz to 10 s: the median step
    # of the whole file is 1/30 s, that of the first half second 1/240 s
    stamps = ([k / 240.0 for k in range(241) if k not in (61, 62, 63)]
              + [1.0 + j / 30.0 for j in range(1, 271)])
    path = tmp_path / "two_rates.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(
        f"{t!r},{gid},0.1,0.0\n" for t in stamps for gid in ("G1", "G2")),
        encoding="utf-8")
    for parse in (parse_traces, _parse_lines):
        assert _samples(parse(path)) == {"G1": 508, "G2": 508}
        with pytest.raises(LyapstabError, match="'G1' has a gap of 0.0166667 s"):
            parse(path, 0.0, 0.5)


# ---------------------------------------------------------------------------
# resampling: align interpolates every trace onto its grid
# ---------------------------------------------------------------------------

AT_ZERO = EventMeta(t_fault=0.0, t_clear=0.0)  # grid index 0 at t = 0


def test_resample_identity_on_target_grid():
    tr = make_trace(rate=120.0)
    out = align([tr], AT_ZERO, rate=120.0)
    assert np.array_equal(out.angles[0], tr.angles)
    assert np.array_equal(out.sample_times(), tr.sample_times())


def test_resample_ramp_inserts_midpoints():
    t = np.arange(0, 61) / 60.0
    tr = GeneratorTrace(gen_id="G", t0=0.0, dt=1 / 60.0, angles=2.0 * t,
                        speeds=np.full_like(t, 2.0), stamps=t)
    out = align([tr], AT_ZERO, rate=120.0)
    assert out.n_samples == 121
    mids = out.angles[0, 1::2]
    expect = (tr.angles[:-1] + tr.angles[1:]) / 2.0
    assert mids == pytest.approx(expect, abs=1e-15)


def test_resample_preserves_constants_and_affine():
    t = np.arange(0, 61) / 60.0  # align wants MIN_HORIZON = 0.5 s of data
    const = GeneratorTrace("G", 0.0, 1 / 60.0, np.full_like(t, 0.7),
                           np.zeros_like(t), stamps=t)
    out = align([const], AT_ZERO, rate=97.0)
    assert np.all(out.angles == 0.7)
    affine = GeneratorTrace("G", 0.0, 1 / 60.0, 3.0 * t - 1.0,
                            np.full_like(t, 3.0), stamps=t)
    out = align([affine], AT_ZERO, rate=97.0)
    assert out.angles[0] == pytest.approx(3.0 * out.sample_times() - 1.0,
                                          abs=1e-12)


def test_resample_sinusoid_halving_accuracy():
    tr = make_trace(rate=240.0, f=1.0, amp=1.0)
    out = align([tr], AT_ZERO, rate=120.0)
    analytic = np.sin(2 * np.pi * out.sample_times())
    assert np.abs(out.angles[0] - analytic).max() < 1e-3


def test_resample_rejects_bad_rate():
    for rate in (0.0, -120.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rate must be finite and > 0"):
            align([make_trace()], AT_ZERO, rate=rate)


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------

def test_align_passthrough_on_grid():
    traces = [make_trace("G1"), make_trace("G2", amp=0.1)]
    meta = EventMeta(t_fault=0.2, t_clear=0.5)
    ds = align(traces, meta)
    k0 = round(0.5 * 120)
    assert ds.grid_offset == k0
    assert ds.sample_times()[0] == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(ds.angles[0], traces[0].angles[k0:k0 + ds.n_samples])


def test_align_index0_within_dt_of_clearing():
    traces = [make_trace("G1")]
    meta = EventMeta(t_fault=0.1, t_clear=0.5041)
    ds = align(traces, meta)
    assert 0.0 <= ds.sample_times()[0] - meta.t_clear < ds.dt


def test_align_coverage_error_names_offenders():
    good = make_trace("G1", duration=2.0)
    short = make_trace("G2", duration=0.55)
    meta = EventMeta(t_fault=0.2, t_clear=0.5)
    with pytest.raises(LyapstabError, match="G2"):
        align([good, short], meta)


def test_align_mixed_rates_share_the_grid():
    t60 = make_trace("G1", rate=60.0)
    t240 = make_trace("G2", rate=240.0)
    meta = EventMeta(t_fault=0.1, t_clear=0.3017)
    ds = align([t60, t240], meta)
    # independent grid computation: first multiple of 1/120 at or after t_clear
    k0 = math.ceil(meta.t_clear * 120.0)
    assert ds.grid_offset == k0
    assert ds.sample_times()[0] == pytest.approx(k0 / 120.0, abs=1e-15)
    assert ds.angles.shape[0] == 2


def test_align_refuses_duplicate_generator_ids():
    # with two G1 rows, index('G1') and clearing_speeds() would disagree
    # on which machine G1 is
    traces = [make_trace("G1"), make_trace("G1", amp=0.1), make_trace("G3")]
    meta = EventMeta(t_fault=0.2, t_clear=0.5)
    with pytest.raises(ValueError, match="generator id 'G1' appears more "
                                         "than once"):
        align(traces, meta)


def test_align_idempotent():
    traces = [make_trace("G1"), make_trace("G2", amp=0.05)]
    meta = EventMeta(t_fault=0.2, t_clear=0.5)
    once = align(traces, meta)
    times = once.sample_times()
    twice = align([GeneratorTrace(gid, float(times[0]), once.dt, once.angles[i],
                                  once.speeds[i], stamps=times)
                   for i, gid in enumerate(once.gen_ids)], meta)
    assert once.grid_offset == twice.grid_offset
    assert np.array_equal(once.angles, twice.angles)
    assert np.array_equal(once.speeds, twice.speeds)


@pytest.mark.parametrize("rate", [60.0, 120.0, 240.0])
@pytest.mark.parametrize("shift", [-5e-12, 5e-12], ids=["early", "late"])
def test_align_accepts_stamps_within_the_coverage_tolerance(rate, shift):
    # the traces span exactly [t_clear, t_clear + 2 s]; a shift of 5e-12 s
    # is 6e-10 of a 120 Hz grid step, inside the 1e-9 of the coverage rule,
    # but 1.2e-9 of a 240 Hz trace step
    meta = EventMeta(t_fault=0.1, t_clear=0.25)
    base = make_trace("G1", rate=rate, t0=0.25)
    moved = GeneratorTrace("G1", base.t0 + shift, base.dt, base.angles,
                           base.speeds, stamps=base.stamps + shift)
    want, got = align([base], meta), align([moved], meta)
    assert got.n_samples == want.n_samples == 241
    assert got.grid_offset == want.grid_offset
    assert np.allclose(got.angles, want.angles, rtol=0.0, atol=1e-9)
    assert np.allclose(got.speeds, want.speeds, rtol=0.0, atol=1e-9)


def test_align_refuses_a_trace_just_short_of_the_horizon():
    meta = EventMeta(t_fault=0.1, t_clear=0.25)
    stamps = np.linspace(0.0, meta.t_clear + MIN_HORIZON - 1e-6, 200)
    short = GeneratorTrace("G2", 0.0, float(stamps[1]), np.zeros(200),
                           np.zeros(200), stamps=stamps)
    with pytest.raises(LyapstabError, match=r"offenders: \['G2'\]"):
        align([make_trace("G1"), short, make_trace("G3")], meta)


def test_event_meta_roundtrip(tmp_path):
    meta = EventMeta(t_fault=0.1, t_clear=0.25, faulted_element="L7")
    path = tmp_path / "event.json"
    path.write_text(meta.to_json(), encoding="utf-8")
    back = EventMeta.from_file(path)
    assert back == meta
    with pytest.raises(ValueError):
        EventMeta(t_fault=0.3, t_clear=0.2)
