"""Network model validation and reduction to machine nodes."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NETWORKS, chain_model
from lyapstab.errors import LyapstabError
from lyapstab.network import (FAULT_SHUNT_G, SECTIONS, Branch, FaultSpec,
                              Generator, NetworkModel, load_network_file,
                              reduce_network)


def lossless_pair(x_line=0.4):
    return NetworkModel(
        buses=("1", "2"),
        branches=(Branch("L1", "1", "2", 0.0, x_line),),
        generators=(
            Generator("G1", "1", 0.02, 0.0, 0.3, 1.0, 0.5),
            Generator("G2", "2", 0.02, 0.0, 0.2, 1.0, None),
        ),
    )


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

def test_duplicate_bus_rejected():
    with pytest.raises(LyapstabError, match="duplicate bus id '1'"):
        NetworkModel(buses=("1", "1"), branches=(),
                     generators=(Generator("G", "1", 1.0, 0.0, 0.1, 1.0, None),))


def test_zero_impedance_branch_rejected():
    with pytest.raises(LyapstabError, match="zero impedance"):
        NetworkModel(
            buses=("1", "2"),
            branches=(Branch("L", "1", "2", 0.0, 0.0),),
            generators=(
                Generator("G1", "1", 1.0, 0.0, 0.1, 1.0, 0.1),
                Generator("G2", "2", 1.0, 0.0, 0.1, 1.0, None),
            ),
        )


def test_branch_referencing_unknown_bus_rejected():
    with pytest.raises(LyapstabError, match="unknown bus"):
        NetworkModel(
            buses=("1", "2"),
            branches=(Branch("L", "1", "9", 0.0, 0.1),),
            generators=(
                Generator("G1", "1", 1.0, 0.0, 0.1, 1.0, 0.1),
                Generator("G2", "2", 1.0, 0.0, 0.1, 1.0, None),
            ),
        )


def test_single_finite_machine_rejected_without_infinite_bus():
    with pytest.raises(LyapstabError, match="infinite bus"):
        NetworkModel(buses=("1",), branches=(),
                     generators=(Generator("G", "1", 1.0, 0.0, 0.1, 1.0, None),))


def test_single_machine_against_infinite_bus_allowed():
    model = NetworkModel(
        buses=("1", "2"),
        branches=(Branch("L", "1", "2", 0.0, 0.4),),
        generators=(
            Generator("G1", "1", 0.02, 0.0, 0.3, 1.1, 0.9),
            Generator("INF", "2", math.inf, 0.0, 1e-4, 1.0, None),
        ),
    )
    assert [g.gen_id for g in model.generators if g.pm is None] == ["INF"]


def test_exactly_one_slack_required():
    gens_no_slack = (
        Generator("G1", "1", 1.0, 0.0, 0.1, 1.0, 0.1),
        Generator("G2", "2", 1.0, 0.0, 0.1, 1.0, 0.2),
    )
    with pytest.raises(LyapstabError, match="exactly one"):
        NetworkModel(buses=("1", "2"),
                     branches=(Branch("L", "1", "2", 0.0, 0.1),),
                     generators=gens_no_slack)


def test_fault_spec_rejects_clear_before_fault():
    model = lossless_pair()
    with pytest.raises(LyapstabError, match="t_clear"):
        FaultSpec(bus="1", t_fault=0.2, t_clear=0.1).validate(model)


def test_fault_spec_zero_duration_allowed():
    FaultSpec(bus="1", t_fault=0.1, t_clear=0.1).validate(lossless_pair())


def test_fault_spec_rejects_islanding_removal():
    with pytest.raises(LyapstabError, match="island"):
        FaultSpec(bus="1", t_fault=0.0, t_clear=0.1,
                  removed_branches=("L1",)).validate(lossless_pair())


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_two_generator_lossless_reduction_is_series_path():
    # unique path 1-2: x'd1 + x_line + x'd2 = 0.3 + 0.4 + 0.2
    model = lossless_pair(x_line=0.4)
    red = reduce_network(model)
    b_path = 1.0 / (0.3 + 0.4 + 0.2)
    assert red.G == pytest.approx(np.zeros((2, 2)), abs=1e-12)
    assert red.B[0, 1] == pytest.approx(b_path, rel=1e-12)
    assert red.B[1, 0] == pytest.approx(b_path, rel=1e-12)
    assert red.B[0, 0] == pytest.approx(-b_path, rel=1e-12)


def test_fault_at_generator_terminal_stays_finite():
    model = lossless_pair()
    fault = FaultSpec(bus="1", t_fault=0.0, t_clear=0.1)
    red = reduce_network(model, shunt_bus=fault.bus)
    assert np.isfinite(red.G).all() and np.isfinite(red.B).all()
    # the faulted machine is essentially shorted: its transfer admittance to
    # the other machine collapses, its self-term approaches 1 / x'd
    assert abs(red.B[0, 1]) < 1e-4
    assert red.B[0, 0] == pytest.approx(-1.0 / 0.3, rel=1e-3)


def _schur_oracle(model, removed, shunt_bus):
    """The reduced admittance from an independent assembly: complex admittance
    over [machines | buses] built with plain dictionaries, then an explicit
    inverse-based Schur complement."""
    n_gen = len(model.generators)
    nodes = [g.gen_id for g in model.generators] + list(model.buses)
    index = {name: k for k, name in enumerate(nodes)}
    n = len(nodes)
    Y = np.zeros((n, n), dtype=complex)
    for br in model.branches:
        if br.branch_id in removed:
            continue
        y = 1.0 / complex(br.r, br.x)
        a, b = index[br.from_bus], index[br.to_bus]
        Y[a, a] += y
        Y[b, b] += y
        Y[a, b] -= y
        Y[b, a] -= y
    for gen in model.generators:
        y = 1.0 / complex(0.0, gen.xd)
        a, b = index[gen.gen_id], index[gen.bus]
        Y[a, a] += y
        Y[b, b] += y
        Y[a, b] -= y
        Y[b, a] -= y
    for load in model.loads:
        k = index[load.bus]
        Y[k, k] += complex(load.g, load.b)
    if shunt_bus is not None:
        Y[index[shunt_bus], index[shunt_bus]] += FAULT_SHUNT_G
    Ygg = Y[:n_gen, :n_gen]
    Ygb = Y[:n_gen, n_gen:]
    Ybb = Y[n_gen:, n_gen:]
    return Ygg - Ygb @ np.linalg.inv(Ybb) @ Ygb.T


def test_nine_bus_reduction_matches_schur_oracle(networks_dir):
    # every (network, faulted bus, opened branches) of the acceptance battery,
    # in each of simulate's phases: intact, fault shunt on, branches out
    for name, bus, removed in (
            ("smib", "1", ("L2",)), ("twomachine", "3", ()),
            ("threemachine", "8", ("L78",)), ("threemachine", "5", ("L45",)),
            ("threemachine", "6", ("L67",)), ("fourmachine", "1", ("L15A",)),
            ("fourmachine", "6", ("T56B",)), ("fourmachine", "7", ("T67B",)),
            ("chain", "B", ())):
        model = (chain_model() if name == "chain"
                 else load_network_file(networks_dir / f"{name}.net"))
        for edits in ((), None), ((), bus), (removed, None):
            red = reduce_network(model, *edits)
            oracle = _schur_oracle(model, *edits)
            assert np.abs(red.G - oracle.real).max() < 1e-9, (bus, edits)
            assert np.abs(red.B - oracle.imag).max() < 1e-9, (bus, edits)


def test_reduced_matrix_symmetric(networks_dir):
    for name in ("smib.net", "twomachine.net", "threemachine.net",
                 "fourmachine.net"):
        model = load_network_file(networks_dir / name)
        red = reduce_network(model)
        scale = max(np.abs(red.B).max(), 1.0)
        assert np.abs(red.B - red.B.T).max() < 1e-9 * scale
        assert np.abs(red.G - red.G.T).max() < 1e-9 * scale


def test_bus_without_branch_or_load_is_singular():
    pair = lossless_pair()  # plus bus 3, which nothing connects
    model = NetworkModel(buses=("1", "2", "3"), branches=pair.branches,
                         generators=pair.generators)
    with pytest.raises(LyapstabError,
                       match=r"singular bus admittance block \(pre_fault\)"):
        reduce_network(model)


@pytest.mark.parametrize("edits, message", [
    ({"shunt_bus": "99"}, "faulted bus '99' not in model"),
    ({"removed": ("L1", "NOPE", "ALSO")}, "unknown branch id 'NOPE'"),
    ({"removed": ("ALSO",), "shunt_bus": "99"},
     "faulted bus '99' not in model"),
])
def test_reduction_rejects_unknown_ids(edits, message):
    with pytest.raises(LyapstabError, match=f"^{re.escape(message)}$"):
        reduce_network(lossless_pair(), **edits)


def test_post_fault_removes_branch():
    model = NetworkModel(
        buses=("1", "2"),
        branches=(Branch("L1", "1", "2", 0.0, 0.4),
                  Branch("L2", "1", "2", 0.0, 0.4)),
        generators=(
            Generator("G1", "1", 0.02, 0.0, 0.3, 1.0, 0.5),
            Generator("G2", "2", 0.02, 0.0, 0.2, 1.0, None),
        ),
    )
    fault = FaultSpec(bus="1", t_fault=0.0, t_clear=0.1,
                      removed_branches=("L2",))
    pre = reduce_network(model)
    post = reduce_network(model, removed=fault.removed_branches)
    assert pre.B[0, 1] == pytest.approx(1.0 / 0.7, rel=1e-12)
    assert post.B[0, 1] == pytest.approx(1.0 / 0.9, rel=1e-12)


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

def test_fixture_files_load(networks_dir):
    for name, n_gen in (("smib.net", 2), ("twomachine.net", 2),
                        ("threemachine.net", 3), ("fourmachine.net", 4)):
        model = load_network_file(networks_dir / name)
        assert len(model.generators) == n_gen


def test_smib_file_builds_infinite_machine(networks_dir):
    model = load_network_file(networks_dir / "smib.net")
    inf = next(g for g in model.generators if g.gen_id == "INF")
    assert math.isinf(inf.m)
    assert inf.pm is None


def test_network_file_errors(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("[buses]\n1\n[branches]\nL1 1\n", encoding="utf-8")
    with pytest.raises(LyapstabError, match="branch rows"):
        load_network_file(bad)
    bad.write_text("1\n", encoding="utf-8")
    with pytest.raises(LyapstabError, match="section"):
        load_network_file(bad)
    bad.write_text("[generators]\nG1 1 x 0 0.1 1.0 0.5\n", encoding="utf-8")
    with pytest.raises(LyapstabError, match="not a number"):
        load_network_file(bad)


def _edited(tmp_path, name, old, new):
    """A copy of a shipped network file with ``old`` replaced once by ``new``,
    and the 1-based line the edit lands on."""
    text = (NETWORKS / name).read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / name
    path.write_bytes(text.replace(old, new).encode("utf-8", "surrogateescape"))
    return path, text[:text.index(old)].count("\n") + 1


def _fails_at(path, line, message):
    return pytest.raises(LyapstabError,
                         match="^" + re.escape(f"{path}:{line}: {message}"))


def test_unknown_section_names_its_line(tmp_path):
    path, line = _edited(tmp_path, "fourmachine.net", "[loads]", "[load]")
    with _fails_at(path, line, "unknown section [load]"):
        load_network_file(path)


@pytest.mark.parametrize("old, new", [
    ("0.010  0.20\nT56B", "nan    0.20\nT56B"),
    ("base_mva = 100.0", "base_mva = inf"),
    ("frequency_hz = 60.0", "frequency_hz = nan"),
    ("G2    2    0.034483", "G2    2    Infinity"),
    ("2.40  -0.40", "2.40  -1e999"),
])
def test_non_finite_numbers_name_their_line(tmp_path, old, new):
    path, line = _edited(tmp_path, "fourmachine.net", old, new)
    with _fails_at(path, line, "not a finite number"):
        load_network_file(path)


NON_PHYSICAL = "base_mva and frequency_hz must be > 0"


@pytest.mark.parametrize("old, new, message", [
    ("T56B    5     6   0.010", "T56B    5     6  -0.500",
     "branch 'T56B' needs r >= 0"),
    ("base_mva = 100.0", "base_mva = 0", NON_PHYSICAL),
    ("frequency_hz = 60.0", "frequency_hz = -60", NON_PHYSICAL),
    ("5\n6\n", "5\n5\n", "duplicate bus id '5'"),
])
def test_model_faults_name_the_file(tmp_path, old, new, message):
    path, _ = _edited(tmp_path, "fourmachine.net", old, new)
    with pytest.raises(LyapstabError,
                       match="^" + re.escape(f"{path}: {message}")):
        load_network_file(path)


@pytest.mark.parametrize("name, old, new, message", [
    ("fourmachine.net", "7\n\n[branches]", "7 8\n\n[branches]",
     "one bus id per line"),
    ("fourmachine.net", "T56B    5     6   0.010  0.20",
     "T56B    5     6   0.010", "branch rows need: id from to r_pu x_pu"),
    ("fourmachine.net", "1.06  0.70", "1.06  0.70  0.1",
     "generator rows need: id bus m d xd emf pm"),
    ("smib.net", "2      1.0  0.0001", "2      1.0",
     "infinite_bus rows need: bus emf xs"),
    ("fourmachine.net", "2.40  -0.40", "2.40", "load rows need: bus g_pu b_pu"),
    ("fourmachine.net", "base_mva = 100.0", "base_mva 100.0",
     "expected key = value"),
    ("fourmachine.net", "frequency_hz = 60.0", "frequency = 60.0",
     "unknown system key 'frequency'"),
], ids=["buses", "branches", "generators", "infinite_bus", "loads",
        "system-no-equals", "system-unknown-key"])
def test_row_faults_name_the_line_and_the_columns(tmp_path, name, old, new,
                                                  message):
    path, line = _edited(tmp_path, name, old, new)
    with pytest.raises(LyapstabError) as exc:
        load_network_file(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_invalid_utf8_names_its_line(tmp_path):
    path, line = _edited(tmp_path, "fourmachine.net", "[generators]",
                         "[generators]  # \udcff")
    with _fails_at(path, line, "invalid UTF-8 byte 0xff"):
        load_network_file(path)


def test_second_infinite_bus_names_its_line(tmp_path):
    path, line = _edited(tmp_path, "smib.net", "2      1.0  0.0001",
                         "2      1.0  0.0001\n1      1.0  0.0001")
    with _fails_at(path, line + 1, "at most one infinite bus"):
        load_network_file(path)


# ---------------------------------------------------------------------------
# fuzzing the loader with mutated shipped files
# ---------------------------------------------------------------------------

SHIPPED = tuple(sorted(p.name for p in NETWORKS.glob("*.net")))
# numeric columns per section; [system] rows split as ``key = value``
NUMERIC = {"system": (2,), "branches": (3, 4), "generators": (2, 3, 4, 5, 6),
           "infinite_bus": (1, 2), "loads": (1, 2)}
NOT_NUMBERS = ("x", "1.2.3", "--1", "1e", "0x1F", "1,5", "slak")
NOT_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400")
NOT_UTF8 = (b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80")


def _layout(lines):
    """(index, section, tokens) of every data line, and the header indexes."""
    section, rows, headers = None, [], []
    for i, line in enumerate(lines):
        text = line.split("#", 1)[0].strip()
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip().lower()
            headers.append(i)
        elif text:
            rows.append((i, section, text.split()))
    return rows, headers


# Edits that keep the model: each changes the list of lines in place.
def _insert_blank_or_comment(draw, lines):
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
        ["", "   ", "\t", "#", "  # [buses] 1 2", "# nan inf"])))


def _trailing_comment(draw, lines):
    rows, headers = _layout(lines)
    i = draw(st.sampled_from([i for i, _, _ in rows] + headers))
    lines[i] += draw(st.sampled_from(["  # note", "\t#x", "#"]))


def _respace(draw, lines):
    i, _, toks = draw(st.sampled_from(_layout(lines)[0]))
    lines[i] = draw(st.sampled_from(["\t", "   ", " \t "])).join(toks) + " "


def _header_case(draw, lines):
    i = draw(st.sampled_from(_layout(lines)[1]))
    lines[i] = draw(st.sampled_from(["[ {} ]", "[{}]"])).format(
        lines[i].strip()[1:-1].upper())


# Faults: each edits one line and returns (0-based line, message fragment);
# a line of None means the fault lies across rows and names no line.
def _section_typo(draw, lines):
    i = draw(st.sampled_from(_layout(lines)[1]))
    name = lines[i].strip()[1:-1]
    k = draw(st.integers(0, len(name) - 1))
    head, tail = name[:k], name[k + 1:]
    name = draw(st.sampled_from([head + "q" + name[k:], head + tail,  # add, drop
                                 head + tail[:1] + name[k] + tail[1:]]))  # swap
    if name.strip().lower() in SECTIONS:  # equal letters swapped, or padding
        name += "s"
    lines[i] = f"[{name}]"
    return i, "unknown section"


def _field_count(draw, lines):
    i, _, toks = draw(st.sampled_from(_layout(lines)[0]))
    if len(toks) > 1 and draw(st.booleans()):
        del toks[draw(st.integers(0, len(toks) - 1))]
    else:
        toks.insert(draw(st.integers(0, len(toks))), "7")
    lines[i] = " ".join(toks)
    return i, ""


def _replace_number(draw, lines, tokens):
    rows = [r for r in _layout(lines)[0] if r[1] in NUMERIC]
    i, section, toks = draw(st.sampled_from(rows))
    toks[draw(st.sampled_from(NUMERIC[section]))] = draw(st.sampled_from(tokens))
    lines[i] = " ".join(toks)
    return i


def _not_a_number(draw, lines):
    return _replace_number(draw, lines, NOT_NUMBERS), "not a number"


def _not_finite(draw, lines):
    return _replace_number(draw, lines, NOT_FINITE), "not a finite number"


def _duplicate_id(draw, lines):
    rows = [r for r in _layout(lines)[0]
            if r[1] in ("buses", "branches", "generators", "infinite_bus")]
    i, section, _ = draw(st.sampled_from(rows))
    lines.insert(i + 1, lines[i])
    if section == "infinite_bus":
        return i + 1, "at most one infinite bus"
    return None, "duplicate"


def _data_before_header(draw, lines):
    i = draw(st.integers(0, _layout(lines)[1][0]))
    lines.insert(i, draw(st.sampled_from(["1", "base_mva = 100.0",
                                          "G9 1 0.1 0.0 0.2 1.0 0.5"])))
    return i, "before any [section] header"


def _not_utf8(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    k = draw(st.integers(0, len(lines[i])))
    bad = draw(st.sampled_from(NOT_UTF8)).decode("utf-8", "surrogateescape")
    lines[i] = lines[i][:k] + bad + lines[i][k:]
    return i, "invalid UTF-8 byte"


HARMLESS = (_insert_blank_or_comment, _trailing_comment, _respace, _header_case)
FAULTS = (_section_typo, _field_count, _not_a_number, _not_finite,
          _duplicate_id, _data_before_header, _not_utf8)


@st.composite
def network_files(draw):
    """(shipped name, file bytes, expected fault or None)."""
    name = draw(st.sampled_from(SHIPPED))
    lines = (NETWORKS / name).read_text(encoding="utf-8").splitlines()
    for edit in draw(st.lists(st.sampled_from(HARMLESS), max_size=3)):
        edit(draw, lines)
    fault = draw(st.sampled_from(FAULTS + (None,)))
    if fault is not None:
        fault = fault(draw, lines)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return name, text.encode("utf-8", "surrogateescape"), fault


@pytest.fixture(scope="module")
def fuzz_net(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.net"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=network_files())
def test_mutated_network_files_load_or_name_the_fault(fuzz_net, case):
    name, raw, fault = case
    fuzz_net.write_bytes(raw)
    try:
        model = load_network_file(fuzz_net)
    except LyapstabError as exc:  # any other exception fails the test
        assert fault is not None, str(exc)
        line, fragment = fault
        if line is not None:
            assert str(exc).startswith(f"{fuzz_net}:{line + 1}: ")
        assert fragment in str(exc)
    else:
        assert fault is None
        assert model == load_network_file(NETWORKS / name)
