"""Command-line workflows: simulate, assess, sweep."""

import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lyapstab import cli
from lyapstab.cli import build_parser, main
from lyapstab.ingest import CSV_HEADER, parse_traces, write_traces


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def stable_case(tmp_path, networks_dir):
    """Simulated stable two-machine event on disk: (traces path, meta path)."""
    out = tmp_path / "traces.csv"
    code = run_cli("simulate", "--network", networks_dir / "twomachine.net",
                   "--fault-bus", "3", "--fault-time", "0.1",
                   "--clear-time", "0.2", "--horizon", "8.0", "--out", out)
    assert code == 0
    return out, tmp_path / "traces.meta.json"


@pytest.fixture(scope="module")
def four_b6(tmp_path_factory, networks_dir):
    """Four-machine bus-6 event cleared at 0.25 s with T56B opened."""
    out = tmp_path_factory.mktemp("four_b6") / "four.csv"
    code = run_cli("simulate", "--network", networks_dir / "fourmachine.net",
                   "--fault-bus", "6", "--fault-time", "0.1",
                   "--clear-time", "0.25", "--open-branch", "T56B",
                   "--horizon", "12.0", "--out", out)
    assert code == 0
    return out, out.with_name("four.meta.json")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_traces_and_meta(tmp_path, networks_dir):
    out = tmp_path / "smib.csv"
    code = run_cli("simulate", "--network", networks_dir / "smib.net",
                   "--fault-bus", "1", "--fault-time", "0.1",
                   "--clear-time", "0.2", "--open-branch", "L2",
                   "--horizon", "6.0", "--out", out)
    assert code == 0
    traces = parse_traces(out)
    assert {tr.gen_id for tr in traces} == {"G1", "INF"}
    meta = json.loads((tmp_path / "smib.meta.json").read_text())
    assert meta["clear_time_s"] == 0.2
    assert meta["faulted_element"] == "1"


def test_simulate_is_deterministic(tmp_path, networks_dir):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run_cli("simulate", "--network", networks_dir / "twomachine.net",
                "--fault-bus", "3", "--clear-time", "0.2", "--out", out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_zero_duration_fault_keeps_traces_constant(tmp_path,
                                                            networks_dir):
    out = tmp_path / "flat.csv"
    code = run_cli("simulate", "--network", networks_dir / "twomachine.net",
                   "--fault-bus", "3", "--fault-time", "0.1",
                   "--clear-time", "0.1", "--horizon", "2.0", "--out", out)
    assert code == 0
    for tr in parse_traces(out):
        assert np.abs(tr.angles - tr.angles[0]).max() < 1e-8


def test_simulate_refuses_an_id_the_csv_cannot_hold(tmp_path, networks_dir,
                                                    capsys):
    net = tmp_path / "comma.net"
    text = (networks_dir / "twomachine.net").read_text(encoding="utf-8")
    net.write_text(text.replace("G1    1", "G,1   1"), encoding="utf-8")
    out = tmp_path / "comma.csv"
    code = run_cli("simulate", "--network", net, "--fault-bus", "3",
                   "--clear-time", "0.2", "--horizon", "1.0", "--out", out)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "'G,1'" in err
    assert not out.exists() and not out.with_suffix(".meta.json").exists()


def test_simulate_bad_network_path_fails(tmp_path):
    code = run_cli("simulate", "--network", tmp_path / "missing.net",
                   "--fault-bus", "1", "--clear-time", "0.2",
                   "--out", tmp_path / "x.csv")
    assert code == 1


# ---------------------------------------------------------------------------
# assess
# ---------------------------------------------------------------------------

def test_assess_stable_exit_zero(stable_case, capsys, tmp_path):
    traces_path, meta_path = stable_case
    report_path = tmp_path / "report.json"
    code = run_cli("assess", "--traces", traces_path, "--meta", meta_path,
                   "--out", report_path)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"]["status"] == "STABLE"
    assert json.loads(report_path.read_text()) == payload


def test_assess_unstable_exit_two(tmp_path, networks_dir, capsys):
    out = tmp_path / "unstable.csv"
    run_cli("simulate", "--network", networks_dir / "twomachine.net",
            "--fault-bus", "3", "--clear-time", "0.34",
            "--horizon", "8.0", "--out", out)
    code = run_cli("assess", "--traces", out,
                   "--meta", tmp_path / "unstable.meta.json")
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"]["status"] == "UNSTABLE"
    assert payload["pairs"][0]["status"].startswith("UNSTABLE")


def test_assess_missing_meta_exit_one(stable_case, capsys):
    traces_path, _ = stable_case
    code = run_cli("assess", "--traces", traces_path)
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_assess_flags_override_meta(stable_case):
    traces_path, _ = stable_case
    code = run_cli("assess", "--traces", traces_path,
                   "--fault-time", "0.1", "--clear-time", "0.2")
    assert code == 0


def read_dump(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]


def test_assess_dumps_series(stable_case, tmp_path, capsys):
    traces_path, meta_path = stable_case
    prefix = str(tmp_path / "dump_")
    run_cli("assess", "--traces", traces_path, "--meta", meta_path,
            "--dump", prefix)
    dump_files = list(tmp_path.glob("dump_*csv"))
    assert len(dump_files) == 2  # one exponent + one distance file per pair
    headers = {p.read_text().splitlines()[0] for p in dump_files}
    assert headers == {"t,lambda", "t,d"}
    # the exponent dump ends where the verdict froze
    (pair,) = json.loads(capsys.readouterr().out)["pairs"]
    mle = read_dump(tmp_path / f"dump_mle_{pair['severe']}-{pair['least']}.csv")
    assert mle[-1][0] == pair["decision_time_s"]


def test_dump_names_escape_slashes_and_percents(four_b6, tmp_path, capsys):
    # ids may hold '/' (a path separator) and '%' (the escape character)
    traces_path, meta_path = four_b6
    renamed = tmp_path / "renamed.csv"
    write_traces([dataclasses.replace(tr, gen_id=f"a%2F/{tr.gen_id}")
                  for tr in parse_traces(traces_path)], renamed)
    prefix = str(tmp_path / "out_")
    code = run_cli("assess", "--traces", renamed, "--meta", meta_path,
                   "--dump", prefix)
    assert code in (0, 2, 3)
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert pairs
    for p in pairs:
        severe, least = (p[k].replace("a%2F/", "a%252F%2F")
                         for k in ("severe", "least"))
        for kind in ("mle", "distance"):
            assert (tmp_path / f"out_{kind}_{severe}-{least}.csv").is_file()


def test_dumps_hold_the_series_each_verdict_used(four_b6, tmp_path, capsys,
                                                 monkeypatch):
    import lyapstab.assess as assess_mod
    fits = []

    def counting_iter_mle(d, w, m_n, dt):
        fits.append(w)
        return iter_mle(d, w, m_n, dt)

    iter_mle = assess_mod.iter_mle
    monkeypatch.setattr(assess_mod, "iter_mle", counting_iter_mle)
    traces_path, meta_path = four_b6
    event = ("--traces", traces_path, "--meta", meta_path, "--t-max", "1.5")
    a_prefix, c_prefix = str(tmp_path / "a_"), str(tmp_path / "c_")
    run_cli("assess", *event, "--dump", a_prefix)
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    fitted = [p["w"] for p in pairs if p["m_n"] is not None]
    assert len(set(fitted)) == 2 and fits == fitted  # one fit per fitted pair

    for p in pairs:
        name = f"{p['severe']}-{p['least']}.csv"
        mle = read_dump(tmp_path / f"a_mle_{name}")
        assert mle[-1][0] == p["decision_time_s"]
        assert max(t for t, _ in mle) <= 1.5
        distance = tmp_path / f"a_distance_{name}"
        assert len(read_dump(distance)) == round(1.5 * 120) + 1 - p["w"]
        # one pair alone writes the same files, byte for byte
        run_cli("assess", *event, "--pair", f"{p['severe']},{p['least']}",
                "--dump", c_prefix)
        for kind in ("mle", "distance"):
            assert (tmp_path / f"c_{kind}_{name}").read_bytes() == \
                (tmp_path / f"a_{kind}_{name}").read_bytes()


# ---------------------------------------------------------------------------
# assess --pair
# ---------------------------------------------------------------------------

def test_assess_pair_reports_parameters(stable_case, capsys):
    traces_path, meta_path = stable_case
    code = run_cli("assess", "--traces", traces_path, "--meta", meta_path,
                   "--pair", "G2,G1")
    assert code == 0
    (pair,) = json.loads(capsys.readouterr().out)["pairs"]
    assert pair["severe"] == "G2"
    assert pair["pattern"] in ("I", "II", "III", "IV", "V", "VI")
    assert pair["m_n"] >= pair["w"] >= 1
    assert pair["decided_at"] >= 0
    assert pair["note"] is None


@pytest.mark.parametrize("command", ["assess"])
def test_package_warnings_print_as_one_line(stable_case, capsys, command):
    # the two-machine event's least disturbed generator is itself disturbed
    traces_path, meta_path = stable_case
    args = (command, "--traces", traces_path, "--meta", meta_path)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        code = run_cli(*args)
    out, err = capsys.readouterr()
    assert not escaped
    assert err.splitlines() == [
        "warning: least disturbed generator 'G1' is itself strongly "
        "disturbed (|w|/w* = 1.00); pairs may not isolate the event"]
    assert code == run_cli(*args) and capsys.readouterr() == (out, err)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_rows_and_rerun_identical(tmp_path, networks_dir):
    out_a = tmp_path / "sweep_a.csv"
    out_b = tmp_path / "sweep_b.csv"
    for out in (out_a, out_b):
        code = run_cli("sweep", "--network", networks_dir / "twomachine.net",
                       "--fault-bus", "3",
                       "--clear-time", "0.14", "--clear-time", "0.22",
                       "--clear-time", "0.3", "--clear-time", "0.38",
                       "--open-branch", "none", "--horizon", "8.0",
                       "--oracle-window", "5.0", "--out", out)
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    with open(out_a, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    verdicts = [r["oracle"] for r in rows]
    flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
    assert flips == 1  # oracle flips exactly once along the clearing grid
    assert all(r["agree"] == "True" for r in rows if r["agree"])

    summary = (tmp_path / "sweep_a_summary.csv").read_text().splitlines()
    assert summary[0] == "clear_time_s,I,II,III,IV,V,VI"


def use_cpus(monkeypatch, n):
    """Make ``sweep`` see ``n`` CPUs that it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture()
def pools(monkeypatch):
    """The size of every real process pool ``sweep`` starts, in order."""
    real, sizes = concurrent.futures.ProcessPoolExecutor, []

    def recording(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    return sizes


def test_sweep_parallel_matches_serial(tmp_path, networks_dir, monkeypatch,
                                       pools):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ("sweep", "--network", networks_dir / "twomachine.net",
            "--fault-bus", "3", "--clear-time", "0.2", "--clear-time", "0.34",
            "--open-branch", "none", "--horizon", "8.0",
            "--oracle-window", "5.0")
    use_cpus(monkeypatch, 1)
    assert run_cli(*args, "--out", serial) == 0
    use_cpus(monkeypatch, 2)
    assert run_cli(*args, "--out", parallel) == 0
    assert pools == [2]
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("cpus, n_cases, pool_size", [
    (1, 1, None), (1, 2, None), (1, 3, None),
    (2, 1, None), (2, 2, 2), (2, 3, 2),
    (64, 1, None), (64, 2, 2), (64, 3, 3), (3, 1, None)])
def test_sweep_pool_never_exceeds_cases(tmp_path, networks_dir, monkeypatch,
                                        cpus, n_cases, pool_size):
    sizes = []

    class InProcessPool:
        """Records the pool size and maps in this process; starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    use_cpus(monkeypatch, cpus)
    clear = [arg for t_c in ("0.2", "0.26", "0.34")[:n_cases]
             for arg in ("--clear-time", t_c)]
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--network", networks_dir / "twomachine.net",
                   "--fault-bus", "3", *clear, "--open-branch", "none",
                   "--horizon", "6.0", "--out", out) == 0
    assert sizes == ([] if pool_size is None else [pool_size])
    with open(out, encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == n_cases


def test_sweep_jobs_is_a_usage_error(tmp_path, networks_dir, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--network", networks_dir / "twomachine.net",
                   "--fault-bus", "3", "--clear-time", "0.2", "--jobs", "2",
                   "--out", out)
    assert code == 1
    assert "error: unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_prints_each_warning_once(tmp_path, networks_dir, monkeypatch,
                                        capsys, pools, cpus):
    # both cases warn, in this process or in one worker each
    use_cpus(monkeypatch, cpus)
    code = run_cli("sweep", "--network", networks_dir / "twomachine.net",
                   "--fault-bus", "3", "--clear-time", "0.2",
                   "--clear-time", "0.22", "--open-branch", "none",
                   "--horizon", "6.0", "--out", tmp_path / "sweep.csv")
    assert code == 0
    assert pools == ([] if cpus == 1 else [2])
    warned = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning:")]
    assert warned == [
        "warning: least disturbed generator 'G1' is itself strongly "
        "disturbed (|w|/w* = 1.00); pairs may not isolate the event"]


def test_sweep_loads_the_network_once(tmp_path, networks_dir, monkeypatch):
    loads = []
    real = cli.load_network_file
    monkeypatch.setattr(cli, "load_network_file",
                        lambda path: loads.append(path) or real(path))
    use_cpus(monkeypatch, 1)
    assert run_cli("sweep", "--network", networks_dir / "twomachine.net",
                   "--fault-bus", "3", "--fault-bus", "1",
                   "--clear-time", "0.2", "--clear-time", "0.26",
                   "--open-branch", "none", "--horizon", "6.0",
                   "--out", tmp_path / "sweep.csv") == 0
    assert len(loads) == 1


def test_sweep_malformed_network_is_input_error(tmp_path, networks_dir,
                                                capsys):
    net = tmp_path / "one.net"  # one generator and no infinite bus
    net.write_text((networks_dir / "twomachine.net").read_text().replace(
        "G2    2    0.0159155  0.038  0.25  1.05  slack\n", ""))
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--network", net, "--fault-bus", "3",
                   "--clear-time", "0.2", "--clear-time", "0.3",
                   "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"error: {net}: a single machine is only allowed against "
                   "an infinite bus\n")
    assert not out.exists() and not (tmp_path / "sweep_summary.csv").exists()


def sweep_rows(tmp_path, networks_dir, network, bus, open_branch):
    out = tmp_path / f"{network}_{bus}_{open_branch}.csv"
    assert run_cli("sweep", "--network", networks_dir / f"{network}.net",
                   "--fault-bus", bus, "--clear-time", "0.2",
                   "--clear-time", "0.3", "--open-branch", open_branch,
                   "--horizon", "6.0", "--out", out) == 0
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    summary = out.with_name(out.stem + "_summary.csv").read_text()
    return rows, summary.splitlines()


def test_sweep_auto_opens_the_first_branch_at_the_bus(tmp_path, networks_dir):
    auto = sweep_rows(tmp_path, networks_dir, "fourmachine", "6", "auto")
    assert auto == sweep_rows(tmp_path, networks_dir, "fourmachine", "6",
                              "T56A")
    assert auto != sweep_rows(tmp_path, networks_dir, "fourmachine", "6",
                              "none")
    assert all(row["verdict"] and not row["error"] for row in auto[0])


def test_sweep_islanding_cases_are_error_rows(tmp_path, networks_dir):
    # on the two-machine fixture, auto opens LA and so cuts G1 off
    rows, summary = sweep_rows(tmp_path, networks_dir, "twomachine", "3",
                               "auto")
    assert [row["error"].startswith("post-fault network splits")
            for row in rows] == [True, True]
    assert summary[-2:] == ["cases,agreements,undetermined,errors,success_rate",
                            "2,0,0,2,n/a"]


PAIR_ERRORS = {
    "G9,G4": "unknown generator id 'G9'; the traces have G1, G2, G3, G4",
    "G1,G4,G2": "unknown generator id 'G4,G2'; the traces have G1, G2, G3, G4",
    "G1": "--pair wants SEVERE,LEAST",
    "G4,G4": "a pair needs two different generators, got 'G4' twice",
}


@pytest.mark.parametrize("pair", list(PAIR_ERRORS))
def test_assess_bad_pair_is_input_error(four_b6, capsys, pair):
    traces_path, meta_path = four_b6
    code = run_cli("assess", "--traces", traces_path, "--meta", meta_path,
                   "--pair", pair)
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {PAIR_ERRORS[pair]}\n")


def test_assess_pair_reproduces_the_pairs_record(four_b6, capsys):
    traces_path, meta_path = four_b6
    event = ("--traces", traces_path, "--meta", meta_path)
    assert run_cli("assess", *event, "--t-max", "1.5") == 0
    assessed = json.loads(capsys.readouterr().out)["pairs"]
    assert [(p["pattern"], p["w"], p["m_n"]) for p in assessed] == [
        ("IV", 41, 66), ("IV", 55, 83)]
    for record in assessed:
        pair = f"{record['severe']},{record['least']}"
        assert run_cli("assess", *event, "--t-max", "1.5",
                       "--pair", pair) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pairs"] == [record]
        # the system verdict covers that pair only
        assert report["system"] == {"status": "STABLE",
                                    "decision_time_s": record["decision_time_s"]}

    # one second is too short for G1's first swing: no pair decides
    run_cli("assess", *event, "--t-max", "1.0")
    assessed = json.loads(capsys.readouterr().out)["pairs"]
    assert [p["status"] for p in assessed] == ["UNDETERMINED_TIMEOUT"] * 2
    assert run_cli("assess", *event, "--t-max", "1.0", "--pair", "G1,G4") == 3
    (pair,) = json.loads(capsys.readouterr().out)["pairs"]
    assert (pair["m_n"], pair["decision_time_s"]) == (None, 1.0)
    assert pair["note"] == "series ended after 121 samples without a decision"


def test_t_max_off_the_grid_bounds_every_series(four_b6, tmp_path, capsys):
    # 1.005 s lies between the samples at 1.0 s and 1.00833 s: the classifier,
    # the distance series and the fit all stop at the sample at 1.0 s
    traces_path, meta_path = four_b6
    event = ("--traces", traces_path, "--meta", meta_path, "--t-max", "1.005")
    run_cli("assess", *event, "--dump", tmp_path / "a_")
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert [p["w"] for p in pairs if p["severe"] == "G2"] == [55]
    distance = read_dump(tmp_path / "a_distance_G2-G4.csv")
    assert len(distance) == int(1.005 * 120) + 1 - 55 == 66

    mle_dumps = list(tmp_path.glob("a_mle_*.csv"))
    assert mle_dumps
    for path in mle_dumps:
        assert max(t for t, _ in read_dump(path)) <= 1.005


@pytest.fixture(scope="module")
def four_b6_14s(tmp_path_factory, networks_dir):
    """The bus-6 event, 14 s long, written at 240, 120 and 60 Hz:
    ({rate: trace file}, metadata file)."""
    root = tmp_path_factory.mktemp("four_b6_14s")
    paths = {}
    for rate in (240, 120, 60):
        paths[rate] = root / f"four{rate}.csv"
        assert run_cli("simulate", "--network", networks_dir / "fourmachine.net",
                       "--fault-bus", "6", "--fault-time", "0.1",
                       "--clear-time", "0.25", "--open-branch", "T56B",
                       "--rate", rate, "--horizon", "14.0",
                       "--meta-out", root / "four.meta.json",
                       "--out", paths[rate]) == 0
    return paths, root / "four.meta.json"


def _trace_major(path, out):
    """``path``'s rows regrouped one generator after another."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    blocks = {}
    for row in rows:
        blocks.setdefault(row.split(",")[1], []).append(row)
    out.write_text(header + "".join(r for b in blocks.values() for r in b),
                   encoding="utf-8")


HORIZON_FLAGS = ([], ["--rate", "60"], ["--t-max", "0.3"], ["--t-max", "2.5"],
                 ["--pair", "G1,G4"])


@pytest.mark.parametrize("layout", ["time-major", "trace-major"])
@pytest.mark.parametrize("nominal", [0.0, 2 * math.pi * 60.0],
                         ids=["deviation", "absolute"])
@pytest.mark.parametrize("rate", [240, 120, 60])
def test_horizon_read_reports_what_a_whole_read_reports(
        four_b6_14s, tmp_path, monkeypatch, capsys, rate, nominal, layout):
    # assess reads a time-major file only up to the last stamp a pair can
    # read; stdout, exit code and dumps must equal those of a whole read
    paths, meta = four_b6_14s
    path = tmp_path / "event.csv"
    write_traces([dataclasses.replace(tr, speeds=tr.speeds + nominal)
                  for tr in parse_traces(paths[rate])], path)
    if layout == "trace-major":
        _trace_major(path, path)
    rows = {"horizon": [], "whole": []}
    dumped = 0

    def horizon(path, speed_offset=0.0, until=math.inf):
        traces = parse_traces(path, speed_offset, until)
        rows["horizon"].append(sum(map(len, traces)))
        return traces

    def whole(path, speed_offset=0.0, until=math.inf):
        traces = parse_traces(path, speed_offset)
        rows["whole"].append(sum(map(len, traces)))
        return traces

    for flags in HORIZON_FLAGS:
        outcomes = []
        for reader in (horizon, whole):
            monkeypatch.setattr(cli, "parse_traces", reader)
            prefix = tmp_path / f"{reader.__name__}_"
            code = run_cli("assess", "--traces", path, "--meta", meta,
                           "--speed-nominal", nominal, "--dump", prefix,
                           *flags)
            dumps = {}
            for p in sorted(tmp_path.glob(prefix.name + "*")):
                dumps[p.name.removeprefix(prefix.name)] = p.read_bytes()
                p.unlink()
            outcomes.append((code, capsys.readouterr(), dumps))
        assert outcomes[0] == outcomes[1], flags
        dumped += len(outcomes[0][2])
    assert dumped  # some pairs wrote their series
    if layout == "time-major":
        assert all(h < w for h, w in zip(rows["horizon"], rows["whole"]))
    else:  # one generator at the first instant: read whole
        assert rows["horizon"] == rows["whole"]


def test_event_times_are_resolved_before_the_traces_are_read(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\n0.0,G1,abc,0.0\n", encoding="utf-8")
    assert run_cli("assess", "--traces", bad) == 1
    assert capsys.readouterr() == (
        "", "error: need --meta or both --fault-time and --clear-time\n")
    meta = tmp_path / "bad.meta.json"
    meta.write_text('{"fault_time_s": 0.1}', encoding="utf-8")
    assert run_cli("assess", "--traces", bad, "--meta", meta) == 1
    assert capsys.readouterr() == (
        "", f"error: {meta}: missing key 'clear_time_s'\n")


@pytest.mark.parametrize("rate,w,m_n", [(60, 21, 34), (120, 41, 66),
                                        (240, 83, 134)])
def test_assessment_rate_scales_w_and_m_n(four_b6, capsys, rate, w, m_n):
    traces_path, meta_path = four_b6
    code = run_cli("assess", "--traces", traces_path, "--meta", meta_path,
                   "--rate", rate)
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["system"]["status"] == "STABLE"
    (g1,) = [p for p in report["pairs"] if p["severe"] == "G1"]
    assert (g1["least"], g1["w"], g1["m_n"]) == ("G4", w, m_n)


def test_assess_jittered_240hz_stamps_keep_the_verdict(tmp_path, networks_dir,
                                                       capsys):
    # every stamp 5e-12 s early: within the coverage rule's 1e-9 of a 120 Hz
    # grid step, so the grid still reaches the last sample's nominal time
    out = tmp_path / "four240.csv"
    assert run_cli("simulate", "--network", networks_dir / "fourmachine.net",
                   "--fault-bus", "6", "--fault-time", "0.1",
                   "--clear-time", "0.25", "--open-branch", "T56B",
                   "--rate", "240", "--horizon", "3.0", "--out", out) == 0
    meta = tmp_path / "four240.meta.json"
    jittered = tmp_path / "jittered.csv"
    write_traces([dataclasses.replace(tr, t0=tr.t0 - 5e-12,
                                      stamps=tr.stamps - 5e-12)
                  for tr in parse_traces(out)], jittered)
    capsys.readouterr()
    reports = []
    for path in (out, jittered):
        code = run_cli("assess", "--traces", path, "--meta", meta)
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        reports.append((code, report["system"]["status"],
                        [(p["pattern"], p["w"], p["m_n"], p["status"],
                          p["decided_at"], p["decision_time_s"])
                         for p in report["pairs"]]))
    assert reports[1] == reports[0]


@pytest.mark.parametrize("command", ["assess"])
@pytest.mark.parametrize("content,key", [
    ('{"fault_time_s": 0.1, "faulted_element": "6"}', "clear_time_s"),
    ('[0.1, 0.25]', "clear_time_s"),
    ('{"fault_time_s": null, "clear_time_s": 0.25}', "fault_time_s"),
    ('{"fault_time_s": false, "clear_time_s": true}', "fault_time_s"),
    ('{"fault_time_s": 0.1, "clear_time_s": true}', "clear_time_s"),
    ('{"fault_time_s": "0.1", "clear_time_s": 0.25}', "fault_time_s"),
    ('{"fault_time_s": 0.1, "clear_time_s": "0.25"}', "clear_time_s"),
    ('{"fault_time_s": 0.1, "clear_time_s": 0.25, "faulted_element": ["6"]}',
     "faulted_element"),
    ('{"fault_time_s": 0.1, ', "Expecting property name"),
    (b'\xff{"fault_time_s": 0.1, "clear_time_s": 0.25}', "byte 0xff"),
], ids=["missing-key", "list", "null", "bools", "bool", "string",
        "string-clear", "element-list", "truncated", "not-utf8"])
def test_malformed_metadata_is_input_error(four_b6, tmp_path, capsys, command,
                                           content, key):
    meta = tmp_path / "bad.meta.json"
    meta.write_bytes(content if isinstance(content, bytes)
                     else content.encode("utf-8"))
    code = run_cli(command, "--traces", four_b6[0], "--meta", meta)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(meta) in err and key in err


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flags", [
    ("--t-max", "-1"),
    ("--no-such-flag",),
])
def test_usage_errors_exit_one(four_b6, capsys, flags):
    traces_path, meta_path = four_b6
    code = run_cli("assess", "--traces", traces_path, "--meta", meta_path,
                   *flags)
    assert code == 1  # exit 2 would read as UNSTABLE
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


@pytest.mark.parametrize("command", [
    ("assess", "--traces", "t.csv"),
    ("sweep", "--network", "n.net", "--fault-bus", "3", "--clear-time", "0.2",
     "--out", "o.csv"),
])
@pytest.mark.parametrize("flag, value, rule", [
    ("--sigma", "1.5", "sigma must lie in (0, 1], got 1.5"),
    ("--t-max", "0", "t_max must be finite and > 0, got 0"),
])
def test_config_flags_use_the_config_rules(capsys, command, flag, value, rule):
    assert run_cli(*command, flag, value) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {rule}" in err


def test_help_exits_zero(capsys):
    assert run_cli("assess", "--help") == 0
    help_text = capsys.readouterr().out
    assert "--dump PREFIX" in help_text and "--dump-" not in help_text


def test_classify_is_a_usage_error(four_b6, capsys):
    # assess --pair reports what the deleted classify command did
    traces_path, meta_path = four_b6
    assert run_cli("classify", "--traces", traces_path, "--meta",
                   meta_path) == 1
    assert "invalid choice: 'classify'" in capsys.readouterr().err


def test_simulate_help_names_the_meta_path_it_writes(capsys):
    # test_simulate_writes_traces_and_meta checks that smib.csv gets
    # smib.meta.json: the suffix is replaced, not appended to
    assert run_cli("simulate", "--help") == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "e.csv -> e.meta.json" in help_text


@pytest.mark.parametrize("command, flags", [
    ("assess", ("--sigma", "nan")),
    ("assess", ("--t-max", "inf")),
    ("assess", ("--rate", "nan")),
    ("assess", ("--rate", "inf")),
    ("assess", ("--clear-time", "nan")),
    ("assess", ("--clear-time", "inf")),
    ("assess", ("--t-max", "nan")),
    ("assess", ("--fault-time", "nan", "--clear-time", "0.25")),
    ("assess", ("--meta", "nan.meta.json")),
    ("assess", ("--meta", "inf.meta.json")),
    ("assess", ("--speed-nominal", "nan")),
    ("assess", ("--speed-nominal", "inf")),
    ("assess", ("--speed-nominal=-inf",)),
])
def test_non_finite_numbers_are_input_errors(four_b6, tmp_path, monkeypatch,
                                             capsys, command, flags):
    (tmp_path / "nan.meta.json").write_text(
        '{"fault_time_s": NaN, "clear_time_s": 0.25}')
    (tmp_path / "inf.meta.json").write_text(
        '{"fault_time_s": 0.1, "clear_time_s": Infinity}')
    monkeypatch.chdir(tmp_path)
    traces_path, meta_path = four_b6
    code = run_cli(command, "--traces", traces_path, "--meta", meta_path,
                   *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    flag = flags[0].split("=")[0]
    if flag in ("--speed-nominal", "--fault-time", "--clear-time"):
        assert "usage:" in err
        assert f"error: argument {flag}: must be finite" in err


@pytest.mark.parametrize("text, rule", [
    ('{"fault_time_s": NaN, "clear_time_s": 0.25}',
     "fault and clearing times must be finite"),
    ('{"fault_time_s": 0.3, "clear_time_s": 0.25}',
     "t_clear must not precede t_fault"),
], ids=["nan", "out-of-order"])
def test_rejected_event_times_name_the_metadata_file(four_b6, tmp_path, capsys,
                                                     text, rule):
    meta = tmp_path / "event.meta.json"
    meta.write_text(text)
    traces_path, _ = four_b6
    assert run_cli("assess", "--traces", traces_path, "--meta", meta) == 1
    err = capsys.readouterr().err
    assert f"error: {meta}: {rule}" in err and "Traceback" not in err


def test_non_finite_event_times_rejected_before_simulating(tmp_path,
                                                          networks_dir,
                                                          capsys):
    net = networks_dir / "twomachine.net"
    out = tmp_path / "x.csv"
    commands = (("simulate", "--network", net, "--fault-bus", "3",
                 "--out", out),
                ("sweep", "--network", net, "--fault-bus", "3",
                 "--open-branch", "none", "--out", out))
    for command in commands:
        for flag, value in (("--clear-time", "nan"), ("--fault-time", "inf"),
                            ("--fault-time", "nan")):
            times = {"--clear-time": "0.2", flag: value}
            code = run_cli(*command, *(a for kv in times.items() for a in kv))
            assert code == 1  # a usage error, not an error row and exit 0
            err = capsys.readouterr().err
            assert "usage:" in err
            assert f"error: argument {flag}: must be finite, got {value}" in err
            assert not out.exists()


def _edit_rows(rows):
    """Each faulty trace file of INPUT_FAULTS, from the four_b6 rows."""
    parts = rows[1].split(",")  # line 3: G2 at t = 0
    return {
        "non-numeric": (rows[:1] + [",".join(parts[:2] + ["abc"] + parts[3:])]
                        + rows[2:]),
        "backwards": rows[:4] + [rows[8]] + rows[5:8] + [rows[4]] + rows[9:],
        "duplicate": rows[:10] + [rows[9]] + rows[10:],
        "not-utf8": rows[:34] + ["\udcff" + rows[34]] + rows[35:],
        "gap": [r for r in rows if not (r.split(",")[1] == "G1"
                                        and 1.0 < float(r.split(",")[0]) < 1.48)],
        "short": [r for r in rows if float(r.split(",")[0]) <= 0.6],
        "one-generator": [r for r in rows if r.split(",")[1] == "G1"],
        "zero-speeds": [r.rsplit(",", 1)[0] + ",0.0" for r in rows],
        "all-skipped": [r for r in rows if r.split(",")[1] == "G1"]
        + [r.replace(",G1,", ",G2,") for r in rows if r.split(",")[1] == "G1"],
    }


SKIP_WARNINGS = (
    "warning: least disturbed generator 'G1' is itself strongly disturbed "
    "(|w|/w* = 1.00); pairs may not isolate the event\n"
    "warning: pair (G2, G1) skipped: initial relative speed 0.00e+00 rad/s "
    "is below the resolvable threshold 1.00e-06\n")
TRACE_FAULTS = {
    "non-numeric": "line 3: non-numeric field in '0.0,G2,abc,0.0'",
    "backwards": "line 10: timestamps for generator 'G1' go backwards",
    "duplicate": "line 12: duplicate sample for generator 'G2' at "
                 "t=0.016666666666666666",
    "not-utf8": "line 36: invalid UTF-8 byte 0xff",
    "gap": "generator 'G1' has a gap of 0.483333 s (> 2.0 * 0.00833333 s)",
    "short": "traces must cover [0.2500, 0.7500] s; offenders: "
             "['G1', 'G2', 'G3', 'G4']",
    "one-generator": "need at least two generators to form a pair",
    "zero-speeds": "all clearing-instant speeds are zero",
    "all-skipped": "every pair was skipped",
}


@pytest.mark.parametrize("fault", list(TRACE_FAULTS))
def test_trace_faults_print_one_exact_error(four_b6, tmp_path, capsys, fault):
    traces_path, meta_path = four_b6
    header, *rows = traces_path.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_bytes("\n".join([header, *_edit_rows(rows)[fault], ""]).encode(
        "utf-8", "surrogateescape"))
    assert run_cli("assess", "--traces", bad, "--meta", meta_path) == 1
    warned = SKIP_WARNINGS if fault == "all-skipped" else ""
    assert capsys.readouterr() == ("", f"{warned}error: {TRACE_FAULTS[fault]}\n")


@pytest.mark.parametrize("case", ["bad-number", "stalled", "islands",
                                  "unknown-bus", "unknown-branch",
                                  "short-horizon"])
def test_simulate_faults_print_one_exact_error(tmp_path, networks_dir, capsys,
                                               case):
    four = networks_dir / "fourmachine.net"
    net, bus, flags = four, "6", ("--clear-time", "0.2")
    if case == "bad-number":  # the LA row moves up to line 19
        net = tmp_path / "badrow.net"
        text = (networks_dir / "twomachine.net").read_text(encoding="utf-8")
        net.write_text(text.replace("# id  from  to  r_pu  x_pu\n", "").replace(
            "LA    1     3   0.0   0.3", "LA    1     3   0.0   abc"),
            encoding="utf-8")
        bus = "3"
    elif case == "stalled":
        net = tmp_path / "pm50.net"
        net.write_text(four.read_text(encoding="utf-8").replace(
            "0.20  1.06  1.40", "0.20  1.06  50"), encoding="utf-8")
    elif case == "islands":
        flags += ("--open-branch", "T56A", "--open-branch", "T56B")
    elif case == "unknown-bus":
        bus = "99"
    elif case == "unknown-branch":
        flags += ("--open-branch", "NOPE")
    else:
        flags = ("--clear-time", "0.25", "--horizon", "0.2")
    out = tmp_path / "x.csv"
    assert run_cli("simulate", "--network", net, "--fault-bus", bus, *flags,
                   "--out", out) == 1
    message = {
        "bad-number": f"{net}:19: not a number: 'abc'",
        "stalled": "equilibrium iteration stalled",
        "islands": "post-fault network splits the generator buses into 2 "
                   "islands (removed: ['T56A', 'T56B'])",
        "unknown-bus": "faulted bus '99' not in model",
        "unknown-branch": "unknown branch id 'NOPE'",
        "short-horizon": "horizon must extend past the clearing time",
    }[case]
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_parser_is_built_once():
    assert build_parser() is build_parser()


SIMULATE = ("simulate", "--network", "n.net", "--fault-bus", "3",
            "--clear-time", "0.2", "--out", "o.csv")
SWEEP = ("sweep", "--network", "n.net", "--out", "o.csv")


def test_append_flags_do_not_leak_between_parses(capsys):
    parser = build_parser()
    args = parser.parse_args([*SIMULATE, "--open-branch", "L1",
                              "--open-branch", "L2"])
    assert args.open_branch == ["L1", "L2"]
    assert parser.parse_args(list(SIMULATE)).open_branch == []
    assert parser.parse_args([*SIMULATE, "--open-branch", "L3"]).open_branch \
        == ["L3"]

    args = parser.parse_args([*SWEEP, "--fault-bus", "3", "--fault-bus", "5",
                              "--clear-time", "0.2", "--clear-time", "0.3"])
    assert (args.fault_bus, args.clear_time) == (["3", "5"], [0.2, 0.3])
    args = parser.parse_args([*SWEEP, "--fault-bus", "7", "--clear-time", "0.4"])
    assert (args.fault_bus, args.clear_time) == (["7"], [0.4])
    for missing in (("--clear-time", "0.2"), ("--fault-bus", "3")):
        with pytest.raises(SystemExit):
            parser.parse_args([*SWEEP, *missing])
        assert "the following arguments are required" in capsys.readouterr().err


def test_usage_error_and_help_leave_later_runs_unchanged(stable_case, capsys):
    traces_path, meta_path = stable_case
    event = ("assess", "--traces", traces_path, "--meta", meta_path)
    build_parser.cache_clear()  # the assess below builds the parser afresh
    first = run_cli(*event), capsys.readouterr().out
    assert run_cli(*event, "--t-max", "-1") == 1
    assert run_cli("assess", "--help") == 0
    capsys.readouterr()
    assert (run_cli(*event), capsys.readouterr().out) == first


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    # every `lyapstab ...` line of README's bash blocks, continuations joined
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text("utf-8"), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("lyapstab ")]
    assert sorted({argv[0] for argv in commands}) == [
        "assess", "simulate", "sweep"]
    for argv in commands:
        build_parser().parse_args(argv)  # a usage error exits


# ---------------------------------------------------------------------------
# the installed entry point
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_module_entry_point():
    helped = run_module("-m", "lyapstab", "--help")
    assert helped.returncode == 0 and "assess" in helped.stdout
    bare = run_module("-m", "lyapstab", "assess")
    assert bare.returncode == 1
    assert "error:" in bare.stderr and "Traceback" not in bare.stderr
    # importing the CLI must not build the parser, nor load the process
    # pool that only a sweep with more than one worker needs
    imported = run_module("-c", "import sys, lyapstab.cli as cli; "
                                "print(cli.build_parser.cache_info().currsize, "
                                "'concurrent.futures' in sys.modules)")
    assert imported.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_closed_stdout_keeps_the_verdict(four_b6, tmp_path, buffering):
    # the reader of stdout is gone before assess prints its report
    traces_path, meta_path = four_b6
    argv = ("-m", "lyapstab", "assess", "--traces", str(traces_path),
            "--meta", str(meta_path))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    piped = subprocess.run([sys.executable, *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    report = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run([sys.executable, *argv, "--out", str(report)],
                                env=env, stdout=write_end,
                                stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert closed.returncode == piped.returncode == 0
    assert closed.stderr == ""
    assert report.read_text() == piped.stdout


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 1)],
                         ids=["help", "no-command"])
def test_console_script_exits_with_main_code(monkeypatch, capsys, argv, code):
    # cli.entrypoint is the [project.scripts] target
    monkeypatch.setattr(sys, "argv", ["lyapstab", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == code
