"""Command-line workflows: simulate, classify, assess, sweep."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lyapstab.cli import build_parser, main
from lyapstab.ingest import parse_traces


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
            "--dump-mle", prefix, "--dump-distance", prefix)
    dump_files = list(tmp_path.glob("dump_*csv"))
    assert len(dump_files) == 2  # one exponent + one distance file per pair
    headers = {p.read_text().splitlines()[0] for p in dump_files}
    assert headers == {"t,lambda", "t,d"}
    # the exponent dump ends where the verdict froze
    (pair,) = json.loads(capsys.readouterr().out)["pairs"]
    mle = read_dump(tmp_path / f"dump_mle_{pair['severe']}-{pair['least']}.csv")
    assert mle[-1][0] == pair["decision_time_s"]


def test_dumps_hold_the_series_each_verdict_used(four_b6, tmp_path, capsys,
                                                 monkeypatch):
    import lyapstab.assess as assess_mod
    fits = []

    def counting_iter_mle(trace, params):
        fits.append((trace.severe, trace.least))
        return iter_mle(trace, params)

    iter_mle = assess_mod.iter_mle
    monkeypatch.setattr(assess_mod, "iter_mle", counting_iter_mle)
    traces_path, meta_path = four_b6
    event = ("--traces", traces_path, "--meta", meta_path, "--t-max", "1.5")
    a_prefix, c_prefix = str(tmp_path / "a_"), str(tmp_path / "c_")
    run_cli("assess", *event, "--dump-mle", a_prefix,
            "--dump-distance", a_prefix)
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    fitted = [(p["severe"], p["least"]) for p in pairs if p["m_n"] is not None]
    assert len(fitted) == 2 and fits == fitted  # one fit per fitted pair

    assert run_cli("classify", *event, "--dump-distance", c_prefix) == 0
    for p in pairs:
        name = f"{p['severe']}-{p['least']}.csv"
        mle = read_dump(tmp_path / f"a_mle_{name}")
        assert mle[-1][0] == p["decision_time_s"]
        assert max(t for t, _ in mle) <= 1.5
        distance = tmp_path / f"a_distance_{name}"
        assert len(read_dump(distance)) == round(1.5 * 120) + 1 - p["w"]
        assert (tmp_path / f"c_distance_{name}").read_bytes() == \
            distance.read_bytes()


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_reports_parameters(stable_case, capsys):
    traces_path, meta_path = stable_case
    code = run_cli("classify", "--traces", traces_path, "--meta", meta_path,
                   "--pair", "G2,G1")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["severe"] == "G2"
    assert payload["pattern"] in ("I", "II", "III", "IV", "V", "VI")
    assert payload["m_n"] >= payload["w"] >= 1
    assert payload["decided_at"] >= 0


def test_classify_all_identified_pairs(stable_case, capsys):
    traces_path, meta_path = stable_case
    code = run_cli("classify", "--traces", traces_path, "--meta", meta_path)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and len(payload) == 1


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


def test_sweep_parallel_matches_serial(tmp_path, networks_dir):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ("sweep", "--network", networks_dir / "twomachine.net",
            "--fault-bus", "3", "--clear-time", "0.2", "--clear-time", "0.34",
            "--open-branch", "none", "--horizon", "8.0",
            "--oracle-window", "5.0")
    assert run_cli(*args, "--out", serial) == 0
    assert run_cli(*args, "--jobs", "2", "--out", parallel) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("jobs, n_cases, pool_size", [
    ("64", 2, 2), ("2", 3, 2), ("3", 1, None), ("1", 2, None)])
def test_sweep_pool_never_exceeds_cases(tmp_path, networks_dir, monkeypatch,
                                        jobs, n_cases, pool_size):
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
    clear = [arg for t_c in ("0.2", "0.26", "0.34")[:n_cases]
             for arg in ("--clear-time", t_c)]
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--network", networks_dir / "twomachine.net",
                   "--fault-bus", "3", *clear, "--open-branch", "none",
                   "--horizon", "6.0", "--jobs", jobs, "--out", out) == 0
    assert sizes == ([] if pool_size is None else [pool_size])
    with open(out, encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == n_cases


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_sweep_jobs_must_be_a_positive_integer(tmp_path, networks_dir,
                                               capsys, jobs):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--network", networks_dir / "twomachine.net",
                   "--fault-bus", "3", "--clear-time", "0.2",
                   "--jobs", jobs, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err and "--jobs" in err
    assert not out.exists()


@pytest.mark.parametrize("pair", ["G9,G4", "G1,G4,G2"])
def test_classify_unknown_generator_is_input_error(four_b6, capsys, pair):
    traces_path, meta_path = four_b6
    code = run_cli("classify", "--traces", traces_path, "--meta", meta_path,
                   "--pair", pair)
    assert code == 1
    assert "error: unknown generator id" in capsys.readouterr().err


def test_classify_reports_what_assess_fits_with(four_b6, capsys):
    traces_path, meta_path = four_b6
    event = ("--traces", traces_path, "--meta", meta_path)
    assert run_cli("classify", *event, "--t-max", "1.5") == 0
    classified = json.loads(capsys.readouterr().out)
    run_cli("assess", *event, "--t-max", "1.5")
    assessed = json.loads(capsys.readouterr().out)["pairs"]
    key = lambda p: (p["severe"], p["least"], p["pattern"], p["w"], p["m_n"])
    assert [key(p) for p in classified] == [key(p) for p in assessed]
    assert [(p["pattern"], p["w"], p["m_n"]) for p in classified] == [
        ("IV", 41, 66), ("IV", 55, 83)]

    # one second is too short for the first crest: neither command fits
    assert run_cli("classify", *event, "--t-max", "1.0") == 1
    capsys.readouterr()
    run_cli("assess", *event, "--t-max", "1.0")
    assessed = json.loads(capsys.readouterr().out)["pairs"]
    assert [p["status"] for p in assessed] == ["UNDETERMINED_TIMEOUT"] * 2


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
    ("classify", "--traces", "t.csv"),
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
    assert "--dump-mle" in capsys.readouterr().out


@pytest.mark.parametrize("command, flags", [
    ("classify", ("--t-max", "inf")),
    ("assess", ("--t-max", "inf")),
    ("classify", ("--rate", "inf")),
    ("assess", ("--rate", "inf")),
    ("classify", ("--clear-time", "inf")),
    ("assess", ("--clear-time", "inf")),
    ("assess", ("--t-max", "nan")),
    ("assess", ("--fault-time", "nan", "--clear-time", "0.25")),
    ("assess", ("--meta", "nan.meta.json")),
    ("assess", ("--meta", "inf.meta.json")),
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


def test_non_finite_event_times_rejected_before_simulating(tmp_path,
                                                          networks_dir,
                                                          capsys):
    net = networks_dir / "twomachine.net"
    code = run_cli("simulate", "--network", net, "--fault-bus", "3",
                   "--clear-time", "nan", "--out", tmp_path / "x.csv")
    assert code == 1
    assert "error: fault and clearing times must be finite" in \
        capsys.readouterr().err
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--network", net, "--fault-bus", "3",
                   "--clear-time", "nan", "--open-branch", "none",
                   "--out", out) == 0
    with open(out, encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "fault and clearing times must be finite"


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
    # importing the CLI must not build the parser
    imported = run_module("-c", "import lyapstab.cli as cli; "
                                "print(cli.build_parser.cache_info().currsize)")
    assert imported.stdout.strip() == "0"
