"""Command-line front end: simulate, assess, sweep.

Every command is deterministic given its flags; output files are fully
regenerable, so configs are the only experiment state worth keeping.
Exit codes: 0 success/stable, 1 input or runtime error, 2 unstable,
3 undetermined.  Only ``assess`` returns its verdict; ``sweep`` exits 0 once
it has written its files, whatever the cases' verdicts or errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import warnings
from pathlib import Path

from . import assess as assess_mod
from .assess import AssessmentConfig, run_assessment
from .errors import LyapstabError, LyapstabWarning
from .ingest import (ASSESSMENT_RATE, MIN_HORIZON, EventMeta, align,
                     grid_offset, parse_traces, write_traces)
from .network import FaultSpec, load_network_file
from .simulator import simulate, stability_oracle
from .swings import SwingPattern

PATTERN_NAMES = tuple(p.value for p in SwingPattern)


def _positive(value: str) -> float:
    x = float(value)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return x


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return x


def _setting(name: str):
    """argparse type for one AssessmentConfig field, checked by its own rule."""
    def parse(value: str) -> float:
        x = float(value)
        try:
            AssessmentConfig(**{name: x})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {value}") from None
        return x
    parse.__name__ = name  # argparse's "invalid <name> value" message
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, so one instance serves every
    ``main()`` call in a process; callers must not modify it.
    """
    p = argparse.ArgumentParser(
        prog="lyapstab",
        description="Rotor-angle stability assessment from post-fault rotor "
                    "traces, plus a classical swing-equation simulator.")
    sub = p.add_subparsers(dest="command", required=True)

    # flags shared by assess and sweep, each declared once
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--rate", type=_positive, default=ASSESSMENT_RATE,
                          help="sample rate the assessment runs at, Hz")
    settings.add_argument("--sigma", type=_setting("sigma"),
                          default=AssessmentConfig.sigma,
                          help="a generator is severe if |w| / max|w| exceeds it")
    settings.add_argument("--t-max", type=_setting("t_max"),
                          default=AssessmentConfig.t_max,
                          help="seconds of data per pair after clearing")

    sim = sub.add_parser("simulate", help="run a fault case and write traces")
    sim.add_argument("--network", required=True, help="network description file")
    sim.add_argument("--fault-bus", required=True)
    sim.add_argument("--fault-time", type=_finite, default=0.1)
    sim.add_argument("--clear-time", type=_finite, required=True)
    sim.add_argument("--open-branch", action="append", default=[],
                     help="branch removed at clearing; repeatable")
    sim.add_argument("--rate", type=_positive, default=ASSESSMENT_RATE,
                     help="output sample rate, Hz")
    sim.add_argument("--horizon", type=_positive, default=12.0,
                     help="simulated seconds from t=0")
    sim.add_argument("--out", required=True, help="trace CSV path")
    sim.add_argument("--meta-out", help="metadata path (default: <out> with its "
                     "suffix replaced by .meta.json, e.g. e.csv -> e.meta.json)")

    ass = sub.add_parser("assess", parents=[settings],
                         help="full stability assessment, JSON report")
    ass.add_argument("--traces", required=True)
    ass.add_argument("--meta", help="event metadata JSON (from `simulate`)")
    ass.add_argument("--fault-time", type=_finite, help="overrides metadata")
    ass.add_argument("--clear-time", type=_finite, help="overrides metadata")
    ass.add_argument("--speed-nominal", type=_finite, default=0.0,
                     help="subtract this absolute speed (rad/s) at parse time")
    ass.add_argument("--pair", help="assess SEVERE,LEAST alone; skips pair "
                     "selection, so no --sigma and no common-mode warning")
    ass.add_argument("--dump", metavar="PREFIX",
                     help="write per-pair distance and exponent series CSVs")
    ass.add_argument("--out", help="also write the JSON report here")

    swp = sub.add_parser("sweep", parents=[settings],
                         help="grid of fault cases vs the oracle")
    swp.add_argument("--network", required=True)
    swp.add_argument("--fault-bus", action="append", required=True,
                     help="repeatable")
    swp.add_argument("--clear-time", action="append", type=_finite,
                     required=True, help="repeatable")
    swp.add_argument("--fault-time", type=_finite, default=0.1)
    swp.add_argument("--open-branch", default="auto",
                     help="'auto' (first branch at the faulted bus), 'none', "
                          "or a branch id")
    swp.add_argument("--horizon", type=_positive, default=12.0)
    swp.add_argument("--oracle-window", type=_positive, default=5.0)
    swp.add_argument("--out", required=True, help="per-case rows CSV")
    swp.add_argument("--summary-out",
                     help="pattern-count table (default: <out stem>_summary.csv)")
    return p


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    meta = EventMeta(t_fault=args.fault_time, t_clear=args.clear_time,
                     faulted_element=args.fault_bus)
    model = load_network_file(args.network)
    fault = FaultSpec(bus=args.fault_bus, t_fault=args.fault_time,
                      t_clear=args.clear_time,
                      removed_branches=tuple(args.open_branch))
    traces = simulate(model, fault, dt=1.0 / args.rate, horizon=args.horizon)
    write_traces(traces, args.out)
    out = Path(args.out)
    meta_path = Path(args.meta_out or out.with_name(out.stem + ".meta.json"))
    meta_path.write_text(meta.to_json() + "\n", encoding="utf-8")
    print(f"wrote {args.out} and {meta_path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# assess
# ---------------------------------------------------------------------------

def _file_id(gen_id: str) -> str:
    """``gen_id`` as part of a file name: ``%``, ``/`` and NUL escaped."""
    return gen_id.replace("%", "%25").replace("/", "%2F").replace("\0", "%00")


def _dump_series(prefix: str, kind: str, verdict, header: str, rows) -> None:
    path = Path(f"{prefix}{kind}_{_file_id(verdict.severe)}-"
                f"{_file_id(verdict.least)}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def cmd_assess(args) -> int:
    given = EventMeta.from_file(args.meta) if args.meta else None
    t_f = args.fault_time if args.fault_time is not None else (
        given.t_fault if given else None)
    t_c = args.clear_time if args.clear_time is not None else (
        given.t_clear if given else None)
    if t_f is None or t_c is None:
        raise LyapstabError(
            "need --meta or both --fault-time and --clear-time")
    meta = EventMeta(t_fault=t_f, t_clear=t_c,
                     faulted_element=given.faulted_element if given else None)
    # read up to the last grid stamp a pair can read, computed as align
    # computes its stamps, and at least as far as align's coverage rule needs
    dt = 1.0 / args.rate
    last = (grid_offset(t_c, args.rate)
            + assess_mod.window_length(args.t_max, dt) - 1)
    traces = parse_traces(args.traces, speed_offset=args.speed_nominal,
                          until=max(last * dt, t_c + MIN_HORIZON))
    dataset = align(traces, meta, rate=args.rate)
    pairs = None  # run_assessment's default: every identified pair
    if args.pair:
        severe, _, least = args.pair.partition(",")
        if not least:
            raise LyapstabError("--pair wants SEVERE,LEAST")
        pairs = [(severe.strip(), least.strip())]
    report = run_assessment(dataset, meta,
                            AssessmentConfig(args.sigma, args.t_max), pairs)
    for verdict in report.pairs:
        if args.dump and verdict.distance is not None:
            _dump_series(args.dump, "distance", verdict, "t,d",
                         ((j * dataset.dt, dj)
                          for j, dj in enumerate(verdict.distance)))
        if args.dump and verdict.mle is not None:
            _dump_series(args.dump, "mle", verdict, "t,lambda",
                         zip(*verdict.mle))
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left early: keep the verdict's exit code, and point
        # stdout at the null device so that the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return report.exit_code


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _opened_branches(model, bus: str, open_branch: str) -> tuple[str, ...]:
    """The branches ``--open-branch`` removes at clearing of a fault at ``bus``."""
    if open_branch == "auto":  # the first branch at the faulted bus
        return tuple(sorted(br.branch_id for br in model.branches
                            if bus in (br.from_bus, br.to_bus))[:1])
    return () if open_branch == "none" else (open_branch,)


SWEEP_FIELDS = ("bus", "clear_time_s", "patterns", "verdict", "oracle",
                "agree", "decision_time_s", "error")


def _sweep_case(model, args, case) -> tuple[dict, list[Warning]]:
    """Row and warnings of a case ``(bus, opened branches, t_clear)``."""
    bus, removed, t_clear = case
    row = dict.fromkeys(SWEEP_FIELDS, "")
    row.update(bus=bus, clear_time_s=t_clear)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LyapstabWarning)
        try:
            meta = EventMeta(t_fault=args.fault_time, t_clear=t_clear,
                             faulted_element=bus)
            fault = FaultSpec(bus=bus, t_fault=args.fault_time,
                              t_clear=t_clear, removed_branches=removed)
            traces = simulate(model, fault, dt=1.0 / args.rate,
                              horizon=args.horizon)
            oracle = stability_oracle(traces, window=args.oracle_window)
            dataset = align(traces, meta, rate=args.rate)
            report = run_assessment(dataset, meta,
                                    AssessmentConfig(args.sigma, args.t_max))
            patterns = [v.pattern.value for v in report.pairs if v.pattern]
            row["patterns"] = "|".join(patterns)
            row["verdict"] = status = report.system.status
            row["oracle"] = oracle
            undetermined = status == assess_mod.SYSTEM_UNDETERMINED
            row["agree"] = "" if undetermined else str(status == oracle)
            row["decision_time_s"] = (
                "" if report.system.decision_time is None
                else repr(report.system.decision_time))
        except (LyapstabError, ValueError) as exc:
            row["error"] = str(exc)
    return row, [w.message for w in caught]


def cmd_sweep(args) -> int:
    model = load_network_file(args.network)
    cases = []
    for bus in args.fault_bus:
        removed = _opened_branches(model, bus, args.open_branch)
        cases += [(bus, removed, t_c) for t_c in args.clear_time]
    run_case = functools.partial(_sweep_case, model, args)
    # one worker per usable CPU, at most one per case; `taskset` caps it
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(cases))
    if workers > 1:
        # imported here: every other command starts faster without it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_case, cases))
    else:
        results = list(map(run_case, cases))
    rows = [row for row, _ in results]
    # a case only records its warnings: issued here, after the last case,
    # each prints once per command, whichever process raised it
    for message in [m for _, caught in results for m in caught]:
        warnings.warn(message)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    # pattern occurrence counts per clearing time plus the agreement rate
    summary_path = (Path(args.summary_out) if args.summary_out
                    else Path(args.out).with_name(Path(args.out).stem
                                                  + "_summary.csv"))
    by_tc: dict[float, dict[str, int]] = {}
    for row in rows:
        counts = by_tc.setdefault(row["clear_time_s"],
                                  {name: 0 for name in PATTERN_NAMES})
        for pat in row["patterns"].split("|"):
            if pat in counts:
                counts[pat] += 1
    decided = [r for r in rows if r["agree"] != ""]
    agreements = sum(r["agree"] == "True" for r in decided)
    undetermined = sum(1 for r in rows
                       if r["verdict"] == assess_mod.SYSTEM_UNDETERMINED)
    failures = sum(1 for r in rows if r["error"])
    rate = agreements / len(decided) if decided else float("nan")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["clear_time_s", *PATTERN_NAMES])
        for t_c in sorted(by_tc):
            writer.writerow([t_c, *(by_tc[t_c][name] for name in PATTERN_NAMES)])
        writer.writerow([])
        writer.writerow(["cases", "agreements", "undetermined", "errors",
                         "success_rate"])
        writer.writerow([len(rows), agreements, undetermined, failures,
                         f"{rate:.4f}" if decided else "n/a"])
    print(f"{len(rows)} cases, {agreements}/{len(decided)} agree with the "
          f"oracle, {undetermined} undetermined, {failures} errors",
          file=sys.stderr)
    print(f"wrote {args.out} and {summary_path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def _show_warning(show, message, category, *where):
    """Print a package warning as one ``warning:`` line; pass others on."""
    if issubclass(category, LyapstabWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show(message, category, *where)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage error: argparse's 2 would read UNSTABLE
        return 1 if exc.code == 2 else exc.code
    handlers = {"simulate": cmd_simulate, "assess": cmd_assess,
                "sweep": cmd_sweep}
    with warnings.catch_warnings():  # restores the filters and the printer
        warnings.simplefilter("default", LyapstabWarning)  # once per command
        warnings.showwarning = functools.partial(_show_warning,
                                                 warnings.showwarning)
        try:
            return handlers[args.command](args)
        except (LyapstabError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
