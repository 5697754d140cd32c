"""Severely disturbed pair selection and sign-oriented pair traces."""

import itertools
import math

import numpy as np
import pytest

from conftest import DT, two_machine_model
from lyapstab.config import AssessmentConfig
from lyapstab.errors import LyapstabError, LyapstabWarning
from lyapstab.ingest import AlignedDataset, EventMeta, align
from lyapstab.network import FaultSpec
from lyapstab.pairs import build_pair_trace, identify_sdgp
from lyapstab.simulator import simulate


def dataset(speeds: dict[str, float], n=80) -> AlignedDataset:
    ids = tuple(speeds)
    ang = np.zeros((len(ids), n))
    spd = np.zeros((len(ids), n))
    for i, g in enumerate(ids):
        spd[i, :] = speeds[g]
        ang[i, :] = speeds[g] * np.arange(n) * DT
    return AlignedDataset(gen_ids=ids, angles=ang, speeds=spd, grid_offset=0)


def test_identify_threshold_rule():
    ds = dataset({"G1": 5.0, "G2": 4.0, "G3": 0.2})
    assert identify_sdgp(ds) == [("G1", "G3"), ("G2", "G3")]


def test_identify_excludes_below_threshold():
    ds = dataset({"G1": 5.0, "G2": 3.0, "G3": -0.1})
    assert identify_sdgp(ds) == [("G1", "G3")]


def test_identify_tie_breaks_to_lowest_id():
    ds = dataset({"G1": 1.0, "G2": -1.0})
    with pytest.warns(LyapstabWarning):
        assert identify_sdgp(ds) == [("G2", "G1")]


def test_identify_no_disturbance():
    with pytest.raises(LyapstabError,
                       match="all clearing-instant speeds are zero"):
        identify_sdgp(dataset({"G1": 0.0, "G2": 0.0}))


def test_identify_degenerate_when_all_equal():
    # every ratio is 1 > sigma but the least generator is excluded,
    # and the others tie exactly: the remaining severe set is G2, G3
    ds = dataset({"G1": 2.0, "G2": 2.0})
    with pytest.warns(LyapstabWarning):
        pairs = identify_sdgp(ds)
    assert pairs == [("G2", "G1")]


def test_identify_sigma_one_empty_severe_set():
    ds = dataset({"G1": 5.0, "G2": 4.0})
    with pytest.raises(LyapstabError,
                       match="no severely disturbed generator left"):
        identify_sdgp(ds, sigma=1.0)


def test_identify_scale_invariance():
    base = {"G1": 5.0, "G2": 4.0, "G3": 0.2}
    ref = identify_sdgp(dataset(base))
    for c in (0.01, 0.5, 7.0, 1234.0):
        scaled = {g: c * v for g, v in base.items()}
        assert identify_sdgp(dataset(scaled)) == ref


@pytest.mark.parametrize("speeds, want", [
    ({"2": 1.0, "nan": 0.9, "1": 0.8, "G0": 0.01},
     [("1", "G0"), ("2", "G0"), ("nan", "G0")]),
    ({"2": 1.0, "nan": 0.0, "1": 0.0}, [("2", "1")]),
], ids=["severe-order", "least-tie"])
def test_identify_ignores_the_order_of_the_ids(speeds, want):
    # float("nan") is a number that compares false with every other one, so
    # an id spelled "nan" sorts with the ids that are not numbers
    for ids in itertools.permutations(speeds):
        assert identify_sdgp(dataset({g: speeds[g] for g in ids})) == want


def test_identify_warns_on_common_mode():
    ds = dataset({"G1": 5.0, "G2": 4.9, "G3": 3.0})
    with pytest.warns(LyapstabWarning, match="strongly disturbed"):
        identify_sdgp(ds)


def test_sigma_validation():
    for sigma in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            AssessmentConfig(sigma=sigma)


def test_pair_trace_zero_relative():
    ds = dataset({"G1": 2.0, "G2": 2.0})
    tr = build_pair_trace(ds, ("G2", "G1"))
    assert np.all(tr.rel_angle == 0.0)
    assert tr.rel_speed[0] == 0.0
    assert not tr.sign_flipped


def test_pair_trace_orientation():
    ds = dataset({"G1": -2.0, "G2": 0.1})
    tr = build_pair_trace(ds, ("G1", "G2"))
    assert tr.sign_flipped
    assert tr.rel_speed[0] == pytest.approx(2.1)
    assert tr.rel_speed[0] >= 0.0


def test_pair_trace_unknown_id():
    ds = dataset({"G1": 2.0, "G2": 0.1})
    with pytest.raises(LyapstabError, match="unknown generator id 'G9'"):
        build_pair_trace(ds, ("G9", "G1"))


def test_pair_trace_refuses_a_self_pair():
    ds = dataset({"G1": 2.0, "G2": 0.1})
    with pytest.raises(LyapstabError, match="a pair needs two different "
                                            "generators, got 'G2' twice"):
        build_pair_trace(ds, ("G2", "G2"))


def test_pair_trace_matches_direct_subtraction():
    # simulator output aligned on its own grid loses nothing to resampling
    model = two_machine_model()
    fault = FaultSpec(bus="3", t_fault=0.1, t_clear=0.2)
    traces = simulate(model, fault, dt=DT, horizon=3.0)
    meta = EventMeta(t_fault=0.1, t_clear=0.2)
    ds = align(traces, meta)
    with pytest.warns(LyapstabWarning):  # symmetric event: common-mode flag
        (severe, least), = identify_sdgp(ds)
    pair = build_pair_trace(ds, (severe, least))
    by_id = {tr.gen_id: tr for tr in traces}
    k0 = ds.grid_offset
    direct = (by_id[severe].angles[k0:k0 + len(pair)]
              - by_id[least].angles[k0:k0 + len(pair)])
    if pair.sign_flipped:
        direct = -direct
    assert np.abs(pair.rel_angle - direct).max() < 1e-12


def test_pair_speed_consistent_with_angle_derivative():
    # band-limited signal: the discrete angle slope tracks the speed channel
    f_max = 1.5
    n = 241
    t = np.arange(n) * DT
    ang = np.zeros((2, n))
    spd = np.zeros((2, n))
    ang[0] = 0.4 * np.sin(2 * np.pi * f_max * t)
    spd[0] = 0.4 * 2 * np.pi * f_max * np.cos(2 * np.pi * f_max * t)
    ds = AlignedDataset(gen_ids=("G1", "G2"), angles=ang, speeds=spd,
                        grid_offset=0)
    tr = build_pair_trace(ds, ("G1", "G2"))
    slope = np.diff(tr.rel_angle) / DT
    err = np.abs(slope - tr.rel_speed[1:]).max()
    bound = 0.5 * np.abs(tr.rel_speed).max() * (2 * np.pi * f_max * DT)
    assert err < bound
