"""Finite-horizon DP and Monte Carlo: exactness, monotonicity, agreement."""

import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinkit import (
    ClaimDistribution,
    DPConfig,
    MCConfig,
    finite_horizon_dp,
    initial_values_closed_form,
    mc_estimate,
)
from ruinkit.distributions import TAIL_EPSILON
from ruinkit.oracle import (
    _DROP_EPSILON,
    _claim_cdf,
    _guide_table,
    _lundberg_surplus,
    _safe_surplus,
    _simulate_block,
)
from ruinkit.roots import rho_lower

from common import (
    all_fixtures,
    enumerate_survival,
    laws,
    reference_dp,
    reference_pmf,
    reference_survivors,
)

F = Fraction


def test_dp_single_step():
    for dist in all_fixtures():
        got = finite_horizon_dp(dist, 0, DPConfig(horizon=1)).value
        want = float(dist.hk(0) + dist.hk(1))
        assert abs(got - want) < 1e-15, dist.label()


def test_dp_single_step_with_surplus():
    dist = ClaimDistribution.geometric(F(1, 2))
    got = finite_horizon_dp(dist, 3, DPConfig(horizon=1)).value
    want = float(sum(dist.pmf_prefix(4)))  # survive iff z <= u + 1
    assert abs(got - want) < 1e-15


def test_dp_bernoulli_certain():
    for u in (0, 2):
        res = finite_horizon_dp(ClaimDistribution.bernoulli(F(1, 3)), u, DPConfig(horizon=60))
        assert abs(res.value - 1.0) < 1e-12


def test_dp_truncation_tail_is_exact():
    finite = ClaimDistribution.tabulated([F(2, 23), F(16, 23), F(5, 23)])
    assert finite_horizon_dp(finite, 0, DPConfig(horizon=5)).truncation_tail == 0.0
    res = finite_horizon_dp(ClaimDistribution.geometric(F(1, 2)), 0, DPConfig(horizon=5))
    assert res.truncation_index == 11  # cap + 1 = u + 2N + 1
    assert res.truncation_tail == 2.0**-12


def test_dp_two_step_golden():
    # P(Z1 <= 1, Z1 + Z2 <= 3) = 0.6875 for geometric(1/2)
    res = finite_horizon_dp(ClaimDistribution.geometric(F(1, 2)), 0, DPConfig(horizon=2))
    assert abs(res.value - 0.6875) < 1e-14


def test_dp_matches_brute_force_enumeration():
    for dist in (
        ClaimDistribution.geometric(F(1, 2)),
        ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
        ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)]),
    ):
        for u, horizon in ((0, 2), (0, 3), (1, 3), (2, 2)):
            want = float(enumerate_survival(dist, u, horizon, claim_cap=40))
            got = finite_horizon_dp(dist, u, DPConfig(horizon=horizon)).value
            assert abs(got - want) < 1e-11, (dist.label(), u, horizon)


def test_dp_monotone_in_horizon_and_surplus():
    dist = ClaimDistribution.geometric(F(2, 3))
    values = [finite_horizon_dp(dist, 0, DPConfig(horizon=n)).value for n in range(1, 14)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-14
    by_u = [finite_horizon_dp(dist, u, DPConfig(horizon=10)).value for u in range(5)]
    for a, b in zip(by_u, by_u[1:]):
        assert a <= b + 1e-14


def test_dp_dominates_ultimate_survival():
    for dist in all_fixtures():
        if dist.mean() >= 2:
            continue
        phi0, _ = initial_values_closed_form(dist)
        dp = finite_horizon_dp(dist, 0, DPConfig(horizon=800)).value
        assert dp >= phi0 - 1e-9, dist.label()


def test_dp_cap_policy():
    dist = ClaimDistribution.geometric(F(1, 2))
    exact = finite_horizon_dp(dist, 0, DPConfig(horizon=300))
    assert exact.cap_absorbed == 0.0
    capped = finite_horizon_dp(dist, 0, DPConfig(horizon=300, surplus_cap=60))
    assert capped.cap_absorbed > 0.0
    # absorbing-safe can only overcount, and by far less than the bound
    assert exact.value - 1e-12 <= capped.value <= exact.value + capped.cap_absorbed
    with pytest.raises(ValueError):
        finite_horizon_dp(dist, 10, DPConfig(horizon=5, surplus_cap=8))


# the window drops at most 2**-120 at each end of every trim, one trim every
# 4 steps, and retiring mass at W* overcounts by at most 2**-120 in all (the
# finite_horizon_dp docstring); 1e-14 covers float rounding.
# Both convolve the float pmf, whose exact sum s is not always 1: each step
# scales the live mass by s.  The DP sums the mass it retires once, where the
# reference keeps scaling it, so their values may part by N·|1 - s| more
@settings(max_examples=50, deadline=None)
@given(
    dist=laws,
    u=st.integers(0, 20),
    horizon=st.integers(1, 400),
    cap_room=st.none() | st.integers(0, 400),
)
@example(dist=ClaimDistribution.geometric(F(1, 2)), u=0, horizon=400, cap_room=None)
@example(dist=ClaimDistribution.tabulated([F(2, 23), F(16, 23), F(5, 23)]), u=0, horizon=400,
         cap_room=None)
# E Z = 27/5: every path is ruined or dropped after 84 steps
@example(dist=ClaimDistribution.tabulated([F(1, 10), 0, 0, 0, 0, 0, F(9, 10)]), u=0,
         horizon=400, cap_room=None)
# largest claims 2 and 1: every path alive after one step, or at the start,
# survives for certain and retires
@example(dist=ClaimDistribution.tabulated([F(3, 8), F(1, 4), F(3, 8)]), u=0, horizon=400,
         cap_room=None)
@example(dist=ClaimDistribution.bernoulli(F(1, 2)), u=3, horizon=400, cap_room=None)
# a small user cap: paths that could still climb past it stay in the window,
# so cap_absorbed is the reference's, not less
@example(dist=ClaimDistribution.tabulated([F(3, 8), F(1, 4), F(3, 8)]), u=0, horizon=60,
         cap_room=10)
# the cap u + 2N given by hand: the DP retires, and none of it is absorbed
@example(dist=ClaimDistribution.bernoulli(F(1, 2)), u=0, horizon=60, cap_room=118)
def test_dp_band_matches_dense_reference(dist, u, horizon, cap_room):
    cap = None if cap_room is None else u + 2 + cap_room
    res = finite_horizon_dp(dist, u, DPConfig(horizon=horizon, surplus_cap=cap))
    value, absorbed = reference_dp(dist, u, horizon, cap)
    bound = 2 * (horizon // 4) * 2.0**-120 + 2.0**-120 + 1e-14
    s = sum(F(float(p)) for p in dist.pmf_prefix(res.truncation_index))
    assert abs(res.value - value) <= bound + float(horizon * abs(1 - s))
    assert abs(res.cap_absorbed - (absorbed if cap is not None else 0.0)) <= bound


def test_dp_validates_inputs():
    dist = ClaimDistribution.bernoulli(F(1, 2))
    with pytest.raises(ValueError):
        finite_horizon_dp(dist, -1, DPConfig(horizon=5))
    with pytest.raises(ValueError):
        finite_horizon_dp(dist, 0, DPConfig(horizon=0))
    with pytest.raises(ValueError, match="horizon"):
        mc_estimate(dist, 0, MCConfig(trials=4, horizon=0))


def test_mc_bernoulli_deterministic():
    res = mc_estimate(ClaimDistribution.bernoulli(F(1, 2)), 0, MCConfig(trials=500, horizon=40, seed=9))
    assert res.estimate == 1.0
    assert res.half_width_95 == 0.0


def test_mc_surplus_past_int64_is_clamped():
    # a start above (len(cdf) - 2)·horizon survives every path, so it runs
    # as one more than that bound, with the same survivors
    dist = ClaimDistribution.geometric(F(1, 2))
    cfg = MCConfig(trials=400, horizon=50, seed=1)
    top = min(dist.truncation_index(), 10**20 + 2 * cfg.horizon + 1)
    clamped = (len(_claim_cdf(dist, top)) - 2) * cfg.horizon + 1
    assert mc_estimate(dist, 10**20, cfg) == mc_estimate(dist, clamped, cfg)
    assert mc_estimate(dist, 10**20, cfg).estimate == 1.0


def test_mc_two_step_within_half_width():
    res = mc_estimate(
        ClaimDistribution.geometric(F(1, 2)), 0, MCConfig(trials=1_000_000, horizon=2, seed=42)
    )
    assert abs(res.estimate - 0.6875) < res.half_width_95


def test_mc_bit_reproducible():
    dist = ClaimDistribution.geometric(F(1, 2))
    cfg = MCConfig(trials=5000, horizon=30, seed=123)
    a = mc_estimate(dist, 0, cfg)
    b = mc_estimate(dist, 0, cfg)
    assert a.estimate == b.estimate
    c = mc_estimate(dist, 0, MCConfig(trials=5000, horizon=30, seed=124))
    assert c.estimate != a.estimate


def test_mc_partition_independent():
    dist = ClaimDistribution.geometric(F(2, 3))
    cfg = MCConfig(trials=10000, horizon=25, seed=7)
    whole = mc_estimate(dist, 1, cfg)
    for chunk in (4, 256, 4096):
        assert mc_estimate(dist, 1, cfg, trial_chunk=chunk).estimate == whole.estimate
    with pytest.raises(ValueError):
        mc_estimate(dist, 1, cfg, trial_chunk=6)


def test_mc_agrees_with_dp():
    for dist in all_fixtures():
        dp = finite_horizon_dp(dist, 0, DPConfig(horizon=40)).value
        mc = mc_estimate(dist, 0, MCConfig(trials=40_000, horizon=40, seed=2024))
        assert abs(mc.estimate - dp) <= 3.0 * mc.half_width_95 + 1e-12, dist.label()


def test_mc_long_horizon_reaches_ultimate_value():
    dist = ClaimDistribution.geometric(F(1, 2))
    res = mc_estimate(dist, 0, MCConfig(trials=100_000, horizon=5000, seed=42))
    assert abs(res.estimate - (math.sqrt(5.0) - 1.0) / 2.0) < res.half_width_95


def test_mc_validates_inputs():
    dist = ClaimDistribution.bernoulli(F(1, 2))
    with pytest.raises(ValueError):
        mc_estimate(dist, 0, MCConfig(trials=0, horizon=5))
    with pytest.raises(ValueError):
        mc_estimate(dist, -1, MCConfig(trials=10, horizon=5))


def test_philox_raw_word_is_generator_double():
    key, counter = np.uint64(2024), (7 << 128) + 3
    doubles = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(1001)
    words = np.random.Philox(key=key, counter=counter).random_raw(1001)
    assert np.array_equal(doubles, (words >> 11) * 2.0**-53)


# pmf:1/2,1/4,1/4 puts its cdf points on bucket edges; geometric(1/3)'s
# truncated cdf ends below 1; geometric(2/5) crowds cdf points into the last
# bucket; geometric(1/2) is the law the benchmark simulates
@settings(max_examples=40, deadline=None)
@given(
    dist=laws,
    u=st.integers(0, 6),
    seed=st.integers(0, 2**64 - 1),
    trials=st.builds(lambda q, r: 4 * q + r, st.integers(0, 499), st.integers(1, 3)),
    horizon=st.integers(1, 60),
    chunk=st.sampled_from([None, 4, 64]),
)
@example(dist=ClaimDistribution.tabulated([F(1, 2), F(1, 4), F(1, 4)]), u=0, seed=3,
         trials=1999, horizon=60, chunk=64)
@example(dist=ClaimDistribution.geometric(F(1, 2)), u=0, seed=0, trials=1999, horizon=60, chunk=None)
@example(dist=ClaimDistribution.geometric(F(1, 3)), u=1, seed=5, trials=1001, horizon=60, chunk=4)
@example(dist=ClaimDistribution.geometric(F(2, 5)), u=2, seed=7, trials=1999, horizon=60, chunk=64)
# largest claims 2 (the float cumsum of this pmf ends at 1 - 2**-53, its
# rounded exact sums at 1), 2 and 1: trials retire as survivors once they
# are out of reach of ruin
@example(dist=ClaimDistribution.tabulated([F(2, 23), F(16, 23), F(5, 23)]), u=0, seed=0,
         trials=1999, horizon=60, chunk=None)
@example(dist=ClaimDistribution.tabulated([F(3, 8), F(1, 4), F(3, 8)]), u=0, seed=2,
         trials=1999, horizon=60, chunk=64)
@example(dist=ClaimDistribution.bernoulli(F(1, 2)), u=0, seed=4, trials=1001, horizon=60,
         chunk=4)
# W* = 174 binds: surviving trials retire there long before D·k + 1 = 51·k + 1
@example(dist=ClaimDistribution.geometric(F(1, 2)), u=0, seed=11, trials=1001, horizon=300,
         chunk=64)
# a start above the bound N + 1 of the first of these laws
@example(dist=ClaimDistribution.tabulated([F(2, 23), F(16, 23), F(5, 23)]), u=70, seed=6,
         trials=1001, horizon=60, chunk=None)
def test_simulate_block_matches_reference(dist, u, seed, trials, horizon, chunk):
    cfg = MCConfig(trials=trials, horizon=horizon, seed=seed)
    k_top = min(dist.truncation_index(), u + 2 * horizon + 1)
    cdf = _claim_cdf(dist, k_top)
    # the construction record's pmf summed exactly, each sum rounded once
    want = np.array([float(c) for c in accumulate(reference_pmf(dist, k_top))])
    assert cdf.tobytes() == want.tobytes()
    guide = _guide_table(cdf)
    step = trials if chunk is None else chunk
    lundberg = _lundberg_surplus(dist)
    survivors = sum(
        _simulate_block(u, cfg, start, min(step, trials - start), cdf, guide, lundberg)
        for start in range(0, trials, step)
    )
    assert survivors == reference_survivors(u, cfg, 0, trials, cdf)


@settings(max_examples=25, deadline=None)
@given(
    u=st.integers(0, 40),
    horizon=st.integers(1, 60),
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 600),
)
@example(u=0, horizon=60, seed=0, trials=600)
def test_mc_cut_cdf_keeps_the_survivors(u, horizon, seed, trials):
    # geometric(1/50) has truncation index about 1800, past the cut
    # u + 2N + 1 of every draw here, and often draws claims beyond it
    dist = ClaimDistribution.geometric(F(1, 50))
    full = _claim_cdf(dist, dist.truncation_index())
    assert len(full) > u + 2 * horizon + 2
    cfg = MCConfig(trials=trials, horizon=horizon, seed=seed)
    survivors = reference_survivors(u, cfg, 0, trials, full)
    assert mc_estimate(dist, u, cfg).estimate == survivors / trials


@pytest.mark.parametrize(
    "dist, drop, horizon",
    [
        # its cdf ends at exactly 1, so the uniform 1 - 2**-53 draws 2, not 3
        (ClaimDistribution.tabulated([F(2, 23), F(16, 23), F(5, 23)]), 0, 30),
        (ClaimDistribution.tabulated([F(3, 8), F(1, 4), F(3, 8)]), 0, 30),
        (ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]), 1, 30),
        # D·N + 1 = 154 lies below W* = 174
        (ClaimDistribution.geometric(F(1, 2)), 51, 3),
        # W* binds: u = W* and W* - 1
        (ClaimDistribution.geometric(F(1, 2)), 51, 30),
    ],
    ids=[
        "pmf:2/23,16/23,5/23",
        "pmf:3/8,1/4,3/8",
        "pmf:2/5,1/5,1/5,1/5",
        "geometric(1/2)",
        "geometric(1/2)-lundberg",
    ],
)
def test_simulate_block_draws_nothing_past_the_bound(monkeypatch, dist, drop, horizon):
    # a start u at the retirement bound, min(max(drop·N, drop) + 1, W*), is
    # retired at once: the block returns every trial without a Philox word;
    # one below, it steps
    count = 400
    lundberg = _lundberg_surplus(dist)
    bound = _safe_surplus(drop, horizon, lundberg)
    assert bound == min(max(drop * horizon, drop) + 1, lundberg or math.inf)
    cdf = _claim_cdf(dist, min(dist.truncation_index(), bound + 2 * horizon + 1))
    assert int(np.searchsorted(cdf, 1.0 - 2.0**-53, side="right")) - 2 == drop
    guide = _guide_table(cdf)
    philox = np.random.Philox
    drawn = []

    class CountingPhilox:
        def __init__(self, *args, **kwargs):
            self._bitgen = philox(*args, **kwargs)

        state = property(
            lambda self: self._bitgen.state,
            lambda self, value: setattr(self._bitgen, "state", value),
        )

        def random_raw(self, size):
            drawn.append(size)
            return self._bitgen.random_raw(size)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    cfg = MCConfig(trials=count, horizon=horizon, seed=3)
    assert _simulate_block(bound, cfg, 0, count, cdf, guide, lundberg) == count
    assert drawn == []
    _simulate_block(bound - 1, cfg, 0, count, cdf, guide, lundberg)
    assert drawn


def test_lundberg_surplus_is_the_least_certified_surplus():
    # W* is the least w with r^(-w) <= 2**-120, or one more (float margin)
    assert _lundberg_surplus(ClaimDistribution.geometric(F(1, 2))) == 174
    assert _lundberg_surplus(ClaimDistribution.tabulated([F(2, 23), F(16, 23), F(5, 23)])) is None
    for dist in all_fixtures():
        r, w = rho_lower(dist), _lundberg_surplus(dist)
        assert (r is None) == (w is None), dist.label()
        if r is not None:
            assert r**-w <= F(_DROP_EPSILON) < r ** -(w - 2), dist.label()


def test_oracles_cut_a_slowly_decaying_law_at_the_bound():
    # K is about 3.7·10**6 for this law; both oracles need only the cap
    dist = ClaimDistribution.geometric(F(1, 100000))
    assert dist.tail_mass(5) >= TAIL_EPSILON
    assert dist.truncation_index(5) == 5
    res = finite_horizon_dp(dist, 0, DPConfig(horizon=2))
    assert res.truncation_index == 5
    assert res.truncation_tail == float(dist.tail_mass(5))
    assert mc_estimate(dist, 0, MCConfig(trials=1000, horizon=2)).estimate < 0.01


def test_claim_cdf_builds_no_fraction_per_claim():
    # one int/int division per claim off the integer stream of (P, R); with
    # a reduced Fraction per claim, all alive at once, this peaked at 95 MB
    dist = ClaimDistribution.geometric(F(1, 3000))
    dist.rational_pgf  # the cached pair is built outside the trace
    tracemalloc.start()
    try:
        cdf = _claim_cdf(dist, 8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cdf) == 8001
    assert peak < 8e6, peak


def test_dp_retires_paths_out_of_reach_of_ruin():
    # claims of at most 1 never lower the surplus: the value is exactly 1,
    # where stepping the window 10**5 times rounded it to 1.0000000000000022
    res = finite_horizon_dp(ClaimDistribution.bernoulli(F(1, 2)), 0, DPConfig(horizon=100_000))
    assert res.value == 1.0
    # claims of at most 2: survival is the first step's, P(Z <= 1) = 18/23
    law = ClaimDistribution.tabulated([F(2, 23), F(16, 23), F(5, 23)])
    assert abs(finite_horizon_dp(law, 0, DPConfig(horizon=5000)).value - 18 / 23) <= 1e-15


def test_dp_long_horizon_lands_on_phi():
    # paths retire at W*, so the window empties within a few hundred steps
    # and the value stops gathering rounding with the horizon: it read
    # 1.0e-12 below phi(0) when every path was stepped to N = 20000
    res = finite_horizon_dp(ClaimDistribution.geometric(F(1, 2)), 0, DPConfig(horizon=20000))
    assert abs(res.value - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-14
