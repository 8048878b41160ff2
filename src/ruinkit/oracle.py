"""Independent ground truth: finite-horizon survival by DP and Monte Carlo.

phi_N(u) = P(W(n) > 0 for all 1 <= n <= N) decreases to phi(u) as N grows,
which makes it a cross-check oracle for every analytic route: it depends on
nothing but the model definition.

Both oracles retire a path as a survivor once its surplus w reaches the
retirement bound of the k steps left (_safe_surplus), the smaller of two:

* no claim sequence can ruin it.  With D = (largest claim the oracle can
  draw) - 2, it survives for certain when w - D·j >= 1 for every
  j = 1..k, that is when w >= max(D·k, D) + 1;
* Lundberg's bound puts its ruin below _DROP_EPSILON = 2**-120.  With r
  the certified rational lower end of the outer root rho
  (``roots.rho_lower``), ruin from w has probability at most r^(-w) over
  any horizon, so w >= W*, the least w with r^(-w) <= 2**-120.  W* is
  rounded up from a float log with a margin of 2**-40, far above the few
  ulps that log and quotient err by.  Laws with E Z >= 2 or claims of at
  most 2 have no rho, and only the first bound applies.

W* is computed once per oracle call (Asmussen & Albrecher, *Ruin
Probabilities*, 2nd ed., 2010, ch. IV).  A retired path is counted with the
probability it already carries.  Under the first bound that is exact;
under the second it overcounts survival by at most the retired mass times
2**-120.

The DP runs forward over the surplus lattice (ruin states are absorbing and
dropped; the surplus moves by 2 - Z each step).  States above
``surplus_cap`` are treated as absorbed-safe; with the default cap u + 2N no
state can exceed it.  A smaller cap over-counts survival by at most the
absorbed mass, which is reported.  The live states are held as a window
``v[i] = P(alive, surplus = base + i)``, starting from the point mass on u.
At step n almost all of their mass lies within O(sqrt(n)) of
u + (2 - E Z) n, so every _TRIM_EVERY steps the window drops the run of
entries at each end whose total mass is at most _DROP_EPSILON = 2**-120,
looking only near its ends.  Before each step the entries at or above the
retirement bound, with D = k_top - 2 from the claims it convolves, leave the
window for a separate ``safe`` sum, unless the window could still climb past
a user cap, so ``cap_absorbed`` stays the cap policy's overcount.  The loop
stops once the window is empty (all mass ruined, dropped, absorbed or
retired).  When the law has rho, the window never holds a surplus of W* or
more, so it empties within a few hundred steps on geometric(1/2) and the
value stops gathering rounding with N.  The DP is thus exact up to
claim-tail truncation, float rounding, at most 2 * trims * _DROP_EPSILON of
dropped mass, with trims <= N / _TRIM_EVERY, and at most (retired mass) *
_DROP_EPSILON <= 2**-120 of retired mass that would still have been
ruined: under 1e-27 for N up to 10**9.  Below truncation_index = cap + 1,
the per-step ``truncation_tail`` = P(Z > truncation_index) counts as ruin:
``value`` sits below the exact-law phi_N by at most (live mass summed over
steps) * truncation_tail <= N * truncation_tail, and retired mass that a
dropped claim may still ruin lifts it by at most N * truncation_tail.

The Monte Carlo is bit-reproducible and partition-independent: claims for
step j live on the Philox counter plane j << 128 under the run's key (the
seed), and trial i consumes word i of that plane.  Any 4-aligned block of
trials can therefore be regenerated in isolation (Philox counters advance in
4-word blocks), so evaluating trials in chunks - serially or concurrently -
reproduces the monolithic run exactly.

Each step keeps only the live trials (their indices and surplus), compacted
after every step that ruins or retires one, and ends the block once none is
left.  The largest claim is searchsorted(cdf, 1 - 2**-53, "right"), the most
either lookup below can return; a block whose u meets the retirement bound
draws nothing.  A trial retired by the first bound survives whatever it
draws.  Under the exact law, the survivors therefore equal those of stepping
every trial, except on an event of probability at most trials * 2**-120,
that a trial retired at W* would have been ruined later.  One Philox
generator per block is moved to each step's counter plane by setting its
state, and trial i still consumes word i of that plane, so neither changes
which trials survive.  Raw Philox words map to claims without a Generator:
word w is the uniform (w >> 11) * 2**-53, the double ``Generator.random``
would draw from it, and its top _GUIDE_BITS bits pick a guide-table bucket
(Chen & Asau 1974).  A bucket that holds no cdf point gives its claim
directly; only the few buckets split by a cdf point fall back to the binary
search.  Either way the claim is ``searchsorted(cdf, uniform, "right")``, so
the draws are exactly those of stepping every trial with Generator uniforms
and a full binary search.  Each draw follows the float cdf, whose every
point is the exact P(Z <= k) rounded once, so it differs from the exact
law's by at most half an ulp per point and by the claim tail past its
truncation index.  A finite-support cdf ends at exactly 1.0, so no uniform
draws a claim past the support.

numpy is imported inside the functions that run the oracles, so the exact
commands never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .distributions import ClaimDistribution, _numerators, _times_one_minus_s
from .roots import rho_lower

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DPConfig:
    """horizon N; surplus cap (None = u + 2N, exact)."""

    horizon: int
    surplus_cap: int | None = None


@dataclass(frozen=True)
class DPResult:
    value: float
    horizon: int
    surplus_cap: int
    cap_absorbed: float  # one-sided bound on the cap-policy overcount
    truncation_tail: float  # pmf mass dropped by claim truncation, per step
    truncation_index: int


@dataclass(frozen=True)
class MCConfig:
    trials: int
    horizon: int
    seed: int = 0


@dataclass(frozen=True)
class MCResult:
    estimate: float
    half_width_95: float
    trials: int
    horizon: int
    seed: int


#: a run of entries at either end of the DP window whose mass is at most this
#: is dropped; 2**-120 keeps the total dropped far below the float rounding
#: of a probability near 1
_DROP_EPSILON = 2.0**-120
#: steps between two trims of the DP window
_TRIM_EVERY = 4


def finite_horizon_dp(dist: ClaimDistribution, u: int, cfg: DPConfig) -> DPResult:
    """Survival probability through horizon N, exact up to stated policies.

    Survive step n from surplus w iff the claim z satisfies w + 2 - z >= 1;
    mass moving to w' > cap is absorbed as safe, mass at w' <= 0 is ruined
    and dropped.  Only the window of live states that carries mass and lies
    below the retirement bound is convolved (see the module docstring).
    Mass at or above the bound is retired as safe: at max(D·k, D) + 1 it
    survives for certain, and at W*, from Lundberg's bound on the certified
    r <= rho, it is ruined later with probability at most 2**-120.  So the
    value is exact up to claim truncation, float rounding, at most
    2 * trims * _DROP_EPSILON of dropped mass, with trims <= N / _TRIM_EVERY,
    and an overcount of at most (retired mass) * 2**-120 <= 2**-120.  Below
    truncation_index = cap + 1, the per-step ``truncation_tail`` counts as
    ruin: ``value`` sits below the exact-law phi_N by at most (live mass
    summed over the steps) * truncation_tail <= N * truncation_tail.
    """
    if u < 0:
        raise ValueError("initial surplus must be non-negative")
    n_steps = cfg.horizon
    if n_steps < 1:
        raise ValueError("horizon must be at least 1")
    cap = cfg.surplus_cap if cfg.surplus_cap is not None else u + 2 * n_steps
    if cap < u + 2:
        raise ValueError("surplus cap must admit at least the first step")
    import numpy as np

    # claims beyond cap + 1 ruin every in-cap state; dropping them is exact
    k_top = dist.truncation_index(cap + 1)
    hr = _claim_pmf(dist, k_top)[::-1].copy()
    reach = 2 * _TRIM_EVERY * (k_top + 1)
    lundberg = _lundberg_surplus(dist)

    # v[i] = P(alive, surplus = base + i), from the point mass on u
    v = np.ones(1, dtype=np.float64)
    base = u
    absorbed = safe = 0.0
    for step in range(1, n_steps + 1):
        # retire the top of the window once it meets the bound of the steps
        # left, unless it could still climb past the cap
        left = n_steps - step + 1
        cut = max(0, _safe_surplus(k_top - 2, left, lundberg) - base)
        if cut < len(v) and base + len(v) - 1 + 2 * left <= cap:
            safe += float(v[cut:].sum())
            v = v[:cut]
            if not len(v):
                break
        conv = np.convolve(v, hr)
        # conv[t] collects all mass landing on surplus base + 2 - k_top + t
        t_lo = k_top - 1 - base  # surplus 1
        t_hi = t_lo + cap  # surplus cap + 1
        if t_hi < len(conv):
            absorbed += float(conv[t_hi:].sum())
        v = conv[max(0, t_lo):t_hi]
        base = max(1, base + 2 - k_top)
        if step % _TRIM_EVERY == 0:
            lo = _droppable(v, reach)
            v = v[lo:len(v) - _droppable(v[lo:][::-1], reach)]
            base += lo
        if not len(v):
            break
    value = float(v.sum()) + safe + absorbed
    return DPResult(
        value=value,
        horizon=n_steps,
        surplus_cap=cap,
        cap_absorbed=absorbed if cfg.surplus_cap is not None else 0.0,
        truncation_tail=float(dist.tail_mass(k_top)),
        truncation_index=k_top,
    )


def _safe_surplus(drop: int, steps: int, lundberg: int | None) -> int:
    """The retirement bound: the lowest surplus w from which a path with
    ``steps`` more steps is retired as a survivor.

    It is the smaller of the surplus that survives whatever the claims, when
    none lowers the surplus by more than ``drop`` (w - drop·j >= 1 for every
    j = 1..steps), and ``lundberg``, the W* of _lundberg_surplus (None when
    the law has no rho).
    """
    certain = max(drop * steps, drop) + 1
    return certain if lundberg is None else min(certain, lundberg)


def _lundberg_surplus(dist: ClaimDistribution) -> int | None:
    """W*, a surplus from which ruin has probability at most _DROP_EPSILON
    over any horizon, or None when the law has no rho (``rho_lower``).

    Ruin from w has probability at most r^(-w), with r the certified lower
    end of rho, so W* is the least w >= -log(_DROP_EPSILON) / log(r), rounded
    up from floats with a relative margin of 2**-40.  r - 1 is dyadic with a
    short numerator, so it converts to a float exactly, and log1p, the
    quotient and the product err by a few ulps between them: W* is the exact
    least w or one more for any W* below 2**38.
    """
    r = rho_lower(dist)
    if r is None:
        return None
    return math.ceil(-math.log(_DROP_EPSILON) / math.log1p(r - 1) * (1 + 2.0**-40))


def _droppable(v: np.ndarray, reach: int) -> int:
    """Length of the longest prefix of v whose mass is at most _DROP_EPSILON.

    Looks at the first ``reach`` entries, and at twice as many while all of
    those can go, so a trim costs O(reach + the entries it drops).
    """
    import numpy as np

    span = reach
    while True:
        k = int(np.searchsorted(np.cumsum(v[:span]), _DROP_EPSILON, side="right"))
        if k < span or span >= len(v):
            return k
        span *= 2


def _floats(num, den, k_top: int) -> np.ndarray:
    """[s^k](num/den) = F_k / den_0^(k+1), k <= k_top, off the integer
    stream: one correctly rounded int/int each."""
    import numpy as np

    out, scale = [], den[0]
    for _k, f in zip(range(k_top + 1), _numerators(num, den)):
        out.append(f / scale)
        scale *= den[0]
    return np.array(out, dtype=np.float64)


def _claim_pmf(dist: ClaimDistribution, k_top: int) -> np.ndarray:
    """float(h_k) = G_k / r_0^(k+1), k <= k_top, G off the stream of (P, R)."""
    p, r, _q = dist.rational_pgf
    return _floats(p, r, k_top)


def _claim_cdf(dist: ClaimDistribution, k_top: int) -> np.ndarray:
    """float(P(Z <= k)), k <= k_top: C_k / r_0^(k+1), rounded once, where
    the stream of (P, (1 - s)R) is the running sum C_k = r_0 C_{k-1} + G_k."""
    p, r, _q = dist.rational_pgf
    return _floats(p, _times_one_minus_s(r), k_top)


#: bits of the uniform that pick a guide-table bucket (2**12 buckets)
_GUIDE_BITS = 12


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Claim index for every bucket [b, b + 1) / 2**_GUIDE_BITS of the
    uniform, or -1 where a cdf point falls inside the bucket.

    A bucket that holds no cdf point maps all its uniforms to one claim,
    ``searchsorted(cdf, b / 2**_GUIDE_BITS, "right")``; only the split
    buckets need the search itself.
    """
    import numpy as np

    edges = np.arange(2**_GUIDE_BITS + 1) * 2.0**-_GUIDE_BITS
    lo = np.searchsorted(cdf, edges, side="right")
    return np.where(lo[:-1] == lo[1:], lo[:-1], -1)


def _simulate_block(
    u: int,
    cfg: MCConfig,
    start: int,
    count: int,
    cdf: np.ndarray,
    guide: np.ndarray,
    lundberg: int | None,
) -> int:
    """Number of surviving trials among [start, start + count).

    ``start`` is 4-aligned, so word ``start`` opens a Philox counter block.
    Only live trials are stepped: ``trial`` and ``s`` hold the index and the
    surplus of each, compacted after every step that ruins or retires one.
    ``s`` is the surplus less 2·step, so a step subtracts the claim alone.
    The largest claim a uniform can map to is searchsorted(cdf, 1 - 2**-53,
    "right").  A trial whose surplus reaches _safe_surplus of the steps left
    survives whatever it draws, or, at ``lundberg`` (W*, or None without
    rho), is ruined later with probability at most 2**-120.  It is retired
    as a survivor, at the start too: a ``u`` that meets the bound draws
    nothing.  So the count is that of stepping every trial, except on an
    event of probability at most count * 2**-120 under the exact law.
    """
    import numpy as np

    n = cfg.horizon
    drop = int(np.searchsorted(cdf, 1.0 - 2.0**-53, side="right")) - 2
    if u >= _safe_surplus(drop, n, lundberg):
        return count
    # one generator, moved to the counter plane of each step: the counter's
    # words are (start >> 2, 0, step, 0), and its buffer starts empty
    bitgen = np.random.Philox(key=np.uint64(cfg.seed), counter=start >> 2)
    state = bitgen.state
    counter = state["state"]["counter"]
    trial = np.arange(count)
    s = np.full(count, u, dtype=np.int64)
    retired = 0
    for step in range(1, n + 1):
        counter[2] = step
        bitgen.state = state
        raw = bitgen.random_raw(count)
        if len(trial) < count:
            raw = raw.take(trial)
        # a uint64 index array would take numpy's casting path
        claims = guide.take((raw >> (64 - _GUIDE_BITS)).view(np.intp))
        split = np.flatnonzero(claims < 0)
        if len(split):
            # (raw >> 11) * 2**-53 is the double Generator.random returns
            claims[split] = np.searchsorted(cdf, (raw.take(split) >> 11) * 2.0**-53, side="right")
        s -= claims
        lo = 1 - 2 * step  # surplus 1
        hi = _safe_surplus(drop, n - step, lundberg) - 2 * step
        # no trial passes s = u, so none retires before hi comes down to u
        retire = hi <= u and s.max() >= hi
        if retire or s.min() < lo:
            keep = s >= lo
            if retire:
                done = s >= hi
                retired += int(np.count_nonzero(done))
                keep &= ~done
            keep = np.flatnonzero(keep)
            trial = trial.take(keep)
            s = s.take(keep)
            if not len(trial):
                break
    return retired + len(trial)


def mc_estimate(
    dist: ClaimDistribution,
    u: int,
    cfg: MCConfig,
    trial_chunk: int | None = None,
) -> MCResult:
    """Survival frequency over cfg.trials paths, with a 95% half-width.

    Identical (seed, trials, horizon) give bit-identical estimates however
    the trials are chunked; ``trial_chunk`` (a multiple of 4) only bounds the
    working-set size.  The seed is the 64-bit Philox key, 0 <= seed < 2**64.
    """
    if cfg.trials < 1:
        raise ValueError("at least one trial is required")
    if cfg.horizon < 1:
        raise ValueError("horizon must be at least 1")
    if u < 0:
        raise ValueError("initial surplus must be non-negative")
    if not 0 <= cfg.seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    if trial_chunk is not None and (trial_chunk < 4 or trial_chunk % 4):
        raise ValueError("trial_chunk must be a positive multiple of 4")
    # a claim of u + 2N or more ruins every trial at every step, so a cdf
    # cut at the DP's bound u + 2N + 1 gives the same survivors
    cdf = _claim_cdf(dist, dist.truncation_index(u + 2 * cfg.horizon + 1))
    guide = _guide_table(cdf)
    lundberg = _lundberg_surplus(dist)
    chunk = cfg.trials if trial_chunk is None else trial_chunk
    survivors = 0
    start = 0
    while start < cfg.trials:
        count = min(chunk, cfg.trials - start)
        survivors += _simulate_block(u, cfg, start, count, cdf, guide, lundberg)
        start += count
    estimate = survivors / cfg.trials
    half_width = 1.96 * math.sqrt(max(estimate * (1.0 - estimate), 0.0) / cfg.trials)
    return MCResult(
        estimate=estimate,
        half_width_95=half_width,
        trials=cfg.trials,
        horizon=cfg.horizon,
        seed=cfg.seed,
    )
