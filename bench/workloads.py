"""Seeded job lists for the three benchmark workloads.

Every job is a ruinkit command line.  The seed picks the random claim laws,
the random geometric parameters and the Monte Carlo seed; ruinkit itself
only ever sees the generated distribution specs.

Sizes: ``full`` is the measured configuration, ``tiny`` the same job shapes
at toy sizes for the benchmark's own tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("survival", "sweep", "oracle")

#: random tabulated laws: number of support points (h_0 included), common
#: denominator before reduction, and h_0 = k/den with 1 <= k <= den // 2,
#: so h_0 ranges over [1/30, 1/2] and with it the root alpha
SUPPORT_POINTS = (3, 7)
DENOMINATORS = (8, 30)

#: laws fed to the DP oracle keep E Z <= 3/2, so the finite-horizon value
#: converges to phi(0) well inside the oracle tolerance at the DP horizon
ORACLE_MAX_MEAN = Fraction(3, 2)

#: alpha = 11, so 11**300 overflows a double in asympt's float expansion
KNOWN_OVERFLOW_LAW = "pmf:1/12,5/6,1/12"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    headline: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _pmf_spec(pmf: list[Fraction]) -> str:
    return "pmf:" + ",".join(str(v) for v in pmf)


def _mean(pmf: list[Fraction]) -> Fraction:
    return sum((k * v for k, v in enumerate(pmf)), Fraction(0))


def _law(rng: random.Random, den: int, k0: int, positions: list[int]) -> list[Fraction]:
    """h_0 = k0/den and the other den - k0 units split at random into one
    positive part per position."""
    cuts = sorted(rng.sample(range(1, den - k0), len(positions) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den - k0])]
    pmf = [Fraction(0)] * (positions[-1] + 1)
    pmf[0] = Fraction(k0, den)
    for k, units in zip(positions, parts):
        pmf[k] = Fraction(units, den)
    return pmf


def random_pmf(rng: random.Random, regime: str, max_mean: Fraction | None = None,
               points: int | None = None) -> list[Fraction]:
    """A primitive tabulated law with E Z < 2 (``regime="low"``) or E Z > 2
    (``"high"``), drawn by rejection from the ranges above; ``points`` fixes
    the number of support points instead of drawing it."""
    while True:
        den = rng.randint(*DENOMINATORS)
        k0 = rng.randint(1, den // 2)
        if points is not None and den - k0 + 1 < points:
            continue
        n = points or rng.randint(SUPPORT_POINTS[0], min(SUPPORT_POINTS[1], den - k0 + 1))
        top = rng.randint(n - 1, n + 3)
        positions = sorted(rng.sample(range(1, top + 1), n - 1))
        if not any(k % 2 for k in positions):
            continue
        pmf = _law(rng, den, k0, positions)
        mean = _mean(pmf)
        if (mean < 2) != (regime == "low") or mean == 2:
            continue
        if max_mean is not None and mean > max_mean:
            continue
        return pmf


def random_even_base(rng: random.Random) -> list[Fraction]:
    """Base law B of an even-lattice law 2B with 2-4 support points and
    E[2B] != 2; both regimes occur."""
    while True:
        den = rng.randint(4, 16)
        k0 = rng.randint(1, den - 1)
        points = rng.randint(2, min(4, den - k0 + 1))
        base = _law(rng, den, k0, sorted(rng.sample(range(1, points + 2), points - 1)))
        if 2 * _mean(base) != 2:
            return base


#: one geometric law of the sweep per denominator: a narrow range of bit
#: sizes, so the sweep's cost varies little between seeds
GEOMETRIC_DENOMINATORS = (7, 9, 10, 12)


def random_geometric_p(rng: random.Random, den: int) -> Fraction:
    """p = k/den in lowest terms: both regimes (E Z = (1-p)/p vs 2) occur."""
    return Fraction(rng.choice([k for k in range(1, den) if math.gcd(k, den) == 1]), den)


@dataclass(frozen=True)
class Sizes:
    solve_big: int
    solve_pmf: int
    solve_closed: int
    solve_even: int
    solve_random: int
    conj_pmf: int
    conj_geo: int
    asympt: int
    verify_n: int
    random_pmfs: int
    geometric_laws: int
    even_laws: int
    asympt_laws: int
    mc_trials: int
    mc_trials_random: int
    mc_horizon: int
    dp_horizon: int


#: full-size jobs take a second or so each, so one run repeats every job
#: many times and its fastest repetition escapes the host's slow spells
SIZES = {
    "full": Sizes(
        solve_big=400, solve_pmf=1200, solve_closed=1200, solve_even=2400, solve_random=600,
        conj_pmf=400, conj_geo=300, asympt=300, verify_n=200,
        random_pmfs=20, geometric_laws=4, even_laws=3, asympt_laws=6,
        mc_trials=40_000, mc_trials_random=20_000, mc_horizon=1000, dp_horizon=5000,
    ),
    "tiny": Sizes(
        solve_big=40, solve_pmf=40, solve_closed=40, solve_even=60, solve_random=40,
        conj_pmf=30, conj_geo=30, asympt=30, verify_n=20,
        random_pmfs=4, geometric_laws=2, even_laws=2, asympt_laws=2,
        mc_trials=2000, mc_trials_random=1000, mc_horizon=100, dp_horizon=400,
    ),
}


def jobs_for(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The job list of one workload; the same (workload, seed, size) always
    gives the same list."""
    s = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "survival":
        law = _pmf_spec(random_pmf(rng, "low", ORACLE_MAX_MEAN))
        return [
            Job(("solve", "--dist", "geometric(1/2)", "--u-max", str(s.solve_big), "--route", "all"), True),
            Job(("solve", "--dist", "pmf:2/5,1/5,1/5,1/5", "--u-max", str(s.solve_pmf), "--route", "all")),
            Job(("solve", "--dist", "bernoulli(1/3)", "--u-max", str(s.solve_closed), "--route", "closed")),
            Job(("solve", "--dist", "even:1/2,1/4,1/4", "--u-max", str(s.solve_even), "--route", "all")),
            Job(("solve", "--dist", law, "--u-max", str(s.solve_random), "--route", "all")),
        ]
    if workload == "sweep":
        # support sizes cycle through their range and the regimes alternate,
        # so every seed draws the same mix of shapes
        lo, hi = SUPPORT_POINTS
        pmfs = [
            _pmf_spec(random_pmf(rng, "low" if i % 2 == 0 else "high",
                                 points=lo + i % (hi - lo + 1)))
            for i in range(s.random_pmfs)
        ]
        geos = [f"geometric({random_geometric_p(rng, den)})"
                for den in GEOMETRIC_DENOMINATORS[: s.geometric_laws]]
        evens = [
            "even:" + ",".join(str(v) for v in random_even_base(rng))
            for _ in range(s.even_laws)
        ]
        jobs = [Job(("conjecture", "--dist", d, "--n", str(s.conj_pmf))) for d in pmfs]
        jobs += [Job(("conjecture", "--dist", d, "--n", str(s.conj_geo))) for d in geos]
        jobs += [Job(("conjecture", "--dist", d, "--n", str(s.conj_pmf))) for d in evens]
        jobs += [Job(("asympt", "--dist", d, "--n", str(s.asympt))) for d in pmfs[: s.asympt_laws]]
        # the law on which the asympt overflow was found stays in every
        # sweep, so the known failure shows on every seed until it is fixed
        jobs.append(Job(("asympt", "--dist", KNOWN_OVERFLOW_LAW, "--n", str(s.asympt))))
        jobs.append(Job(("verify", "--n", str(s.verify_n)), True))
        return jobs
    if workload == "oracle":
        law = _pmf_spec(random_pmf(rng, "low", ORACLE_MAX_MEAN))
        mc = ("--u", "0", "--horizon", str(s.mc_horizon), "--seed", str(seed))
        return [
            Job(("simulate", "--dist", "geometric(1/2)", *mc, "--trials", str(s.mc_trials)), True),
            Job(("simulate", "--dist", law, *mc, "--trials", str(s.mc_trials_random))),
            Job(("dp", "--dist", "geometric(1/2)", "--u", "0", "--horizon", str(s.dp_horizon))),
            Job(("dp", "--dist", law, "--u", "0", "--horizon", str(s.dp_horizon))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


#: the small job run once before timing, so lazy imports and caches are warm
WARMUP = Job(("solve", "--dist", "geometric(1/2)", "--u-max", "20", "--route", "all"))
