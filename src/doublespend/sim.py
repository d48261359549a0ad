"""Seeded Monte-Carlo simulator of the double-spend race.

Independent oracle for the analytic probabilities: the race up to the
z-th honest block is sampled exactly (Gamma race time, Poisson attacker
production), then the residual catch-up race is either resolved
analytically by one Bernoulli draw ("hybrid" mode) or walked in runs
until the attacker erases the deficit or falls deficit_cap blocks behind
("full_walk" mode).

Reproducibility contract, stream version 2: batch b of a run draws from a
Philox stream seeded by SeedSequence(seed, spawn_key=(b,)), so results are
bit-identical for a given (seed, config).  v2 draws one Gamma variate per
race and one geometric variate per walk round; v1 streams are not reproduced.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .race import HashSplit, NetworkParams

__all__ = [
    "SimConfig",
    "SimResult",
    "ConditioningError",
    "sample_race",
    "estimate_success",
    "estimate_negbin",
    "BATCH",
    "STREAM_VERSION",
]

BATCH = 1 << 14
STREAM_VERSION = 2
MIN_RETAINED = 1000

_MODES = ("hybrid", "full_walk")


class ConditioningError(RuntimeError):
    """Too few trials fell inside the kappa conditioning window."""


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    z: int
    mode: str = "hybrid"
    deficit_cap: int = 100
    kappa: Optional[float] = None
    kappa_window: float = 0.05

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.z < 1:
            raise ValueError(f"z must be >= 1, got {self.z}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.deficit_cap < 1:
            raise ValueError(f"deficit_cap must be >= 1, got {self.deficit_cap}")
        if self.kappa is not None:
            if self.kappa <= 0.0:
                raise ValueError(f"kappa must be positive, got {self.kappa}")
            if self.kappa_window <= 0.0:
                raise ValueError(
                    f"kappa_window must be positive, got {self.kappa_window}"
                )


@dataclass(frozen=True)
class SimResult:
    successes: int
    trials: int
    p_hat: float
    std_err: float
    mean_kappa: float
    mean_attacker_blocks: float


def _batches(config):
    """Yield (n, rng) per batch of config.trials: its size and its Philox stream."""
    for index, done in enumerate(range(0, config.trials, BATCH)):
        ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
        yield min(BATCH, config.trials - done), np.random.Generator(np.random.Philox(ss))


def _race(split, net, z, rng, n):
    """Race to the z-th honest block; returns (kappa_observed, attacker_blocks)."""
    s_z = rng.gamma(z, 1.0 / net.alpha, size=n)  # a sum of z Exp(alpha) times
    return split.p * s_z / (z * net.tau0), rng.poisson(net.alpha_prime * s_z)


def _walk(q, deficit, deficit_cap, rng):
    """Gambler's-ruin catch-up; True where the attacker erases the deficit.

    The deficit falls by one w.p. q per step, else rises by one; after each
    step, the first included, it is absorbed at <= 0 (win) or >= deficit_cap
    (loss).  A round draws G ~ Geometric(q): G - 1 steps up, then one down.
    """
    x, idx = deficit, np.arange(deficit.size)
    won = np.zeros(deficit.size, dtype=bool)
    while idx.size:
        g = rng.geometric(q, size=idx.size)
        x = x + g - 2
        lost = x + (g > 1) >= deficit_cap  # after a step up, x + 1 was reached
        won[idx[~lost & (x <= 0)]] = True
        going = ~lost & (x > 0)
        idx, x = idx[going], x[going]
    return won


def _run_batch(split, net, z, mode, deficit_cap, rng, n):
    """Simulate n races; returns (kappa_observed, attacker_blocks, success)."""
    kappa_obs, blocks = _race(split, net, z, rng, n)
    success = blocks >= z
    behind = np.nonzero(~success)[0]
    deficit = z - blocks[behind]
    if mode == "hybrid":
        # resolve the residual race analytically: win prob (q/p)^deficit
        u = rng.random(behind.size)
        success[behind] = u < np.exp(deficit * math.log(split.lam))
    else:
        success[behind] = _walk(split.q, deficit, deficit_cap, rng)
    return kappa_obs, blocks, success


def sample_race(
    split: HashSplit,
    net: NetworkParams,
    z: int,
    rng: np.random.Generator,
    mode: str = "hybrid",
    deficit_cap: int = 100,
):
    """Draw one race; returns (kappa_observed, attacker_blocks, success)."""
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    kappa_obs, blocks, success = _run_batch(split, net, z, mode, deficit_cap, rng, 1)
    return float(kappa_obs[0]), int(blocks[0]), bool(success[0])


def estimate_success(
    split: HashSplit, net: NetworkParams, config: SimConfig
) -> SimResult:
    """Empirical success frequency over config.trials independent races.

    With kappa conditioning set, only trials whose observed kappa lands
    within +-kappa_window of the target are retained and the conditional
    frequency is reported.
    """
    conditioning = config.kappa is not None
    successes = 0
    retained = 0
    sum_kappa = 0.0
    sum_blocks = 0.0
    for n, rng in _batches(config):
        kappa_obs, blocks, success = _run_batch(
            split, net, config.z, config.mode, config.deficit_cap, rng, n
        )
        if conditioning:
            keep = np.abs(kappa_obs - config.kappa) <= config.kappa_window
            successes += int(success[keep].sum())
            retained += int(keep.sum())
            sum_kappa += float(kappa_obs[keep].sum())
            sum_blocks += float(blocks[keep].sum())
        else:
            successes += int(success.sum())
            retained += n
            sum_kappa += float(kappa_obs.sum())
            sum_blocks += float(blocks.sum())
    if conditioning and retained < MIN_RETAINED:
        raise ConditioningError(
            f"only {retained} of {config.trials} trials fell within "
            f"|kappa - {config.kappa}| <= {config.kappa_window}; "
            f"need at least {MIN_RETAINED}"
        )
    p_hat = successes / retained
    return SimResult(
        successes=successes,
        trials=retained,
        p_hat=p_hat,
        std_err=math.sqrt(p_hat * (1.0 - p_hat) / retained),
        mean_kappa=sum_kappa / retained,
        mean_attacker_blocks=sum_blocks / retained,
    )


def estimate_negbin(split: HashSplit, z: int, config: SimConfig) -> np.ndarray:
    """Histogram of the attacker block count at the z-th honest block.

    Returns counts indexed by k, length at least z + 31; the law is
    independent of the network time scale so tau0 = 1 is used.
    """
    net = NetworkParams.for_split(split, tau0=1.0)
    counts = np.zeros(z + 31, dtype=np.int64)
    for n, rng in _batches(config):
        _, blocks = _race(split, net, z, rng, n)
        batch_counts = np.bincount(blocks, minlength=counts.size)
        if batch_counts.size > counts.size:
            counts = np.concatenate(
                [counts, np.zeros(batch_counts.size - counts.size, dtype=np.int64)]
            )
        counts[: batch_counts.size] += batch_counts
    return counts
