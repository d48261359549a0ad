"""Seeded Monte-Carlo simulator of the double-spend race.

Independent oracle for the analytic probabilities: the race up to the
z-th honest block is sampled exactly (Gamma race time, Poisson attacker
production, at the block rates p/tau0 and q/tau0 formed from the
HashSplit's q and the NetworkParams' tau0, the only value a net holds),
then the residual catch-up race is walked in runs until the attacker
erases the deficit or falls far enough behind, where one Bernoulli draw
of the exact chance from there, (q/p)^d, resolves it.  A "hybrid" walk
stops at once; a "full_walk" walk stops 100 blocks behind, or sooner, at the
first deficit where (q/p)^d is at most 2^-53, the spacing of the uniforms
that resolve it.  Conditioned on an observed kappa, the race time is fixed
at kappa z tau0/p, so only the attacker's Poisson(kappa z q/p) block count
is drawn and every trial counts.

Batches run concurrently, on up to one thread per CPU in the process's
affinity set (a cgroup CPU quota is not read); numpy's samplers and
ufuncs release the GIL while they fill a batch's arrays.  At most two
batches per thread are submitted ahead, so memory is O(n) per batch in
flight, whatever z is or how many batches a run has.

Reproducibility contract, stream version 5: batch b of a run draws from an
SFC64 stream seeded by SeedSequence(seed, spawn_key=(b,)), and per-batch
sums are added up in batch order, so results are bit-identical for a given
(seed, config) whatever the thread count.  Unconditioned runs draw one Gamma
variate per race and one geometric variate per walk round; kappa-conditioned
runs draw no Gamma variate.  A batch then draws one uniform per walk, which
resolves the walks that stopped.  Version 5 draws from SFC64
where version 4 drew from Philox, so every stream differs from v4; its
"full_walk" runs also stop at the 2^-53 deficit.  Earlier streams are not
reproduced.
"""

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .race import HashSplit, NetworkParams, _check_count, _check_positive

__all__ = [
    "SimConfig",
    "SimResult",
    "sample_race",
    "estimate_success",
    "BATCH",
    "STREAM_VERSION",
]

BATCH = 1 << 14
STREAM_VERSION = 5

# The deficit at which a "full_walk" walk stops, where the 2^-53 deficit
# does not come first (from about q = 0.41, and always at q = 1/2).
_DEFICIT_CAP = 100

# Each mode's stop for _walk; a race leaves a deficit >= 1, so hybrid takes no step
_STOPS = {"hybrid": 1, "full_walk": _DEFICIT_CAP}


def _check_mode(mode):
    if mode not in _STOPS:
        raise ValueError(f"mode must be one of {tuple(_STOPS)}, got {mode!r}")


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    z: int
    mode: str = "hybrid"
    kappa: Optional[float] = None

    def __post_init__(self):
        _check_count("trials", self.trials, 1)
        _check_count("z", self.z, 1)
        _check_mode(self.mode)
        if self.kappa is not None:
            _check_positive("kappa", self.kappa)


@dataclass(frozen=True)
class SimResult:
    successes: int
    trials: int
    p_hat: float
    std_err: float
    mean_kappa: float
    mean_attacker_blocks: float


def _batches(config):
    """Yield (n, rng) per batch of config.trials: its size and its SFC64 stream."""
    for index, done in enumerate(range(0, config.trials, BATCH)):
        ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
        yield min(BATCH, config.trials - done), np.random.Generator(np.random.SFC64(ss))


def _usable_cpus():
    """CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_batches(config, fn):
    """Yield fn(n, rng) for each batch, in batch order, on up to one thread per usable CPU.

    At most two batches per thread are submitted ahead of the one yielded,
    so what is held does not grow with the batch count.
    """
    workers = min((config.trials + BATCH - 1) // BATCH, _usable_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:  # each batch owns its stream
        pending = deque()
        for n, rng in _batches(config):
            pending.append(pool.submit(fn, n, rng))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _race(split, net, z, rng, n, kappa=None):
    """Race to the z-th honest block; returns (kappa_observed, attacker_blocks).

    Given kappa, the race time is fixed, so only the attacker blocks are drawn.
    """
    if kappa is not None:
        return np.full(n, kappa), rng.poisson(kappa * z * split.lam, size=n)
    s_z = rng.gamma(z, 1.0 / (split.p / net.tau0), size=n)  # z honest Exp(p/tau0) intervals
    return split.p * s_z / (z * net.tau0), rng.poisson(split.q / net.tau0 * s_z)


def _walk(q, deficit, deficit_cap, rng):
    """Gambler's-ruin catch-up; True where the attacker erases the deficit.

    The deficit falls by one w.p. q per step, else rises by one, until it
    reaches 0 (a win) or the stop, min(deficit_cap, C) with C the first
    deficit at which (q/p)^C <= 2^-53; a walk that starts at or beyond the
    stop, as every walk does for deficit_cap = 1, takes no step.  A round
    draws G ~ Geometric(q): G - 1 steps up, then one down.  Then one uniform
    per walk is tested against (q/p)^power, its exact chance from where it
    stopped: power is 0 after a win, else that deficit, so the walk samples
    the catch-up law exactly for any stop.  Past C that chance is below the
    uniforms' spacing of 2^-53, so walking further would change no outcome
    that a double can resolve.  At q = 1/2 there is no C and the stop is
    deficit_cap.
    """
    log_lam = math.log(q / (1.0 - q))
    stop = deficit_cap
    if log_lam < 0.0:
        stop = min(stop, math.ceil(53.0 * math.log(2.0) / -log_lam))
    power = np.maximum(deficit, stop)
    idx = np.flatnonzero(deficit < stop)
    x = deficit[idx]
    while idx.size:
        g = rng.geometric(q, size=idx.size)
        x = x + g - 2
        lost = x + (g > 1) >= stop  # after a step up, x + 1 was reached
        power[idx[~lost & (x <= 0)]] = 0
        going = ~lost & (x > 0)
        idx, x = idx[going], x[going]
    return rng.random(power.size) < np.exp(power * log_lam)


def _run_batch(split, net, z, mode, rng, n, kappa=None):
    """Simulate n races; returns (kappa_observed, attacker_blocks, success)."""
    kappa_obs, blocks = _race(split, net, z, rng, n, kappa)
    success = blocks >= z
    behind = np.nonzero(~success)[0]
    success[behind] = _walk(split.q, z - blocks[behind], _STOPS[mode], rng)
    return kappa_obs, blocks, success


def sample_race(
    split: HashSplit,
    net: NetworkParams,
    z: int,
    rng: np.random.Generator,
    mode: str = "hybrid",
):
    """Draw one race; returns (kappa_observed, attacker_blocks, success)."""
    _check_count("z", z, 1)
    _check_mode(mode)
    kappa_obs, blocks, success = _run_batch(split, net, z, mode, rng, 1)
    return float(kappa_obs[0]), int(blocks[0]), bool(success[0])


def estimate_success(
    split: HashSplit, net: NetworkParams, config: SimConfig
) -> SimResult:
    """Empirical success frequency over config.trials independent races.

    With config.kappa set, every race is conditioned on exactly that
    observed kappa and the conditional frequency is reported.
    """

    def tally(n, rng):
        kappa_obs, blocks, success = _run_batch(
            split, net, config.z, config.mode, rng, n, config.kappa
        )
        return int(success.sum()), float(kappa_obs.sum()), float(blocks.sum())

    successes = 0
    sum_kappa = 0.0
    sum_blocks = 0.0
    # added in batch order one at a time: fsum(), or sum() from Python 3.12, rounds otherwise
    for batch_successes, batch_kappa, batch_blocks in _map_batches(config, tally):
        successes += batch_successes
        sum_kappa += batch_kappa
        sum_blocks += batch_blocks
    trials = config.trials
    p_hat = successes / trials
    return SimResult(
        successes=successes,
        trials=trials,
        p_hat=p_hat,
        std_err=math.sqrt(p_hat * (1.0 - p_hat) / trials),
        mean_kappa=sum_kappa / trials,
        mean_attacker_blocks=sum_blocks / trials,
    )
