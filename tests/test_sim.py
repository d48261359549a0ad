"""Monte-Carlo oracle tests: agreement with the analytic formulas,
determinism, and exact kappa conditioning."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from doublespend import race, sim
from doublespend.race import HashSplit, NetworkParams
from doublespend.sim import SimConfig, SimResult, estimate_negbin, estimate_success, sample_race


def split(q):
    return HashSplit.from_attacker_share(q)


def net_for(q):
    return NetworkParams.for_split(split(q))


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(trials=1000, seed=0, z=6)
        assert cfg.mode == "hybrid"
        assert cfg.kappa is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0, seed=0, z=6)
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=0, z=0)
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=0, z=6, mode="analytic")
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=0, z=6, kappa=-1.0)

    @pytest.mark.parametrize("field", ["trials", "z"])
    @pytest.mark.parametrize("value", [2.5, 6.0, True, "6"])
    def test_rejects_non_integer_counts(self, field, value):
        # z = 2.5 used to run and return a probability
        kwargs = {"trials": 10, "seed": 0, "z": 6, field: value}
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            SimConfig(trials=10, seed=0, z=6, kappa=kappa)


class TestSampleRace:
    def test_even_split_always_wins(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(200):
            _, _, success = sample_race(split(0.5), net_for(0.5), 3, rng)
            assert success

    def test_even_split_always_wins_full_walk(self):
        rng = np.random.Generator(np.random.SFC64(7))
        for _ in range(200):
            _, _, success = sample_race(split(0.5), net_for(0.5), 3, rng, mode="full_walk")
            assert success

    def test_returns_sane_values(self):
        rng = np.random.Generator(np.random.Philox(11))
        kappa, blocks, success = sample_race(split(0.3), net_for(0.3), 6, rng)
        assert kappa > 0.0
        assert blocks >= 0
        assert isinstance(success, bool)

    def test_rejects_zero_confirmations(self):
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(ValueError):
            sample_race(split(0.3), net_for(0.3), 0, rng)

    @pytest.mark.parametrize(
        "mode, z", [("analytic", 100), ("hybrid", 0), ("full_walk", 0), ("full_walk", 2.5)]
    )
    def test_rejects_what_simconfig_rejects(self, mode, z):
        # mode="analytic" used to run a full walk
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=0, z=z, mode=mode)
        with pytest.raises(ValueError):
            sample_race(split(0.3), net_for(0.3), z, rng, mode=mode)


class TestEstimateSuccess:
    @pytest.mark.parametrize("q,z", [(0.1, 1), (0.3, 5), (0.1, 6)])
    def test_matches_exact_probability(self, q, z):
        s = split(q)
        result = estimate_success(
            s, net_for(q), SimConfig(trials=1_000_000, seed=2024, z=z)
        )
        exact = race.attacker_success_closed(s, z)
        assert abs(result.p_hat - exact) <= 4.0 * result.std_err

    def test_mean_kappa_and_blocks(self):
        q, z = 0.3, 6
        s = split(q)
        result = estimate_success(
            s, net_for(q), SimConfig(trials=1_000_000, seed=5, z=z)
        )
        # E[kappa] = 1, sd(kappa) = 1/sqrt(z)
        se_kappa = 1.0 / math.sqrt(z * result.trials)
        assert abs(result.mean_kappa - 1.0) <= 4.0 * se_kappa
        # E[N'] = z q / p; var = z q/p (1 + q/p) for the negative binomial
        mean_blocks = z * s.lam
        se_blocks = math.sqrt(mean_blocks * (1.0 + s.lam) / result.trials)
        assert abs(result.mean_attacker_blocks - mean_blocks) <= 4.0 * se_blocks

    def test_deterministic_given_seed(self):
        cfg = SimConfig(trials=300_000, seed=42, z=6)
        a = estimate_success(split(0.1), net_for(0.1), cfg)
        b = estimate_success(split(0.1), net_for(0.1), cfg)
        assert a == b

    def test_trial_count_does_not_shift_early_batches(self):
        # prefix property of the batched substreams: the first batch of a
        # longer run draws the same variates
        small = estimate_success(
            split(0.1), net_for(0.1), SimConfig(trials=sim.BATCH, seed=9, z=3)
        )
        large = estimate_success(
            split(0.1), net_for(0.1), SimConfig(trials=2 * sim.BATCH, seed=9, z=3)
        )
        assert small.trials == sim.BATCH
        assert large.trials == 2 * sim.BATCH

    def test_hybrid_and_full_walk_agree(self):
        q, z, trials = 0.3, 6, 1_000_000
        s = split(q)
        hybrid = estimate_success(s, net_for(q), SimConfig(trials=trials, seed=3, z=z))
        walk = estimate_success(
            s, net_for(q), SimConfig(trials=trials, seed=4, z=z, mode="full_walk")
        )
        combined_se = math.hypot(hybrid.std_err, walk.std_err)
        assert abs(hybrid.p_hat - walk.p_hat) <= 5.0 * combined_se

    def test_full_walk_near_half(self):
        # a walk that reached the deficit cap used to count as lost, a bias
        # of 1.1e-2 here, 48 standard errors at 1e5 trials
        q, z = 0.499, 6
        s = split(q)
        result = estimate_success(
            s, net_for(q), SimConfig(trials=100_000, seed=499, z=z, mode="full_walk")
        )
        exact = race.attacker_success_closed(s, z)
        assert abs(result.p_hat - exact) <= 5.0 * math.sqrt(
            exact * (1.0 - exact) / result.trials
        )

    def test_even_split_certain(self):
        result = estimate_success(
            split(0.5), net_for(0.5), SimConfig(trials=2000, seed=1, z=3)
        )
        assert result.p_hat == 1.0

    def test_coverage_across_seeds(self):
        q, z = 0.1, 6
        s = split(q)
        exact = race.attacker_success_closed(s, z)
        hits = 0
        for seed in range(100):
            r = estimate_success(s, net_for(q), SimConfig(trials=60_000, seed=seed, z=z))
            if r.std_err == 0.0:
                continue
            if abs(r.p_hat - exact) <= 3.0 * r.std_err:
                hits += 1
        assert hits >= 95

    def test_conditional_estimate(self):
        # every trial is conditioned on kappa exactly, so the estimate is
        # unbiased for P(z, kappa) itself and no trial is dropped
        q, z, kappa = 0.1, 3, 2.0
        s = split(q)
        cfg = SimConfig(trials=2_000_000, seed=77, z=z, kappa=kappa)
        result = estimate_success(s, net_for(q), cfg)
        assert result.trials == cfg.trials
        exact = race.conditional_probability(s, z, kappa)
        assert abs(result.p_hat - exact) <= 4.0 * result.std_err
        assert result.mean_kappa == pytest.approx(kappa, rel=1e-12)

    @pytest.mark.parametrize(
        "q,z,kappa,mode,trials,seed",
        [
            (0.1, 6, 1.8, "hybrid", 1_000_000, 18),
            (0.3, 6, 0.5, "hybrid", 1_000_000, 5),
            (0.3, 6, 3.0, "hybrid", 1_000_000, 30),
            (0.3, 6, 1.5, "full_walk", 200_000, 15),
        ],
    )
    def test_conditional_matches_exact(self, q, z, kappa, mode, trials, seed):
        s = split(q)
        cfg = SimConfig(trials=trials, seed=seed, z=z, mode=mode, kappa=kappa)
        result = estimate_success(s, net_for(q), cfg)
        assert result.trials == trials
        exact = race.conditional_probability(s, z, kappa)
        assert abs(result.p_hat - exact) <= 4.0 * result.std_err

    def test_far_kappa_tail_keeps_every_trial(self):
        # kappa = 6 at z = 6 has tail mass ~2e-10, so a window around it
        # kept almost no trials; exact conditioning keeps them all
        q, z, kappa = 0.1, 6, 6.0
        s = split(q)
        result = estimate_success(
            s, net_for(q), SimConfig(trials=100_000, seed=0, z=z, kappa=kappa)
        )
        assert result.trials == 100_000
        exact = race.conditional_probability(s, z, kappa)
        assert abs(result.p_hat - exact) <= 5.0 * result.std_err

    @pytest.mark.parametrize(
        "q,mode,trials,seed,expected",
        [
            (
                0.1, "hybrid", 200_000, 42,
                SimResult(successes=118, trials=200000, p_hat=0.00059,
                          std_err=5.4297877490745436e-05,
                          mean_kappa=0.9995658781895017,
                          mean_attacker_blocks=0.66733),
            ),
            (
                0.3, "full_walk", 50_000, 4,
                SimResult(successes=7826, trials=50000, p_hat=0.15652,
                          std_err=0.0016249399348899022,
                          mean_kappa=1.001316220976387,
                          mean_attacker_blocks=2.57794),
            ),
        ],
    )
    def test_unconditioned_streams_pinned(self, q, mode, trials, seed, expected):
        # the stream version 5 results, drawn from SFC64; every stream of
        # version 4 (Philox) differs
        assert sim.STREAM_VERSION == 5
        cfg = SimConfig(trials=trials, seed=seed, z=6, mode=mode)
        result = estimate_success(split(q), net_for(q), cfg)
        assert result == expected
        exact = race.attacker_success_closed(split(q), 6)
        assert abs(result.p_hat - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / trials)

    def test_kappa_conditioned_stream_pinned(self):
        # a stream version 5 kappa-conditioned result over seven batches;
        # mean_kappa pins the order in which the batch sums are added
        assert sim.STREAM_VERSION == 5
        q, z, kappa = 0.1, 6, 1.8
        cfg = SimConfig(trials=100_000, seed=18, z=z, kappa=kappa)
        result = estimate_success(split(q), net_for(q), cfg)
        assert result == SimResult(successes=255, trials=100000, p_hat=0.00255,
                                   std_err=0.0001594834630925727,
                                   mean_kappa=1.8000000000000003,
                                   mean_attacker_blocks=1.20334)
        exact = race.conditional_probability(split(q), z, kappa)
        assert abs(result.p_hat - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / cfg.trials)

    @pytest.mark.parametrize("q,stop", [(0.1, 17), (0.3, 44), (0.4, 91), (0.45, 184)])
    def test_walk_stops_where_a_uniform_cannot_see_a_win(self, q, stop):
        # the cap of 100 gives the streams of a cap at min(100, C(q))
        assert walk_stop(q) == stop
        deficit = np.arange(1, sim.BATCH + 1, dtype=np.int64) % (stop + 2) + 1
        walks = [sim._walk(q, deficit, cap, np.random.Generator(np.random.SFC64(61)))
                 for cap in (sim._DEFICIT_CAP, min(100, stop))]
        assert np.array_equal(*walks)

    def test_cap_binds_before_the_stop(self):
        # C(0.45) = 184, so a walk there stops at the cap of 100, not later
        q = 0.45
        deficit = np.full(sim.BATCH, 6, dtype=np.int64)
        walks = [sim._walk(q, deficit, cap, np.random.Generator(np.random.SFC64(62)))
                 for cap in (100, 101)]
        assert not np.array_equal(*walks)

    def test_even_split_certain_full_walk(self):
        # lam = 1 has no 2^-53 deficit; the walk stops at the cap and wins there
        result = estimate_success(
            split(0.5), net_for(0.5), SimConfig(trials=2000, seed=1, z=3, mode="full_walk")
        )
        assert result.p_hat == 1.0

    def test_hybrid_deep_race(self):
        q, z = 0.45, 539
        s = split(q)
        result = estimate_success(
            s, net_for(q), SimConfig(trials=100_000, seed=539, z=z)
        )
        exact = race.attacker_success_closed(s, z)
        assert abs(result.p_hat - exact) <= 5.0 * math.sqrt(
            exact * (1.0 - exact) / result.trials
        )

    def test_batch_memory_does_not_scale_with_z(self):
        # an (n, z) race-time matrix would need about 650 MB here
        tracemalloc.start()
        try:
            estimate_success(
                split(0.45), net_for(0.45), SimConfig(trials=sim.BATCH, seed=1, z=5000)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def force_workers(monkeypatch, cpus):
    """Make the simulator see ``cpus`` usable CPUs; returns the pool sizes it opens."""
    pools = []

    class RecordingPool(sim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(sim, "ThreadPoolExecutor", RecordingPool)
    return pools


class TestThreadedBatches:
    TRIALS = 3 * sim.BATCH + 17

    @pytest.mark.parametrize(
        "q,mode,kappa", [(0.3, "hybrid", None), (0.3, "full_walk", None), (0.1, "hybrid", 1.8)]
    )
    def test_bit_identical_to_serial(self, monkeypatch, q, mode, kappa):
        cfg = SimConfig(trials=self.TRIALS, seed=123, z=6, mode=mode, kappa=kappa)
        pools = force_workers(monkeypatch, 1)
        serial = estimate_success(split(q), net_for(q), cfg)
        pools = force_workers(monkeypatch, 4)
        threaded = estimate_success(split(q), net_for(q), cfg)
        assert pools == [4]
        assert threaded == serial

    def test_results_in_batch_order(self, monkeypatch):
        cfg = SimConfig(trials=self.TRIALS, seed=125, z=6)
        first_draws = [rng.random() for _, rng in sim._batches(cfg)]
        force_workers(monkeypatch, 4)
        assert list(sim._map_batches(cfg, lambda n, rng: rng.random())) == first_draws

    def test_negbin_bit_identical_to_serial(self, monkeypatch):
        cfg = SimConfig(trials=self.TRIALS, seed=124, z=6)
        force_workers(monkeypatch, 1)
        serial = estimate_negbin(split(0.3), 6, cfg)
        pools = force_workers(monkeypatch, 4)
        threaded = estimate_negbin(split(0.3), 6, cfg)
        assert pools == [4]
        assert np.array_equal(threaded, serial)

    def test_error_crosses_the_thread_boundary(self, monkeypatch):
        pools = force_workers(monkeypatch, 64)  # no more threads than the 3 batches
        before = threading.active_count()
        estimate_success(split(0.1), net_for(0.1), SimConfig(trials=40_000, seed=1, z=6))
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="lam value too large"):
            estimate_success(
                split(0.1), net_for(0.1), SimConfig(trials=40_000, seed=1, z=6, kappa=1e300)
            )
        assert threading.active_count() == before
        assert pools == [3, 3]

    def test_memory_per_batch_in_flight(self, monkeypatch):
        # two batches in flight at a time may hold twice one batch's arrays
        force_workers(monkeypatch, 2)
        tracemalloc.start()
        try:
            estimate_success(
                split(0.45), net_for(0.45), SimConfig(trials=4 * sim.BATCH, seed=1, z=5000)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * 2**20

    def test_memory_does_not_grow_with_batch_count(self, monkeypatch):
        # only a few batches are submitted ahead, so ten times the batches
        # hold no more futures, Generators or results at once
        monkeypatch.setattr(sim, "BATCH", 64)
        force_workers(monkeypatch, 2)
        peaks = []
        for batches in (100, 1000):
            tracemalloc.start()
            try:
                estimate_success(
                    split(0.1), net_for(0.1), SimConfig(trials=64 * batches, seed=1, z=6)
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 256 * 2**10


WALK_CAP = 5


def walk_stop(q):
    """C(q): the first deficit d at which (q/p)^d <= 2^-53, found by stepping."""
    lam, d = q / (1.0 - q), 1
    while lam**d > 2.0**-53:
        d += 1
    return d


class CountingGenerator:
    """A Generator that counts the geometric variates drawn from it."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.SFC64(seed))
        self.geometric_draws = 0

    def geometric(self, p, size):
        self.geometric_draws += size
        return self.rng.geometric(p, size=size)

    def random(self, size):
        return self.rng.random(size)


def ruin_win_probability(q, d, cap):
    """Gambler's ruin: chance the deficit hits 0 before cap, starting from d."""
    lam = q / (1.0 - q)
    return (lam**d - lam**cap) / (1.0 - lam**cap)


class TestCatchUpWalk:
    TRIALS = 200_000

    def walk(self, q, d, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        deficit = np.full(self.TRIALS, d, dtype=np.int64)
        return sim._walk(q, deficit, WALK_CAP, rng)

    @pytest.mark.parametrize("d", [1, 3, WALK_CAP - 1])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.45])
    def test_matches_gamblers_ruin(self, q, d):
        # a win before the cap, or a stop at the cap and a win of its draw there
        won = self.walk(q, d, seed=100 + d)
        lam = q / (1.0 - q)
        ruin = ruin_win_probability(q, d, WALK_CAP)
        exact = ruin + (1.0 - ruin) * lam**WALK_CAP
        assert exact == pytest.approx(lam**d, rel=1e-12)
        sigma = math.sqrt(exact * (1.0 - exact) / self.TRIALS)
        assert abs(won.mean() - exact) <= 5.0 * sigma

    @pytest.mark.parametrize("d", [WALK_CAP, WALK_CAP + 1, WALK_CAP + 2])
    def test_at_or_beyond_cap_one_draw(self, d):
        # no step is taken: the walk's only draw is its uniform against lam^d
        q = 0.45
        won = self.walk(q, d, seed=8)
        rng = np.random.Generator(np.random.Philox(8))
        uniforms = rng.random(self.TRIALS)
        lam = q / (1.0 - q)
        assert np.array_equal(won, uniforms < np.exp(d * math.log(lam)))
        sigma = math.sqrt(lam**d * (1.0 - lam**d) / self.TRIALS)
        assert abs(won.mean() - lam**d) <= 5.0 * sigma

    def test_few_rounds_at_q01(self):
        # the walk used to go on to the cap of 100: 12.8 geometric draws per walk
        rng = CountingGenerator(17)
        won = sim._walk(0.1, np.full(sim.BATCH, 6, dtype=np.int64), 100, rng)
        assert rng.geometric_draws <= 4 * won.size

    @pytest.mark.parametrize("d", [1, 3])
    def test_default_cap_matches_catch_up_law(self, d):
        q = 0.3
        rng = np.random.Generator(np.random.SFC64(300 + d))
        won = sim._walk(q, np.full(self.TRIALS, d, dtype=np.int64), 100, rng)
        exact = (q / (1.0 - q)) ** d
        assert abs(won.mean() - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / self.TRIALS)


class TestEstimateNegbin:
    def test_distribution_close_in_total_variation(self):
        q, z, trials = 0.3, 6, 400_000
        s = split(q)
        counts = estimate_negbin(s, z, SimConfig(trials=trials, seed=13, z=z))
        total = counts.sum()
        assert total == trials
        tv = 0.0
        for k in range(z + 31):
            empirical = counts[k] / total if k < counts.size else 0.0
            tv += abs(empirical - race.negbin_pmf(s, z, k))
        assert 0.5 * tv <= 5.0 / math.sqrt(trials)

    def test_rejects_config_for_another_z(self):
        # used to histogram z=6 silently for a config with z=20
        with pytest.raises(ValueError, match="z"):
            estimate_negbin(split(0.3), 6, SimConfig(trials=100, seed=13, z=20))

    def test_rejects_kappa_conditioned_config(self):
        # used to return the unconditioned law for a config with kappa=3.0
        with pytest.raises(ValueError, match="kappa"):
            estimate_negbin(split(0.3), 6, SimConfig(trials=100, seed=13, z=6, kappa=3.0))

    def test_geometric_head(self):
        counts = estimate_negbin(
            split(0.1), 1, SimConfig(trials=200_000, seed=21, z=1)
        )
        assert counts[0] / counts.sum() == pytest.approx(0.9, abs=0.005)

    def test_mode_matches_analytic(self):
        q, z = 0.3, 6
        s = split(q)
        counts = estimate_negbin(s, z, SimConfig(trials=400_000, seed=31, z=z))
        analytic_mode = max(range(z + 31), key=lambda k: race.negbin_pmf(s, z, k))
        assert int(np.argmax(counts)) == analytic_mode

    def test_empirical_mean(self):
        q, z, trials = 0.3, 6, 400_000
        s = split(q)
        counts = estimate_negbin(s, z, SimConfig(trials=trials, seed=41, z=z))
        ks = np.arange(counts.size)
        mean = float((ks * counts).sum()) / trials
        expect = z * s.lam
        se = math.sqrt(expect * (1.0 + s.lam) / trials)
        assert abs(mean - expect) <= 4.0 * se
