"""Workload inputs, generated from the workload seed alone.

The benchmark generates every input here and hands the worker only the
result, so the program under test never sees the seed.
"""

import hashlib
import random

RISK_QUERIES_PER_PASS = 3000

# Share of each query kind in the risk_queries stream.
RISK_MIX = (("P", 0.45), ("P_SN", 0.15), ("P_kappa", 0.30), ("z_req", 0.10))
Q_STRATA = 20  # divides the solver queries' count, 300

# The random stream stops at risk 1e-12 and z = 10^4 on purpose: below
# risk 1e-15 the Nakamoto solver at q >= 0.4 runs away to z_SN ~ 2e5 at
# about 3 s per call, and at z = 10^6 one P_SN call costs 0.55 s, so a
# few such queries would be the whole wall time.  The fixed probes below
# reach those edges once per pass instead.
PROBES = (
    # Nakamoto solver bisecting over a cancelled, non-monotone P_SN:
    # returns z_SN = 81, the true value is 61.
    {"kind": "z_req", "q": 0.2, "risk": 1e-17, "probe": "z_req_q0.2_risk1e-17"},
    # incomplete-gamma series hits its iteration cap (ConvergenceError)
    {"kind": "P_kappa", "q": 0.1, "z": 10**6, "kappa": 1.0, "probe": "P_kappa_z1e6"},
    # exact probability at the documented domain edge z = 10^6
    {"kind": "P", "q": 0.49, "z": 10**6, "probe": "P_z1e6"},
)


def _strata(rng, n):
    """n uniforms on [0, 1), one per stratum [i/n, (i+1)/n), in random order.

    Stratified (Latin hypercube) draws keep the cost mix of a pass, which
    is dominated by the few largest z, nearly the same from seed to seed.
    """
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _log_uniform(u, lo_exp, hi_exp):
    return 10.0 ** (lo_exp + (hi_exp - lo_exp) * u)


def risk_stream(seed, n=RISK_QUERIES_PER_PASS):
    """The seeded risk_queries stream: n random queries, then the probes."""
    rng = random.Random(seed)
    queries = []
    for kind, share in RISK_MIX:
        k = round(n * share)
        if kind == "z_req":
            # A solve's cost depends on q and risk jointly (z_SN runs to
            # thousands only at high q and low risk), so these are
            # stratified on a Q_STRATA x (k / Q_STRATA) grid of cells.
            cells = [(i, j) for i in range(Q_STRATA) for j in range(k // Q_STRATA)]
            queries += [
                {"kind": kind, "q": 0.01 + 0.44 * (i + rng.random()) / Q_STRATA,
                 "risk": _log_uniform((j + rng.random()) * Q_STRATA / k, -12, -2)}
                for i, j in cells
            ]
            continue
        qs = [0.01 + 0.48 * u for u in _strata(rng, k)]
        zs = [min(10**4, int(_log_uniform(u, 0, 4))) for u in _strata(rng, k)]
        if kind == "P_kappa":
            kappas = [_log_uniform(u, -1, 1) for u in _strata(rng, k)]
            queries += [
                {"kind": kind, "q": q, "z": z, "kappa": kp}
                for q, z, kp in zip(qs, zs, kappas)
            ]
        else:
            queries += [{"kind": kind, "q": q, "z": z} for q, z in zip(qs, zs)]
    rng.shuffle(queries)
    return queries + [dict(p) for p in PROBES]


# (name, q, z, trials, mode, kappa); each puts a different simulator
# stage on the critical path: draws, the per-step catch-up walk,
# rejection into the kappa window, and the (n, z) race-time matrix.
MC_CONFIGS = (
    ("hybrid_q01_z6", 0.1, 6, 1_000_000, "hybrid", None),
    ("full_walk_q01_z6", 0.1, 6, 200_000, "full_walk", None),
    ("kappa_q01_z6", 0.1, 6, 1_000_000, "hybrid", 1.8),
    ("hybrid_q045_z539", 0.45, 539, 100_000, "hybrid", None),
)


def mc_seed(seed, pass_index, config_name):
    """Simulator seed of one config in one pass, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{pass_index}:{config_name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def mc_pass(seed, pass_index):
    return [
        {"name": name, "q": q, "z": z, "trials": trials, "mode": mode,
         "kappa": kappa, "seed": mc_seed(seed, pass_index, name)}
        for name, q, z, trials, mode, kappa in MC_CONFIGS
    ]


# paper_tables takes no seed: the published tables are fixed.
TABLES = ("pz_q01", "pz_q03", "confirmations", "z0", "satoshi3", "satoshi6", "custom")
CURVE_ARGS = ("--q", "0.1", "--z", "6", "--z", "12", "--z", "24", "--kappa-step", "0.01")
SWEEP_QS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45)
SWEEP_ZS = (2, 6, 24, 100, 500, 2000)


def table_commands():
    """(csv name, cli argv without --out) for every table the workload regenerates."""
    cmds = [(f"table_{w}.csv", ["table", "--which", w]) for w in TABLES]
    cmds.append(("curve_q0.1.csv", ["curve", *CURVE_ARGS]))
    return cmds


def sweep_grid():
    return [{"q": q, "z": z} for q in SWEEP_QS for z in SWEEP_ZS]
