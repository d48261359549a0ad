"""Command-line front end.

Subcommands: prob, conditional, confirmations, table, simulate, curve.
``simulate --kappa`` conditions every trial on that observed kappa exactly.
Exit codes: 0 success, 1 statistical-check failure, 2 domain error
(bad input such as a non-positive grid step, an empty grid, a grid of
more than MAX_GRID_POINTS points or a kappa that is not positive and
finite, or a value the library cannot converge on), 3 I/O error.
``curve`` and every ``table`` compute all their rows before they open
--out, so an error leaves an existing file untouched.

The parser is built once per process, on the first call of ``main``,
which looks the ``cmd_*`` function of each command up in this module
when it runs, so a wrapper set there later is still reached.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import asymptotics, race, sim, specfun

__all__ = ["main", "build_parser"]

SATOSHI_KAPPAS = [round(0.1 * i, 1) for i in range(1, 36)]
SATOSHI_QS = [round(0.02 * i, 2) for i in range(1, 14)]
CONFIRMATION_QS = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
# Guard for the grids of curve and table --which custom: the most points
# one axis may have, checked before any point is built
MAX_GRID_POINTS = 1_000_000
# the q range of the z0 table's bisections, and the width they stop at
_Z0_Q_LO, _Z0_Q_HI, _Z0_Q_TOL = 0.001, 0.4999, 1e-4


def cmd_prob(args):
    split = race.HashSplit(args.q)
    if args.method == "exact":
        value = race.attacker_success_closed(split, args.z)
        how = "closed form, regularized incomplete beta"
    elif args.method == "nakamoto":
        value = race.nakamoto_probability(split, args.z)
        how = "Nakamoto approximation (Poisson at the expected time)"
    else:
        value = asymptotics.p_asymptotic(split, args.z)
        how = "leading-order asymptotic"
    print(f"{value:.7f}")
    print(f"method: {how} (q={args.q}, z={args.z})")
    return 0


def cmd_conditional(args):
    split = race.HashSplit(args.q)
    if (args.kappa is None) == (args.tau1_minutes is None):
        raise ValueError("give exactly one of --kappa or --tau1-minutes")
    net = race.NetworkParams(args.tau0_minutes)
    kappa = args.kappa
    if args.tau1_minutes is not None:
        kappa = race.kappa_from_times(net, split, args.z, args.tau1_minutes)
    value = race.conditional_probability(split, args.z, kappa)
    print(f"kappa={kappa:.4f}")
    print(f"{value:.7f} ({100.0 * value:.2f}%)")
    return 0


def cmd_confirmations(args):
    split = race.HashSplit(args.q)
    z = race.confirmations_required(split, args.risk)
    z_sn = race.confirmations_required(split, args.risk, use_nakamoto=True)
    print(f"z={z} z_SN={z_sn}")
    return 0


def _pz_table(q, z_values):
    split = race.HashSplit(q)
    return [
        [z, f"{race.attacker_success_closed(split, z):.7f}",
         f"{race.nakamoto_probability(split, z):.7f}"]
        for z in z_values
    ]


def _satoshi_table(z):
    # one array call over the kappa x q grid, which takes each Q(z, kappa z) once
    percent = 100.0 * race._conditional_over_kappa(
        SATOSHI_QS, z, np.array(SATOSHI_KAPPAS)[:, None]
    )
    return [
        [kappa, *(f"{v:.2f}" for v in cells)]
        for kappa, cells in zip(SATOSHI_KAPPAS, percent.tolist())
    ]


def _bisect(pred, lo, hi, tol):
    """Halve [lo, hi] until it is at most tol wide, keeping hi where pred holds;
    returns the final cell (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _z0_boundary(k, z0_at):
    """Smallest q at which z0_at(q), the sharp rank z0, reaches k, by bisection.

    The bisection needs z0 non-decreasing in q; that is unproven, but a scan
    of 4000 q in [0.001, 0.499] found no decrease.  It is first run on a cheap
    guide, whether rank k - 1 is bad (P_SN >= P there), and the guide's final
    cell [a, b] is kept if z0_at(a) < k <= z0_at(b) (an end of the q range
    counts as checked, as in the plain bisection).  The leaf cells of the
    halving tree partition the q range, and for a non-decreasing z0 exactly
    one of them passes that check: the one the plain bisection on z0_at ends
    in.  Where the guide is wrong, the plain bisection runs.

    Of that check only z0_at(a) < k is evaluated: for z0_at = z0_sharp and
    k <= 202 (the table's k is 2..11), k <= z0_at(b) follows from the guide.
    The bisection moves hi only to a q where the guide held, so rank k - 1
    is bad at b (b = hi is never evaluated).  A bad rank lies below
    z0_sufficient, which proves every later rank good, so z0_sharp
    classifies it; and the window of 200 good ranks from any z in
    [2, k - 1] covers rank k - 1, so z0_sharp(b) >= k.  z0_sharp decides
    with the same scalar kernels as the guide, and a rank it does not
    evaluate is classified by a certificate from a rank at or below it,
    which agrees with the guide wherever the computed logs decrease in z,
    as the tests check they do.  So one sharp rank checks each boundary.
    """
    lo, hi = _Z0_Q_LO, _Z0_Q_HI
    if z0_at(lo) >= k:
        return 0.0
    a, b = _bisect(lambda q: asymptotics._bad_rank(race.HashSplit(q), k - 1), lo, hi, _Z0_Q_TOL)
    if a == lo or z0_at(a) < k:
        return b
    return _bisect(lambda q: z0_at(q) >= k, lo, hi, _Z0_Q_TOL)[1]


def cmd_table(args):
    which = args.which
    if which in ("satoshi3", "satoshi6"):
        z = 3 if which == "satoshi3" else 6
        _write_rows(args.out, ["kappa", *SATOSHI_QS], _satoshi_table(z))
    elif which in ("pz_q01", "pz_q03"):
        q, z_values = (0.1, range(0, 11)) if which == "pz_q01" else (0.3, range(0, 51, 5))
        _write_rows(args.out, ["z", "P", "P_SN"], _pz_table(q, z_values))
    elif which == "confirmations":
        rows = []
        for q in CONFIRMATION_QS:
            split = race.HashSplit(q)
            rows.append(
                [
                    f"{q:.2f}",
                    race.confirmations_required(split, 0.001),
                    race.confirmations_required(split, 0.001, use_nakamoto=True),
                ]
            )
        _write_rows(args.out, ["q", "z", "z_sn"], rows)
    elif which == "z0":
        # the bisections for neighbouring k probe many of the same q
        z0_at = functools.cache(lambda q: asymptotics.z0_sharp(race.HashSplit(q)))
        rows = [[k, f"{_z0_boundary(k, z0_at):.3f}"] for k in range(2, 12)]
        _write_rows(args.out, ["z0", "q_min"], rows)
    else:  # custom
        qs = [round(q, 10) for q in _frange(args.q_min, args.q_max, args.q_step)]
        rows = [
            [z, *(f"{race.attacker_success_closed(race.HashSplit(q), z):.7f}" for q in qs)]
            for z in _frange(args.z_min, args.z_max, args.z_step)
        ]
        _write_rows(args.out, ["z", *qs], rows)
    return 0


def _write_rows(path, header, rows):
    """Write header and rows as CSV; no cell holds a comma, a quote or a
    newline, so none is quoted."""
    _write_lines(path, [",".join(map(str, row)) for row in (header, *rows)])


def _write_lines(path, lines):
    """Write the lines to path in one write, each ended by a newline."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _frange(start, stop, step):
    """The grid start, start + step, ... up to stop; integers stay integers."""
    if not step > 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if not start <= stop:
        raise ValueError(f"grid is empty: start {start} is above stop {stop}")
    span = (stop - start) / step
    # as a float, so an infinite span fails too; round(span) + 1 points follow
    if not span < MAX_GRID_POINTS - 0.5:
        raise ValueError(
            f"grid would have {span + 1:.0f} points, more than the {MAX_GRID_POINTS} allowed"
        )
    n = int(round(span))
    return [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-12]


def cmd_simulate(args):
    split = race.HashSplit(args.q)
    net = race.NetworkParams(race._DEFAULT_TAU0)
    config = sim.SimConfig(
        trials=args.trials,
        seed=args.seed,
        z=args.z,
        mode=args.mode,
        kappa=args.kappa,
    )
    result = sim.estimate_success(split, net, config)
    if args.kappa is not None:
        analytic = race.conditional_probability(split, args.z, args.kappa)
    else:
        analytic = race.attacker_success_closed(split, args.z)
    # the standard error under the analytic value, which a run with no
    # successes (or no failures) does not estimate as zero
    std_err = math.sqrt(analytic * (1.0 - analytic) / result.trials)
    if std_err > 0.0:
        z_score = (result.p_hat - analytic) / std_err
    else:
        z_score = 0.0 if result.p_hat == analytic else math.copysign(
            math.inf, result.p_hat - analytic
        )
    print(f"p_hat={result.p_hat:.7f}")
    print(f"std_err={result.std_err:.7f}")
    print(f"successes={result.successes} trials={result.trials}")
    print(f"analytic={analytic:.7f}")
    print(f"z_score={z_score:+.3f}")
    print(f"stream_version={sim.STREAM_VERSION}")  # names the streams that made p_hat
    return 1 if abs(z_score) > 5.0 else 0


def cmd_curve(args):
    if not 0.0 < args.kappa_min <= args.kappa_max <= 20.0:
        raise ValueError(
            f"kappa range must lie within (0, 20], got [{args.kappa_min}, {args.kappa_max}]"
        )
    kappas = _frange(args.kappa_min, args.kappa_max, args.kappa_step)
    labels = [f"{kappa:.6g}" for kappa in kappas]
    # one array call over the z x kappa grid
    grid = race._conditional_over_kappa(args.q, np.array(args.z)[:, None], kappas)
    lines = [
        f"{z},{label},{v:.7f}"
        for z, values in zip(args.z, grid.tolist())
        for label, v in zip(labels, values)
    ]
    _write_lines(args.out, ["z,kappa,probability", *lines])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="doublespend",
        description="Double-spend race probabilities: exact, Nakamoto, "
        "time-conditioned, asymptotic, and Monte-Carlo checked.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="success probability after z confirmations")
    p.add_argument("--q", type=float, required=True, help="attacker hash share")
    p.add_argument("--z", type=int, required=True, help="confirmations")
    p.add_argument(
        "--method",
        choices=["exact", "nakamoto", "asymptotic"],
        default="exact",
    )

    p = sub.add_parser(
        "conditional", help="success probability given the observed confirmation time"
    )
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--kappa", type=float, help="deviation factor")
    p.add_argument("--tau1-minutes", type=float, help="observed time for z blocks")
    p.add_argument("--tau0-minutes", type=float, default=race._DEFAULT_TAU0)

    p = sub.add_parser(
        "confirmations", help="confirmations needed to push the risk below a bound"
    )
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--risk", type=float, required=True)

    p = sub.add_parser("table", help="emit a reference table as CSV")
    p.add_argument(
        "--which",
        choices=[
            "pz_q01",
            "pz_q03",
            "confirmations",
            "z0",
            "satoshi3",
            "satoshi6",
            "custom",
        ],
        required=True,
    )
    p.add_argument("--out", required=True)
    p.add_argument("--q-min", type=float, default=0.05)
    p.add_argument("--q-max", type=float, default=0.45)
    p.add_argument("--q-step", type=float, default=0.05)
    p.add_argument("--z-min", type=int, default=1)
    p.add_argument("--z-max", type=int, default=10)
    p.add_argument("--z-step", type=int, default=1)

    p = sub.add_parser("simulate", help="Monte-Carlo check against the analytic value")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["hybrid", "full_walk"], default="hybrid")
    p.add_argument("--kappa", type=float, help="condition on this deviation factor")

    p = sub.add_parser("curve", help="P(z, kappa) series for plotting, as CSV")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--z", type=int, action="append", required=True)
    p.add_argument("--kappa-min", type=float, default=0.1)
    p.add_argument("--kappa-max", type=float, default=4.0)
    p.add_argument("--kappa-step", type=float, default=0.1)
    p.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapper set on the module is reached
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OverflowError, specfun.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
