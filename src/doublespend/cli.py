"""Command-line front end.

Subcommands: prob, conditional, confirmations, table, simulate, curve.
Exit codes: 0 success, 1 statistical-check failure, 2 domain error
(bad input such as a non-positive grid step, or a value the library
cannot converge on), 3 I/O error.  ``curve`` and every ``table`` compute
all their rows before they open --out, so an error leaves an existing
file untouched.
"""

import argparse
import csv
import functools
import math
import sys
from dataclasses import dataclass, field

from . import asymptotics, race, sim, specfun

__all__ = ["ProbTable", "main", "build_parser"]

SATOSHI_KAPPAS = [round(0.1 * i, 1) for i in range(1, 36)]
SATOSHI_QS = [round(0.02 * i, 2) for i in range(1, 14)]
CONFIRMATION_QS = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]


@dataclass
class ProbTable:
    """Rectangular probability table destined for CSV."""

    row_label: str
    col_label: str
    columns: list
    rows: list = field(default_factory=list)  # (row_key, [cells])

    def add_row(self, key, cells):
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        for v in cells:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"cell {v} outside [0, 1]")
        self.rows.append((key, list(cells)))

    def write_csv(self, path, cell_format, key_format=str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([self.row_label] + [str(c) for c in self.columns])
            for key, cells in self.rows:
                writer.writerow([key_format(key)] + [cell_format(v) for v in cells])


def _split(q):
    return race.HashSplit.from_attacker_share(q)


def cmd_prob(args):
    split = _split(args.q)
    if args.method == "exact":
        value = race.attacker_success_closed(split, args.z)
        how = "closed form, regularized incomplete beta"
    elif args.method == "sum":
        value = race.attacker_success_sum(split, args.z)
        how = "exact finite sum"
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
    split = _split(args.q)
    if (args.kappa is None) == (args.tau1_minutes is None):
        print("error: give exactly one of --kappa or --tau1-minutes", file=sys.stderr)
        return 2
    net = race.NetworkParams.for_split(split, tau0=args.tau0_minutes)
    query = race.RaceQuery(z=args.z, kappa=args.kappa, tau1=args.tau1_minutes)
    kappa = query.resolved_kappa(net, split)
    value = race.conditional_probability(split, args.z, kappa)
    print(f"kappa={kappa:.4f}")
    print(f"{value:.7f} ({100.0 * value:.2f}%)")
    return 0


def cmd_confirmations(args):
    split = _split(args.q)
    z = race.confirmations_required(split, args.risk)
    z_sn = race.confirmations_required(split, args.risk, use_nakamoto=True)
    print(f"z={z} z_SN={z_sn}")
    return 0


def _pz_table(q, z_values):
    split = _split(q)
    table = ProbTable("z", "probability", ["P", "P_SN"])
    for z in z_values:
        table.add_row(
            z,
            [race.attacker_success_closed(split, z), race.nakamoto_probability(split, z)],
        )
    return table


def _satoshi_table(z):
    table = ProbTable("kappa", "q", SATOSHI_QS)
    for kappa in SATOSHI_KAPPAS:
        table.add_row(
            kappa,
            [race.conditional_probability(_split(q), z, kappa) for q in SATOSHI_QS],
        )
    return table


def _z0_boundary(k, z0_at, lo=0.001, hi=0.4999, tol=1e-4):
    """Smallest q at which z0_at(q), the sharp rank z0, reaches k, by bisection."""
    if z0_at(lo) >= k:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if z0_at(mid) >= k:
            hi = mid
        else:
            lo = mid
    return hi


def cmd_table(args):
    which = args.which
    if which in ("satoshi3", "satoshi6"):
        z = 3 if which == "satoshi3" else 6
        _satoshi_table(z).write_csv(
            args.out, cell_format=lambda v: f"{100.0 * v:.2f}"
        )
    elif which == "pz_q01":
        _pz_table(0.1, range(0, 11)).write_csv(args.out, lambda v: f"{v:.7f}")
    elif which == "pz_q03":
        _pz_table(0.3, range(0, 51, 5)).write_csv(args.out, lambda v: f"{v:.7f}")
    elif which == "confirmations":
        rows = []
        for q in CONFIRMATION_QS:
            split = _split(q)
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
        z0_at = functools.cache(lambda q: asymptotics.z0_sharp(_split(q)))
        rows = [[k, f"{_z0_boundary(k, z0_at):.3f}"] for k in range(2, 12)]
        _write_rows(args.out, ["z0", "q_min"], rows)
    else:  # custom
        qs = [round(q, 10) for q in _frange(args.q_min, args.q_max, args.q_step)]
        table = ProbTable("z", "q", qs)
        for z in range(args.z_min, args.z_max + 1, args.z_step):
            table.add_row(z, [race.attacker_success_closed(_split(q), z) for q in qs])
        table.write_csv(args.out, lambda v: f"{v:.7f}")
    return 0


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _frange(start, stop, step):
    if not step > 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-12]


def cmd_simulate(args):
    split = _split(args.q)
    net = race.NetworkParams.for_split(split)
    config = sim.SimConfig(
        trials=args.trials,
        seed=args.seed,
        z=args.z,
        mode=args.mode,
        kappa=args.kappa,
        kappa_window=args.window,
    )
    result = sim.estimate_success(split, net, config)
    if args.kappa is not None:
        analytic = race.conditional_probability(split, args.z, args.kappa)
    else:
        analytic = race.attacker_success_closed(split, args.z)
    if result.std_err > 0.0:
        z_score = (result.p_hat - analytic) / result.std_err
    else:
        z_score = 0.0 if result.p_hat == analytic else math.inf
    print(f"p_hat={result.p_hat:.7f}")
    print(f"std_err={result.std_err:.7f}")
    print(f"successes={result.successes} trials={result.trials}")
    print(f"analytic={analytic:.7f}")
    print(f"z_score={z_score:+.3f}")
    return 1 if abs(z_score) > 5.0 else 0


def cmd_curve(args):
    if args.kappa_min <= 0.0 or args.kappa_max > 20.0 or args.kappa_min > args.kappa_max:
        print(
            f"error: kappa range must lie within (0, 20], got "
            f"[{args.kappa_min}, {args.kappa_max}]",
            file=sys.stderr,
        )
        return 2
    split = _split(args.q)
    kappas = _frange(args.kappa_min, args.kappa_max, args.kappa_step)
    rows = [
        [z, f"{kappa:.6g}", f"{race.conditional_probability(split, z, kappa):.7f}"]
        for z in args.z
        for kappa in kappas
    ]
    _write_rows(args.out, ["z", "kappa", "probability"], rows)
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
        choices=["exact", "sum", "nakamoto", "asymptotic"],
        default="exact",
    )
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser(
        "conditional", help="success probability given the observed confirmation time"
    )
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--kappa", type=float, help="deviation factor")
    p.add_argument("--tau1-minutes", type=float, help="observed time for z blocks")
    p.add_argument("--tau0-minutes", type=float, default=10.0)
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser(
        "confirmations", help="confirmations needed to push the risk below a bound"
    )
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--risk", type=float, required=True)
    p.set_defaults(func=cmd_confirmations)

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
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("simulate", help="Monte-Carlo check against the analytic value")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["hybrid", "full_walk"], default="hybrid")
    p.add_argument("--kappa", type=float, help="condition on this deviation factor")
    p.add_argument("--window", type=float, default=0.05)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curve", help="P(z, kappa) series for plotting, as CSV")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--z", type=int, action="append", required=True)
    p.add_argument("--kappa-min", type=float, default=0.1)
    p.add_argument("--kappa-max", type=float, default=4.0)
    p.add_argument("--kappa-step", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (sim.ConditioningError, specfun.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
