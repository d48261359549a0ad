"""One pass of one workload, in a fresh single-threaded interpreter.

Started by run.py as ``python worker.py <spawn time>``, with the spawn
time read from ``time.monotonic`` (a system-wide clock on Linux) just
before the process was created, and the task as JSON on stdin.  Prints
one JSON object with the pass's answers and timings on stdout.
"""

import sys
import time

import doublespend

IMPORT_S = time.monotonic() - float(sys.argv[1])

import contextlib  # noqa: E402  (after the measured import on purpose)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from doublespend import asymptotics, cli, race, sim, specfun  # noqa: E402

from calibration import SAMPLE_EVERY_S, calibrate  # noqa: E402
from tracer import TRACED_FUNCTIONS, Tracer  # noqa: E402


def install_tracer():
    tracer = Tracer(specfun.ConvergenceError)
    for prefix, names in TRACED_FUNCTIONS.items():
        module = getattr(doublespend, prefix)
        for name in names:
            setattr(module, name, tracer.wrap(f"{prefix}.{name}", getattr(module, name)))
    from_share = race.HashSplit.__dict__["from_attacker_share"].__func__
    race.HashSplit.from_attacker_share = classmethod(
        tracer.wrap("race.HashSplit.from_attacker_share", from_share))
    cli.main = tracer.wrap("cli.main", cli.main)
    cli.cmd_table = tracer.wrap(
        "cli.table", cli.cmd_table, name_of=lambda args: f"cli.table.{args.which}")
    cli.cmd_curve = tracer.wrap("cli.curve", cli.cmd_curve)
    for solver_probe in ("race.attacker_success_closed", "race.nakamoto_probability"):
        tracer.count_nested(solver_probe, "race.confirmations_required")
    tracer.count_nested("specfun.log_reg_inc_beta", "asymptotics.z0_sharp")
    return tracer


def _risk_query(query):
    split = race.HashSplit.from_attacker_share(query["q"])
    kind = query["kind"]
    if kind == "P":
        return race.attacker_success_closed(split, query["z"])
    if kind == "P_SN":
        return race.nakamoto_probability(split, query["z"])
    if kind == "P_kappa":
        return race.conditional_probability(split, query["z"], query["kappa"])
    return [race.confirmations_required(split, query["risk"]),
            race.confirmations_required(split, query["risk"], use_nakamoto=True)]


def _call(fn, arg):
    """fn(arg), or the name of what it raised."""
    try:
        return fn(arg)
    except Exception as exc:  # the benchmark records, checks and counts every failure
        return {"error": type(exc).__name__, "message": str(exc)[:200]}


def run_ops(ops):
    """Run (fn, arg) operations in order, one at a time, sampling machine
    speed between them (see calibration.py); the pass's wall time leaves
    the samples out."""
    answers, latencies = [], []
    calibration_s, calibrated_after = [calibrate()], [-1]
    sampling_s = 0.0
    start = last = time.perf_counter()
    for i, (fn, arg) in enumerate(ops):
        t0 = time.perf_counter_ns()
        answers.append(_call(fn, arg))
        latencies.append((time.perf_counter_ns() - t0) / 1e3)
        now = time.perf_counter()
        if now - last >= SAMPLE_EVERY_S or i == len(ops) - 1:
            calibration_s.append(calibrate())
            calibrated_after.append(i)
            last = time.perf_counter()
            sampling_s += last - now
    return {"wall_s": last - start - sampling_s, "answers": answers,
            "latency_us": latencies, "calibration_s": calibration_s,
            "calibrated_after": calibrated_after}


def risk_queries(task, op):
    return [(op("op." + query["kind"], _risk_query), query) for query in task["queries"]]


def _cli(argv):
    return cli.main(argv)


def _quadrature(point):
    return race.recover_p_by_quadrature(race.HashSplit.from_attacker_share(point["q"]), point["z"])


def _threshold(point):
    return asymptotics.kappa_threshold(race.HashSplit.from_attacker_share(point["q"]), point["z"])


def paper_tables(task, op):
    ops = [(op("op.cli", _cli), [*argv, "--out", os.path.join(task["out_dir"], csv_name)])
           for csv_name, argv in task["commands"]]
    for point in task["sweep"]:
        ops += [(op("op.quadrature", _quadrature), point),
                (op("op.kappa_threshold", _threshold), point)]
    return ops


def _simulate(cfg):
    split = race.HashSplit.from_attacker_share(cfg["q"])
    net = race.NetworkParams.for_split(split)
    config = sim.SimConfig(trials=cfg["trials"], seed=cfg["seed"], z=cfg["z"],
                           mode=cfg["mode"], kappa=cfg["kappa"])
    result = sim.estimate_success(split, net, config)
    return {"successes": result.successes, "trials": result.trials,
            "p_hat": result.p_hat, "std_err": result.std_err}


def monte_carlo(task, op):
    return [(op("op.estimate_success", _simulate), cfg) for cfg in task["configs"]]


WORKLOADS = {"risk_queries": risk_queries, "paper_tables": paper_tables,
             "monte_carlo": monte_carlo}


def _op_factory(tracer):
    """op(name, fn): fn itself, or fn in a root span named after the operation."""
    wrapped = {}

    def op(name, fn):
        if name not in wrapped:
            wrapped[name] = tracer.wrap(name, fn) if tracer else fn
        return wrapped[name]

    return op


def main():
    task = json.load(sys.stdin)
    if task["workload"] == "setup":  # an extra sample of the import time only
        json.dump({"import_s": IMPORT_S, "calibration_s": [calibrate()],
                   "module_file": doublespend.__file__}, sys.stdout)
        return
    tracer = install_tracer() if task["trace"] else None
    ops = WORKLOADS[task["workload"]](task, _op_factory(tracer))
    # The library prints nothing on these paths; keep stdout for the result.
    with contextlib.redirect_stdout(sys.stderr):
        result = run_ops(ops)
    import numpy
    import scipy
    result.update(
        import_s=IMPORT_S,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        module_file=doublespend.__file__,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    if tracer:
        result["trace"] = tracer.stats()
        tracer.write_spans(os.path.join(task["out_dir"], "spans.json"))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
