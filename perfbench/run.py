"""Benchmark of the doublespend library.

    python3 perfbench/run.py --workload risk_queries --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30     # every workload

Run from the root of a source checkout.  Every pass of the workload runs
in a fresh single-threaded interpreter (perfbench/worker.py) that imports
the library from ./src, with BLAS thread pools pinned to 1.  Passes
repeat until --seconds have gone by.  Afterwards every answer is checked
(perfbench/oracle.py, the golden CSVs, the simulator z-scores), and the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts operations whose answer is plainly wrong (see
oracle.py), a golden CSV that differs, or a simulator estimate more than
5 standard errors off; ``correct`` is false when ``failed`` is not 0.
Answers that pass that gate but miss the roadmap's accuracy target are
misses, not failures; their share is the per-layer metric
``accuracy.miss_share``.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1, passes alternate between untraced and traced
workers and the metrics are the per-layer ones, read from spans that
perfbench/tracer.py records around the public functions of each module.
Times are scaled to a reference machine speed measured between the
operations (perfbench/calibration.py).  The lines before the last give
every metric with its unit, the misses by kind and the provenance;
the same record, with the raw times, goes to
.bench_out/<workload>-seed<n>-trace<t>/record.json.

Workloads:
  risk_queries  a closed loop with one caller over a seeded stream of the
                scalar questions the prob, conditional and confirmations
                subcommands answer, plus fixed probes of known defects
  paper_tables  every table and a curve through cli.main, then a kappa-law
                sweep of recover_p_by_quadrature and kappa_threshold; no seed
  monte_carlo   sim.estimate_success on four configs, each stressing a
                different simulator stage; seeds derived from --seed

Self-tests: python3 perfbench/selftest.py
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import inputs
from calibration import REFERENCE_S, calibrate
from tracer import TRACED_FUNCTIONS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden")
WORKLOADS = ("risk_queries", "paper_tables", "monte_carlo")
MIN_PASSES = 3  # per kind of pass (untraced, traced)
MIN_SETUP_SAMPLES = 15
MAX_PASSES = 200
WORKER_TIMEOUT_S = 120
DEADLINE_S = 120  # no new pass starts after this much time in the run
IMPORTTIME_RUNS = 3
SINGLE_THREAD_ENV = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
)

IMPORTED = ("doublespend", "doublespend.race", "doublespend.sim", "scipy.integrate",
            "scipy.special", "numpy")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order."""
    spec = [(f"setup.{m}.cum_s", "s") for m in IMPORTED]
    for module in ("specfun", "race", "asymptotics"):
        for name in TRACED_FUNCTIONS[module]:
            spec += [(f"{module}.{name}.calls", "count"),
                     (f"{module}.{name}.total_s", "s"),
                     (f"{module}.{name}.self_s", "s")]
    spec += [
        ("specfun.errors", "count"),
        ("race.confirmations_required.probes", "count"),
        ("race.HashSplit.from_attacker_share.calls", "count"),
        ("race.HashSplit.from_attacker_share.self_s", "s"),
        ("asymptotics.z0_sharp.probes", "count"),
    ]
    spec += [(f"cli.table.{w}.s", "s") for w in inputs.TABLES]
    spec += [("cli.curve.s", "s"), ("cli.self_s", "s")]
    for cfg in inputs.MC_CONFIGS:
        spec += [(f"sim.{cfg[0]}.trials_per_s", "1/s"),
                 (f"sim.{cfg[0]}.retained_ratio", "ratio"),
                 (f"sim.{cfg[0]}.z_score", "sigma")]
    spec += [("sim.catchup_walk_s_per_trial", "s"), ("mc_s_to_1pct", "s"),
             ("accuracy.miss_share", "ratio"), ("trace.overhead_s", "s")]
    return spec


class BenchError(RuntimeError):
    """The benchmark could not run or measure; no result is printed."""


# ---------------------------------------------------------------- running

def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update(SINGLE_THREAD_ENV)
    return env


def run_worker(task, env, root):
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, repr(spawn)], input=json.dumps(task),
            capture_output=True, text=True, env=env, cwd=root, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    expected = os.path.join(root, "src", "doublespend", "__init__.py")
    if os.path.realpath(result["module_file"]) != os.path.realpath(expected):
        raise BenchError(f"imported {result['module_file']}, not {expected}")
    return result


def make_task(workload, seed, pass_index, traced, out_dir, queries):
    task = {"workload": workload, "trace": traced, "out_dir": out_dir}
    if workload == "risk_queries":
        task["queries"] = queries
    elif workload == "paper_tables":
        task["commands"] = inputs.table_commands()
        task["sweep"] = inputs.sweep_grid()
    else:
        task["configs"] = inputs.mc_pass(seed, pass_index)
    return task


def run_passes(args, root, out_root):
    env = worker_env(root)
    # untimed: compiles bytecode into the checkout and warms the file cache
    subprocess.run([sys.executable, "-c", "import doublespend"], env=env, cwd=root,
                   check=True, timeout=WORKER_TIMEOUT_S)
    queries = inputs.risk_stream(args.seed) if args.workload == "risk_queries" else None
    kinds = (False, True) if args.trace else (False,)
    passes = []
    start = time.monotonic()
    while len(passes) < MAX_PASSES:
        elapsed = time.monotonic() - start
        done = min(sum(1 for p in passes if p["traced"] == k) for k in kinds)
        if done >= MIN_PASSES and (elapsed >= args.seconds or elapsed >= DEADLINE_S):
            break
        traced = kinds[len(passes) % len(kinds)]
        out_dir = os.path.join(out_root, f"pass{len(passes)}")
        os.makedirs(out_dir)
        task = make_task(args.workload, args.seed, len(passes), traced, out_dir, queries)
        result = run_worker(task, env, root)
        result.update(traced=traced, index=len(passes), task=task)
        apply_calibration(result)
        passes.append(result)
    setups = [p for p in passes if not p["traced"]]
    while len(setups) < MIN_SETUP_SAMPLES:
        result = run_worker({"workload": "setup"}, env, root)
        result["setup_speed"] = REFERENCE_S / result["calibration_s"][0]
        setups.append(result)
    return passes, setups


def apply_calibration(result):
    """Add the speed factors of a pass (see calibration.py): ``op_speed``
    per operation, ``setup_speed`` for the import, and ``speed``, the
    ratio of the pass's calibrated to raw wall time."""
    cal, after = result["calibration_s"], result["calibrated_after"]
    op_speed = []
    for j in range(len(after) - 1):
        op_speed += [2 * REFERENCE_S / (cal[j] + cal[j + 1])] * (after[j + 1] - after[j])
    busy = sum(result["latency_us"]) / 1e6
    calibrated = sum(lat * k for lat, k in zip(result["latency_us"], op_speed)) / 1e6
    result["op_speed"] = op_speed
    result["setup_speed"] = REFERENCE_S / cal[0]
    result["speed"] = (calibrated + (result["wall_s"] - busy) * statistics.mean(op_speed)) \
        / result["wall_s"]


def import_times(root):
    """Median cumulative import time per module from python -X importtime,
    calibrated like the workers' times."""
    env = worker_env(root)
    samples = {m: [] for m in IMPORTED}
    for _ in range(IMPORTTIME_RUNS):
        speed = REFERENCE_S / calibrate()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import doublespend"],
                              env=env, cwd=root, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1e6 * speed)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


# --------------------------------------------------------------- checking

def tally(checks):
    """Ledger by kind of operation from (kind, accurate, sane, detail):
    attempted, ``failed`` (not sane) and ``missed`` (not accurate), with
    the reasons for the misses."""
    ledger = {}
    for key, accurate, sane, detail in checks:
        row = ledger.setdefault(key, {"attempted": 0, "failed": 0, "missed": 0, "why": {}})
        row["attempted"] += 1
        row["failed"] += not sane
        if not accurate:
            row["missed"] += 1
            why = detail or "inaccurate"
            row["why"][why] = row["why"].get(why, 0) + 1
    return ledger


def check_risk_queries(passes):
    import oracle

    for p in passes:
        for query, answer in zip(p["task"]["queries"], p["answers"]):
            yield (query.get("probe", query["kind"]), *oracle.check_risk_answer(query, answer))


def _same_bytes(path, golden):
    with open(path, "rb") as a, open(golden, "rb") as b:
        return a.read() == b.read()


def check_paper_tables(passes):
    import oracle

    for p in passes:
        task = p["task"]
        for (csv_name, _), rc in zip(task["commands"], p["answers"]):
            path = os.path.join(task["out_dir"], csv_name)
            ok = rc == 0 and os.path.exists(path) and _same_bytes(
                path, os.path.join(GOLDEN, csv_name))
            if os.path.exists(path):
                os.remove(path)
            yield csv_name, ok, ok, None if ok else "differs from golden"
        sweep_answers = p["answers"][len(task["commands"]):]
        for i, point in enumerate(task["sweep"]):
            q, z = point["q"], point["z"]
            quad = oracle.check_quadrature(sweep_answers[2 * i], q, z)
            thr = oracle.check_threshold(sweep_answers[2 * i + 1], q, z)
            yield "recover_p_by_quadrature", *quad, f"q={q} z={z}"
            yield "kappa_threshold", *thr, f"q={q} z={z}"


def mc_reference(cfg):
    import oracle

    if cfg["kappa"] is None:
        return float(oracle.p_exact(cfg["q"], cfg["z"]))
    return float(oracle.p_conditional(cfg["q"], cfg["z"], cfg["kappa"]))


def z_score(p_hat, std_err, ref):
    if std_err > 0.0:
        return (p_hat - ref) / std_err
    return 0.0 if p_hat == ref else math.inf


def check_monte_carlo(passes):
    for p in passes:
        for cfg, answer in zip(p["task"]["configs"], p["answers"]):
            if "error" in answer:
                ok, why = False, answer["error"]
            else:
                zs = z_score(answer["p_hat"], answer["std_err"], mc_reference(cfg))
                ok, why = abs(zs) <= 5.0, f"|z|={abs(zs):.2f} > 5"
            yield cfg["name"], ok, ok, why


CHECKS = {"risk_queries": check_risk_queries, "paper_tables": check_paper_tables,
          "monte_carlo": check_monte_carlo}


# ---------------------------------------------------------------- metrics

def end_to_end(untraced, setups, calibrated=True):
    """The end-to-end metrics over the untraced passes.

    Every pass issues the same operations, so the latency of an operation
    is its median over the passes; p50 and p99 (nearest rank) are taken
    over the operations.  The sample count is operations times passes.
    The import time is the median over the passes and the extra
    import-only workers in ``setups``.
    """
    def speed(p, key):
        return p[key] if calibrated else (1.0 if key != "op_speed" else [1.0] * len(p[key]))

    per_op = sorted(statistics.median(op) for op in zip(
        *([lat * k for lat, k in zip(p["latency_us"], speed(p, "op_speed"))] for p in untraced)))
    samples = len(per_op) * len(untraced)
    return {
        "setup_s": statistics.median(p["import_s"] * speed(p, "setup_speed") for p in setups),
        "wall_s": statistics.median(p["wall_s"] * speed(p, "speed") for p in untraced),
        "latency_p50_us": statistics.median(per_op),
        "latency_p99_us": per_op[math.ceil(0.99 * len(per_op)) - 1],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }, samples


def mc_stats(untraced):
    """Per config, pooled over the untraced passes: the projected seconds to
    a 1% relative standard error, the z-score, and throughput per pass."""
    stats = {}
    untraced = [p for p in untraced if p["task"]["workload"] == "monte_carlo"]
    for cfg in inputs.MC_CONFIGS:
        name = cfg[0]
        rows = [(c, a, lat / 1e6 * k) for p in untraced
                for c, a, lat, k in zip(p["task"]["configs"], p["answers"], p["latency_us"],
                                        p["op_speed"])
                if c["name"] == name and "error" not in a]
        if not rows:
            continue
        wall = sum(r[2] for r in rows)
        successes = sum(r[1]["successes"] for r in rows)
        retained = sum(r[1]["trials"] for r in rows)
        requested = sum(r[0]["trials"] for r in rows)
        p_hat = successes / retained
        std_err = math.sqrt(p_hat * (1.0 - p_hat) / retained)
        s_to_1pct = wall * (std_err / (0.01 * p_hat)) ** 2 if p_hat > 0 else math.inf
        stats[name] = {
            "s_to_1pct": s_to_1pct,
            "z_score": z_score(p_hat, std_err, mc_reference(rows[0][0])),
            "trials_per_s": statistics.median(r[0]["trials"] / r[2] for r in rows),
            "s_per_trial": statistics.median(r[2] / r[0]["trials"] for r in rows),
            "retained_ratio": retained / requested,
            "p_hat": p_hat, "std_err": std_err, "retained": retained, "wall_s": wall,
        }
    return stats


def per_layer(untraced, traced, imports, miss_share):
    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    fns = [p["trace"]["functions"] for p in traced]
    speeds = [p["speed"] for p in traced]

    def fn_stat(name, key):
        timed = key != "calls"
        return med(f.get(name, {}).get(key, 0) * (k if timed else 1)
                   for f, k in zip(fns, speeds))

    def nested(child, ancestor):
        return [sum(n for c, a, n in p["trace"]["nested"] if c == child and a == ancestor)
                for p in traced]

    def per_call(counts, ancestor):
        calls = [f.get(ancestor, {}).get("calls", 0) for f in fns]
        return med(n / c if c else 0.0 for n, c in zip(counts, calls))

    m = {f"setup.{mod}.cum_s": imports[mod] for mod in IMPORTED}
    for module in ("specfun", "race", "asymptotics"):
        for name in TRACED_FUNCTIONS[module]:
            for key in ("calls", "total_s", "self_s"):
                m[f"{module}.{name}.{key}"] = fn_stat(f"{module}.{name}", key)
    m["specfun.errors"] = med(
        sum(s["escaped_errors"] for n, s in f.items() if n.startswith("specfun.")) for f in fns)
    solves = [a + b for a, b in zip(
        nested("race.attacker_success_closed", "race.confirmations_required"),
        nested("race.nakamoto_probability", "race.confirmations_required"))]
    m["race.confirmations_required.probes"] = per_call(solves, "race.confirmations_required")
    for key in ("calls", "self_s"):
        m[f"race.HashSplit.from_attacker_share.{key}"] = fn_stat(
            "race.HashSplit.from_attacker_share", key)
    m["asymptotics.z0_sharp.probes"] = per_call(
        nested("specfun.log_reg_inc_beta", "asymptotics.z0_sharp"), "asymptotics.z0_sharp")
    for w in inputs.TABLES:
        m[f"cli.table.{w}.s"] = fn_stat(f"cli.table.{w}", "total_s")
    m["cli.curve.s"] = fn_stat("cli.curve", "total_s")
    m["cli.self_s"] = med(k * sum(s["self_s"] for n, s in f.items() if n.startswith("cli."))
                          for f, k in zip(fns, speeds))
    mc = mc_stats(untraced)
    for cfg in inputs.MC_CONFIGS:
        s = mc.get(cfg[0], {})
        for key in ("trials_per_s", "retained_ratio", "z_score"):
            m[f"sim.{cfg[0]}.{key}"] = s.get(key, 0.0)
    walk, hybrid = mc.get("full_walk_q01_z6"), mc.get("hybrid_q01_z6")
    m["sim.catchup_walk_s_per_trial"] = (
        walk["s_per_trial"] - hybrid["s_per_trial"] if walk and hybrid else 0.0)
    m["mc_s_to_1pct"] = sum(s["s_to_1pct"] for s in mc.values())
    m["accuracy.miss_share"] = miss_share
    m["trace.overhead_s"] = (statistics.median(p["wall_s"] * p["speed"] for p in traced)
                             - statistics.median(p["wall_s"] * p["speed"] for p in untraced))
    return m


# ------------------------------------------------------------- provenance

def provenance(args, root, passes):
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "doublespend")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "machine": platform.machine(), **passes[0]["versions"],
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "blas_threads": SINGLE_THREAD_ENV, "passes": len(passes),
        "passes_traced": sum(p["traced"] for p in passes),
    }


# ------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "doublespend", "__init__.py")):
        print(f"error: no src/doublespend under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args, root)
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        one = argparse.Namespace(**{**vars(args), "workload": workload})
        status = max(status, run_workload(one, root))
    return status


def run_workload(args, root):
    out_root = os.path.join(root, ".bench_out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    try:
        passes, setups = run_passes(args, root, out_root)
        imports = import_times(root) if args.trace else None
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ledger = tally(CHECKS[args.workload](passes))
    attempted = sum(r["attempted"] for r in ledger.values())
    failed = sum(r["failed"] for r in ledger.values())
    missed = sum(r["missed"] for r in ledger.values())
    sane = failed == 0
    untraced = [p for p in passes if not p["traced"]]
    e2e, samples = end_to_end(untraced, setups)
    record = {
        "provenance": provenance(args, root, passes),
        "correct": sane, "attempted": attempted, "failed": failed,
        "accuracy_miss_share": missed / attempted,
        "checks_by_kind": ledger,
        "end_to_end": e2e, "end_to_end_uncalibrated": end_to_end(untraced, setups, False)[0],
        "latency_samples": samples, "reference_s": REFERENCE_S,
        "passes": [{k: p[k] for k in ("traced", "import_s", "wall_s", "setup_speed", "speed",
                                      "calibration_s", "calibrated_after", "peak_rss_mb")}
                   for p in passes],
        "setup_samples_s": [p["import_s"] for p in setups],
    }
    if args.workload == "monte_carlo":
        record["monte_carlo"] = mc_stats(untraced)
        record["mc_s_to_1pct"] = sum(s["s_to_1pct"] for s in record["monte_carlo"].values())
    if args.trace:
        record["per_layer"] = per_layer(untraced, [p for p in passes if p["traced"]], imports,
                                        record["accuracy_miss_share"])
    with open(os.path.join(out_root, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"provenance: {json.dumps(record['provenance'])}")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"latency_samples = {samples}")
    print(f"failed = {failed} of {attempted}")
    print(f"accuracy.miss_share = {record['accuracy_miss_share']:.6g} ratio"
          f" ({missed} of {attempted})")
    for key, row in sorted(ledger.items()):
        if row["missed"]:
            why = ", ".join(f"{w}: {n}" for w, n in sorted(row["why"].items()))
            print(f"  {key}: {row['missed']} of {row['attempted']} ({why})")
    if "mc_s_to_1pct" in record and not args.trace:
        print(f"mc_s_to_1pct = {record['mc_s_to_1pct']:.6g} s")
    if args.trace:
        for name, unit in per_layer_spec():
            print(f"{name} = {record['per_layer'][name]:.6g} {unit}")
        metrics = {n: {"value": record["per_layer"][n], "unit": u} for n, u in per_layer_spec()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": sane, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
