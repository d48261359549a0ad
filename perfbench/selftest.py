"""Self-tests of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

They check that the seeded inputs are reproducible, that the oracle
agrees with the library where the library is known to be accurate (so an
oracle bug cannot pass for a library failure), that the golden CSVs
regenerate byte for byte, and that BENCHMARK.json names exactly the
metrics run.py reports.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath as mp  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def _stream_digest_in_fresh_interpreter(seed):
    code = ("import hashlib, json, inputs; "
            f"print(hashlib.sha256(json.dumps(inputs.risk_stream({seed})).encode()).hexdigest())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, check=True, timeout=60)
    return proc.stdout.strip()


def test_stream_is_bit_identical_for_a_seed():
    assert _stream_digest_in_fresh_interpreter(7) == _stream_digest_in_fresh_interpreter(7)
    assert inputs.risk_stream(7) == inputs.risk_stream(7)
    assert inputs.risk_stream(7) != inputs.risk_stream(8)
    assert inputs.mc_pass(7, 3) == inputs.mc_pass(7, 3)
    assert inputs.mc_pass(7, 3) != inputs.mc_pass(7, 4)


def test_stream_mix_and_domain():
    stream = inputs.risk_stream(1)
    random_part = stream[:inputs.RISK_QUERIES_PER_PASS]
    assert stream[inputs.RISK_QUERIES_PER_PASS:] == [dict(p) for p in inputs.PROBES]
    for kind, share in inputs.RISK_MIX:
        count = sum(1 for query in random_part if query["kind"] == kind)
        assert count == round(share * inputs.RISK_QUERIES_PER_PASS), kind
    for query in random_part:
        if query["kind"] == "z_req":
            assert 0.01 <= query["q"] <= 0.45 and 1e-12 <= query["risk"] <= 1e-2
            continue
        assert 0.01 <= query["q"] <= 0.49 and 1 <= query["z"] <= 10**4
        if query["kind"] == "P_kappa":
            assert 0.1 <= query["kappa"] <= 10.0


def _rel(value, ref):
    return abs(mp.mpf(value) - ref) / ref


def test_oracle_agrees_with_library_at_easy_points():
    """z <= 10, kappa near 1, values >= 1e-2.  Below 1e-2 the library's
    P_SN loses digits to cancellation; 1e-13 because its reg_inc_beta is
    itself 1.8e-14 off at q=0.3, z=6."""
    from doublespend import race

    checked = 0
    for q in (0.05, 0.1, 0.2, 0.3, 0.4, 0.45):
        split = race.HashSplit.from_attacker_share(q)
        for z in range(1, 11):
            pairs = [(race.attacker_success_closed(split, z), oracle.p_exact(q, z)),
                     (race.nakamoto_probability(split, z), oracle.p_nakamoto(q, z))]
            pairs += [(race.conditional_probability(split, z, kappa),
                       oracle.p_conditional(q, z, kappa)) for kappa in (0.9, 1.0, 1.1)]
            for value, ref in pairs:
                if ref >= 1e-2:
                    assert _rel(value, ref) < 1e-13, (q, z, value)
                    checked += 1
    assert checked > 100


def test_oracle_formulas_agree_with_their_definitions():
    """Closed forms against the defining sums, at 60 digits."""
    with mp.workdps(60):
        for q in (0.1, 0.3, 0.45):
            qm = mp.mpf(q)
            pm, lam = 1 - qm, qm / (1 - qm)
            for z in (1, 6, 40):
                negbin = [pm**z * qm**k * mp.binomial(k + z - 1, k) for k in range(z)]
                exact = 1 - sum(nb * (1 - lam ** (z - k)) for k, nb in enumerate(negbin))
                assert abs(oracle.p_exact(q, z) / exact - 1) < mp.mpf("1e-35")
                beta = mp.betainc(z, 0.5, 0, 4 * pm * qm, regularized=True)
                assert abs(beta / exact - 1) < mp.mpf("1e-35")
                pois = [mp.exp(-z * lam) * (z * lam) ** k / mp.factorial(k) for k in range(z)]
                nakamoto = 1 - sum(pk * (1 - lam ** (z - k)) for k, pk in enumerate(pois))
                assert abs(oracle.p_nakamoto(q, z) / nakamoto - 1) < mp.mpf("1e-35")


def test_threshold_oracle_at_z2():
    # kappa(2) = 1/(2q) - 1 exactly
    for q in (0.1, 0.25, 0.4):
        kappa = 1 / (2 * mp.mpf(q)) - 1
        assert oracle.check_threshold(float(kappa), q, 2) == (True, True)


def test_golden_csvs_regenerate_identically():
    out_dir = os.path.join(ROOT, ".bench_out", "selftest-golden")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    task = run.make_task("paper_tables", 0, 0, False, out_dir, None)
    result = run.run_worker(task, run.worker_env(ROOT), ROOT)
    commands = inputs.table_commands()
    assert result["answers"][:len(commands)] == [0] * len(commands)
    for csv_name, _ in commands:
        with open(os.path.join(out_dir, csv_name), "rb") as a, \
                open(os.path.join(run.GOLDEN, csv_name), "rb") as b:
            assert a.read() == b.read(), csv_name
    shutil.rmtree(out_dir)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit non-zero
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
