"""End-to-end command-line tests via main(argv)."""

import contextlib
import csv
import functools
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublespend import asymptotics, cli, race, sim, specfun
from doublespend.cli import main

from oracles import asymptotics_mp
from reference_tables import (
    KAPPA_ROWS,
    Q_COLS,
    SATOSHI3_PERCENT,
    SATOSHI6_PERCENT,
    z0_boundary_bisect,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestProb:
    def test_exact(self, capsys):
        assert main(["prob", "--q", "0.1", "--z", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0.0005914")
        assert "method:" in out

    def test_nakamoto(self, capsys):
        assert main(["prob", "--q", "0.1", "--z", "6", "--method", "nakamoto"]) == 0
        assert capsys.readouterr().out.startswith("0.0002428")

    def test_zero_confirmations(self, capsys):
        assert main(["prob", "--q", "0.1", "--z", "0"]) == 0
        assert capsys.readouterr().out.startswith("1.0000000")

    def test_rejects_bad_share(self, capsys):
        assert main(["prob", "--q", "0.7", "--z", "6"]) == 2
        err = capsys.readouterr().err
        assert "q" in err

    def test_rejects_bad_share_from_a_cold_interpreter(self):
        # through python -m and the __main__ guard, as a user runs it:
        # one error line and no traceback
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "doublespend.cli", "prob", "--q", "0.7", "--z", "6"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stdout + out.stderr
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr

    def test_asymptotic_where_s_rounds_to_one(self, capsys):
        # 4pq rounds to 1 here: ln s was ln 1 = 0 and 1 - s was 0, and the
        # command used to exit 2 with "math domain error"
        q = 0.499999999999
        assert race.HashSplit(q).s == 1.0
        assert main(["prob", "--q", repr(q), "--z", "10", "--method", "asymptotic"]) == 0
        got = float(capsys.readouterr().out.split()[0])
        ref = asymptotics_mp(q, 10)["p_asymptotic"]
        assert abs(got - ref) <= 1e-14 * ref

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.one_of(
            # 1/2 - q log-uniform in [1e-15, 1/2), and q log-uniform in [1e-300, 0.1]
            st.floats(math.log(1e-15), math.log(0.5), exclude_max=True)
            .map(lambda e: 0.5 - math.exp(e))
            .filter(lambda q: q > 0.0),
            st.floats(math.log(1e-300), math.log(0.1)).map(math.exp),
        ),
        method=st.sampled_from(["exact", "nakamoto", "asymptotic"]),
        log_z=st.floats(0.0, 1.0),
    )
    def test_prints_a_finite_value_for_every_q_below_half(self, q, method, log_z):
        # z log-uniform up to 10^6; up to 10^4 for nakamoto, whose call takes
        # about 0.5 s at 10^6
        z = int(10.0 ** (log_z * (4 if method == "nakamoto" else 6)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["prob", "--q", repr(q), "--z", str(z), "--method", method])
        assert code == 0, (q, z, method)
        assert math.isfinite(float(out.getvalue().split()[0]))


class TestConditional:
    def test_kappa_given(self, capsys):
        assert main(["conditional", "--q", "0.1", "--z", "3", "--kappa", "1"]) == 0
        out = capsys.readouterr().out
        assert "kappa=1.0000" in out
        assert "(1.32%)" in out

    def test_tau1_given(self, capsys):
        code = main(
            ["conditional", "--q", "0.1", "--z", "6",
             "--tau1-minutes", "66.6666666667", "--tau0-minutes", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kappa=1.0000" in out
        assert "0.0002428" in out

    def test_convergence_failure_is_domain_error(self, capsys, monkeypatch):
        def no_convergence(*args):
            raise specfun.ConvergenceError("series did not converge")

        monkeypatch.setattr(race, "conditional_probability", no_convergence)
        code = main(["conditional", "--q", "0.1", "--z", "6", "--kappa", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_million_confirmations(self, capsys):
        code = main(["conditional", "--q", "0.1", "--z", "1000000", "--kappa", "1"])
        assert code == 0
        assert "0.0000000 (0.00%)" in capsys.readouterr().out

    def test_non_finite_kappa_is_domain_error(self, capsys):
        code = main(["conditional", "--q", "0.1", "--z", "6", "--kappa", "inf"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the largest finite kappas are in the domain, though kappa z overflows
        assert main(["conditional", "--q", "0.3", "--z", "10", "--kappa", "1.7e308"]) == 0
        assert "1.0000000 (100.00%)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra", [["--z", "6", "--kappa", "0"], ["--z", "6", "--tau1-minutes", "0"],
                  ["--z", "0", "--kappa", "1"]]
    )
    def test_non_positive_input_is_domain_error(self, capsys, extra):
        assert main(["conditional", "--q", "0.1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_kappa_where_kappa_z_lam_underflows(self, capsys):
        # kappa z q/p underflows to 0, where ln P(z, 0) used to be rejected
        # and the command exited 2
        assert main(["conditional", "--q", "0.1", "--z", "1", "--kappa", "5e-324"]) == 0
        assert "0.1111111 (11.11%)" in capsys.readouterr().out

    def test_published_high_kappa_cell(self, capsys):
        assert main(["conditional", "--q", "0.26", "--z", "6", "--kappa", "3.5"]) == 0
        assert "(79.66%)" in capsys.readouterr().out

    def test_requires_exactly_one_time_input(self, capsys):
        line = "error: give exactly one of --kappa or --tau1-minutes\n"
        assert main(["conditional", "--q", "0.1", "--z", "3"]) == 2
        assert capsys.readouterr().err == line
        assert (
            main(
                ["conditional", "--q", "0.1", "--z", "3",
                 "--kappa", "1", "--tau1-minutes", "60"]
            )
            == 2
        )
        assert capsys.readouterr().err == line


class TestConfirmations:
    def test_low_share(self, capsys):
        assert main(["confirmations", "--q", "0.10", "--risk", "0.001"]) == 0
        assert capsys.readouterr().out.strip() == "z=6 z_SN=5"

    def test_mid_share(self, capsys):
        assert main(["confirmations", "--q", "0.30", "--risk", "0.001"]) == 0
        assert capsys.readouterr().out.strip() == "z=32 z_SN=24"

    def test_deep_risk_nakamoto_count(self, capsys):
        assert main(["confirmations", "--q", "0.2", "--risk", "1e-17"]) == 0
        assert capsys.readouterr().out.strip().endswith(" z_SN=61")

    def test_rejects_bad_risk(self, capsys):
        assert main(["confirmations", "--q", "0.1", "--risk", "2"]) == 2


class TestTable:
    def test_satoshi3_reproduces_published_cells(self, tmp_path):
        out = tmp_path / "s3.csv"
        assert main(["table", "--which", "satoshi3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["kappa"] + [str(q) for q in Q_COLS]
        assert len(rows) == 36
        for i, row in enumerate(rows[1:]):
            assert float(row[0]) == KAPPA_ROWS[i]
            for j, cell in enumerate(row[1:]):
                assert abs(float(cell) - SATOSHI3_PERCENT[i][j]) <= 0.005 + 1e-9

    def test_satoshi6_reproduces_published_cells(self, tmp_path):
        out = tmp_path / "s6.csv"
        assert main(["table", "--which", "satoshi6", "--out", str(out)]) == 0
        rows = read_csv(out)
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row[1:]):
                assert abs(float(cell) - SATOSHI6_PERCENT[i][j]) <= 0.005 + 1e-9
        # spot cells called out in the published tables
        assert rows[1][1] == "0.00"  # kappa=0.1, q=0.02
        k2 = KAPPA_ROWS.index(2.0) + 1
        assert rows[k2][-1] == "34.14"  # kappa=2, q=0.26

    def test_pz_q01(self, tmp_path):
        out = tmp_path / "pz.csv"
        assert main(["table", "--which", "pz_q01", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["z", "P", "P_SN"]
        assert rows[1] == ["0", "1.0000000", "1.0000000"]
        assert rows[7][1] == "0.0005914"
        assert rows[7][2] == "0.0002428"

    def test_confirmations_table(self, tmp_path):
        out = tmp_path / "conf.csv"
        assert main(["table", "--which", "confirmations", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["q", "z", "z_sn"]
        got = {r[0]: (int(r[1]), int(r[2])) for r in rows[1:]}
        assert got["0.10"] == (6, 5)
        assert got["0.45"] == (539, 340)

    def test_z0_table(self, tmp_path):
        out = tmp_path / "z0.csv"
        assert main(["table", "--which", "z0", "--out", str(out)]) == 0
        rows = read_csv(out)
        published = [0.000, 0.232, 0.305, 0.342, 0.365,
                     0.381, 0.393, 0.401, 0.409, 0.415]
        assert len(rows) == 11
        for row, expected in zip(rows[1:], published):
            assert abs(float(row[1]) - expected) <= 0.001 + 1e-9

    def test_z0_boundary_matches_plain_bisection(self):
        z0_at = functools.cache(lambda q: asymptotics.z0_sharp(race.HashSplit(q)))
        for k in range(2, 31):
            assert cli._z0_boundary(k, z0_at) == z0_boundary_bisect(k, z0_at), k

    def test_z0_boundary_falls_back_where_the_guide_is_wrong(self):
        # a monotone step whose boundaries are nowhere near the ranks'
        # crossings: every guided cell fails its check
        calls = []

        def z0_at(q):
            calls.append(q)
            return 2 + int(37 * q)

        for k in range(2, 12):
            calls.clear()
            assert cli._z0_boundary(k, z0_at) == z0_boundary_bisect(k, z0_at), k
            if k > 2:
                assert len(calls) > 10, k  # the plain bisection ran

    def test_z0_table_evaluates_few_sharp_ranks(self, tmp_path, monkeypatch):
        real = asymptotics.z0_sharp
        calls = []
        monkeypatch.setattr(
            asymptotics, "z0_sharp", lambda split: calls.append(split.q) or real(split)
        )
        out = tmp_path / "z0.csv"
        assert main(["table", "--which", "z0", "--out", str(out)]) == 0
        # one bisection per boundary on z0_sharp took 87; the guided one
        # checks each boundary with one sharp rank, 10 in all
        assert len(calls) <= 11

    def test_custom_table(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            ["table", "--which", "custom", "--out", str(out),
             "--q-min", "0.1", "--q-max", "0.3", "--q-step", "0.1",
             "--z-min", "1", "--z-max", "3", "--z-step", "1"]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["z", "0.1", "0.2", "0.3"]
        assert len(rows) == 4
        expected = race.attacker_success_closed(
            race.HashSplit.from_attacker_share(0.3), 3
        )
        assert float(rows[3][3]) == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize(
        "grid",
        [
            ["--q-step", "0"],
            ["--z-step", "0"],  # used to exit 2 with range()'s own message
            ["--z-step", "-1"],  # used to write a header-only CSV
            ["--z-min", "5", "--z-max", "2"],  # likewise
            ["--q-min", "0.4", "--q-max", "0.1"],  # used to write no q columns
        ],
        ids=["q_step_0", "z_step_0", "z_step_negative", "z_max_below_min", "q_max_below_min"],
    )
    def test_custom_rejects_zero_step(self, tmp_path, capsys, grid):
        out = tmp_path / "c.csv"
        code = main(["table", "--which", "custom", "--out", str(out), *grid])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        if "step" in grid[0]:
            assert "grid step must be positive" in err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["curve", "--q", "0.1", "--z", "5", "--kappa-step", "1e-9"],
             "error: grid would have 3900000001 points, more than the 1000000 allowed\n"),
            (["table", "--which", "custom", "--z-max", "10000000000"],
             "error: grid would have 10000000000 points, more than the 1000000 allowed\n"),
            (["curve", "--q", "0.7", "--z", "6"],
             "error: attacker share q must satisfy 0 < q <= 0.5, got q=0.7\n"),
        ],
        ids=["curve_kappa_step", "custom_z_max", "curve_q_above_half"],
    )
    def test_rejects_grid_past_the_cap(self, tmp_path, capsys, argv, err):
        # rejected before a point is built; uncapped, the first two grids
        # exhaust memory
        out = tmp_path / "g.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_grid_cap_is_inclusive(self):
        assert len(cli._frange(1, cli.MAX_GRID_POINTS, 1)) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="grid would have 1000001 points"):
            cli._frange(0, cli.MAX_GRID_POINTS, 1)
        with pytest.raises(ValueError, match="grid would have inf points"):
            cli._frange(0.05, math.inf, 0.05)

    @pytest.mark.parametrize(
        "which, module, solver",
        [("z0", asymptotics, "z0_sharp"), ("confirmations", race, "confirmations_required")],
    )
    def test_solver_failure_leaves_out_untouched(
        self, tmp_path, capsys, monkeypatch, which, module, solver
    ):
        real = getattr(module, solver)
        calls = []

        def fails_third_time(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise specfun.ConvergenceError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, solver, fails_third_time)
        out = tmp_path / "t.csv"
        out.write_bytes(b"keep\r\n")
        assert main(["table", "--which", which, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"keep\r\n"

    def test_unwritable_path_is_io_error(self, capsys):
        code = main(
            ["table", "--which", "z0", "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 3


def printed(out, key):
    """The value on the ``key=`` line of a command's output."""
    return next(line.split("=", 1)[1] for line in out.splitlines() if line.startswith(key + "="))


class TestSimulate:
    def test_agreement_and_determinism(self, capsys):
        argv = ["simulate", "--q", "0.1", "--z", "6",
                "--trials", "200000", "--seed", "42"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "p_hat=" in first and "z_score=" in first

    def test_last_line_names_the_stream(self, capsys):
        argv = ["simulate", "--q", "0.3", "--z", "6", "--trials", "20000", "--seed", "8",
                "--mode", "full_walk"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("=", 1)[0] for line in lines] == [
            "p_hat", "std_err", "successes", "analytic", "z_score", "stream_version"
        ]
        assert lines[-1] == f"stream_version={sim.STREAM_VERSION}" == "stream_version=5"

    def test_even_split(self, capsys):
        assert main(["simulate", "--q", "0.5", "--z", "3", "--trials", "1000"]) == 0
        assert "p_hat=1.0000000" in capsys.readouterr().out

    def test_no_successes_in_a_deep_tail_passes(self, capsys):
        # 20000 trials at P = 9e-7 expect 0.018 successes; the sample
        # standard error of zero successes used to give z_score=+inf, exit 1
        code = main(["simulate", "--q", "0.1", "--z", "12", "--trials", "20000", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "successes=0 " in out
        assert abs(float(printed(out, "z_score"))) < 1.0

    def test_mismatch_fails_the_check(self, capsys, monkeypatch):
        def off_by_far(split, net, config):
            return sim.SimResult(
                successes=500, trials=1000, p_hat=0.5, std_err=0.0158,
                mean_kappa=1.0, mean_attacker_blocks=0.0,
            )

        monkeypatch.setattr(sim, "estimate_success", off_by_far)
        assert main(["simulate", "--q", "0.1", "--z", "6", "--trials", "1000"]) == 1
        assert float(printed(capsys.readouterr().out, "z_score")) > 5.0

    def test_far_kappa_tail_succeeds(self, capsys):
        # kappa = 6 at z = 6 left too few trials in the old conditioning
        # window and exited 2; exact conditioning keeps every trial
        code = main(
            ["simulate", "--q", "0.1", "--z", "6", "--kappa", "6.0",
             "--trials", "200000", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trials=200000" in out
        z_score = float(printed(out, "z_score"))
        assert abs(z_score) <= 5.0

    @pytest.mark.parametrize("kappa", ["nan", "inf"])
    def test_non_finite_kappa_is_domain_error(self, capsys, kappa):
        code = main(
            ["simulate", "--q", "0.1", "--z", "6", "--trials", "1000",
             "--kappa", kappa]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_config_is_domain_error(self, capsys):
        assert main(["simulate", "--q", "0.1", "--z", "0", "--trials", "10"]) == 2

    def test_sampler_error_in_a_batch_thread_is_domain_error(self, capsys, monkeypatch):
        # numpy's Poisson sampler rejects the rate in every batch thread
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
        code = main(
            ["simulate", "--q", "0.1", "--z", "6", "--kappa", "1e300", "--trials", "40000"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: lam value too large\n"


class TestKappaGrids:
    """curve and the satoshi tables take P(z, kappa) over their whole grid in
    one array call; every cell equals the scalar conditional_probability.

    Both paths share the kernels, but the array one adds the two log terms
    with np.logaddexp and exponentiates with np.exp, each of which can land
    one ulp from its scalar counterpart.  One ulp of ln P is up to
    eps |ln P| relative in P, hence the tolerance."""

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (["curve", "--q", "0.1", "--z", "6", "--z", "12", "--z", "24",
              "--kappa-step", "0.01"], 3 * 391),
            # log-space fallback terms below 1e-300, and q = 1/2
            (["curve", "--q", "0.45", "--z", "500", "--z", "2000"], 2 * 40),
            (["curve", "--q", "0.5", "--z", "6"], 40),
            (["table", "--which", "satoshi3"], 35 * 13),
            (["table", "--which", "satoshi6"], 35 * 13),
        ],
    )
    def test_cells_match_scalar(self, tmp_path, monkeypatch, argv, cells):
        seen = []
        over_kappa = race._conditional_over_kappa

        def recorded(q, z, kappa):
            values = over_kappa(q, z, kappa)
            cells = np.broadcast_arrays(q, z, kappa, values)
            seen.extend(zip(*(cell.ravel().tolist() for cell in cells)))
            return values

        monkeypatch.setattr(race, "_conditional_over_kappa", recorded)
        assert main([*argv, "--out", str(tmp_path / "grid.csv")]) == 0
        assert len(seen) == cells
        eps = np.finfo(float).eps
        for q, z, kappa, value in seen:
            expected = race.conditional_probability(race.HashSplit(q), z, kappa)
            rel = 2.0 * eps * (1.0 - math.log(expected))
            assert value == pytest.approx(expected, rel=rel, abs=0), (q, z, kappa)

    @pytest.mark.parametrize(
        "argv, q_cells, p_cells",
        [
            # Q(z, kappa z) does not depend on q: once per kappa row
            (["table", "--which", "satoshi3"], 35, 35 * 13),
            (["table", "--which", "satoshi6"], 35, 35 * 13),
            (["curve", "--q", "0.1", "--z", "6", "--z", "12", "--z", "24",
              "--kappa-step", "0.01"], 3 * 391, 3 * 391),
        ],
    )
    def test_one_call_of_each_kernel(self, tmp_path, monkeypatch, argv, q_cells, p_cells):
        sizes = {"log_reg_upper_gamma_q": [], "log_reg_lower_gamma_p": []}
        for name, seen in sizes.items():
            kernel = getattr(specfun, name)

            def recorded(s, x, kernel=kernel, seen=seen):
                seen.append(np.broadcast(s, x).size)
                return kernel(s, x)

            monkeypatch.setattr(specfun, name, recorded)
        assert main([*argv, "--out", str(tmp_path / "grid.csv")]) == 0
        assert sizes == {"log_reg_upper_gamma_q": [q_cells], "log_reg_lower_gamma_p": [p_cells]}


class TestCurve:
    def test_monotone_series(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--q", "0.1", "--z", "6",
             "--kappa-min", "0.2", "--kappa-max", "4.0",
             "--kappa-step", "0.2", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["z", "kappa", "probability"]
        values = [float(r[2]) for r in rows[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))
        # every row recomputes to the printed rounding
        s = race.HashSplit.from_attacker_share(0.1)
        for r in rows[1:]:
            expected = race.conditional_probability(s, int(r[0]), float(r[1]))
            assert float(r[2]) == pytest.approx(expected, abs=1e-7)

    def test_multiple_z_series(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--q", "0.1", "--z", "3", "--z", "6", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert {r[0] for r in rows[1:]} == {"3", "6"}

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_rejects_step_before_opening_out(self, tmp_path, capsys, step):
        out = tmp_path / "curve.csv"
        out.write_text("keep\n")
        code = main(
            ["curve", "--q", "0.1", "--z", "6",
             "--kappa-step", step, "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "keep\n"

    def test_failure_mid_series_leaves_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        out.write_text("keep\n")
        code = main(
            ["curve", "--q", "0.1", "--z", "6", "--z", "0", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "keep\n"

    def test_rejects_kappa_range(self, capsys):
        code = main(
            ["curve", "--q", "0.1", "--z", "6",
             "--kappa-min", "0", "--kappa-max", "4", "--out", "x.csv"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kappa range must lie within (0, 20], got [0.0, 4.0]\n"
        )
        code = main(
            ["curve", "--q", "0.1", "--z", "6",
             "--kappa-min", "1", "--kappa-max", "25", "--out", "x.csv"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kappa range must lie within (0, 20], got [1.0, 25.0]\n"
        )
        # a nan bound is out of range, not an empty grid
        code = main(
            ["curve", "--q", "0.1", "--z", "6", "--kappa-min", "nan", "--out", "x.csv"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kappa range must lie within (0, 20], got [nan, 4.0]\n"
        )
        code = main(
            ["curve", "--q", "0.1", "--z", "6", "--kappa-max", "nan", "--out", "x.csv"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kappa range must lie within (0, 20], got [0.1, nan]\n"
        )
