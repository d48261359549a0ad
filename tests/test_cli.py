"""End-to-end command-line tests via main(argv)."""

import csv

import pytest

from doublespend import asymptotics, cli, race, specfun
from doublespend.cli import ProbTable, main

from reference_tables import KAPPA_ROWS, Q_COLS, SATOSHI3_PERCENT, SATOSHI6_PERCENT


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestProbTable:
    def test_rejects_ragged_row(self):
        table = ProbTable("z", "q", [0.1, 0.2])
        with pytest.raises(ValueError):
            table.add_row(1, [0.5])

    def test_rejects_out_of_range_cell(self):
        table = ProbTable("z", "q", [0.1])
        with pytest.raises(ValueError):
            table.add_row(1, [1.5])

    def test_csv_is_locale_independent(self, tmp_path):
        table = ProbTable("z", "q", [0.1, 0.2])
        table.add_row(1, [0.25, 0.5])
        out = tmp_path / "t.csv"
        table.write_csv(out, cell_format=lambda v: f"{v:.3f}")
        raw = out.read_bytes()
        assert raw == b"z,0.1,0.2\n1,0.250,0.500\n"


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

    def test_published_high_kappa_cell(self, capsys):
        assert main(["conditional", "--q", "0.26", "--z", "6", "--kappa", "3.5"]) == 0
        assert "(79.66%)" in capsys.readouterr().out

    def test_requires_exactly_one_time_input(self, capsys):
        assert main(["conditional", "--q", "0.1", "--z", "3"]) == 2
        assert (
            main(
                ["conditional", "--q", "0.1", "--z", "3",
                 "--kappa", "1", "--tau1-minutes", "60"]
            )
            == 2
        )


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

    def test_custom_rejects_zero_step(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["table", "--which", "custom", "--out", str(out), "--q-step", "0"])
        assert code == 2
        assert not out.exists()

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

    def test_even_split(self, capsys):
        assert main(["simulate", "--q", "0.5", "--z", "3", "--trials", "1000"]) == 0
        assert "p_hat=1.0000000" in capsys.readouterr().out

    def test_conditioning_failure_is_domain_error(self, capsys):
        code = main(
            ["simulate", "--q", "0.1", "--z", "6", "--trials", "50000",
             "--kappa", "6.0"]
        )
        assert code == 2

    def test_bad_config_is_domain_error(self, capsys):
        assert main(["simulate", "--q", "0.1", "--z", "0", "--trials", "10"]) == 2


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
        code = main(
            ["curve", "--q", "0.1", "--z", "6",
             "--kappa-min", "1", "--kappa-max", "25", "--out", "x.csv"]
        )
        assert code == 2
