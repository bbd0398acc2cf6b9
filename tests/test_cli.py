import json

import pytest

from gtprobe import cli, coeffs


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffsCommand:
    def test_golden_row(self, capsys):
        code, out, err = run(capsys, ["coeffs", "--d", "2", "--n", "4", "--format", "json"])
        assert code == 0 and err == ""
        data = json.loads(out)
        row0 = data["rows"][0]
        assert row0["alpha"] == {"num": "4", "den": "5"}
        assert row0["x_sq"] == {"num": "8", "den": "15"}
        assert row0["g"] == 6
        assert row0["f_sq"] == {"num": "180", "den": "1"}

    def test_rounds_down_with_warning(self, capsys):
        code, out, err = run(capsys, ["coeffs", "--d", "2", "--n", "5"])
        assert code == 0
        assert "warning" in err and "n=4" in err
        assert "d=2 n=4 L=1" in out

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, ["coeffs", "--d", "3", "--n", "12", "--format", "json"])
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_rejects_small_d(self, capsys):
        code, _, err = run(capsys, ["coeffs", "--d", "1", "--n", "4"])
        assert code == 2
        assert "error" in err

    def test_out_of_float_range_values_in_csv_and_json(self, capsys):
        # The table format shows float approximations and refuses here (see
        # TestExitCodes); the exact formats still work.
        code, out, _ = run(capsys, ["coeffs", "--d", "100", "--n", "200", "--format", "csv"])
        assert code == 0
        f_sq = coeffs.CoeffTable.build(100, 1).f_sq
        assert [line.split(",")[6] for line in out.splitlines()[1:]] == [str(q) for q in f_sq]
        code, out, _ = run(capsys, ["coeffs", "--d", "100", "--n", "200", "--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"][0]["f_sq"]["num"] == str(f_sq[0].numerator)

    def test_csv_has_exact_fractions(self, capsys):
        _, out, _ = run(capsys, ["coeffs", "--d", "2", "--n", "4", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "i,alpha,beta,x_sq,y_sq,g,f_sq,shared_radicand"
        assert lines[1].startswith("0,4/5,1/5,8/15,")


class TestDimsCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, ["dims", "--d", "3", "--n", "6"])
        assert code == 0
        assert "(5,1)" in out and "(4,1,1)" in out
        assert "35" in out and "10" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, ["dims", "--d", "2", "--n", "4", "--format", "json"])
        data = json.loads(out)
        assert [r["hook_dim"] for r in data["rows"]] == [1, 3]
        assert [r["casimir"] for r in data["rows"]] == [20, 12]


class TestInfidelityCommand:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, ["infidelity", "--d", "2", "--n", "4"])
        assert code == 0
        assert "7/8" in out and "1/8" in out
        assert "bound_ratio" in out and "0.5" in out

    def test_json_values(self, capsys):
        _, out, _ = run(capsys, ["infidelity", "--d", "3", "--n", "6", "--format", "json"])
        data = json.loads(out)
        assert data["infidelity"] == {"num": "1", "den": "5"}
        assert data["fidelity_float"] == 0.8
        assert len(data["optimal_f"]) == data["L"] + 1

    def test_large_qubit_case(self, capsys):
        _, out, _ = run(capsys, ["infidelity", "--d", "2", "--n", "400", "--format", "json"])
        data = json.loads(out)
        assert data["infidelity"] == {"num": "1", "den": str(2 * 101**2)}


class TestPlanCommand:
    def test_examples(self, capsys):
        _, out, _ = run(capsys, ["plan", "--d", "2", "--eps", "0.2", "--format", "json"])
        assert json.loads(out)["n"] == 140
        _, out, _ = run(capsys, ["plan", "--d", "2", "--eps", "0.9", "--format", "json"])
        assert json.loads(out)["n"] == 28

    def test_halving_eps_roughly_doubles_n(self, capsys):
        _, out, _ = run(capsys, ["plan", "--d", "2", "--eps", "0.1", "--format", "json"])
        n1 = json.loads(out)["n"]
        capsys.readouterr()
        _, out, _ = run(capsys, ["plan", "--d", "2", "--eps", "0.05", "--format", "json"])
        n2 = json.loads(out)["n"]
        assert n1 < n2 <= 2 * n1 + 8

    def test_rejects_out_of_range_eps(self, capsys):
        code, _, err = run(capsys, ["plan", "--d", "2", "--eps", "1.5"])
        assert code == 2 and "eps" in err


class TestSweepCommand:
    def test_csv_header_and_first_row(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--d-range", "2:3", "--n-range", "4:12"])
        lines = out.strip().splitlines()
        assert lines[0] == (
            "d,n,L,infidelity_num,infidelity_den,infidelity_float,"
            "bound_ratio,optimal_infidelity_float,gap_ratio"
        )
        first = lines[1].split(",")
        assert first[:6] == ["2", "4", "1", "1", "8", "0.125"]
        assert code == 0

    def test_bound_ratio_envelope(self, capsys):
        _, out, _ = run(capsys, ["sweep", "--d-range", "2:6", "--n-range", "4:120"])
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[6]) <= 4.0

    def test_quadratic_decay_regime(self, capsys):
        # Doubling n deep in the n >> d^2 regime divides the infidelity by ~4.
        _, out, _ = run(capsys, ["sweep", "--d-range", "2:2", "--n-range", "400:800:400"])
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        ratio = float(rows[1][5]) / float(rows[0][5])
        assert abs(ratio - 0.25) < 0.025

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, ["sweep", "--d-range", "3:2", "--n-range", "4:8"])
        assert code == 2 and "range" in err


class TestVerifyCommand:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--max-d", "4", "--max-L", "6"])
        assert code == 0
        assert out.count("[PASS]") == 7
        assert "[FAIL]" not in out
        assert "all 7 identity families passed" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, ["verify", "--max-d", "3", "--max-L", "4", "--seed", "7"])
        _, out2, _ = run(capsys, ["verify", "--max-d", "3", "--max-L", "4", "--seed", "7"])
        assert out1 == out2

    def test_injected_defect_names_parameters(self, capsys, monkeypatch):
        true_g = coeffs.g_coeff

        def bad_g(i, d, L):
            if (d, L, i) == (3, 2, 1):
                return true_g(i, d, L) + 1
            return true_g(i, d, L)

        monkeypatch.setattr(coeffs, "g_coeff", bad_g)
        code, out, _ = run(capsys, ["verify", "--max-d", "3", "--max-L", "2"])
        assert code == 1
        assert "[FAIL]" in out
        assert "d=3" in out and "L=2" in out and "i=1" in out

    def test_rejects_bad_bounds(self, capsys):
        code, _, _ = run(capsys, ["verify", "--max-d", "1", "--max-L", "4"])
        assert code == 2


class TestSimulateCommand:
    def test_report_and_determinism(self, capsys):
        argv = ["simulate", "--d", "2", "--n", "4", "--samples", "5000", "--seed", "42", "--check-cg"]
        code, out1, _ = run(capsys, argv)
        assert code == 0
        data = json.loads(out1)
        assert data["analytic_fidelity"] == {"num": "7", "den": "8", "float": 0.875}
        assert data["pass"] is True
        assert data["sector_dims"] == [1, 3]
        assert all(r < 1e-8 for r in data["cg_residuals"])
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_without_cg_flag_omits_residuals(self, capsys):
        _, out, _ = run(capsys, ["simulate", "--d", "2", "--n", "4", "--samples", "1000"])
        assert "cg_residuals" not in json.loads(out)

    def test_failed_check_exits_one(self, capsys):
        # 100 samples at seed 1 miss 7/8 by more than three standard errors.
        code, out, _ = run(capsys, ["simulate", "--d", "2", "--n", "4", "--samples", "100", "--seed", "1"])
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        assert json.dumps(data, indent=2) + "\n" == out

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(capsys, ["simulate", "--d", "5", "--n", "10", "--samples", "500"])
        assert code == 3
        assert "capacity" in err and "100000" in err

    def test_too_few_samples(self, capsys):
        code, _, _ = run(capsys, ["simulate", "--d", "2", "--n", "4", "--samples", "10"])
        assert code == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["dims", "--d", "1", "--n", "4"], "d must be >= 2, got 1"),
            (["infidelity", "--d", "2", "--n", "3"], "n must be at least 2d=4, got 3"),
            (
                ["coeffs", "--d", "100", "--n", "200"],
                "f_sq at d=100 n=200 L=1 N=101 exceeds the float range of the table format; "
                "use --format csv|json",
            ),
            (["plan", "--d", "2", "--eps", "1e-170"], "eps=1e-170"),
            (["plan", "--d", "2", "--eps", "1e-170", "--format", "json"], "eps=1e-170"),
        ],
    )
    def test_usage_error_exits_two_with_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestParserBehaviour:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["coeffs", "--d", "2"])
        assert err.value.code == 2
