import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gtprobe import cli, coeffs, fidelity, simulator, young


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


VERIFY_FAMILIES = (
    "infidelity-chain", "dimension-ratios", "cg-branch-weights", "g-increments",
    "telescoping", "branching-sums", "amplitude-reduction",
)
CHAIN_3_2_1 = young.gamma_chain(young.GammaParams(3, 2, 1))

# One planted defect per (d, L) family: (module, function, wrong(true function,
# *args), the families that must fail, the parameters each failure names).
PLANTS = {
    "weyl-dimension": (
        coeffs, "weyl_dimension", lambda f, lam, d: f(lam, d) + (tuple(lam) == (9, 2, 1)),
        {"infidelity-chain", "dimension-ratios"}, "d=3 L=2 i=1",
    ),
    "sum-form": (
        fidelity, "infidelity_sum_form", lambda f, d, L: f(d, L) + ((d, L) == (3, 2)),
        {"infidelity-chain"}, "d=3 L=2",
    ),
    "cg-add-box": (
        coeffs, "cg_add_box",
        lambda f, chain: [(k, c + (chain == CHAIN_3_2_1)) for k, c in f(chain)],
        {"cg-branch-weights"}, "d=3 L=2 i=1",
    ),
    "shared-radicand": (
        coeffs, "shared_radicand",
        lambda f, i, d, L: f(i, d, L) * (2 if (d, L, i) == (3, 2, 1) else 1),
        {"infidelity-chain", "dimension-ratios"}, "d=3 L=2 i=1",
    ),
}


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

    @pytest.mark.parametrize("plant", PLANTS, ids=list(PLANTS))
    def test_planted_failure_fails_only_its_families(self, capsys, monkeypatch, plant):
        module, name, wrong, failing, names = PLANTS[plant]
        true_fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: wrong(true_fn, *args))
        code, out, _ = run(capsys, ["verify", "--max-d", "3", "--max-L", "3"])
        assert code == 1
        for family in VERIFY_FAMILIES:
            if family in failing:
                line = next(row for row in out.splitlines() if row.startswith(f"[FAIL] {family}: "))
                assert all(re.search(rf"\b{part}\b", line) for part in names.split()), line
            else:
                assert f"[PASS] {family} (" in out, family
        assert f"{len(failing)} of 7 identity families failed" in out

    def test_does_not_call_dim_ratio_check(self, capsys, monkeypatch):
        # A table that builds has already held the dimension ratios at every i.
        def fail(p):
            raise AssertionError("dim_ratio_check called")

        monkeypatch.setattr(coeffs, "dim_ratio_check", fail)
        code, out, _ = run(capsys, ["verify", "--max-d", "4", "--max-L", "5"])
        assert code == 0 and "all 7 identity families passed" in out


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

    def test_check_cg_extracts_once(self, capsys, monkeypatch):
        calls = []
        extract = simulator.extract_gt_vectors

        def counted(*args, **kwargs):
            calls.append(args)
            return extract(*args, **kwargs)

        monkeypatch.setattr(simulator, "extract_gt_vectors", counted)
        argv = ["simulate", "--d", "3", "--n", "6", "--samples", "100", "--check-cg"]
        code, out, _ = run(capsys, argv)
        assert calls == [(3, 6)]
        assert code == 0 and len(json.loads(out)["cg_residuals"]) == 4

    def test_check_cg_builds_each_sector_once(self, capsys, monkeypatch):
        calls = []
        sector = simulator._sector

        def counted(d, n, content):
            calls.append((d, n))
            return sector(d, n, content)

        monkeypatch.setattr(simulator, "_sector", counted)
        argv = ["simulate", "--d", "2", "--n", "8", "--samples", "100", "--check-cg"]
        code, _, _ = run(capsys, argv)
        assert code == 0 and calls == [(2, 8), (2, 9)]

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(capsys, ["simulate", "--d", "5", "--n", "10", "--samples", "500"])
        assert code == 3
        assert "capacity" in err and "100000" in err

    def test_check_cg_capacity_fails_before_any_work(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the capacity check")

        monkeypatch.setattr(simulator, "extract_gt_vectors", fail)
        monkeypatch.setattr(simulator, "mc_estimates", fail)
        argv = ["simulate", "--d", "2", "--n", "16", "--samples", "2000", "--check-cg"]
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err == "error: d^n = 2^17 = 131072 exceeds the simulator capacity of 100000\n"

    def test_too_tight_casimir_tol_fails_check(self, capsys):
        argv = ["simulate", "--d", "3", "--n", "6", "--samples", "200", "--casimir-tol", "1e-30"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "matches 0 expected values" in err
        residual = re.search(r"\|C v - \d+ v\| = (\S+) exceeds casimir_tol 1e-30 times", err)
        assert residual and 0 < float(residual[1]) < 1e-12

    def test_stdout_does_not_depend_on_blas_threads(self):
        argv = ["simulate", "--d", "2", "--n", "12", "--samples", "500", "--seed", "42"]
        src = str(Path(cli.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "gtprobe.cli", *argv, "--check-cg"],
                capture_output=True, env=env, check=True,
            )
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["pass"] is True

    def test_wrong_closed_form_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(fidelity, "closed_form_infidelity", lambda d, L: Fraction(1, 7))
        code, _, err = run(capsys, ["simulate", "--d", "2", "--n", "4", "--samples", "100"])
        assert code == 1
        assert "infidelity routes disagree at d=2 L=1 n=4: " in err

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
            (["plan", "--d", "1000", "--eps", "1.6e-153"], "d=1000 eps=1.6e-153"),
            (
                ["plan", "--d", "1000", "--eps", "1.6e-153", "--format", "json"],
                "d=1000 eps=1.6e-153",
            ),
            (["verify", "--max-d", "2", "--max-L", "1", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["simulate", "--d", "2", "--n", "4", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (
                ["simulate", "--d", "3", "--n", "6", "--samples", "200", "--null-tol", "-1"],
                "null_tol must be positive and finite, got -1.0",
            ),
            (
                ["simulate", "--d", "3", "--n", "6", "--samples", "200", "--null-tol", "nan"],
                "null_tol must be positive and finite, got nan",
            ),
            (
                ["simulate", "--d", "3", "--n", "6", "--samples", "200", "--casimir-tol", "-1"],
                "casimir_tol must be positive and finite, got -1.0",
            ),
            (
                ["simulate", "--d", "3", "--n", "6", "--samples", "200", "--casimir-tol", "nan"],
                "casimir_tol must be positive and finite, got nan",
            ),
            (
                ["simulate", "--d", "2", "--n", "4", "--samples", "200", "--null-tol", "-1"],
                "null_tol must be positive and finite, got -1.0",
            ),
            (["plan", "--d", str(10**309), "--eps", "0.5"], f"d={10**309} eps=0.5"),
            (
                ["plan", "--d", str(10**309), "--eps", "0.5", "--format", "json"],
                f"d={10**309} eps=0.5",
            ),
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


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["verify"], False),
        (["simulate", "--d", "2", "--n", "4", "--samples", "100"], False),
        (["infidelity", "--d", "2", "--n", "4"], True),
    ],
)
def test_scipy_loads_only_for_the_optimizer(argv, loaded):
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from gtprobe import cli; "
        f"code = cli.main({argv!r}); print(code, 'scipy.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"0 {loaded}"
