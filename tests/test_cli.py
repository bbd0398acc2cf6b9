import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gtprobe import cli, coeffs, fidelity, simulator, young
from oracles import (
    reference_amplitude_reduction_check,
    reference_amplitude_stacks,
    reference_hook_length_dimension,
    reference_weyl_dimension,
)


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

    def test_weyl_columns_match_the_fraction_product(self, capsys):
        code, out, _ = run(capsys, ["dims", "--d", "60", "--n", "120", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "i,shape,shape_plus,weyl_dim,weyl_dim_plus,hook_dim,casimir"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2  # L = 1
        for i, row in enumerate(rows):
            p = young.GammaParams(60, 1, i)
            shapes = young.gamma_shape(p), young.gamma_plus_shape(p)
            assert (row["i"], row["shape"]) == (str(i), cli._shape_str(shapes[0])), row
            dims = [int(row["weyl_dim"]), int(row["weyl_dim_plus"])]
            assert dims == [reference_weyl_dimension(lam, 60) for lam in shapes], i

    def test_hook_column_at_d_1000_matches_the_hook_product(self, capsys):
        code, out, _ = run(capsys, ["dims", "--d", "1000", "--n", "2000", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        shapes = [young.gamma_shape(young.GammaParams(1000, 1, i)) for i in range(2)]
        assert [row["shape"] for row in rows] == list(map(cli._shape_str, shapes))
        assert [int(row["hook_dim"]) for row in rows] == [
            reference_hook_length_dimension(lam) for lam in shapes
        ]

    @pytest.mark.parametrize("d,n", [(3, 6), (4, 16)])
    def test_csv_lines_have_the_header_width(self, capsys, d, n):
        # The shape cells hold commas, so they are quoted; csv.reader reads one cell each.
        code, out, _ = run(capsys, ["dims", "--d", str(d), "--n", str(n), "--format", "csv"])
        assert code == 0
        lines = list(csv.reader(io.StringIO(out)))
        assert len(lines) == n // (2 * d) + 2
        assert {len(line) for line in lines} == {len(lines[0])} == {7}
        assert [line[1] for line in lines[1:]] == [
            cli._shape_str(young.gamma_shape(young.GammaParams(d, n // (2 * d), i)))
            for i in range(n // (2 * d) + 1)
        ]


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

    def test_lapack_failure_exits_one(self, capsys, monkeypatch):
        # A failed LAPACK routine is a verification failure (1), not a usage error (2).
        from scipy.linalg import lapack

        true_stebz = lapack.dstebz
        monkeypatch.setattr(lapack, "dstebz", lambda *a: (*true_stebz(*a)[:4], 3))
        code, out, err = run(capsys, ["infidelity", "--d", "3", "--n", "12"])
        assert (code, out) == (1, "")
        assert err == "error: LAPACK dstebz gave info=3 m=1 at d=3 L=2\n"

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
# The shifted rows lam_k - k of gamma_1 = (9, 2, 1) and of gamma_0 = (10, 2) at d=3 L=2.
ROWS_3_2_1, ROWS_3_2_0 = (9, 1, -1), (10, 1, -2)


def _wrong_dim_3_2_1(f, d, L):
    """young.gamma_dims with dim(gamma_1) at d=3 L=2 one too large."""
    return [(dim + ((d, L, i) == (3, 2, 1)), plus) for i, (dim, plus) in enumerate(f(d, L))]


def _wrong_cg_at(rows):
    """coeffs._cg_core with C_k^2 one too large on the top shifted rows rows."""
    return lambda f, t, s: [(k, n + dn * (tuple(t) == rows), dn) for k, n, dn in f(t, s)]


# One planted defect per entry: (module, function, wrong(true function, *args),
# the families that must fail, the parameters each failure names).
PLANTS = {
    "weyl-dimension": (
        coeffs, "gamma_dims", _wrong_dim_3_2_1,
        {"infidelity-chain", "dimension-ratios"}, "d=3 L=2 i=1",
    ),
    "sum-form": (
        fidelity, "infidelity_sum_form", lambda f, d, L: f(d, L) + ((d, L) == (3, 2)),
        {"infidelity-chain"}, "d=3 L=2",
    ),
    "cg-add-box": (
        coeffs, "_cg_core", _wrong_cg_at(ROWS_3_2_1), {"cg-branch-weights"}, "d=3 L=2 i=1",
    ),
    "cg-add-box-at-gamma-0": (
        coeffs, "_cg_core", _wrong_cg_at(ROWS_3_2_0), {"cg-branch-weights"}, "d=3 L=2 i=0",
    ),
    "shared-radicand": (  # the numerator of R, the 10th integer of _terms, doubled
        coeffs, "_terms",
        lambda f, i, d, L: tuple(
            v * (2 if (k, d, L, i) == (9, 3, 2, 1) else 1) for k, v in enumerate(f(i, d, L))
        ),
        {"infidelity-chain", "dimension-ratios"}, "d=3 L=2 i=1",
    ),
    "branching-restrictions": (  # mu = (1,) dropped from lambda = (2, 1) at d=3
        young, "branching_restrictions",
        lambda f, lam, d: f(lam, d)[(tuple(lam), d) == ((2, 1), 3) :],
        {"branching-sums"}, "d=3 lambda=(2, 1)",
    ),
}


class TestVerifyCommand:
    def test_registry_runs_without_the_cli(self):
        families = list(fidelity.identity_families(4, 6, 0))
        assert tuple(name for name, _ in families) == VERIFY_FAMILIES
        for name, cases in families:
            assert set(cases) == {None}, name

    def test_passing_verify_builds_each_table_once(self, monkeypatch):
        # infidelity-chain builds each (d, L) of verify --max-d 4 --max-L 6 once, and
        # dimension-ratios, which reads the tables that built, builds none.
        calls = []
        build = coeffs.CoeffTable.build.__func__
        monkeypatch.setattr(
            coeffs.CoeffTable, "build",
            classmethod(lambda cls, d, L: calls.append((d, L)) or build(cls, d, L)),
        )
        grid = [(d, L) for d in range(2, 5) for L in range(1, 7)]
        families = dict(fidelity.identity_families(4, 6, 0))
        assert set(families["infidelity-chain"]) == {None} and calls == grid
        assert set(families["dimension-ratios"]) == {None} and calls == grid

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
        true_abg = coeffs._alpha_beta_g

        def bad_g(i, d, L):  # g_1 one too large at d=3 L=2; a, b and s-1 untouched
            a, b, den, g = true_abg(i, d, L)
            return a, b, den, g + ((d, L, i) == (3, 2, 1))

        monkeypatch.setattr(coeffs, "_alpha_beta_g", bad_g)
        code, out, _ = run(capsys, ["verify", "--max-d", "3", "--max-L", "2"])
        assert code == 1
        assert "[FAIL]" in out
        assert "d=3" in out and "L=2" in out and "i=1" in out

    def test_rejects_bad_bounds(self, capsys):
        code, _, _ = run(capsys, ["verify", "--max-d", "1", "--max-L", "4"])
        assert code == 2

    def test_cg_family_checks_each_chain_once(self, monkeypatch):
        # gamma_0's chain is checked once per (d, L); the indices step its shifted rows.
        calls = []
        true_as_chain = young.as_chain
        for module in (young, coeffs):
            monkeypatch.setattr(
                module, "as_chain", lambda chain: calls.append(chain) or true_as_chain(chain)
            )
        cases = dict(fidelity.identity_families(4, 6, 0))["cg-branch-weights"]
        assert set(cases) == {None}
        assert len(calls) == 3 * 6

    def test_amplitude_family_checks_each_dimension_once(self, monkeypatch):
        calls = []
        true_check = fidelity.amplitude_reduction_check
        monkeypatch.setattr(
            fidelity, "amplitude_reduction_check", lambda *a: calls.append(a) or true_check(*a)
        )
        cases = dict(fidelity.identity_families(10, 40, 0))["amplitude-reduction"]
        assert list(cases) == [None] * 1000
        assert 1 <= len(calls) <= 15

    def test_amplitude_family_names_the_first_failing_case_drawn(self, monkeypatch):
        # Every case of dimension 7 made to fail: the family must name the first one in
        # the order drawn, with the sides the one-case check gives on that case.
        true_check = fidelity.amplitude_reduction_check

        def failing_at_7(psi, phi, proj):
            lhs, rhs = true_check(psi, phi, proj)
            return lhs + 2 * (psi.shape[-1] == 7), rhs  # rhs <= sqrt(2)

        monkeypatch.setattr(fidelity, "amplitude_reduction_check", failing_at_7)
        rng = np.random.default_rng(42)
        for case in range(1000):  # the stream as drawn one normal vector at a time
            dim = int(rng.integers(2, 17))
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            proj = np.diag(rng.integers(0, 2, dim).astype(float))
            if dim == 7:
                break
        lhs, rhs = reference_amplitude_reduction_check(psi, phi, proj)
        cases = dict(fidelity.identity_families(2, 1, 42))["amplitude-reduction"]
        assert next(c for c in cases if c) == f"case {case}: d=7 lhs={lhs + 2!r} rhs={rhs!r}"

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_amplitude_stacks_equal_the_one_case_loop(self, monkeypatch, seed):
        # The family draws each case's normals and normalizes them per dimension stack:
        # psi, phi, proj and both sides are bit for bit those of the one-case loop.
        seen = {}
        true_check = fidelity.amplitude_reduction_check

        def recorded(psi, phi, proj):
            seen[psi.shape[-1]] = (psi, phi, proj, *true_check(psi, phi, proj))
            return seen[psi.shape[-1]][3:]

        monkeypatch.setattr(fidelity, "amplitude_reduction_check", recorded)
        assert set(dict(fidelity.identity_families(2, 1, seed))["amplitude-reduction"]) == {None}
        want = reference_amplitude_stacks(seed)
        assert seen.keys() == want.keys()
        for dim, arrays in want.items():
            for got, expected in zip(seen[dim], arrays, strict=True):
                assert got.dtype == expected.dtype and np.array_equal(got, expected), dim

    def test_branching_family_reads_each_core_as_recomputed(self, monkeypatch):
        # A wrong Weyl core on the shifted rows (2, 0, -2): lambda = (2, 1) at d=3, and
        # the restriction mu = (2, 1) of every lambda at d=4 that has it. The family,
        # which makes each mu's core once per d, fails at exactly the cases where a
        # sum that recomputes every core per lambda fails.
        true_core = young._weyl_core
        monkeypatch.setattr(
            young, "_weyl_core", lambda h, den: true_core(h, den) + (tuple(h) == (2, 0, -2))
        )
        got = [case for case in dict(fidelity.identity_families(5, 1, 0))["branching-sums"] if case]
        want = []
        for d in range(2, 6):
            dens = {k: math.prod(map(math.factorial, range(k))) for k in (d, d - 1)}
            for boxes in range(11):
                for lam in young.partitions(boxes, d):
                    total = sum(
                        young._weyl_core(young._shifted_rows(mu, d - 1), dens[d - 1])
                        for mu in young.branching_restrictions(lam, d)
                    )
                    if total != young._weyl_core(young._shifted_rows(lam, d), dens[d]):
                        want.append(f"d={d} lambda={lam}")
        assert got == want and got[0] == "d=3 lambda=(2, 1)"
        assert any(case.startswith("d=4 ") for case in got)

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
                parts = (rf"(?<!\w){re.escape(part)}(?!\w)" for part in names.split())
                assert all(re.search(part, line) for part in parts), line
            else:
                assert f"[PASS] {family} (" in out, family
        assert f"{len(failing)} of 7 identity families failed" in out


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

    @pytest.mark.parametrize("check_cg", [False, True])
    def test_report_key_order(self, capsys, check_cg):
        # Benchmarks and scripts read these keys; the order is part of the output.
        argv = ["simulate", "--d", "2", "--n", "4", "--samples", "100"]
        _, out, _ = run(capsys, argv + ["--check-cg"] * check_cg)
        data = json.loads(out)
        assert list(data) == [
            "analytic_fidelity", "mc_mean", "mc_stderr", "samples", "seed",
            "total_prob_mean", "total_prob_stderr",
            *["cg_residuals"] * check_cg, "sector_dims", "pass",
        ]
        assert list(data["analytic_fidelity"]) == ["num", "den", "float"]

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(capsys, ["simulate", "--d", "5", "--n", "10", "--samples", "500"])
        assert code == 3
        assert "capacity" in err and "100000" in err

    def test_capacity_error_for_a_huge_n(self, capsys):
        # 2^20000 has more digits than int-to-str conversion allows.
        code, out, err = run(capsys, ["simulate", "--d", "2", "--n", "20000", "--samples", "100"])
        assert code == 3 and out == ""
        assert err == "error: d^n = 2^20000 exceeds the simulator capacity of 100000\n"

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


HUGE_D = f"d={10**20} exceeds the longest tuple of rows, {sys.maxsize}"


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
            (
                ["simulate", "--d", "3", "--n", "6", "--samples", "100", "--null-tol", "1e308"],
                "null_tol 1e+308 times the scale 4 exceeds the float range",
            ),
            (
                ["simulate", "--d", "3", "--n", "6", "--samples", "100", "--casimir-tol", "1e308"],
                "casimir_tol 1e+308 times the scale 36 exceeds the float range",
            ),
            *(
                ([command, "--d", str(10**20), "--n", str(2 * 10**20)], HUGE_D)
                for command in ("dims", "coeffs", "infidelity")
            ),
            (["sweep", "--d-range", str(10**20), "--n-range", str(2 * 10**20)], HUGE_D),
            (
                ["sweep", "--d-range", "2:2:x", "--n-range", "4"],
                "range must look like LO:HI or LO:HI:STEP, got '2:2:x'",
            ),
            # d = 0 would reach n % (2 * d) and raise ZeroDivisionError without the d check.
            (["sweep", "--d-range", "0:3", "--n-range", "4:8"], "d must be >= 2, got 0"),
            (["plan", "--d", "1", "--eps", "0.1"], "d must be >= 2, got 1"),
            # young.gamma_hooks checks n = 2dL against math.factorial's sys.maxsize limit.
            (
                ["dims", "--d", "5", "--n", str(10**20)],
                f"{10**20} boxes exceed the factorial limit, {sys.maxsize}",
            ),
            (
                ["dims", "--d", "2", "--n", str(2**64)],
                f"{2**64} boxes exceed the factorial limit, {sys.maxsize}",
            ),
            # f_sq has 5737 digits, past the interpreter's int-to-str limit; csv and json print it.
            (
                ["coeffs", "--d", "1000", "--n", "2000"],
                "f_sq at d=1000 n=2000 L=1 N=1001 exceeds the float range of the table format; "
                "use --format csv|json",
            ),
            # Beside the box-count cases above: d = 2^62 is a valid size, but a shape of it
            # would hold 2^62 rows, so the box count must be checked before any shape.
            (
                ["dims", "--d", str(2**62), "--n", str(2**63)],
                f"{2**63} boxes exceed the factorial limit, {sys.maxsize}",
            ),
        ],
    )
    def test_usage_error_exits_two_with_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("d,digits", [(800, 4435), (1000, 5737)])
    def test_exact_values_print_past_the_int_str_limit(self, capsys, d, digits, fmt):
        # f_0^2 is past the interpreter's default int-to-str limit of 4300 digits: it prints
        # in full, and the limit is as it was once main returns. Decimal's str has no limit.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        code, out, err = run(capsys, ["coeffs", "--d", str(d), "--n", str(2 * d), "--format", fmt])
        assert code == 0 and err == ""
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        want = str(Decimal(coeffs.CoeffTable.build(d, 1).terms[0][8]))
        assert len(want) == digits
        if fmt == "csv":
            assert out.splitlines()[1].split(",")[6] == want
        else:
            assert json.loads(out)["rows"][0]["f_sq"] == {"num": want, "den": "1"}


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
