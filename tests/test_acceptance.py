"""End-to-end acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance, and
prints a single [PASS] line (visible with pytest -s or in the -v listing).
"""

import random
import time
from fractions import Fraction

import numpy as np

from gtprobe import cli
from gtprobe.coeffs import CoeffTable, telescoping_check
from gtprobe.fidelity import (
    amplitude_reduction_check,
    bound_ratio,
    closed_form_infidelity,
    expected_fidelity,
    infidelity_sum_form,
    optimal_probe,
    plan_queries,
)
from gtprobe.simulator import (
    extract_gt_vectors,
    mc_estimates,
    verify_cg_embedding,
)
from oracles import reference_gamma_shape, reference_hook_length_dimension

MC_SAMPLES = 100_000
MC_SEED = 42


def _report(label: str, started: float) -> None:
    print(f"[PASS] {label} ({time.monotonic() - started:.2f}s)")


def test_c1_infidelity_routes_agree_exactly():
    started = time.monotonic()
    for d in range(2, 7):
        for L in range(1, 13):
            swept = 1 - expected_fidelity(CoeffTable.build(d, L))
            summed = infidelity_sum_form(d, L)
            closed = closed_form_infidelity(d, L)
            assert swept == summed == closed, (d, L)
    _report("criterion 1: exact infidelity chain for 2<=d<=6, 1<=L<=12", started)


def test_c2_golden_fidelity_values():
    started = time.monotonic()
    assert expected_fidelity(CoeffTable.build(2, 1)) == Fraction(7, 8)
    assert expected_fidelity(CoeffTable.build(3, 1)) == Fraction(4, 5)
    for L in range(1, 51):
        want = Fraction(1, 2 * (L + 1) ** 2)
        assert closed_form_infidelity(2, L) == want
        assert 1 - expected_fidelity(CoeffTable.build(2, L)) == want
    _report("criterion 2: golden values 7/8, 4/5, and 1/(2(L+1)^2) for L<=50", started)


def test_c3_scaling_envelope():
    started = time.monotonic()
    for d in range(2, 9):
        for n in range(2 * d, 200 * d + 1, 2 * d):
            assert bound_ratio(d, n) <= 4.0, (d, n)
        assert bound_ratio(d, 2000 * d) <= 2.5, d
    _report("criterion 3: infidelity * n(n+d^2)/d^3 <= 4 on the grid, <= 2.5 asymptotically", started)


def test_c4_fact_suite():
    started = time.monotonic()
    for d in range(2, 7):
        for L in range(1, 11):
            CoeffTable.build(d, L)  # raises unless the dimension ratios hold at every i
    rnd = random.Random(MC_SEED)
    for _ in range(100):
        a = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
        b = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
        k = rnd.randint(0, 25)
        assert telescoping_check(a, b, k), (a, b, k)
    rng = np.random.default_rng(MC_SEED)
    for case in range(1000):
        dim = int(rng.integers(2, 17))
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        proj = np.diag(rng.integers(0, 2, dim).astype(float))
        lhs, rhs = amplitude_reduction_check(psi, phi, proj)
        assert rhs - lhs >= -1e-10, case
    _report("criterion 4: dimension-ratio, telescoping, amplitude-reduction facts", started)


def test_c5_simulator_branching_weights():
    started = time.monotonic()
    for d, n in ((2, 4), (3, 6)):
        L = n // (2 * d)
        vectors = extract_gt_vectors(d, n)
        hooks = tuple(
            reference_hook_length_dimension(reference_gamma_shape(d, L, i)) for i in range(L + 1)
        )
        assert vectors.sector_dims == hooks, (d, n)
        for rec in verify_cg_embedding(d, n):
            assert rec.alpha_residual < 1e-8, (d, n, rec)
            assert rec.beta_residual < 1e-8, (d, n, rec)
    _report("criterion 5: simulator projections reproduce the branching weights", started)


def test_c6_simulator_monte_carlo():
    started = time.monotonic()
    for d, n in ((2, 4), (3, 6)):
        exact = float(expected_fidelity(CoeffTable.build(d, n // (2 * d))))
        fid, tot = mc_estimates(d, n, MC_SAMPLES, MC_SEED)
        assert abs(fid.mean - exact) <= 3 * fid.stderr, (d, n, fid)
        assert abs(tot.mean - 1.0) <= 3 * tot.stderr, (d, n, tot)
    _report(f"criterion 6: Monte Carlo agrees within 3 stderr at {MC_SAMPLES} samples", started)


def test_c7_optimizer_sandwich_and_sweep_gap(capsys):
    started = time.monotonic()
    for d in range(2, 7):
        for L in range(1, 13):
            tab = CoeffTable.build(d, L)
            _, lam = optimal_probe(tab)
            fid = float(expected_fidelity(tab))
            assert fid - 1e-10 <= lam <= 1.0 + 1e-10, (d, L)
    code = cli.main(["sweep", "--d-range", "2:3", "--n-range", "4:24"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[-2:] == ["optimal_infidelity_float", "gap_ratio"]
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[8] != ""
    with capsys.disabled():
        _report("criterion 7: optimal value in [fidelity, 1]; gap ratio emitted in sweeps", started)


def test_c8_planner_regime():
    started = time.monotonic()
    for d in (2, 4, 8):
        for eps in (0.5, 0.2, 0.1, 0.05):
            n = plan_queries(d, eps)
            assert n % (2 * d) == 0
            assert closed_form_infidelity(d, n // (2 * d)) <= Fraction(eps) ** 2 / 100
            assert n <= 60 * min(d**1.5 / eps, d / eps**2), (d, eps, n)
    _report("criterion 8: planner meets the target within 60x the reference scalings", started)
