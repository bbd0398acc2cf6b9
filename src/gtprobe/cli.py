"""Command-line front end: coefficient tables, fidelity reports, identity
verification, query planning, parameter sweeps, and brute-force simulation.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
error.  All output is deterministic given the flags (seeds included).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

import numpy as np

from . import coeffs, fidelity, simulator, young

SWEEP_COLUMNS = [
    "d",
    "n",
    "L",
    "infidelity_num",
    "infidelity_den",
    "infidelity_float",
    "bound_ratio",
    "optimal_infidelity_float",
    "gap_ratio",
]

CG_RESIDUAL_LIMIT = 1e-8


def _frac_json(q: Fraction) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _fmt_frac(q: Fraction) -> str:
    return f"{q} ({float(q):.10g})"


def _shape_str(shape: tuple[int, ...]) -> str:
    return "(" + ",".join(str(r) for r in shape) + ")"


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _parse_range(text: str) -> range:
    parts = text.split(":")
    if not 1 <= len(parts) <= 3:
        raise ValueError(f"range must look like LO:HI or LO:HI:STEP, got {text!r}")
    nums = [int(p) for p in parts]
    lo = nums[0]
    hi = nums[1] if len(nums) >= 2 else lo
    step = nums[2] if len(nums) == 3 else 1
    if step < 1 or hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1, step)


def _rounded_n(d: int, n: int) -> int:
    """Round n down to a multiple of 2d (with a warning) per the protocol's
    query-count convention."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if n < 2 * d:
        raise ValueError(f"n must be at least 2d={2 * d}, got {n}")
    if n % (2 * d):
        rounded = n - n % (2 * d)
        print(
            f"warning: n={n} is not a multiple of 2d={2 * d}; using n={rounded}",
            file=sys.stderr,
        )
        return rounded
    return n


def cmd_dims(args: argparse.Namespace) -> int:
    n = _rounded_n(args.d, args.n)
    d, L = args.d, n // (2 * args.d)
    rows = []
    for i in range(L + 1):
        p = young.GammaParams(d, L, i)
        shape = young.gamma_shape(p)
        plus = young.gamma_plus_shape(p)
        rows.append(
            {
                "i": i,
                "shape": _shape_str(shape),
                "shape_plus": _shape_str(plus),
                "weyl_dim": young.weyl_dimension(shape, d),
                "weyl_dim_plus": young.weyl_dimension(plus, d),
                "hook_dim": young.hook_length_dimension(shape),
                "casimir": simulator.casimir_eigenvalue(shape, d),
            }
        )
    header = ["i", "shape", "shape_plus", "weyl_dim", "weyl_dim_plus", "hook_dim", "casimir"]
    if args.format == "json":
        _print_json({"d": d, "n": n, "L": L, "N": (d + 1) * L, "rows": rows})
    elif args.format == "csv":
        print(",".join(header))
        for r in rows:
            print(",".join(str(r[h]) for h in header))
    else:
        print(f"d={d} n={n} L={L} N={(d + 1) * L}")
        _print_table(header, [[str(r[h]) for h in header] for r in rows])
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    n = _rounded_n(args.d, args.n)
    d, L = args.d, n // (2 * args.d)
    tab = coeffs.CoeffTable.build(d, L)
    header = ["i", "alpha", "beta", "x_sq", "y_sq", "g", "f_sq", "shared_radicand"]
    if args.format == "json":
        rows = [
            {
                "i": i,
                "alpha": _frac_json(tab.alpha[i]),
                "beta": _frac_json(tab.beta[i]),
                "x_sq": _frac_json(tab.x_sq[i]),
                "y_sq": _frac_json(tab.y_sq[i]),
                "g": tab.g[i],
                "f_sq": _frac_json(tab.f_sq[i]),
                "shared_radicand": _frac_json(tab.shared_radicand[i]),
            }
            for i in range(L + 1)
        ]
        _print_json({"d": d, "n": n, "L": L, "N": tab.N, "rows": rows})
    elif args.format == "csv":
        print(",".join(header))
        for i in range(L + 1):
            print(
                f"{i},{tab.alpha[i]},{tab.beta[i]},{tab.x_sq[i]},{tab.y_sq[i]},"
                f"{tab.g[i]},{tab.f_sq[i]},{tab.shared_radicand[i]}"
            )
    else:
        print(f"d={d} n={n} L={L} N={tab.N}")
        body = [
            [
                str(i),
                _fmt_frac(tab.alpha[i]),
                _fmt_frac(tab.beta[i]),
                _fmt_frac(tab.x_sq[i]),
                _fmt_frac(tab.y_sq[i]),
                str(tab.g[i]),
                _fmt_frac(tab.f_sq[i]),
                _fmt_frac(tab.shared_radicand[i]),
            ]
            for i in range(L + 1)
        ]
        _print_table(header, body)
    return 0


def cmd_infidelity(args: argparse.Namespace) -> int:
    n = _rounded_n(args.d, args.n)
    report = fidelity.fidelity_report(args.d, n)
    if args.format == "json":
        _print_json(_report_json(report))
    elif args.format == "csv":
        print(",".join(SWEEP_COLUMNS))
        print(",".join(_sweep_row(report)))
    else:
        print(f"d={report.d} n={report.n} L={report.L}")
        lines = [
            ("fidelity", _fmt_frac(report.fidelity_exact)),
            ("infidelity", _fmt_frac(report.infidelity_exact)),
            ("closed_form", _fmt_frac(report.closed_form)),
            ("bound_ratio", repr(report.bound_ratio)),
            ("optimal_rayleigh", repr(report.optimal_rayleigh)),
            ("optimal_infidelity", repr(report.optimal_infidelity)),
            ("gap_ratio", repr(report.gap_ratio)),
            ("optimal_f", "[" + ", ".join(repr(v) for v in report.optimal_f) + "]"),
        ]
        for name, value in lines:
            print(f"{name:<20}{value}")
    return 0


def _report_json(report: fidelity.FidelityReport) -> dict:
    return {
        "d": report.d,
        "n": report.n,
        "L": report.L,
        "fidelity": _frac_json(report.fidelity_exact),
        "fidelity_float": float(report.fidelity_exact),
        "infidelity": _frac_json(report.infidelity_exact),
        "infidelity_float": float(report.infidelity_exact),
        "closed_form": _frac_json(report.closed_form),
        "bound_ratio": report.bound_ratio,
        "optimal_rayleigh": report.optimal_rayleigh,
        "optimal_infidelity": report.optimal_infidelity,
        "gap_ratio": report.gap_ratio,
        "optimal_f": list(report.optimal_f),
    }


def cmd_plan(args: argparse.Namespace) -> int:
    if not 0 < args.eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {args.eps}")
    d, eps = args.d, args.eps
    n = fidelity.plan_queries(d, eps)
    L = n // (2 * d)
    infid = fidelity.closed_form_infidelity(d, L)
    heisenberg = d**1.5 / eps
    classical = d / eps**2
    if args.format == "json":
        _print_json(
            {
                "d": d,
                "eps": eps,
                "n": n,
                "L": L,
                "infidelity": _frac_json(infid),
                "infidelity_float": float(infid),
                "target_float": eps**2 / 100,
                "ref_heisenberg": heisenberg,
                "ref_classical": classical,
                "guarantee": f"trace distance <= {eps} with probability >= 2/3",
            }
        )
    else:
        print(f"d={d} eps={eps}")
        print(f"{'queries n':<20}{n}")
        print(f"{'L':<20}{L}")
        print(f"{'infidelity at n':<20}{_fmt_frac(infid)}")
        print(f"{'target eps^2/100':<20}{eps**2 / 100!r}")
        print(f"{'ref d^1.5/eps':<20}{heisenberg!r}")
        print(f"{'ref d/eps^2':<20}{classical!r}")
        print(f"guarantee: trace distance <= {eps} with probability >= 2/3")
    return 0


def _sweep_row(report: fidelity.FidelityReport) -> list[str]:
    return [
        str(report.d),
        str(report.n),
        str(report.L),
        str(report.infidelity_exact.numerator),
        str(report.infidelity_exact.denominator),
        repr(float(report.infidelity_exact)),
        repr(report.bound_ratio),
        repr(report.optimal_infidelity),
        repr(report.gap_ratio),
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    d_range = _parse_range(args.d_range)
    n_range = _parse_range(args.n_range)
    rows = []
    for d in d_range:
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        for n in n_range:
            if n > 0 and n % (2 * d) == 0:
                rows.append(fidelity.fidelity_report(d, n))
    if args.format == "json":
        _print_json([_report_json(r) for r in rows])
    elif args.format == "table":
        _print_table(SWEEP_COLUMNS, [_sweep_row(r) for r in rows])
    else:
        print(",".join(SWEEP_COLUMNS))
        for r in rows:
            print(",".join(_sweep_row(r)))
    return 0


def _verify_families(max_d: int, max_L: int, seed: int):
    """Yield (name, runner) pairs; a runner returns (cases, first_failure)."""

    def infidelity_chain():
        cases = 0
        for d in range(2, max_d + 1):
            for L in range(1, max_L + 1):
                cases += 1
                swept = 1 - fidelity.expected_fidelity(d, 2 * d * L)
                summed = fidelity.infidelity_sum_form(d, L)
                closed = fidelity.closed_form_infidelity(d, L)
                if not swept == summed == closed:
                    return cases, f"d={d} L={L}: {swept} vs {summed} vs {closed}"
        return cases, None

    def dimension_ratios():
        cases = 0
        for d in range(2, max_d + 1):
            for L in range(1, max_L + 1):
                for i in range(L + 1):
                    cases += 1
                    if not coeffs.dim_ratio_check(young.GammaParams(d, L, i)):
                        return cases, f"d={d} L={L} i={i}"
        return cases, None

    def cg_branch_weights():
        cases = 0
        for d in range(2, max_d + 1):
            for L in range(1, max_L + 1):
                for i in range(L + 1):
                    cases += 1
                    p = young.GammaParams(d, L, i)
                    got = coeffs.cg_add_box(young.gamma_chain(p))
                    alpha, beta = coeffs.alpha_beta(p)
                    want = [(1, alpha)] + ([(d, beta)] if i < L else [])
                    if got != want:
                        return cases, f"d={d} L={L} i={i}: {got} != {want}"
        return cases, None

    def g_increments():
        cases = 0
        for d in range(2, max_d + 1):
            for L in range(1, max_L + 1):
                N = (d + 1) * L
                for i in range(L + 1):
                    cases += 1
                    diff = coeffs.g_coeff(i, d, L) - coeffs.g_coeff(i - 1, d, L)
                    if diff != L + N + d - 2 * i:
                        return cases, f"d={d} L={L} i={i}: increment {diff}"
        return cases, None

    def telescoping():
        rnd = random.Random(seed)
        for case in range(100):
            a = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
            b = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
            k = rnd.randint(0, 25)
            if not coeffs.telescoping_check(a, b, k):
                return case + 1, f"a={a} b={b} k={k}"
        return 100, None

    def branching_sums():
        cases = 0
        for d in range(2, max_d + 1):
            for boxes in range(0, 11):
                for lam in young.partitions(boxes, d):
                    cases += 1
                    total = sum(
                        young.weyl_dimension(mu, d - 1)
                        for mu in young.branching_restrictions(lam, d)
                    )
                    if total != young.weyl_dimension(lam, d):
                        return cases, f"d={d} lambda={lam}"
        return cases, None

    def amplitude_reduction():
        rng = np.random.default_rng(seed)
        for case in range(1000):
            dim = int(rng.integers(2, 17))
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            proj = np.diag(rng.integers(0, 2, dim).astype(float))
            lhs, rhs = fidelity.amplitude_reduction_check(psi, phi, proj)
            if lhs > rhs + 1e-10:
                return case + 1, f"case {case}: d={dim} lhs={lhs!r} rhs={rhs!r}"
        return 1000, None

    yield "infidelity-chain", infidelity_chain
    yield "dimension-ratios", dimension_ratios
    yield "cg-branch-weights", cg_branch_weights
    yield "g-increments", g_increments
    yield "telescoping", telescoping
    yield "branching-sums", branching_sums
    yield "amplitude-reduction", amplitude_reduction


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_d < 2 or args.max_L < 1:
        raise ValueError("need --max-d >= 2 and --max-L >= 1")
    print(f"verify: max_d={args.max_d} max_L={args.max_L} seed={args.seed}")
    failures = 0
    total = 0
    for name, runner in _verify_families(args.max_d, args.max_L, args.seed):
        total += 1
        try:
            cases, failure = runner()
        except Exception as exc:  # a hard consistency error is a failure too
            failure = str(exc)
            cases = 0
        if failure is None:
            print(f"[PASS] {name} ({cases} cases)")
        else:
            failures += 1
            print(f"[FAIL] {name}: {failure}")
    if failures:
        print(f"{failures} of {total} identity families failed")
        return 1
    print(f"all {total} identity families passed")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.samples < simulator.MIN_SAMPLES:
        raise ValueError(f"need at least {simulator.MIN_SAMPLES} samples")
    n = _rounded_n(args.d, args.n)
    d = args.d
    vectors = simulator.extract_gt_vectors(
        d, n, null_tol=args.null_tol, casimir_tol=args.casimir_tol
    )
    analytic = fidelity.expected_fidelity(d, n)
    fid_est, tot_est = simulator.mc_estimates(d, n, args.samples, args.seed, vectors)
    passed = (
        abs(fid_est.mean - float(analytic)) <= 3 * fid_est.stderr
        and abs(tot_est.mean - 1.0) <= 3 * tot_est.stderr
    )
    report = {
        "analytic_fidelity": {**_frac_json(analytic), "float": float(analytic)},
        "mc_mean": fid_est.mean,
        "mc_stderr": fid_est.stderr,
        "samples": args.samples,
        "seed": args.seed,
        "total_prob_mean": tot_est.mean,
        "total_prob_stderr": tot_est.stderr,
    }
    if args.check_cg:
        residuals: list[float] = []
        recs = simulator.verify_cg_embedding(
            d, n, null_tol=args.null_tol, casimir_tol=args.casimir_tol
        )
        for rec in recs:
            residuals.extend([rec.alpha_residual, rec.beta_residual])
        report["cg_residuals"] = residuals
        passed = passed and all(r < CG_RESIDUAL_LIMIT for r in residuals)
    report["sector_dims"] = list(vectors.sector_dims)
    report["pass"] = passed
    _print_json(report)
    return 0 if passed else 1


def _print_table(header: list[str], body: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in body:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in body:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtprobe",
        description="Exact verification and simulation toolkit for an "
        "inverse-free Heisenberg-limited state estimation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("table", "csv", "json")):
        p.add_argument("--format", choices=choices, default=choices[0])

    p = sub.add_parser("dims", help="shape and dimension table per index i")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("coeffs", help="exact coefficient table per index i")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("infidelity", help="exact fidelity report for (d, n)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_infidelity)

    p = sub.add_parser("plan", help="smallest query count for a target error")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    add_format(p, choices=("table", "json"))
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="infidelity/optimality sweep over (d, n)")
    p.add_argument("--d-range", required=True, help="LO:HI[:STEP]")
    p.add_argument("--n-range", required=True, help="LO:HI[:STEP]")
    add_format(p, choices=("csv", "table", "json"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the exact-identity suite")
    p.add_argument("--max-d", type=int, default=6)
    p.add_argument("--max-L", type=int, default=12, dest="max_L")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="brute-force Monte Carlo cross-check")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--check-cg", action="store_true")
    p.add_argument("--null-tol", type=float, default=simulator.NULL_SPACE_TOL)
    p.add_argument("--casimir-tol", type=float, default=simulator.CASIMIR_TOL)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except simulator.CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (coeffs.ConsistencyError, simulator.ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
