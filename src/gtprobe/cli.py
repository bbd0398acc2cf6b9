"""Command-line front end: coefficient tables, fidelity reports, identity
verification, query planning, parameter sweeps, and brute-force simulation.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
error.  All output is deterministic given the flags (seeds included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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


def _head_line(head: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in head.items())


def _text(value, column: str, head: dict | None) -> str:
    """Table cell: Fraction as "p/q (float)", float as repr, anything else as str."""
    if isinstance(value, Fraction):
        try:
            return f"{value} ({float(value):.10g})"
        except OverflowError:
            raise ValueError(
                f"{column} at {_head_line(head)} exceeds the float range of the "
                "table format; use --format csv|json"
            ) from None
    return repr(value) if isinstance(value, float) else str(value)


def _json(value):
    """JSON value: Fraction as {"num", "den"} decimal strings, anything else as is."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    return value


def _shape_str(shape: tuple[int, ...]) -> str:
    return "(" + ",".join(str(r) for r in shape) + ")"


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _render(
    fmt: str,
    head: dict | None,
    columns: list[str],
    rows: list[list],
    json_rows: list[dict] | None = None,
) -> None:
    """Print rows of typed values under columns.

    table: the head line (if any), then aligned cells from _text.
    csv: a header line, then str of each value.
    json: each row as a dict over columns (or json_rows in their place), with
    _json values; wrapped as {**head, "rows": [...]}, or a bare list without head.
    """
    if fmt == "json":
        if json_rows is None:
            json_rows = [dict(zip(columns, row)) for row in rows]
        objs = [{key: _json(value) for key, value in r.items()} for r in json_rows]
        _print_json(objs if head is None else {**head, "rows": objs})
    elif fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(str(value) for value in row))
    else:
        cells = [[_text(v, c, head) for c, v in zip(columns, row)] for row in rows]
        widths = [max(map(len, column)) for column in zip(columns, *cells)]
        if head is not None:
            print(_head_line(head))
        for line in [columns, *cells]:
            print("  ".join(s.ljust(w) for s, w in zip(line, widths)).rstrip())


def _print_pairs(head: dict, pairs: list[tuple[str, object]]) -> None:
    print(_head_line(head))
    for name, value in pairs:
        print(f"{name:<20}{_text(value, name, head)}")


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
        shape, plus = young.gamma_shape(p), young.gamma_plus_shape(p)
        rows.append(
            [
                i,
                _shape_str(shape),
                _shape_str(plus),
                young.weyl_dimension(shape, d),
                young.weyl_dimension(plus, d),
                young.hook_length_dimension(shape),
                simulator.casimir_eigenvalue(shape, d),
            ]
        )
    columns = ["i", "shape", "shape_plus", "weyl_dim", "weyl_dim_plus", "hook_dim", "casimir"]
    _render(args.format, {"d": d, "n": n, "L": L, "N": (d + 1) * L}, columns, rows)
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    n = _rounded_n(args.d, args.n)
    tab = coeffs.CoeffTable.build(args.d, n // (2 * args.d))
    columns = [f.name for f in dataclasses.fields(tab) if f.name not in ("d", "L", "N")]
    rows = [[i, *values] for i, values in enumerate(zip(*(getattr(tab, c) for c in columns)))]
    _render(args.format, {"d": tab.d, "n": n, "L": tab.L, "N": tab.N}, ["i", *columns], rows)
    return 0


def cmd_infidelity(args: argparse.Namespace) -> int:
    n = _rounded_n(args.d, args.n)
    report = fidelity.fidelity_report(args.d, n)
    fields = _report_fields(report)
    if args.format == "json":
        _print_json({key: _json(value) for key, value in fields.items()})
    elif args.format == "csv":
        _render_reports("csv", [report])
    else:
        head = {key: fields.pop(key) for key in ("d", "n", "L")}
        _print_pairs(head, [(k, v) for k, v in fields.items() if not k.endswith("_float")])
    return 0


def _report_fields(report: fidelity.FidelityReport) -> dict:
    return {
        "d": report.d,
        "n": report.n,
        "L": report.L,
        "fidelity": report.fidelity_exact,
        "fidelity_float": float(report.fidelity_exact),
        "infidelity": report.infidelity_exact,
        "infidelity_float": float(report.infidelity_exact),
        "closed_form": report.closed_form,
        "bound_ratio": report.bound_ratio,
        "optimal_rayleigh": report.optimal_rayleigh,
        "optimal_infidelity": report.optimal_infidelity,
        "gap_ratio": report.gap_ratio,
        "optimal_f": list(report.optimal_f),
    }


def _render_reports(fmt: str, reports: list[fidelity.FidelityReport]) -> None:
    """Reports as SWEEP_COLUMNS rows; JSON shows all their fields instead."""
    rows = [
        [
            r.d,
            r.n,
            r.L,
            r.infidelity_exact.numerator,
            r.infidelity_exact.denominator,
            float(r.infidelity_exact),
            r.bound_ratio,
            r.optimal_infidelity,
            r.gap_ratio,
        ]
        for r in reports
    ]
    _render(fmt, None, SWEEP_COLUMNS, rows, [_report_fields(r) for r in reports])


def cmd_plan(args: argparse.Namespace) -> int:
    d, eps = args.d, args.eps
    n = fidelity.plan_queries(d, eps)
    L = n // (2 * d)
    infid, target = fidelity.closed_form_infidelity(d, L), eps**2 / 100
    try:
        heisenberg, classical = d**1.5 / eps, d / eps**2
    except OverflowError:  # d or d^1.5 beyond the float range
        heisenberg = classical = math.inf
    if not (math.isfinite(heisenberg) and math.isfinite(classical)):
        raise ValueError(f"ref d^1.5/eps or d/eps^2 at d={d} eps={eps} exceeds the float range")
    guarantee = f"trace distance <= {eps} with probability >= 2/3"
    if args.format == "json":
        _print_json(
            {
                "d": d,
                "eps": eps,
                "n": n,
                "L": L,
                "infidelity": _json(infid),
                "infidelity_float": float(infid),
                "target_float": target,
                "ref_heisenberg": heisenberg,
                "ref_classical": classical,
                "guarantee": guarantee,
            }
        )
    else:
        pairs = [
            ("queries n", n),
            ("L", L),
            ("infidelity at n", infid),
            ("target eps^2/100", target),
            ("ref d^1.5/eps", heisenberg),
            ("ref d/eps^2", classical),
        ]
        _print_pairs({"d": d, "eps": eps}, pairs)
        print(f"guarantee: {guarantee}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    d_range = _parse_range(args.d_range)
    n_range = _parse_range(args.n_range)
    reports = []
    for d in d_range:
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        for n in n_range:
            if n > 0 and n % (2 * d) == 0:
                reports.append(fidelity.fidelity_report(d, n))
    _render_reports(args.format, reports)
    return 0


def _verify_families(max_d: int, max_L: int, seed: int):
    """Yield (name, cases) pairs; cases yields None or a failure message per case."""
    grid = [(d, L) for d in range(2, max_d + 1) for L in range(1, max_L + 1)]
    indexed = [(d, L, i) for d, L in grid for i in range(L + 1)]
    built = set()  # each (d, L) whose table built, so held the dimension ratios at every i

    def infidelity_chain():
        for d, L in grid:
            tab = coeffs.CoeffTable.build(d, L)
            built.add((d, L))
            fidelity.expected_fidelity(tab)  # raises unless the three routes agree
            yield None

    def dimension_ratios():
        for d, L in grid:
            if (d, L) not in built:  # only after infidelity-chain failed or stopped early
                coeffs.CoeffTable.build(d, L)
            yield from [None] * (L + 1)

    def cg_branch_weights():
        for d, L, i in indexed:
            p = young.GammaParams(d, L, i)
            got = coeffs.cg_add_box(young.gamma_chain(p))
            alpha, beta = coeffs.alpha_beta(p)
            want = [(1, alpha)] + ([(d, beta)] if i < L else [])
            yield None if got == want else f"d={d} L={L} i={i}: {got} != {want}"

    def g_increments():
        for d, L, i in indexed:
            diff = coeffs.g_coeff(i, d, L) - coeffs.g_coeff(i - 1, d, L)
            N = (d + 1) * L
            yield None if diff == L + N + d - 2 * i else f"d={d} L={L} i={i}: increment {diff}"

    def telescoping():
        rnd = random.Random(seed)
        for _ in range(100):
            a = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
            b = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
            k = rnd.randint(0, 25)
            yield None if coeffs.telescoping_check(a, b, k) else f"a={a} b={b} k={k}"

    def branching_sums():
        for d in range(2, max_d + 1):
            for boxes in range(0, 11):
                for lam in young.partitions(boxes, d):
                    total = sum(
                        young.weyl_dimension(mu, d - 1)
                        for mu in young.branching_restrictions(lam, d)
                    )
                    yield None if total == young.weyl_dimension(lam, d) else f"d={d} lambda={lam}"

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
            bad = lhs > rhs + 1e-10
            yield f"case {case}: d={dim} lhs={lhs!r} rhs={rhs!r}" if bad else None

    yield "infidelity-chain", infidelity_chain()
    yield "dimension-ratios", dimension_ratios()
    yield "cg-branch-weights", cg_branch_weights()
    yield "g-increments", g_increments()
    yield "telescoping", telescoping()
    yield "branching-sums", branching_sums()
    yield "amplitude-reduction", amplitude_reduction()


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_d < 2 or args.max_L < 1:
        raise ValueError("need --max-d >= 2 and --max-L >= 1")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    print(f"verify: max_d={args.max_d} max_L={args.max_L} seed={args.seed}")
    failures = 0
    total = 0
    for name, results in _verify_families(args.max_d, args.max_L, args.seed):
        total += 1
        cases, failure = 0, None
        try:
            for failure in results:
                cases += 1
                if failure is not None:
                    break
        except Exception as exc:  # a hard consistency error is a failure too
            failure = str(exc)
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
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    n = _rounded_n(args.d, args.n)
    d = args.d
    if args.check_cg:  # the CG check's (n+1)-site capacity, before any work
        for sites in (n, n + 1):
            simulator._check_capacity(d, sites)
    vectors = simulator.extract_gt_vectors(
        d, n, null_tol=args.null_tol, casimir_tol=args.casimir_tol
    )
    analytic = fidelity.expected_fidelity(coeffs.CoeffTable.build(d, n // (2 * d)))
    fid_est, tot_est = simulator.mc_estimates(d, n, args.samples, args.seed, vectors)
    passed = (
        abs(fid_est.mean - float(analytic)) <= 3 * fid_est.stderr
        and abs(tot_est.mean - 1.0) <= 3 * tot_est.stderr
    )
    report = {
        "analytic_fidelity": {**_json(analytic), "float": float(analytic)},
        "mc_mean": fid_est.mean,
        "mc_stderr": fid_est.stderr,
        "samples": args.samples,
        "seed": args.seed,
        "total_prob_mean": tot_est.mean,
        "total_prob_stderr": tot_est.stderr,
    }
    if args.check_cg:
        recs = simulator.verify_cg_embedding(
            d, n, null_tol=args.null_tol, casimir_tol=args.casimir_tol, vectors=vectors
        )
        residuals = [r for rec in recs for r in (rec.alpha_residual, rec.beta_residual)]
        report["cg_residuals"] = residuals
        passed = passed and all(r < CG_RESIDUAL_LIMIT for r in residuals)
    report["sector_dims"] = list(vectors.sector_dims)
    report["pass"] = passed
    _print_json(report)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtprobe",
        description="Exact verification and simulation toolkit for an "
        "inverse-free Heisenberg-limited state estimation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("table", "csv", "json")):
        p.add_argument("--format", choices=choices, default=choices[0])

    for name, func, help_text in (
        ("dims", cmd_dims, "shape and dimension table per index i"),
        ("coeffs", cmd_coeffs, "exact coefficient table per index i"),
        ("infidelity", cmd_infidelity, "exact fidelity report for (d, n)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        add_format(p)
        p.set_defaults(func=func)

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
