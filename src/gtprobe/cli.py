"""Command-line front end: coefficient tables, fidelity reports, identity
verification, query planning, parameter sweeps, and brute-force simulation.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
error.  All output is deterministic given the flags (seeds included).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

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
    """json.dumps hook: Fraction as {"num", "den"} decimal strings."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _shape_str(shape: tuple[int, ...]) -> str:
    return "(" + ",".join(str(r) for r in shape) + ")"


def _print(fmt: str, head: dict | None = None, columns=None, rows=(), obj=None) -> None:
    """Print rows of typed values in the chosen format.

    table: the head line (if any), then aligned cells under columns, or with
    columns None one "name value" line per (name, value) row; cells from _text,
    all formatted before anything prints.
    csv: a header line, then each value's str, RFC 4180-quoted if it holds a comma or a quote.
    json: obj if given; else each row as a dict over columns, wrapped as
    {**head, "rows": [...]}, or a bare list without head; Fractions via _json.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python < 3.10.7 has no limit
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)  # exact values print in full, past the interpreter's int-to-str digit limit
    try:
        if fmt == "json":
            if obj is None:
                obj = [dict(zip(columns, row)) for row in rows]
                obj = obj if head is None else {**head, "rows": obj}
            print(json.dumps(obj, indent=2, default=_json))
        elif fmt == "csv":
            csv.writer(sys.stdout, lineterminator="\n").writerows([columns, *rows])
        else:
            if columns is None:
                lines = [f"{name:<20}{_text(value, name, head)}" for name, value in rows]
            else:
                cells = [columns] + [[_text(v, c, head) for c, v in zip(columns, r)] for r in rows]
                widths = [max(map(len, column)) for column in zip(*cells)]
                lines = ["  ".join(map(str.ljust, line, widths)).rstrip() for line in cells]
            if head is not None:
                print(_head_line(head))
            print(*lines, sep="\n")
    finally:
        set_limit(limit)


def _parse_range(text: str) -> range:
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError:  # a part int() cannot read
        nums = []
    if not 1 <= len(nums) <= 3:
        raise ValueError(f"range must look like LO:HI or LO:HI:STEP, got {text!r}")
    lo = nums[0]
    hi = nums[1] if len(nums) >= 2 else lo
    step = nums[2] if len(nums) == 3 else 1
    if step < 1 or hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1, step)


def _rounded_n(d: int, n: int) -> int:
    """Round n down to a multiple of 2d (with a warning) per the protocol's
    query-count convention."""
    young._require_sizes(d)
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
    for i, ((dim, dim_plus), (hook, _)) in enumerate(young.gamma_hooks(d, L)):
        p = young.GammaParams(d, L, i)
        shape, plus = young.gamma_shape(p), young.gamma_plus_shape(p)
        casimir = simulator.casimir_eigenvalue(shape, d)
        rows.append([i, _shape_str(shape), _shape_str(plus), dim, dim_plus, hook, casimir])
    columns = ["i", "shape", "shape_plus", "weyl_dim", "weyl_dim_plus", "hook_dim", "casimir"]
    _print(args.format, {"d": d, "n": n, "L": L, "N": (d + 1) * L}, columns, rows)
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    n = _rounded_n(args.d, args.n)
    tab = coeffs.CoeffTable.build(args.d, n // (2 * args.d))
    columns = ["alpha", "beta", "x_sq", "y_sq", "g", "f_sq", "shared_radicand"]
    rows = [[i, *values] for i, values in enumerate(zip(*(getattr(tab, c) for c in columns)))]
    _print(args.format, {"d": tab.d, "n": n, "L": tab.L, "N": tab.N}, ["i", *columns], rows)
    return 0


def cmd_infidelity(args: argparse.Namespace) -> int:
    n = _rounded_n(args.d, args.n)
    report = fidelity.fidelity_report(args.d, n)
    if args.format == "csv":
        _print("csv", None, SWEEP_COLUMNS, [_sweep_row(report)])
        return 0
    fields = _report_fields(report)
    head = {key: fields[key] for key in ("d", "n", "L")}
    pairs = [(k, v) for k, v in fields.items() if k not in head and not k.endswith("_float")]
    _print(args.format, head, None, pairs, fields)
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
        "closed_form": report.infidelity_exact,
        "bound_ratio": report.bound_ratio,
        "optimal_rayleigh": report.optimal_rayleigh,
        "optimal_infidelity": report.optimal_infidelity,
        "gap_ratio": report.gap_ratio,
        "optimal_f": list(report.optimal_f),
    }


def _sweep_row(r: fidelity.FidelityReport) -> list:
    """A report's values under SWEEP_COLUMNS."""
    infid = r.infidelity_exact
    exact = [r.d, r.n, r.L, infid.numerator, infid.denominator]
    return exact + [float(infid), r.bound_ratio, r.optimal_infidelity, r.gap_ratio]


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
    fields = [  # (table label or None for JSON only, JSON key, value)
        ("queries n", "n", n),
        ("L", "L", L),
        ("infidelity at n", "infidelity", infid),
        (None, "infidelity_float", float(infid)),
        ("target eps^2/100", "target_float", target),
        ("ref d^1.5/eps", "ref_heisenberg", heisenberg),
        ("ref d/eps^2", "ref_classical", classical),
    ]
    head = {"d": d, "eps": eps}
    obj = {**head, **{key: value for _, key, value in fields}, "guarantee": guarantee}
    _print(args.format, head, None, [(label, v) for label, _, v in fields if label], obj)
    if args.format == "table":
        print(f"guarantee: {guarantee}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    d_range = _parse_range(args.d_range)
    n_range = _parse_range(args.n_range)
    reports = []
    for d in d_range:
        young._require_sizes(d)  # before n % (2 * d), which d = 0 would divide by
        for n in n_range:
            if n > 0 and n % (2 * d) == 0:
                reports.append(fidelity.fidelity_report(d, n))
    objs = [_report_fields(r) for r in reports] if args.format == "json" else None
    _print(args.format, None, SWEEP_COLUMNS, [_sweep_row(r) for r in reports], objs)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_d < 2 or args.max_L < 1:
        raise ValueError("need --max-d >= 2 and --max-L >= 1")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    print(f"verify: max_d={args.max_d} max_L={args.max_L} seed={args.seed}")
    failures = 0
    total = 0
    for name, results in fidelity.identity_families(args.max_d, args.max_L, args.seed):
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
    if args.check_cg:  # the CG check's (n+1)-site capacity, which covers n sites, before any work
        simulator._check_capacity(d, n + 1)
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
    _print("json", obj=report)
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
