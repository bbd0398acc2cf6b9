"""The benchmark's four workloads: their ops, lazy set-up and output checks.

Each workload is a list of ops made from the seed alone.  An op returns
what the program produced (exit code and stdout for CLI ops, the return
value for library calls), and its check raises ``OpFailure`` unless that
output is right.  The expected values are computed here from the
construction's closed forms, never by calling gtprobe, and an exit code
is never trusted on its own.

Only the standard library is imported at module level, so that a cold
start can time ``import gtprobe.cli`` before anything else.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SWEEP_HEADER = (
    "d,n,L,infidelity_num,infidelity_den,infidelity_float,bound_ratio,"
    "optimal_infidelity_float,gap_ratio"
)
SWEEP_D = range(2, 9)
SWEEP_N = (4, 400)
VERIFY_MAX_D, VERIFY_MAX_L = 10, 40
# (d, n, samples, --check-cg): state sizes 16, 256 and 729.  The Monte
# Carlo integrand is heavy-tailed, so its stderr is only trustworthy well
# above the CLI's minimum sample count.  Even then a 3-stderr check misses
# for a few seeds in a thousand, so every run uses the CLI's default seed
# rather than one drawn from --seed: an op must not fail at random.
SIMULATE_RUNS = ((2, 4, 20000, False), (2, 8, 8000, True), (3, 6, 6000, True))
MC_SEED = 42
MC_KEYS = tuple(f"d{d}n{n}" for d, n, _, _ in SIMULATE_RUNS)
EXTRACT_SIZES = (2, 16), (4, 8)
CG_SIZES = (2, 12), (3, 6)
FLOAT_RTOL = 1e-9  # loose enough for a cancellation-free optimum, tight otherwise
CG_LIMIT = 1e-8
ORTHO_TOL = 1e-9


class OpFailure(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    """One timed call.  ``check`` returns facts the benchmark reports, if any."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    cli: bool


@dataclass(frozen=True)
class Workload:
    """``reference`` names the parts of the reference kernel that do this
    workload's kinds of work; their summed time is its unit."""

    name: str
    first_call: Callable[[], object]
    ops: Callable[[int], list[Op]]
    reference: tuple[str, ...]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise OpFailure(message)


def _close(got: float, want: float, what: str) -> None:
    _expect(
        math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0),
        f"{what}: got {got!r}, want {want!r}",
    )


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process; returns (exit code, stdout)."""
    from gtprobe import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _call_simulator(name: str, *args, **kwargs):
    from gtprobe import simulator

    return getattr(simulator, name)(*args, **kwargs)


# Closed forms of the construction, independent of the program.


def _closed_infidelity(d: int, L: int) -> Fraction:
    N = (d + 1) * L
    return Fraction(d - 1) / (L + N + d + Fraction(2 * N * L, d + 1))


def _gamma_shape(d: int, L: int, i: int) -> tuple[int, ...]:
    rows = [(d + 1) * L + L - i] + [L] * (d - 2) + [i]
    return tuple(r for r in rows if r)


def _hook_dim(shape: tuple[int, ...]) -> int:
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    hooks = 1
    for r, length in enumerate(shape):
        for c in range(length):
            hooks *= (length - c) + (cols[c] - r) - 1
    return math.factorial(sum(shape)) // hooks


def _casimir(shape: tuple[int, ...], d: int) -> int:
    return sum(r * (r + d + 1 - 2 * j) for j, r in enumerate(shape, start=1))


def _alpha(d: int, L: int, i: int) -> Fraction:
    N = (d + 1) * L
    return Fraction(N + d - i - 1, L + N + d - 2 * i - 1)


def _partition_count(n: int, max_rows: int) -> int:
    """Partitions of n with at most max_rows rows (= parts of size <= max_rows)."""
    ways = [1] + [0] * n
    for part in range(1, max_rows + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


# sweep: few large exact tables.


@functools.lru_cache(maxsize=None)
def _sweep_expected(d: int) -> list[tuple[list[str], tuple[float, ...]]]:
    """Exact columns as text and float columns for every n of one d."""
    import numpy as np

    rows = []
    for n in range(SWEEP_N[0], SWEEP_N[1] + 1):
        if n % (2 * d):
            continue
        L, N = n // (2 * d), (d + 1) * n // (2 * d)
        closed = _closed_infidelity(d, L)
        x_sq, y_sq = [], []
        for i in range(L + 1):
            s = L + N + d - 2 * i
            x_sq.append(Fraction((N + d - i - 1) * (N - i + 1), (s - 1) * s))
            y_sq.append(Fraction((L - i + 1) * (L + d - i - 1), (s + 1) * s))
        x = np.sqrt([float(v) for v in x_sq])
        y = np.sqrt([float(v) for v in y_sq])
        gram = np.diag(x**2) + np.diag(np.append(y[1:] ** 2, 0.0))
        gram += np.diag(x[1:] * y[1:], 1) + np.diag(x[1:] * y[1:], -1)
        optimal = 1.0 - float(np.linalg.eigvalsh(gram)[-1])
        exact = [str(d), str(n), str(L), str(closed.numerator), str(closed.denominator)]
        floats = (
            float(closed),
            float(closed) * n * (n + d * d) / d**3,
            optimal,
            optimal / float(closed),
        )
        rows.append((exact, floats))
    return rows


def _check_sweep(d: int, result: tuple[int, str]) -> dict:
    code, out = result
    _expect(code == 0, f"exit code {code}")
    lines = out.splitlines()
    _expect(bool(lines) and lines[0] == SWEEP_HEADER, f"bad header {lines[:1]}")
    want = _sweep_expected(d)
    _expect(len(lines) - 1 == len(want), f"{len(lines) - 1} rows, want {len(want)}")
    names = SWEEP_HEADER.split(",")[5:]
    for line, (exact, floats) in zip(lines[1:], want):
        cells = line.split(",")
        _expect(cells[:5] == exact, f"exact columns {cells[:5]}, want {exact}")
        for name, cell, value in zip(names, cells[5:], floats):
            _close(float(cell), value, f"{name} at d={d} n={cells[1]}")
    return {}


def _sweep_ops(seed: int) -> list[Op]:
    # The sweep's input is fixed; the seed selects nothing here.
    del seed
    return [
        Op(
            f"sweep d={d}",
            functools.partial(
                run_cli, ["sweep", "--d-range", f"{d}:{d}", "--n-range", "%d:%d" % SWEEP_N]
            ),
            functools.partial(_check_sweep, d),
            cli=True,
        )
        for d in SWEEP_D
    ]


# verify: thousands of small exact cases.


def _verify_expected(seed: int) -> list[str]:
    grid = VERIFY_MAX_D - 1
    per_index = grid * sum(L + 1 for L in range(1, VERIFY_MAX_L + 1))
    branching = sum(
        _partition_count(boxes, d) for d in range(2, VERIFY_MAX_D + 1) for boxes in range(11)
    )
    counts = [
        ("infidelity-chain", grid * VERIFY_MAX_L),
        ("dimension-ratios", per_index),
        ("cg-branch-weights", per_index),
        ("g-increments", per_index),
        ("telescoping", 100),
        ("branching-sums", branching),
        ("amplitude-reduction", 1000),
    ]
    return (
        [f"verify: max_d={VERIFY_MAX_D} max_L={VERIFY_MAX_L} seed={seed}"]
        + [f"[PASS] {name} ({cases} cases)" for name, cases in counts]
        + [f"all {len(counts)} identity families passed"]
    )


def _check_verify(seed: int, result: tuple[int, str]) -> dict:
    code, out = result
    _expect(code == 0, f"exit code {code}")
    want = _verify_expected(seed)
    got = out.splitlines()
    _expect(got == want, f"output {got}, want {want}")
    return {}


def _verify_ops(seed: int) -> list[Op]:
    argv = ["verify", "--max-d", str(VERIFY_MAX_D), "--max-L", str(VERIFY_MAX_L)]
    return [
        Op(
            "verify",
            functools.partial(run_cli, argv + ["--seed", str(seed)]),
            functools.partial(_check_verify, seed),
            cli=True,
        )
    ]


# simulate: Monte Carlo over three state sizes.


def _check_simulate(d: int, n: int, samples: int, check_cg: bool, result: tuple[int, str]) -> dict:
    code, out = result
    _expect(code == 0, f"exit code {code}")
    report = json.loads(out)
    L = n // (2 * d)
    exact = 1 - _closed_infidelity(d, L)
    analytic = report["analytic_fidelity"]
    _expect(
        (analytic["num"], analytic["den"]) == (str(exact.numerator), str(exact.denominator)),
        f"analytic fidelity {analytic}, want {exact}",
    )
    _expect(report["pass"] is True, "program reports pass=false")
    mean, stderr = report["mc_mean"], report["mc_stderr"]
    _expect(
        abs(mean - float(exact)) <= 3 * stderr,
        f"MC fidelity {mean} +- {stderr} disagrees with {exact}",
    )
    total, total_err = report["total_prob_mean"], report["total_prob_stderr"]
    _expect(abs(total - 1.0) <= 3 * total_err, f"total probability {total} +- {total_err}")
    _expect((report["samples"], report["seed"]) == (samples, MC_SEED), "echoed run mismatch")
    dims = [_hook_dim(_gamma_shape(d, L, i)) for i in range(L + 1)]
    _expect(report["sector_dims"] == dims, f"sector dims {report['sector_dims']}, want {dims}")
    if check_cg:
        residuals = report["cg_residuals"]
        _expect(len(residuals) == 2 * (L + 1), f"{len(residuals)} CG residuals")
        _expect(max(residuals) < CG_LIMIT, f"CG residual {max(residuals)}")
    else:
        _expect("cg_residuals" not in report, "unrequested CG residuals")
    return {"mc_stderr": stderr, "mc_key": f"d{d}n{n}"}


def _simulate_ops(seed: int) -> list[Op]:
    del seed  # see SIMULATE_RUNS
    ops = []
    for d, n, samples, check_cg in SIMULATE_RUNS:
        argv = ["simulate", "--d", str(d), "--n", str(n), "--samples", str(samples)]
        argv += ["--seed", str(MC_SEED)] + (["--check-cg"] if check_cg else [])
        ops.append(
            Op(
                f"simulate d={d} n={n}",
                functools.partial(run_cli, argv),
                functools.partial(_check_simulate, d, n, samples, check_cg),
                cli=True,
            )
        )
    return ops


# extract: the simulator's spectral extraction, called as a library.


def _check_extract(d: int, n: int, vs) -> dict:
    import numpy as np

    L = n // (2 * d)
    shapes = [_gamma_shape(d, L, i) for i in range(L + 1)]
    dims = tuple(_hook_dim(s) for s in shapes)
    _expect(vs.sector_dims == dims, f"sector dims {vs.sector_dims}, want {dims}")
    casimirs = tuple(_casimir(s, d) for s in shapes)
    _expect(vs.casimir_values == casimirs, f"Casimir values {vs.casimir_values}")
    _expect(vs.vectors.shape == (L + 1, d**n), f"vector shape {vs.vectors.shape}")
    gram = vs.vectors @ vs.vectors.conj().T
    error = float(np.max(np.abs(gram - np.eye(L + 1))))
    _expect(error < ORTHO_TOL, f"vectors not orthonormal: {error}")
    return {}


def _check_cg(d: int, n: int, records) -> dict:
    L = n // (2 * d)
    _expect([r.i for r in records] == list(range(L + 1)), "CG records do not cover i=0..L")
    for r in records:
        alpha = _alpha(d, L, r.i)
        _expect(abs(r.alpha_proj - float(alpha)) < CG_LIMIT, f"alpha_{r.i} {r.alpha_proj}")
        _expect(abs(r.beta_proj - float(1 - alpha)) < CG_LIMIT, f"beta_{r.i} {r.beta_proj}")
        _expect(max(r.alpha_residual, r.beta_residual) < CG_LIMIT, f"residual at i={r.i}")
    return {}


def _extract_ops(seed: int) -> list[Op]:
    rnd = random.Random(seed)
    ops = []
    for name, sizes, check in (
        ("extract_gt_vectors", EXTRACT_SIZES, _check_extract),
        ("verify_cg_embedding", CG_SIZES, _check_cg),
    ):
        for d, n in sizes:
            pick = rnd.choice(("first", "last"))
            ops.append(
                Op(
                    f"{name}({d},{n},{pick})",
                    functools.partial(_call_simulator, name, d, n, pick=pick),
                    functools.partial(check, d, n),
                    cli=False,
                )
            )
    return ops


def _extract_first_call():
    _call_simulator("extract_gt_vectors", 2, 4)
    return _call_simulator("verify_cg_embedding", 2, 4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            functools.partial(run_cli, ["sweep", "--d-range", "2:2", "--n-range", "4:4"]),
            _sweep_ops,
            ("exact", "objects"),
        ),
        Workload(
            "verify",
            functools.partial(run_cli, ["verify", "--max-d", "2", "--max-L", "1"]),
            _verify_ops,
            ("exact", "objects"),
        ),
        Workload(
            "simulate",
            functools.partial(
                run_cli, ["simulate", "--d", "2", "--n", "4", "--samples", "100", "--check-cg"]
            ),
            _simulate_ops,
            ("exact", "objects", "dense", "stream"),
        ),
        # Large DGEMMs and eigensolves: these did not speed up when
        # interpreter-bound work did.
        Workload("extract", _extract_first_call, _extract_ops, ("dense", "stream")),
    )
}
