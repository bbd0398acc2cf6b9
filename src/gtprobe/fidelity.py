"""Exact and numeric analysis of the protocol's expected estimation fidelity.

The expected fidelity of the n-query protocol is a homogeneous quadratic
quotient in the probe coefficients.  This module evaluates it exactly at
the protocol's chosen coefficients, cross-checks the two closed forms of
the infidelity, normalizes against the d^3/(n(n+d^2)) scaling envelope,
maximizes the quotient as a symmetric tridiagonal eigenproblem, and plans
query counts for a target trace-distance error; identity_families is verify's registry.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import CoeffTable, ConsistencyError, _alpha_beta_g, _terms
from .coeffs import cg_branch_weights, g_increments, telescoping_check
from .young import _require_integer, _require_sizes, branching_sums


def query_count_params(d: int, n: int) -> tuple[int, int, int]:
    """Validate that n is a positive multiple of 2d; return (d, n, L = n/(2d)) as plain ints."""
    d, n = _require_sizes(d)[0], _require_integer("n", n)
    if n <= 0 or n % (2 * d) != 0:
        raise ValueError(f"n must be a positive multiple of 2d={2 * d}, got {n}")
    return d, n, n // (2 * d)


def expected_fidelity(tab: CoeffTable) -> Fraction:
    """Exact expected fidelity of the protocol at the table's (d, L).

    Evaluates f_0^2 x_0^2 + sum_i (f_i x_i + f_{i-1} y_i)^2 over
    sum_i f_i^2 at the protocol's coefficients.  Each squared term is
    rational because f_i x_i and f_{i-1} y_i share the radicand R_i:
    the term at index i equals (g_i (N-i+1) + g_{i-1} (L+d-i-1))^2 R_i.
    Raises ConsistencyError unless every term is an integer and 1 - F equals both closed forms.
    """
    L, d, N = tab.L, tab.d, tab.N
    # num is the upper sum and total the sum of the f_i^2, both integers; gp is g_{i-1}. With
    # s = L+N+d-2i, g_i = g_{i-1} = i(i+1) mod s, so s divides A_i = g_i (N-i+1) + g_{i-1}
    # (L+d-i-1) and the term A_i^2 rn/s is (A_i/s)^2 s rn.
    num, total, gp = 0, 0, 0
    for i, (gi, f, rn, s) in enumerate(t[7:] for t in tab.terms):
        a, rem = divmod(gi * (N - i + 1) + gp * (L + d - i - 1), s)
        if rem:
            raise ConsistencyError(f"upper term not a multiple of s={s} at d={d} L={L} i={i}")
        num, total, gp = num + a * a * s * rn, total + f, gi
    fid = Fraction(num, total)
    summed, closed = infidelity_sum_form(d, L), closed_form_infidelity(d, L)
    if not 1 - fid == summed == closed:
        raise ConsistencyError(
            f"infidelity routes disagree at d={d} L={L} n={2 * d * L}: "
            f"1-F={1 - fid} sum-form={summed} closed-form={closed}"
        )
    return fid


def infidelity_sum_form(d: int, L: int) -> Fraction:
    """Infidelity as the ratio of telescoped g-increment sums.

    sum_i (g_i - g_{i-1})^2/(L+N+d-2i) P_i  over
    sum_i (g_i^2 - g_{i-1}^2)/(d-1) P_i,
    where P_i = prod_{j=1}^{d-1}(N+j-i)(L+j-i), two windows stepped along i.
    """
    d, L = _require_sizes(d, L)
    N = (d + 1) * L
    # num is the upper sum, an integer as s = g_i - g_{i-1}; total is d-1 times the lower sum.
    num, total, gp = 0, 0, 0
    pn, pl = math.prod(range(N + 2, N + d + 1)), math.prod(range(L + 2, L + d + 1))  # at i = -1
    for i in range(L + 1):  # a window drops its top factor, so each division is exact
        pn = pn * (N - i + 1) // (N + d - i)  # prod(range(N-i+1, N-i+d))
        pl = pl * (L - i + 1) // (L + d - i)  # prod(range(L-i+1, L-i+d))
        prods = pn * pl
        gi, s = _alpha_beta_g(i, d, L)[3], L + N + d - 2 * i
        q, rem = divmod((gi - gp) ** 2, s)
        if rem:
            raise ConsistencyError(f"g-increment not a multiple of s={s} at d={d} L={L} i={i}")
        num += q * prods
        total += (gi**2 - gp**2) * prods
        gp = gi
    return Fraction(num * (d - 1), total)


def closed_form_infidelity(d: int, L: int) -> Fraction:
    """Infidelity in closed form: (d-1) / (L + N + d + 2NL/(d+1)), made as one quotient."""
    d, L = _require_sizes(d, L)
    N = (d + 1) * L
    return Fraction((d - 1) * (d + 1), (L + N + d) * (d + 1) + 2 * N * L)


def bound_ratio(d: int, n: int) -> float:
    """Closed-form infidelity divided by the scaling envelope d^3/(n(n+d^2))."""
    d, n, L = query_count_params(d, n)
    infidelity = float(closed_form_infidelity(d, L))
    if infidelity < sys.float_info.min:
        raise ValueError(f"closed-form infidelity at d={d} n={n} underflows the normal float range")
    return infidelity * n * (n + d * d) / d**3


def protocol_probe(d: int, L: int) -> np.ndarray:
    """The protocol's probe coefficients f_0..f_L, normalized to unit norm
    (the f_i^2 that CoeffTable.build stores, read without building a table)."""
    d, L = _require_sizes(d, L)
    f_sq = [t[8] for t in _terms(d, L)]
    total = sum(f_sq)
    return np.sqrt([v / total for v in f_sq])  # int / int rounds correctly, as float(Fraction)


def optimal_probe(tab: CoeffTable) -> tuple[np.ndarray, float]:
    """Maximize the fidelity quotient exactly as a tridiagonal eigenproblem.

    With A the lower-bidiagonal map A_ii = x_i, A_{i,i-1} = y_i, the
    quotient is ||Af||^2/||f||^2, so the optimum is the top eigenpair of
    the symmetric tridiagonal A^T A.  Returns (f_opt, lambda_max); the
    eigenvector sign is fixed so its largest entry is positive.  A failed
    LAPACK routine raises ConsistencyError.
    """
    # Imported here so that runs which never optimize do not load scipy.
    from scipy.linalg import lapack

    L = tab.L
    x = np.sqrt(np.array([t[3] / t[4] for t in tab.terms]))  # int / int rounds as float(Fraction)
    y = np.sqrt(np.array([t[5] / t[6] for t in tab.terms]))
    diag = x**2
    diag[:-1] += y[1:] ** 2
    off = x[1:] * y[1:]
    # eigh_tridiagonal(..., select="i", select_range=(L, L))'s bisection and inverse iteration.
    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, L + 1, L + 1, 0.0, "B")
    routine = "dstebz"
    if info == 0 and m == 1:
        routine, (vecs, info) = "dstein", lapack.dstein(diag, off, w[:m], iblock, isplit)
    if info != 0 or m != 1:
        raise ConsistencyError(f"LAPACK {routine} gave info={info} m={m} at d={tab.d} L={L}")
    vec = vecs[:, 0]
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return vec, float(w[0])


def plan_queries(d: int, eps: float) -> int:
    """Smallest query count n (a multiple of 2d) with infidelity <= eps^2/100.

    At that n the estimate is within trace distance eps of the target
    state with probability at least 2/3.  eps must lie in (0, 1), and
    eps^2/100 must not underflow the normal float range.
    """
    d = _require_sizes(d)[0]  # a numpy d would overflow the exact comparison below
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps**2 / 100 < sys.float_info.min:
        raise ValueError(f"eps={eps} is too small: eps^2/100 is not a normal float")
    target = Fraction(eps) ** 2 / 100
    # 1 - F = (d-1)/D(L) with D(L) = 2L^2 + (d+2)L + d strictly increasing, so the least L
    # has D(L) >= T = (d-1)/target: start at or below the root of D(L) = floor(T), step up.
    T = (d - 1) * target.denominator // target.numerator
    L = max(1, (math.isqrt((d - 2) ** 2 + 8 * T) - d - 2) // 4)
    while closed_form_infidelity(d, L) > target:
        L += 1
    return 2 * d * L


def amplitude_reduction_check(
    psi: np.ndarray, phi: np.ndarray, proj: np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Both sides of the amplitude-vs-trace-distance inequality.

    Returns (lhs, rhs) with
    lhs = |sqrt(<psi|P|psi>) - sqrt(<phi|P|phi>)| and
    rhs = ||psi><psi| - |phi><phi||_1 / sqrt(2); lhs <= rhs must hold.
    psi and phi may be stacks (..., m) of states with proj a stack (..., m, m)
    of projectors; lhs and rhs are then arrays over the stack, floats for one case.
    """
    psi, phi, proj = (np.asarray(a, dtype=complex) for a in (psi, phi, proj))
    if not psi.ndim or phi.shape != psi.shape or proj.shape != psi.shape + psi.shape[-1:]:
        raise ValueError(
            f"psi, phi and proj must have shapes (..., m), (..., m) and (..., m, m), "
            f"got {psi.shape}, {phi.shape} and {proj.shape}"
        )
    if not all(np.isfinite(a).all() for a in (psi, phi, proj)):
        raise ValueError("psi, phi and proj must be finite")
    for name, vec in (("psi", psi), ("phi", phi)):
        if np.any(np.abs(np.linalg.norm(vec, axis=-1) - 1.0) > 1e-9):
            raise ValueError(f"{name} is not unit norm")
    if np.any(np.abs(proj - proj.conj().swapaxes(-1, -2)) > 1e-9):
        raise ValueError("projector is not Hermitian")
    if np.any(np.abs(proj @ proj - proj) > 1e-9):
        raise ValueError("projector is not idempotent")
    bra_psi, bra_phi = psi.conj()[..., None, :], phi.conj()[..., None, :]
    amp_psi = np.sqrt(np.maximum((bra_psi @ proj @ psi[..., None]).real, 0.0))
    amp_phi = np.sqrt(np.maximum((bra_phi @ proj @ phi[..., None]).real, 0.0))
    diff = psi[..., None] * bra_psi
    diff -= phi[..., None] * bra_phi  # in place, so a stack holds one (..., m, m) array fewer
    lhs = np.abs(amp_psi - amp_phi)[..., 0, 0]
    rhs = np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1) / math.sqrt(2.0)
    return (float(lhs), float(rhs)) if psi.ndim == 1 else (lhs, rhs)


@dataclass(frozen=True)
class FidelityReport:
    """Exact fidelity figures plus the numerically optimal probe for (d, n)."""

    d: int
    n: int
    L: int
    fidelity_exact: Fraction
    infidelity_exact: Fraction
    bound_ratio: float
    optimal_rayleigh: float
    optimal_f: tuple[float, ...]

    @property
    def optimal_infidelity(self) -> float:
        return 1.0 - self.optimal_rayleigh

    @property
    def gap_ratio(self) -> float:
        """Optimal infidelity relative to the protocol's; reported as data."""
        return self.optimal_infidelity / float(self.infidelity_exact)


def fidelity_report(d: int, n: int) -> FidelityReport:
    """Evaluate all fidelity quantities for (d, n) from one table."""
    d, n, L = query_count_params(d, n)
    # One table serves both the exact fidelity and the optimizer; it is not
    # kept past this call, so every report re-runs the build's checks.
    tab = CoeffTable.build(d, L)
    fid = expected_fidelity(tab)
    infid = 1 - fid
    vec, lam = optimal_probe(tab)
    if lam < float(fid) - 1e-12 or lam > 1.0 + 1e-10:
        raise ConsistencyError(
            f"optimal Rayleigh value {lam} outside [fidelity, 1] at d={d} n={n}"
        )
    return FidelityReport(
        d=d,
        n=n,
        L=L,
        fidelity_exact=fid,
        infidelity_exact=infid,
        bound_ratio=bound_ratio(d, n),
        optimal_rayleigh=lam,
        optimal_f=tuple(vec.tolist()),
    )


def identity_families(max_d: int, max_L: int, seed: int):
    """verify's registry: (name, cases) per identity family; cases yield None or a failure."""
    grid = [(d, L) for d in range(2, max_d + 1) for L in range(1, max_L + 1)]
    built = set()  # each (d, L) whose table built, so held the dimension ratios at every i

    def infidelity_chain():
        for d, L in grid:
            tab = CoeffTable.build(d, L)
            built.add((d, L))
            expected_fidelity(tab)  # raises unless the three routes agree
            yield None

    def dimension_ratios():
        for d, L in grid:
            if (d, L) not in built:  # only after infidelity-chain failed or stopped early
                CoeffTable.build(d, L)
            yield from [None] * (L + 1)

    def telescoping():
        rnd = random.Random(seed)
        for _ in range(100):
            a = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
            b = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
            k = rnd.randint(0, 25)
            yield None if telescoping_check(a, b, k) else f"a={a} b={b} k={k}"

    def amplitude_reduction():
        # Cases are drawn one by one from the seeded stream and checked one dimension at a
        # time, each group dropped once checked; failures are reported in the order drawn.
        rng = np.random.default_rng(seed)
        groups = {}  # dim -> [(case number, four draws of dim normals, diagonal of proj)]
        for case in range(1000):
            dim = int(rng.integers(2, 17))
            z = rng.standard_normal(4 * dim)
            groups.setdefault(dim, []).append((case, z, rng.integers(0, 2, dim)))
        failures = {}  # case number -> message
        for dim in sorted(groups):
            numbers, z, diag = zip(*groups.pop(dim))
            z = np.reshape(z, (-1, 4, dim))
            psi, phi = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
            for v in psi, phi:  # each row over its norm, by np.linalg.norm's dots on re and im
                v /= np.sqrt(sum(r[:, None, :] @ r[:, :, None] for r in (v.real, v.imag)))[:, 0]
            proj = np.array(diag)[..., None] * np.eye(dim, dtype=complex)
            lhs, rhs = amplitude_reduction_check(psi, phi, proj)
            for case, left, right in zip(numbers, lhs.tolist(), rhs.tolist()):
                if left > right + 1e-10:
                    failures[case] = f"case {case}: d={dim} lhs={left!r} rhs={right!r}"
        yield from map(failures.get, range(1000))

    yield "infidelity-chain", infidelity_chain()
    yield "dimension-ratios", dimension_ratios()
    yield "cg-branch-weights", cg_branch_weights(grid)
    yield "g-increments", g_increments(grid)
    yield "telescoping", telescoping()
    yield "branching-sums", branching_sums(max_d)
    yield "amplitude-reduction", amplitude_reduction()
