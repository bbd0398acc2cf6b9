"""Exact and numeric analysis of the protocol's expected estimation fidelity.

The expected fidelity of the n-query protocol is a homogeneous quadratic
quotient in the probe coefficients.  This module evaluates it exactly at
the protocol's chosen coefficients, cross-checks the two closed forms of
the infidelity, normalizes against the d^3/(n(n+d^2)) scaling envelope,
maximizes the quotient as a symmetric tridiagonal eigenproblem, and plans
query counts for a target trace-distance error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import CoeffTable, ConsistencyError, f_squared, g_coeff


def query_count_params(d: int, n: int) -> int:
    """Validate that n is a positive multiple of 2d and return L = n/(2d)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if n <= 0 or n % (2 * d) != 0:
        raise ValueError(f"n must be a positive multiple of 2d={2 * d}, got {n}")
    return n // (2 * d)


def expected_fidelity(tab: CoeffTable) -> Fraction:
    """Exact expected fidelity of the protocol at the table's (d, L).

    Evaluates f_0^2 x_0^2 + sum_i (f_i x_i + f_{i-1} y_i)^2 over
    sum_i f_i^2 at the protocol's coefficients.  Each squared term is
    rational because f_i x_i and f_{i-1} y_i share the radicand R_i:
    the term at index i equals (g_i (N-i+1) + g_{i-1} (L+d-i-1))^2 R_i.
    Raises ConsistencyError unless 1 - F equals both closed forms below.
    """
    L, d, N = tab.L, tab.d, tab.N
    # Both sums stay unreduced integer pairs, normalized once; gp is g_{i-1}.
    num, den, f_num, f_den, gp = 0, 1, 0, 1, 0
    for i, (gi, r, f) in enumerate(zip(tab.g, tab.shared_radicand, tab.f_sq)):
        term = (gi * (N - i + 1) + gp * (L + d - i - 1)) ** 2 * r.numerator
        num, den = num * r.denominator + term * den, den * r.denominator
        f_num, f_den, gp = f_num * f.denominator + f.numerator * f_den, f_den * f.denominator, gi
    fid = Fraction(num * f_den, den * f_num)
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
    where P_i = prod_{j=1}^{d-1}(N+j-i)(L+j-i).
    """
    if d < 2 or L < 1:
        raise ValueError(f"need d >= 2 and L >= 1, got d={d} L={L}")
    N = (d + 1) * L
    # num/den is the upper sum, unreduced; total is d-1 times the lower sum.
    num, den, total, gp = 0, 1, 0, 0
    for i in range(L + 1):
        prods = 1
        for j in range(1, d):
            prods *= (N + j - i) * (L + j - i)
        gi, s = g_coeff(i, d, L), L + N + d - 2 * i
        num, den = num * s + (gi - gp) ** 2 * prods * den, den * s
        total += (gi**2 - gp**2) * prods
        gp = gi
    return Fraction(num * (d - 1), den * total)


def closed_form_infidelity(d: int, L: int) -> Fraction:
    """Infidelity in closed form: (d-1) / (L + N + d + 2NL/(d+1))."""
    if d < 2 or L < 1:
        raise ValueError(f"need d >= 2 and L >= 1, got d={d} L={L}")
    N = (d + 1) * L
    return Fraction(d - 1) / (L + N + d + Fraction(2 * N * L, d + 1))


def bound_ratio(d: int, n: int) -> float:
    """Closed-form infidelity divided by the scaling envelope d^3/(n(n+d^2))."""
    L = query_count_params(d, n)
    infidelity = float(closed_form_infidelity(d, L))
    if infidelity < sys.float_info.min:
        raise ValueError(f"closed-form infidelity at d={d} n={n} underflows the normal float range")
    return infidelity * n * (n + d * d) / d**3


def protocol_probe(d: int, L: int) -> np.ndarray:
    """The protocol's probe coefficients f_0..f_L, normalized to unit norm
    (the f_i^2 that CoeffTable.build stores, read without building a table)."""
    f_sq = [f_squared(i, d, L) for i in range(L + 1)]
    total = sum(f_sq)
    return np.sqrt([float(v / total) for v in f_sq])


def optimal_probe(tab: CoeffTable) -> tuple[np.ndarray, float]:
    """Maximize the fidelity quotient exactly as a tridiagonal eigenproblem.

    With A the lower-bidiagonal map A_ii = x_i, A_{i,i-1} = y_i, the
    quotient is ||Af||^2/||f||^2, so the optimum is the top eigenpair of
    the symmetric tridiagonal A^T A.  Returns (f_opt, lambda_max); the
    eigenvector sign is fixed so its largest entry is positive.
    """
    # Imported here so that runs which never optimize do not load scipy.
    from scipy.linalg import eigh_tridiagonal

    L = tab.L
    x = np.sqrt(np.array([float(v) for v in tab.x_sq]))
    y = np.sqrt(np.array([float(v) for v in tab.y_sq]))
    diag = x**2
    diag[:-1] += y[1:] ** 2
    off = x[1:] * y[1:]
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(L, L))
    vec = vecs[:, 0]
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return vec, float(vals[0])


def plan_queries(d: int, eps: float) -> int:
    """Smallest query count n (a multiple of 2d) with infidelity <= eps^2/100.

    At that n the estimate is within trace distance eps of the target
    state with probability at least 2/3.  eps must lie in (0, 1), and
    eps^2/100 must not underflow the normal float range.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps**2 / 100 < sys.float_info.min:
        raise ValueError(f"eps={eps} is too small: eps^2/100 is not a normal float")
    target = Fraction(eps) ** 2 / 100

    def ok(L: int) -> bool:
        return closed_form_infidelity(d, L) <= target

    # The denominator L + N + d + 2L^2 strictly grows in L, so hi is minimal.
    hi = 1
    while not ok(hi):
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return 2 * d * hi


def amplitude_reduction_check(
    psi: np.ndarray, phi: np.ndarray, proj: np.ndarray
) -> tuple[float, float]:
    """Both sides of the amplitude-vs-trace-distance inequality.

    Returns (lhs, rhs) with
    lhs = |sqrt(<psi|P|psi>) - sqrt(<phi|P|phi>)| and
    rhs = ||psi><psi| - |phi><phi||_1 / sqrt(2); lhs <= rhs must hold.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    proj = np.asarray(proj, dtype=complex)
    if not all(np.isfinite(a).all() for a in (psi, phi, proj)):
        raise ValueError("psi, phi and proj must be finite")
    for name, vec in (("psi", psi), ("phi", phi)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
            raise ValueError(f"{name} is not unit norm")
    if np.max(np.abs(proj - proj.conj().T)) > 1e-9:
        raise ValueError("projector is not Hermitian")
    if np.max(np.abs(proj @ proj - proj)) > 1e-9:
        raise ValueError("projector is not idempotent")
    amp_psi = math.sqrt(max(float((psi.conj() @ proj @ psi).real), 0.0))
    amp_phi = math.sqrt(max(float((phi.conj() @ proj @ phi).real), 0.0))
    diff = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return abs(amp_psi - amp_phi), trace_norm / math.sqrt(2.0)


@dataclass(frozen=True)
class FidelityReport:
    """Exact fidelity figures plus the numerically optimal probe for (d, n)."""

    d: int
    n: int
    L: int
    fidelity_exact: Fraction
    infidelity_exact: Fraction
    closed_form: Fraction
    bound_ratio: float
    optimal_rayleigh: float
    optimal_f: tuple[float, ...]

    @property
    def optimal_infidelity(self) -> float:
        return 1.0 - self.optimal_rayleigh

    @property
    def gap_ratio(self) -> float:
        """Optimal infidelity relative to the protocol's; reported as data."""
        return self.optimal_infidelity / float(self.closed_form)


def fidelity_report(d: int, n: int) -> FidelityReport:
    """Evaluate all fidelity quantities for (d, n) from one table."""
    L = query_count_params(d, n)
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
        closed_form=infid,
        bound_ratio=bound_ratio(d, n),
        optimal_rayleigh=lam,
        optimal_f=tuple(float(v) for v in vec),
    )
