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
from scipy.linalg import eigh_tridiagonal

from .coeffs import CoeffTable, ConsistencyError, g_coeff


def query_count_params(d: int, n: int) -> int:
    """Validate that n is a positive multiple of 2d and return L = n/(2d)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if n <= 0 or n % (2 * d) != 0:
        raise ValueError(f"n must be a positive multiple of 2d={2 * d}, got {n}")
    return n // (2 * d)


def expected_fidelity(d: int, n: int) -> Fraction:
    """Exact expected fidelity of the n-query protocol.

    Evaluates f_0^2 x_0^2 + sum_i (f_i x_i + f_{i-1} y_i)^2 over
    sum_i f_i^2 at the protocol's coefficients.  Each squared term is
    rational because f_i x_i and f_{i-1} y_i share the radicand R_i:
    the term at index i equals (g_i (N-i+1) + g_{i-1} (L+d-i-1))^2 R_i.
    """
    L = query_count_params(d, n)
    tab = CoeffTable.build(d, L)
    N = tab.N
    num = Fraction(0)
    for i in range(L + 1):
        a = tab.g[i] * (N - i + 1)
        b = (tab.g[i - 1] if i >= 1 else 0) * (L + d - i - 1)
        num += (a + b) ** 2 * tab.shared_radicand[i]
    return num / sum(tab.f_sq)


def infidelity_sum_form(d: int, L: int) -> Fraction:
    """Infidelity as the ratio of telescoped g-increment sums.

    sum_i (g_i - g_{i-1})^2/(L+N+d-2i) P_i  over
    sum_i (g_i^2 - g_{i-1}^2)/(d-1) P_i,
    where P_i = prod_{j=1}^{d-1}(N+j-i)(L+j-i).
    """
    if d < 2 or L < 1:
        raise ValueError(f"need d >= 2 and L >= 1, got d={d} L={L}")
    N = (d + 1) * L
    num = Fraction(0)
    den = Fraction(0)
    for i in range(L + 1):
        prods = 1
        for j in range(1, d):
            prods *= (N + j - i) * (L + j - i)
        gi = g_coeff(i, d, L)
        gp = g_coeff(i - 1, d, L)
        num += Fraction((gi - gp) ** 2, L + N + d - 2 * i) * prods
        den += Fraction(gi**2 - gp**2, d - 1) * prods
    return num / den


def closed_form_infidelity(d: int, L: int) -> Fraction:
    """Infidelity in closed form: (d-1) / (L + N + d + 2NL/(d+1))."""
    if d < 2 or L < 1:
        raise ValueError(f"need d >= 2 and L >= 1, got d={d} L={L}")
    N = (d + 1) * L
    return Fraction(d - 1) / (L + N + d + Fraction(2 * N * L, d + 1))


def bound_ratio(d: int, n: int) -> float:
    """Closed-form infidelity divided by the scaling envelope d^3/(n(n+d^2))."""
    L = query_count_params(d, n)
    return float(closed_form_infidelity(d, L)) * n * (n + d * d) / d**3


def protocol_probe(d: int, L: int) -> np.ndarray:
    """The protocol's probe coefficients f_0..f_L, normalized to unit norm."""
    tab = CoeffTable.build(d, L)
    total = sum(tab.f_sq)
    return np.sqrt([float(v / total) for v in tab.f_sq])


def rayleigh_quotient(f: np.ndarray, d: int, L: int) -> float:
    """Homogeneous fidelity quotient at an arbitrary coefficient vector.

    (f_0^2 x_0^2 + sum_{i>=1} (f_i x_i + f_{i-1} y_i)^2) / sum_i f_i^2;
    invariant under rescaling of f.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (L + 1,):
        raise ValueError(f"expected {L + 1} coefficients, got shape {f.shape}")
    if not np.any(f):
        raise ValueError("coefficient vector must be nonzero")
    tab = CoeffTable.build(d, L)
    x = np.sqrt(np.array([float(v) for v in tab.x_sq]))
    y = np.sqrt(np.array([float(v) for v in tab.y_sq]))
    shifted = np.concatenate(([0.0], f[:-1]))
    terms = x * f + y * shifted
    return float(np.dot(terms, terms) / np.dot(f, f))


def optimal_probe(d: int, L: int) -> tuple[np.ndarray, float]:
    """Maximize the fidelity quotient exactly as a tridiagonal eigenproblem.

    With A the lower-bidiagonal map A_ii = x_i, A_{i,i-1} = y_i, the
    quotient is ||Af||^2/||f||^2, so the optimum is the top eigenpair of
    the symmetric tridiagonal A^T A.  Returns (f_opt, lambda_max); the
    eigenvector sign is fixed so its largest entry is positive.
    """
    tab = CoeffTable.build(d, L)
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


def trace_distance_from_overlap(overlap_sq: float) -> float:
    """Trace norm 2*sqrt(1 - s) of the difference of two pure states
    with squared overlap s; inputs within 1e-12 outside [0, 1] are clamped."""
    s = float(overlap_sq)
    if not -1e-12 <= s <= 1 + 1e-12:
        raise ValueError(f"squared overlap must lie in [0, 1], got {s}")
    s = min(max(s, 0.0), 1.0)
    return 2.0 * math.sqrt(1.0 - s)


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
    """Evaluate all fidelity quantities for (d, n), cross-checking the
    three exact routes to the infidelity against each other."""
    L = query_count_params(d, n)
    fid = expected_fidelity(d, n)
    infid = 1 - fid
    closed = closed_form_infidelity(d, L)
    summed = infidelity_sum_form(d, L)
    if infid != closed or infid != summed:
        raise ConsistencyError(
            f"infidelity routes disagree at d={d} n={n}: "
            f"sweep={infid} sum-form={summed} closed-form={closed}"
        )
    vec, lam = optimal_probe(d, L)
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
        closed_form=closed,
        bound_ratio=bound_ratio(d, n),
        optimal_rayleigh=lam,
        optimal_f=tuple(float(v) for v in vec),
    )
