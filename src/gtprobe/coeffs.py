"""Exact rational coefficients of the estimation protocol.

Every scalar the protocol needs (branching weights alpha/beta, amplitude
transfer factors x/y, probe coefficients f expressed through the integers
g) is kept squared so the whole pipeline stays inside exact rationals.
Building a coefficient table raises on the dimension ratios, both shared
radicands and beta_L = 0; `gtprobe verify` checks the remaining identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from .young import GammaParams, as_chain, gamma_plus_shape, gamma_shape, weyl_dimension


class ConsistencyError(ValueError):
    """An exact algebraic cross-check failed; the construction is broken."""


def alpha_beta(p: GammaParams) -> tuple[Fraction, Fraction]:
    """Squared weights of the two branches of the probe shape after one box.

    alpha_i = (N+d-i-1)/(L+N+d-2i-1),  beta_i = (L-i)/(L+N+d-2i-1).
    """
    d, L, N, i = p.d, p.L, p.N, p.i
    den = L + N + d - 2 * i - 1
    assert (N + d - i - 1) + (L - i) == den  # alpha + beta == 1
    return Fraction(N + d - i - 1, den), Fraction(L - i, den)


def xy_squared(p: GammaParams) -> tuple[Fraction, Fraction]:
    """Squared transfer amplitudes (x_i^2, y_i^2) at index i.

    x_i^2 = (N+d-i-1)(N-i+1) / ((L+N+d-2i-1)(L+N+d-2i))
    y_i^2 = (L-i+1)(L+d-i-1) / ((L+N+d-2i+1)(L+N+d-2i))
    """
    d, L, N, i = p.d, p.L, p.N, p.i
    s = L + N + d - 2 * i
    x_sq = Fraction((N + d - i - 1) * (N - i + 1), (s - 1) * s)
    y_sq = Fraction((L - i + 1) * (L + d - i - 1), (s + 1) * s)
    return x_sq, y_sq


def g_coeff(i: int, d: int, L: int) -> int:
    """g_i = (i+1)(L+N+d-i) with g_{-1} = 0."""
    if not -1 <= i <= L:
        raise ValueError(f"index i must satisfy -1 <= i <= L={L}, got {i}")
    if i == -1:
        return 0
    N = (d + 1) * L
    return (i + 1) * (L + N + d - i)


def f_squared(i: int, d: int, L: int) -> Fraction:
    """Squared probe coefficient before normalization.

    f_i^2 = g_i^2 (L+N+d-2i-1) prod_{j=2}^{d-1}(N+j-i-1) prod_{j=2}^{d-1}(L+d-j-i);
    empty products are 1; g_{-1} = 0 makes f_{-1}^2 = 0.
    """
    N = (d + 1) * L
    value = g_coeff(i, d, L) ** 2 * (L + N + d - 2 * i - 1)
    for j in range(2, d):
        value *= (N + j - i - 1) * (L + d - j - i)
    return Fraction(value)


def shared_radicand(i: int, d: int, L: int) -> Fraction:
    """Common rational factor under the square roots of f_i x_i and f_{i-1} y_i.

    R_i = prod_{j=2}^{d-1}(N+j-i) prod_{j=2}^{d-1}(L+d-j-i) / (L+N+d-2i),
    so that (f_i x_i)^2 = (g_i (N-i+1))^2 R_i and
    (f_{i-1} y_i)^2 = (g_{i-1} (L+d-i-1))^2 R_i.
    """
    if not 0 <= i <= L:
        raise ValueError(f"index i must satisfy 0 <= i <= L={L}, got {i}")
    N = (d + 1) * L
    value = 1
    for j in range(2, d):
        value *= (N + j - i) * (L + d - j - i)
    return Fraction(value, L + N + d - 2 * i)


def cg_add_box(chain: Sequence[Iterable[int]]) -> list[tuple[int, Fraction]]:
    """Squared Clebsch-Gordan coefficients for appending the largest letter.

    Given the interlacing chain of a semistandard tableau over alphabet
    [d], returns (k, C_k^2) for every row k where adding a box filled
    with d yields a valid tableau.  With the shifted rows t_j = lam_j - j
    of the top diagram lam and s_j = mu_j - j of the diagram mu below it,

        C_k^2 = |prod_{j=1}^{d-1} (s_j - t_k - 1)| / |prod_{j != k} (t_j - t_k)|.

    Rows whose extension is invalid are omitted; the surviving squares
    sum to 1.
    """
    diagrams = as_chain(chain)
    d = len(diagrams)
    lam = diagrams[-1]
    mu = diagrams[-2] if d >= 2 else ()
    t = [r - j for j, r in enumerate(lam + (0,) * (d - len(lam)))]
    s = [r - j for j, r in enumerate(mu + (0,) * (d - 1 - len(mu)))]
    out: list[tuple[int, Fraction]] = []
    for k, tk in enumerate(t):
        # Row k (0-based) accepts a largest-letter box iff the box above it (if
        # any) was already present before the last letter: mu[k-1] >= lam[k] + 1,
        # which on the shifted rows reads s[k-1] - t[k] >= 2.
        if k and s[k - 1] - tk < 2:
            continue
        num = prod([sj - tk - 1 for sj in s])
        den = prod([tj - tk for tj in t if tj != tk])  # shifted rows are distinct
        out.append((k + 1, Fraction(abs(num), abs(den))))
    return out


def _dim_ratios_hold(
    p: GammaParams, dim: int, dim_plus: int, dim_prev: int,
    alpha: Fraction, beta_prev: Fraction | int, x_sq: Fraction, y_sq: Fraction,
) -> bool:
    """The identities of dim_ratio_check, given dim(gamma_i), dim(gamma_i^+),
    dim(gamma_{i-1}), alpha_i, beta_{i-1}, x_i^2 and y_i^2; the two values
    at i - 1 are unused at i = 0."""
    d, L, N, i = p.d, p.L, p.N, p.i
    s = L + N + d - 2 * i  # a/b == u/v is checked as a * v == b * u (denominators are positive)
    ok = dim * s * (N + d - i - 1) == dim_plus * (s - 1) * (N - i + 1)
    an, ad = alpha.numerator, alpha.denominator
    ok = ok and an * an * dim * x_sq.denominator == x_sq.numerator * dim_plus * ad * ad
    if i >= 1:
        bn, bd = beta_prev.numerator, beta_prev.denominator
        ok = ok and dim_prev * s * (L - i + 1) == dim_plus * (s + 1) * (L + d - i - 1)
        ok = ok and bn * bn * dim_prev * y_sq.denominator == y_sq.numerator * dim_plus * bd * bd
    return ok


def dim_ratio_check(p: GammaParams) -> bool:
    """Exact check of the dimension-ratio identities behind x and y.

    dim(gamma_i)/dim(gamma_i^+)     = (L+N+d-2i-1)(N-i+1) / ((L+N+d-2i)(N+d-i-1))
    dim(gamma_{i-1})/dim(gamma_i^+) = (L+N+d-2i+1)(L+d-i-1) / ((L+N+d-2i)(L-i+1))

    and, squared, x_i^2 = alpha_i^2 dim(gamma_i)/dim(gamma_i^+) and
    y_i^2 = beta_{i-1}^2 dim(gamma_{i-1})/dim(gamma_i^+).
    """
    d, dim_prev, beta_prev = p.d, 0, 0
    if p.i >= 1:
        prev = GammaParams(d, p.L, p.i - 1)
        dim_prev, beta_prev = weyl_dimension(gamma_shape(prev), d), alpha_beta(prev)[1]
    dim, dim_plus = weyl_dimension(gamma_shape(p), d), weyl_dimension(gamma_plus_shape(p), d)
    return _dim_ratios_hold(
        p, dim, dim_plus, dim_prev, alpha_beta(p)[0], beta_prev, *xy_squared(p)
    )


def telescoping_check(a: Fraction, b: Fraction, k: int) -> bool:
    """Exact check of the product-difference identity used by the infidelity sums.

    (a+b+k+1) prod_{j=1}^{k}(a+j)(b+j)
        = [prod_{j=1}^{k+1}(a+j)(b+j) - prod_{j=1}^{k+1}(a-1+j)(b-1+j)] / (k+1)
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    a, b = Fraction(a), Fraction(b)
    lhs = a + b + k + 1
    for j in range(1, k + 1):
        lhs *= (a + j) * (b + j)
    upper = Fraction(1)
    shifted = Fraction(1)
    for j in range(1, k + 2):
        upper *= (a + j) * (b + j)
        shifted *= (a - 1 + j) * (b - 1 + j)
    return lhs == (upper - shifted) / (k + 1)


@dataclass(frozen=True)
class CoeffTable:
    """All protocol scalars for one (d, L), indexed by i = 0..L.

    Building it checks the dimension ratios behind x_i and y_i and both shared
    radicands at every i, then beta_L = 0, raising ConsistencyError on any exact
    mismatch; `gtprobe verify` checks the CG, telescoping and g-increment ones.
    """

    d: int
    L: int
    N: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    x_sq: tuple[Fraction, ...]
    y_sq: tuple[Fraction, ...]
    g: tuple[int, ...]
    f_sq: tuple[Fraction, ...]
    shared_radicand: tuple[Fraction, ...]

    @classmethod
    def build(cls, d: int, L: int) -> "CoeffTable":
        N = (d + 1) * L
        rows = []  # (alpha, beta, x_sq, y_sq, g, f_sq, shared_radicand) per index
        # Each quantity is evaluated once per index; the dimension-ratio
        # identity at i reads dim(gamma_{i-1}) and beta_{i-1} from index i-1.
        prev_dim = prev_b = prev_g = prev_f = 0
        for i in range(L + 1):
            p = GammaParams(d, L, i)
            a, b = alpha_beta(p)
            xs, ys = xy_squared(p)
            dim = weyl_dimension(gamma_shape(p), d)
            dim_plus = weyl_dimension(gamma_plus_shape(p), d)
            if not _dim_ratios_hold(p, dim, dim_plus, prev_dim, a, prev_b, xs, ys):
                raise ConsistencyError(
                    f"dimension-ratio identity failed at d={d} L={L} i={i}"
                )
            gi = g_coeff(i, d, L)
            fs = f_squared(i, d, L)
            ri = shared_radicand(i, d, L)
            # f_i^2 x_i^2 == (g_i (N-i+1))^2 R_i and f_{i-1}^2 y_i^2 == (g_{i-1} (L+d-i-1))^2 R_i,
            # cross-multiplied over the positive denominators.
            rn, rd = ri.numerator, ri.denominator
            fx = fs.numerator * xs.numerator * rd
            if fx != (gi * (N - i + 1)) ** 2 * rn * fs.denominator * xs.denominator:
                raise ConsistencyError(
                    f"shared radicand mismatch for f_i*x_i at d={d} L={L} i={i}"
                )
            fy = prev_f.numerator * ys.numerator * rd
            if fy != (prev_g * (L + d - i - 1)) ** 2 * rn * prev_f.denominator * ys.denominator:
                raise ConsistencyError(
                    f"shared radicand mismatch for f_(i-1)*y_i at d={d} L={L} i={i}"
                )
            rows.append((a, b, xs, ys, gi, fs, ri))
            prev_dim, prev_b, prev_g, prev_f = dim, b, gi, fs
        if prev_b != 0:
            raise ConsistencyError(f"beta_L must vanish, got {prev_b} at d={d} L={L}")
        return cls(d, L, N, *zip(*rows))
