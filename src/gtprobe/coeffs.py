"""Exact rational coefficients of the estimation protocol.

Every scalar the protocol needs (branching weights alpha/beta, amplitude
transfer factors x/y, probe coefficients f expressed through the integers
g) is kept squared so the whole pipeline stays inside exact rationals.
All identities the construction relies on are re-derivable here and are
enforced as hard errors when a coefficient table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .young import (
    GammaParams,
    as_diagram,
    gamma_plus_shape,
    gamma_shape,
    is_valid_chain,
    row,
    weyl_dimension,
)


class ConsistencyError(ValueError):
    """An exact algebraic cross-check failed; the construction is broken."""


def alpha_beta(p: GammaParams) -> tuple[Fraction, Fraction]:
    """Squared weights of the two branches of the probe shape after one box.

    alpha_i = (N+d-i-1)/(L+N+d-2i-1),  beta_i = (L-i)/(L+N+d-2i-1).
    """
    d, L, N, i = p.d, p.L, p.N, p.i
    den = L + N + d - 2 * i - 1
    alpha = Fraction(N + d - i - 1, den)
    beta = Fraction(L - i, den)
    assert alpha + beta == 1
    return alpha, beta


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
    empty products are 1.
    """
    if i == -1:
        return Fraction(0)
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
    N = (d + 1) * L
    value = Fraction(1, L + N + d - 2 * i)
    for j in range(2, d):
        value *= (N + j - i) * (L + d - j - i)
    return value


def cg_add_box(chain: Sequence[Iterable[int]]) -> list[tuple[int, Fraction]]:
    """Squared Clebsch-Gordan coefficients for appending the largest letter.

    Given the interlacing chain of a semistandard tableau over alphabet
    [d], returns (k, C_k^2) for every row k where adding a box filled
    with d yields a valid tableau:

        C_k^2 = |prod_{j=1}^{d-1} (chain[d-1]_j - j - lam_k + k - 1)|
              / |prod_{j != k}    (lam_j - j - lam_k + k)|

    with lam the top diagram.  Rows whose extension is invalid are
    omitted; the surviving squares sum to 1.
    """
    diagrams = tuple(as_diagram(c) for c in chain)
    if not is_valid_chain(diagrams):
        raise ValueError("not a valid interlacing chain")
    d = len(diagrams)
    lam = diagrams[-1]
    sub = diagrams[-2] if d >= 2 else ()
    out: list[tuple[int, Fraction]] = []
    for k in range(1, d + 1):
        # Row k accepts a largest-letter box iff the box above it (if any)
        # was already present before the last letter: sub_{k-1} >= lam_k + 1.
        if k >= 2 and row(sub, k - 1) < row(lam, k) + 1:
            continue
        num = 1
        for j in range(1, d):
            num *= row(sub, j) - j - row(lam, k) + k - 1
        den = 1
        for j in range(1, d + 1):
            if j != k:
                den *= row(lam, j) - j - row(lam, k) + k
        out.append((k, Fraction(abs(num), abs(den))))
    return out


def dim_ratio_check(p: GammaParams) -> bool:
    """Exact check of the dimension-ratio identities behind x and y.

    dim(gamma_i)/dim(gamma_i^+)     = (L+N+d-2i-1)(N-i+1) / ((L+N+d-2i)(N+d-i-1))
    dim(gamma_{i-1})/dim(gamma_i^+) = (L+N+d-2i+1)(L+d-i-1) / ((L+N+d-2i)(L-i+1))

    and, squared, x_i^2 = alpha_i^2 dim(gamma_i)/dim(gamma_i^+) and
    y_i^2 = beta_{i-1}^2 dim(gamma_{i-1})/dim(gamma_i^+).
    """
    d, L, N, i = p.d, p.L, p.N, p.i
    s = L + N + d - 2 * i
    dim_plus = weyl_dimension(gamma_plus_shape(p), d)
    ratio = Fraction(weyl_dimension(gamma_shape(p), d), dim_plus)
    alpha, _ = alpha_beta(p)
    x_sq, y_sq = xy_squared(p)
    ok = ratio == Fraction((s - 1) * (N - i + 1), s * (N + d - i - 1))
    ok = ok and alpha**2 * ratio == x_sq
    if i >= 1:
        prev = GammaParams(d, L, i - 1)
        ratio_prev = Fraction(weyl_dimension(gamma_shape(prev), d), dim_plus)
        beta_prev = alpha_beta(prev)[1]
        ok = ok and ratio_prev == Fraction((s + 1) * (L + d - i - 1), s * (L - i + 1))
        ok = ok and beta_prev**2 * ratio_prev == y_sq
    return ok


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

    Building the table re-derives every coefficient along two independent
    routes (definitions vs. dimension ratios vs. Clebsch-Gordan) and
    raises ConsistencyError on any exact mismatch, so a table in hand
    certifies the probe-shape construction at its parameters.
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
        alpha, beta, x_sq, y_sq, g, f_sq, rad = [], [], [], [], [], [], []
        for i in range(L + 1):
            p = GammaParams(d, L, i)
            if not dim_ratio_check(p):
                raise ConsistencyError(
                    f"dimension-ratio identity failed at d={d} L={L} i={i}"
                )
            a, b = alpha_beta(p)
            xs, ys = xy_squared(p)
            gi = g_coeff(i, d, L)
            fs = f_squared(i, d, L)
            ri = shared_radicand(i, d, L)
            if fs * xs != Fraction(gi * (N - i + 1)) ** 2 * ri:
                raise ConsistencyError(
                    f"shared radicand mismatch for f_i*x_i at d={d} L={L} i={i}"
                )
            prev_f = f_sq[i - 1] if i >= 1 else Fraction(0)
            prev_g = g[i - 1] if i >= 1 else 0
            if prev_f * ys != Fraction(prev_g * (L + d - i - 1)) ** 2 * ri:
                raise ConsistencyError(
                    f"shared radicand mismatch for f_(i-1)*y_i at d={d} L={L} i={i}"
                )
            alpha.append(a)
            beta.append(b)
            x_sq.append(xs)
            y_sq.append(ys)
            g.append(gi)
            f_sq.append(fs)
            rad.append(ri)
        if beta[L] != 0:
            raise ConsistencyError(f"beta_L must vanish, got {beta[L]} at d={d} L={L}")
        return cls(
            d=d,
            L=L,
            N=N,
            alpha=tuple(alpha),
            beta=tuple(beta),
            x_sq=tuple(x_sq),
            y_sq=tuple(y_sq),
            g=tuple(g),
            f_sq=tuple(f_sq),
            shared_radicand=tuple(rad),
        )
