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
from math import factorial, prod
from typing import Iterable, Sequence

from .young import GammaParams, as_chain, gamma_shape
from .young import _gamma_rows, _require_integer, _shifted_rows, _weyl_core


class ConsistencyError(ValueError):
    """An exact algebraic cross-check failed; the construction is broken."""


def _check_index(i: int, d: int, L: int, lo: int = 0) -> tuple[int, int, int]:
    """(i, d, L) as plain ints; raise ValueError unless they are integers and lo <= i <= L."""
    if not type(i) is type(d) is type(L) is int:  # plain ints skip the three calls
        i, d, L = (_require_integer(name, v) for name, v in (("i", i), ("d", d), ("L", L)))
    if not lo <= i <= L:
        raise ValueError(f"index i must satisfy {lo} <= i <= L={L}, got {i}")
    return i, d, L


def alpha_beta(i: int, d: int, L: int) -> tuple[Fraction, Fraction]:
    """Squared weights of the two branches of the probe shape after one box.

    alpha_i = (N+d-i-1)/(L+N+d-2i-1),  beta_i = (L-i)/(L+N+d-2i-1).
    """
    i, d, L = _check_index(i, d, L)
    N = (d + 1) * L
    den = L + N + d - 2 * i - 1
    assert (N + d - i - 1) + (L - i) == den  # alpha + beta == 1
    return Fraction(N + d - i - 1, den), Fraction(L - i, den)


def xy_squared(i: int, d: int, L: int) -> tuple[Fraction, Fraction]:
    """Squared transfer amplitudes (x_i^2, y_i^2) at index i.

    x_i^2 = (N+d-i-1)(N-i+1) / ((L+N+d-2i-1)(L+N+d-2i))
    y_i^2 = (L-i+1)(L+d-i-1) / ((L+N+d-2i+1)(L+N+d-2i))
    """
    i, d, L = _check_index(i, d, L)
    N = (d + 1) * L
    s = L + N + d - 2 * i
    x_sq = Fraction((N + d - i - 1) * (N - i + 1), (s - 1) * s)
    y_sq = Fraction((L - i + 1) * (L + d - i - 1), (s + 1) * s)
    return x_sq, y_sq


def g_coeff(i: int, d: int, L: int) -> int:
    """g_i = (i+1)(L+N+d-i) with g_{-1} = 0."""
    i, d, L = _check_index(i, d, L, lo=-1)
    if i == -1:
        return 0
    N = (d + 1) * L
    return (i + 1) * (L + N + d - i)


def f_squared(i: int, d: int, L: int) -> Fraction:
    """Squared probe coefficient before normalization.

    f_i^2 = g_i^2 (L+N+d-2i-1) prod_{j=2}^{d-1}(N+j-i-1) prod_{j=2}^{d-1}(L+d-j-i);
    empty products are 1; g_{-1} = 0 makes f_{-1}^2 = 0.
    """
    i, d, L = _check_index(i, d, L, lo=-1)
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
    i, d, L = _check_index(i, d, L)
    N = (d + 1) * L
    value = 1
    for j in range(2, d):
        value *= (N + j - i) * (L + d - j - i)
    return Fraction(value, L + N + d - 2 * i)


def _cg_core(t: Sequence[int], s: Sequence[int]) -> list[tuple[int, Fraction]]:
    """cg_add_box on the shifted rows t of the top diagram and s of the one below."""
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
    if not d:
        raise ValueError("chain must hold at least one diagram")
    mu = diagrams[-2] if d >= 2 else ()
    return _cg_core(_shifted_rows(diagrams[-1], d), _shifted_rows(mu, d - 1))


def telescoping_check(a: Fraction, b: Fraction, k: int) -> bool:
    """Exact check of the product-difference identity used by the infidelity sums.

    (a+b+k+1) prod_{j=1}^{k}(a+j)(b+j)
        = [prod_{j=1}^{k+1}(a+j)(b+j) - prod_{j=1}^{k+1}(a-1+j)(b-1+j)] / (k+1)
    """
    k = _require_integer("k", k)
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

    Building it checks, at every i, the dimension ratios behind x_i and y_i,

        dim(gamma_i)/dim(gamma_i^+)     = (L+N+d-2i-1)(N-i+1) / ((L+N+d-2i)(N+d-i-1)),
        dim(gamma_{i-1})/dim(gamma_i^+) = (L+N+d-2i+1)(L+d-i-1) / ((L+N+d-2i)(L-i+1)),

    x_i^2 = alpha_i^2 dim(gamma_i)/dim(gamma_i^+) and y_i^2 = beta_{i-1}^2
    dim(gamma_{i-1})/dim(gamma_i^+) (those with gamma_{i-1} from i = 1 on), then both
    shared radicands and beta_L = 0, raising ConsistencyError on any exact mismatch;
    `gtprobe verify` checks the CG, telescoping and g-increment identities.
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
        p = GammaParams(d, L, 0)  # checks d and L once and makes them plain ints
        d, L = p.d, p.L
        h = _shifted_rows(gamma_shape(p), d)
        N = (d + 1) * L
        denominator = prod(map(factorial, range(d)))
        rows = []  # (alpha, beta, x_sq, y_sq, g, f_sq, shared_radicand) per index
        # Each quantity is evaluated once per index; the dimension-ratio
        # identity at i reads dim(gamma_{i-1}) and beta_{i-1} from index i-1.
        prev_dim = prev_b = prev_g = prev_f = 0
        for i in range(L + 1):
            t = _gamma_rows(h, i)
            dim = _weyl_core(t, denominator)
            t[0] += 1  # gamma_i^+ adds one box to row 1
            dim_plus = _weyl_core(t, denominator)
            a, b = alpha_beta(i, d, L)
            xs, ys = xy_squared(i, d, L)
            # The dimension ratios, cross-multiplied over the positive denominators.
            s, an, ad = L + N + d - 2 * i, a.numerator, a.denominator
            ok = dim * s * (N + d - i - 1) == dim_plus * (s - 1) * (N - i + 1)
            ok = ok and an * an * dim * xs.denominator == xs.numerator * dim_plus * ad * ad
            if i:
                bn, bd = prev_b.numerator, prev_b.denominator
                ok = ok and prev_dim * s * (L - i + 1) == dim_plus * (s + 1) * (L + d - i - 1)
                ok = ok and bn * bn * prev_dim * ys.denominator == ys.numerator * dim_plus * bd * bd
            if not ok:
                raise ConsistencyError(f"dimension-ratio identity failed at d={d} L={L} i={i}")
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
