"""Exact rational coefficients of the estimation protocol.

Every scalar the protocol needs (branching weights alpha/beta, amplitude
transfer factors x/y, probe coefficients f expressed through the integers
g) is kept squared and computed and checked as unreduced integers; a reduced
Fraction is made only where one is returned.  Building a coefficient table
raises on the dimension ratios, both shared radicands and beta_L = 0;
`gtprobe verify` checks the remaining identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Sequence

from .young import as_chain, gamma_chain, gamma_dims
from .young import _gamma_rows, _require_family, _require_integer, _shifted_rows


class ConsistencyError(ValueError):
    """An exact algebraic cross-check failed; the construction is broken."""


def _alpha_beta_g(i: int, d: int, L: int) -> tuple[int, int, int, int]:
    """(a, b, s-1, g) at index i (plain ints, 0 <= i <= L), with N = (d+1)L and
    s = L+N+d-2i: alpha_i = a/(s-1), beta_i = b/(s-1) and g_i = (i+1)(L+N+d-i)."""
    N = (d + 1) * L
    s = L + N + d - 2 * i
    return N + d - i - 1, L - i, s - 1, (i + 1) * (s + i)


def _terms(d: int, L: int) -> Iterator[tuple[int, ...]]:
    """Every closed form at each index i = 0..L (plain ints), unreduced, yielded in order.

    Yields the integers (a, b, s-1, xn, xd, yn, yd, g, f, rn, s): those of
    _alpha_beta_g, x_i^2 = xn/xd, y_i^2 = yn/yd, f_i^2 = f and the shared radicand R_i = rn/s,

        x_i^2 = (N+d-i-1)(N-i+1) / ((s-1)s),  y_i^2 = (L-i+1)(L+d-i-1) / ((s+1)s),
        f_i^2 = g_i^2 (s-1) prod_{j=2}^{d-1}(N+j-i-1) prod_{j=2}^{d-1}(L+d-j-i),
        R_i = prod_{j=2}^{d-1}(N+j-i) prod_{j=2}^{d-1}(L+d-j-i) / s,

    so that (f_i x_i)^2 = (g_i (N-i+1))^2 R_i and (f_{i-1} y_i)^2 = (g_{i-1} (L+d-i-1))^2 R_i.
    Each product is a window of d-2 consecutive integers, stepped along i.
    """
    N = (d + 1) * L
    q, u, w = prod(range(L + 2, L + d)), prod(range(N + 2, N + d)), prod(range(N + 3, N + d + 1))
    for i in range(L + 1):  # from i = -1; a window drops its top factor, so it divides exactly
        q = q * (L - i + 1) // (L + d - i - 1)  # prod(range(L-i+1, L+d-i-1)), f^2's and R's
        u = u * (N - i + 1) // (N + d - i - 1)  # prod(range(N-i+1, N+d-i-1)), f^2's
        w = w * (N - i + 2) // (N + d - i)  # prod(range(N-i+2, N+d-i)), R's
        a, b, ad, g = _alpha_beta_g(i, d, L)
        s, xn, yn = ad + 1, a * (N - i + 1), (b + 1) * (L + d - i - 1)
        yield a, b, ad, xn, ad * s, yn, (s + 1) * s, g, g * g * ad * u * q, w * q, s


def _cg_core(t: Sequence[int], s: Sequence[int]) -> list[tuple[int, int, int]]:
    """Squared Clebsch-Gordan coefficients for appending the largest letter.

    For an interlacing chain over alphabet [d] whose top diagram lam has the shifted rows
    t_j = lam_j - j and whose diagram mu below it has s_j = mu_j - j, returns (k, num, den),
    den > 0, with C_k^2 = num/den unreduced, for every row k where adding a box filled with
    d yields a valid tableau:

        C_k^2 = |prod_{j=1}^{d-1} (s_j - t_k - 1)| / |prod_{j != k} (t_j - t_k)|.

    Rows whose extension is invalid are omitted; the surviving squares sum to 1.
    """
    out: list[tuple[int, int, int]] = []
    for k, tk in enumerate(t):
        # Row k (0-based) accepts a largest-letter box iff the box above it (if
        # any) was already present before the last letter: mu[k-1] >= lam[k] + 1,
        # which on the shifted rows reads s[k-1] - t[k] >= 2.
        if k and s[k - 1] - tk < 2:
            continue
        num = prod([sj - tk - 1 for sj in s])
        den = prod([tj - tk for tj in t if tj != tk])  # shifted rows are distinct
        out.append((k + 1, abs(num), abs(den)))
    return out


def cg_branch_weights(grid: Iterable[tuple[int, int]]):
    """verify's cg-branch-weights cases: per (d, L) of grid and i, gamma_i's CG weights."""
    for d, L in grid:
        # gamma_i's chain is gamma_0's with i boxes of the top diagram moved from
        # row 1 to row d. For 0 <= i <= L the top (N+L-i, L, ..., L, i) still
        # interlaces the rectangle (L, ..., L) below it, as N+L-i >= L >= i. So
        # the one chain check, as_chain on gamma_0's, covers every i, and each i
        # steps the shifted rows of the top. Weights compare as integers.
        chain = as_chain(gamma_chain(d, L))
        t, s = _shifted_rows(chain[-1], d), _shifted_rows(chain[-2], d - 1)
        for i in range(L + 1):
            got = _cg_core(_gamma_rows(t, i), s)
            a, b, den, _ = _alpha_beta_g(i, d, L)
            want = [(1, a, den)] + ([(d, b, den)] if i < L else [])
            ok = len(got) == len(want) and all(
                k == kw and n * dw == nw * dn for (k, n, dn), (kw, nw, dw) in zip(got, want)
            )
            if not ok:
                got, want = ([(k, Fraction(n, dn)) for k, n, dn in w] for w in (got, want))
            yield None if ok else f"d={d} L={L} i={i}: {got} != {want}"


def g_increments(grid: Iterable[tuple[int, int]]):
    """verify's g-increments cases: per (d, L) of grid and i, g_i - g_{i-1} = L+N+d-2i."""
    for d, L in grid:
        N, gp = (d + 1) * L, 0  # gp is g_{i-1}, and g_{-1} = 0
        for i in range(L + 1):
            g = _alpha_beta_g(i, d, L)[3]
            diff, gp = g - gp, g
            yield None if diff == L + N + d - 2 * i else f"d={d} L={L} i={i}: increment {diff}"


def telescoping_check(a: Fraction, b: Fraction, k: int) -> bool:
    """Exact check of the product-difference identity used by the infidelity sums.

    (a+b+k+1) prod_{j=1}^{k}(a+j)(b+j)
        = [prod_{j=1}^{k+1}(a+j)(b+j) - prod_{j=1}^{k+1}(a-1+j)(b-1+j)] / (k+1),

    in integers: with a = p/q and b = r/t (q, t > 0), both sides times (k+1)(qt)^(k+1).
    """
    k = _require_integer("k", k)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    (p, q), (r, t) = Fraction(a).as_integer_ratio(), Fraction(b).as_integer_ratio()

    def window(lo: int, hi: int) -> int:  # (qt)^(hi-lo+1) prod_{j=lo}^{hi}(a+j)(b+j)
        return prod((p + j * q) * (r + j * t) for j in range(lo, hi + 1))

    lhs = (k + 1) * (p * t + r * q + (k + 1) * q * t) * window(1, k)
    return lhs == window(1, k + 1) - window(0, k)


@dataclass(frozen=True)
class CoeffTable:
    """All protocol scalars for one (d, L), indexed by i = 0..L.

    It keeps the checked _terms integers of each index; the fields below make
    their tuples (of reduced Fractions, of ints for g) from them on access.
    Building it checks, at every i, x_i^2 = alpha_i^2 dim(gamma_i)/dim(gamma_i^+) and
    y_i^2 = beta_{i-1}^2 dim(gamma_{i-1})/dim(gamma_i^+) (from i = 1 on) on Weyl
    dimensions made apart from _terms, then both shared radicands and beta_L = 0,
    raising ConsistencyError on any exact mismatch; `gtprobe verify` checks the CG,
    telescoping and g-increment identities.
    """

    d: int
    L: int
    N: int
    terms: tuple[tuple[int, ...], ...]  # (a, b, s-1, xn, xd, yn, yd, g, f, rn, s) per index

    alpha = property(lambda tab: tuple(Fraction(t[0], t[2]) for t in tab.terms))
    beta = property(lambda tab: tuple(Fraction(t[1], t[2]) for t in tab.terms))
    x_sq = property(lambda tab: tuple(Fraction(t[3], t[4]) for t in tab.terms))
    y_sq = property(lambda tab: tuple(Fraction(t[5], t[6]) for t in tab.terms))
    g = property(lambda tab: tuple(t[7] for t in tab.terms))
    f_sq = property(lambda tab: tuple(Fraction(t[8]) for t in tab.terms))
    shared_radicand = property(lambda tab: tuple(Fraction(t[9], t[10]) for t in tab.terms))

    @classmethod
    def build(cls, d: int, L: int) -> "CoeffTable":
        d, L = _require_family(d, L)  # checks d and L once and makes them plain ints
        N = (d + 1) * L
        rows = []  # the _terms integers per index
        # Each index reads its _terms integers and its two Weyl dimensions; the identities
        # at i read dim(gamma_{i-1}), beta_{i-1}, g_{i-1} and f_{i-1}^2 from index i-1.
        prev_dim = prev_b = prev_bd = prev_g = prev_f = 0
        for i, ((dim, dim_plus), terms) in enumerate(zip(gamma_dims(d, L), _terms(d, L))):
            a, b, ad, xn, xd, yn, yd, g, f, rn, rd = terms
            # Each identity is cross-multiplied over its positive denominators. With s = L+N+d-2i,
            # a = N+d-i-1, xn = a(N-i+1), xd = (s-1)s, b' = b_{i-1} = L-i+1, yn = b'(L+d-i-1)
            # and yd = (s+1)s, the x check over a(s-1) is the closed form
            # dim(gamma_i)/dim(gamma_i^+) = (s-1)(N-i+1)/(s a), and the y check over b'(s+1) is
            # the closed form dim(gamma_{i-1})/dim(gamma_i^+) = (s+1)(L+d-i-1)/(s b').
            ok = a * a * dim * xd == xn * dim_plus * ad * ad
            if i:
                ok = ok and prev_b * prev_b * prev_dim * yd == yn * dim_plus * prev_bd * prev_bd
            if not ok:
                raise ConsistencyError(f"dimension-ratio identity failed at d={d} L={L} i={i}")
            # f_i^2 x_i^2 == (g_i (N-i+1))^2 R_i and f_{i-1}^2 y_i^2 == (g_{i-1} (L+d-i-1))^2 R_i.
            if f * xn * rd != (g * (N - i + 1)) ** 2 * rn * xd:
                raise ConsistencyError(
                    f"shared radicand mismatch for f_i*x_i at d={d} L={L} i={i}"
                )
            if prev_f * yn * rd != (prev_g * (L + d - i - 1)) ** 2 * rn * yd:
                raise ConsistencyError(
                    f"shared radicand mismatch for f_(i-1)*y_i at d={d} L={L} i={i}"
                )
            rows.append(terms)
            prev_dim, prev_b, prev_bd, prev_g, prev_f = dim, b, ad, g, f
        if b:  # b and ad still hold index L's
            raise ConsistencyError(f"beta_L must vanish, got {Fraction(b, ad)} at d={d} L={L}")
        return cls(d, L, N, tuple(rows))
