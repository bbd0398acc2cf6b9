"""Young diagrams, interlacing chains, and exact representation dimensions.

Diagrams are plain tuples of weakly decreasing positive row lengths; the
empty diagram ``()`` is a first-class value.  A semistandard tableau with
alphabet ``[d]`` is identified with its chain of d interlacing diagrams
(the k-th diagram collects the boxes holding letters <= k).
"""

from __future__ import annotations

import sys
from itertools import combinations, product, starmap
from math import factorial, prod
from operator import ge, index, sub
from typing import Iterable, Iterator, Sequence

Diagram = tuple[int, ...]
Chain = tuple[Diagram, ...]


def as_diagram(rows: Iterable[int]) -> Diagram:
    """Validate and canonicalize integral row lengths (no trailing zeros stored)."""
    given = tuple(rows)
    try:
        rows = tuple(map(int, given))
    except (OverflowError, TypeError, ValueError):  # int() of inf, nan, None or complex
        rows = None
    if rows != given:
        raise ValueError(f"row lengths must be integers, got {given}")
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    if not all(map(ge, rows, rows[1:])):
        raise ValueError(f"row lengths must be weakly decreasing, got {rows}")
    if rows and rows[-1] < 0:
        raise ValueError(f"row lengths must be nonnegative, got {rows}")
    return rows


def row(lam: Diagram, k: int) -> int:
    """Length of row k (1-based); rows beyond the diagram read 0."""
    return lam[k - 1] if 1 <= k <= len(lam) else 0


def as_chain(chain: Iterable[Iterable[int]]) -> Chain:
    """Validate and canonicalize an interlacing chain of diagrams.

    Starting from the empty diagram, each diagram mu must interlace the
    next one lam: lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... (missing rows read
    0), so the k-th diagram has at most k rows.
    """
    diagrams = tuple(map(as_diagram, chain))
    mu: Diagram = ()
    for lam in diagrams:
        if not (
            len(mu) <= len(lam) <= len(mu) + 1
            and all(map(ge, lam, mu))
            and all(map(ge, mu, lam[1:]))
        ):
            raise ValueError("not a valid interlacing chain")
        mu = lam
    return diagrams


def _require_integer(name: str, value: object) -> int:
    """Return value as an int; raise ValueError naming the field unless
    operator.index accepts it."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_sizes(d: object, L: object = 1) -> tuple[int, int]:
    """(d, L) as plain ints; ValueError naming the field unless integers with d >= 2, L >= 1."""
    d, L = _require_integer("d", d), _require_integer("L", L)
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    return d, L


def _shifted_rows(lam: Diagram, d: int) -> list[int]:
    """The d shifted rows h_k = lam_k - k (0-based k, missing rows read 0)."""
    return [r - k for k, r in enumerate(lam + (0,) * (d - len(lam)))]


def _weyl_core(h: Sequence[int], denominator: int) -> int:
    """Weyl dimension from the d shifted rows h of a diagram with at most d
    rows: prod_{i<j} (h_i - h_j) over denominator = prod_{k<d} k!."""
    dim, rem = divmod(prod(starmap(sub, combinations(h, 2))), denominator)
    assert rem == 0 and dim > 0
    return dim


def branching_restrictions(lam: Iterable[int], d: int) -> list[Diagram]:
    """All mu interlacing lam with at most d-1 rows, in lexicographic order."""
    lam = as_diagram(lam)
    if len(lam) > d:
        raise ValueError(f"diagram {lam} has more than d={d} rows")
    if d <= 1:
        return []
    nrows = min(d - 1, len(lam))
    ranges = [range(row(lam, k + 1), row(lam, k) + 1) for k in range(1, nrows + 1)]
    # Each choice is weakly decreasing; dropping its zero rows makes it canonical.
    return sorted(tuple(filter(None, choice)) for choice in product(*ranges))


def partitions(n: int, max_rows: int) -> list[Diagram]:
    """All partitions of n with at most max_rows rows."""
    out: list[Diagram] = []

    def rec(prefix: list[int], remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_rows:
            return
        for part in range(min(max_part, remaining), 0, -1):
            prefix.append(part)
            rec(prefix, remaining - part, part)
            prefix.pop()

    rec([], n, n)
    return out


def branching_sums(max_d: int):
    """verify's branching-sums cases: per d <= max_d, lam of <= 10 boxes: dim lam = sum dim mu."""
    for d in range(2, max_d + 1):
        den, den_below = (prod(map(factorial, range(k))) for k in (d, d - 1))
        below = {}  # mu -> its (d-1)-row Weyl core, each made once per d
        for boxes in range(0, 11):
            for lam in partitions(boxes, d):
                mus = branching_restrictions(lam, d)
                for mu in mus:
                    if mu not in below:
                        below[mu] = _weyl_core(_shifted_rows(mu, d - 1), den_below)
                total = sum(below[mu] for mu in mus)
                want = _weyl_core(_shifted_rows(lam, d), den)
                yield None if total == want else f"d={d} lambda={lam}"


def _require_family(d: object, L: object) -> tuple[int, int]:
    """(d, L) of the probe family as plain ints: _require_sizes, and d rows must fit a tuple."""
    d, L = _require_sizes(d, L)
    if d > sys.maxsize:  # a shape holds d rows in a tuple
        raise ValueError(f"d={d} exceeds the longest tuple of rows, {sys.maxsize}")
    return d, L


def _gamma_i(d: int, L: int, i: int) -> Diagram:
    """Probe shape gamma_i = (N+L-i, L, ..., L, i), N = (d+1)L, with d-2 middle rows; n boxes."""
    return ((d + 2) * L - i,) + (L,) * (d - 2) + ((i,) if i else ())


def _gamma_rows(h: Sequence[int], i: int) -> list[int]:
    """Shifted rows of gamma_i from the shifted rows h of gamma_0: gamma_i moves
    i boxes from row 1 to row d, so only the first and the last row change."""
    return [h[0] - i, *h[1:-1], h[-1] + i]


def gamma_dims(d: int, L: int) -> Iterator[tuple[int, int]]:
    """(dim gamma_i, dim gamma_i^+) for i = 0..L. d and L are checked at the call; each pair is
    made as it is read, so a caller that stops at some i makes none beyond it.

    gamma_i moves i boxes of gamma_0 from row 1 to row d, so on its shifted rows t the
    Vandermonde is that of the middle rows L-(d-2)..L-1, consecutive so of Weyl core 1, times
    prod_{k>1}(t_1 - t_k) prod_{1<k<d}(t_k - t_d), over (d-1)!(d-2)!: windows stepped along i.
    """
    d, L = _require_family(d, L)
    N, den = (d + 1) * L, factorial(d - 1) * factorial(d - 2)

    def dims() -> Iterator[tuple[int, int]]:
        low, up = prod(range(L + 2, L + d)), prod(range(N + 2, N + d))  # at i = -1
        for i in range(L + 1):  # a window drops its top factor, so each division is exact
            low = low * (L - i + 1) // (L + d - i - 1)  # prod(range(L-i+1, L-i+d-1)), of t_k - t_d
            up, up_plus = up * (N - i + 1) // (N + d - i - 1), up  # of t_1 - t_k; gamma_i^+: i-1's
            dim, rem = divmod(low * (L + N + d - 2 * i - 1) * up, den)
            dim_plus, rem_plus = divmod(low * (L + N + d - 2 * i) * up_plus, den)
            assert rem == rem_plus == 0 and dim > 0 and dim_plus > 0
            yield dim, dim_plus

    return dims()


def gamma_hooks(d: int, L: int) -> Iterator[tuple[Diagram, tuple[int, int], tuple[int, int]]]:
    """(gamma_i, gamma_dims' pair, (f^gamma_i, f^gamma_i^+)) for i = 0..L, with
    f = n! dim / prod (d + c), c = column - row over the boxes (Stanley, EC2, Cor. 7.21.4),
    stepped along i; d, L and n = 2dL are checked when read, n before any shape or factorial."""
    d, L = _require_family(d, L)
    n = 2 * d * L
    if n > sys.maxsize:  # math.factorial's limit; n is even, so n + 1 is within it too
        raise ValueError(f"{n} boxes exceed the factorial limit, {sys.maxsize}")
    top = d + (d + 2) * L  # gamma_i's row 1 holds d + c = d..top-i-1, gamma_i^+ adds top-i
    content = prod(range(d, top)) * prod(prod(range(j, j + L)) for j in range(2, d))
    num, den = factorial(n), content  # f^gamma_i = num dim / den
    for i, (dim, dim_plus) in enumerate(gamma_dims(d, L)):
        hook, rem = divmod(num * dim, den)
        hook_plus, rem_plus = divmod(hook * (n + 1) * dim_plus, dim * (top - i))
        assert rem == rem_plus == 0
        yield _gamma_i(d, L, i), (dim, dim_plus), (hook, hook_plus)
        num, den = hook * (top - i - 1), dim * (i + 1)  # gamma_{i+1}: a box of row 1 to row d


def gamma_chain(d: int, L: int) -> Chain:
    """Interlacing chain of the probe tableau of gamma_0.

    Letters k < d fill row k of the L-column rectangle, so the k-th chain
    entry is the k-row rectangle (L, ..., L); the top diagram gamma_0 puts
    all N letter-d boxes in row 1, and gamma_i's chain moves i of them to row d.
    """
    d, L = _require_family(d, L)
    return tuple((L,) * k for k in range(1, d)) + (_gamma_i(d, L, 0),)
