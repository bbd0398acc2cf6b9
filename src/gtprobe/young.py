"""Young diagrams, interlacing chains, and exact representation dimensions.

Diagrams are plain tuples of weakly decreasing positive row lengths; the
empty diagram ``()`` is a first-class value.  A semistandard tableau with
alphabet ``[d]`` is identified with its chain of d interlacing diagrams
(the k-th diagram collects the boxes holding letters <= k).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GammaParams:
    """Parameters (d, L, i) of the probe tableau family.

    The derived quantity N = (d+1)L is fixed by the construction (the
    shapes have n = 2dL boxes); i indexes the member shape, 0 <= i <= L.
    """

    d: int
    L: int
    i: int

    def __post_init__(self) -> None:
        d, L = _require_sizes(self.d, self.L)
        for name, value in (("d", d), ("L", L), ("i", _require_integer("i", self.i))):
            object.__setattr__(self, name, value)  # plain ints, so numpy sizes cannot overflow
        if self.d > sys.maxsize:  # gamma_shape holds d rows in a tuple
            raise ValueError(f"d={self.d} exceeds the longest tuple of rows, {sys.maxsize}")
        if not 0 <= self.i <= self.L:
            raise ValueError(f"index i must satisfy 0 <= i <= L={self.L}, got {self.i}")

    @property
    def N(self) -> int:
        return (self.d + 1) * self.L


def gamma_shape(p: GammaParams) -> Diagram:
    """Probe shape (N+L-i, L, ..., L, i) with d-2 middle rows; n boxes."""
    return (p.N + p.L - p.i,) + (p.L,) * (p.d - 2) + ((p.i,) if p.i else ())


def gamma_plus_shape(p: GammaParams) -> Diagram:
    """gamma_shape with one extra box in row 1; n+1 boxes."""
    shape = gamma_shape(p)
    return (shape[0] + 1,) + shape[1:]


def _gamma_rows(h: Sequence[int], i: int) -> list[int]:
    """Shifted rows of gamma_i from the shifted rows h of gamma_0: gamma_i moves
    i boxes from row 1 to row d, so only the first and the last row change."""
    return [h[0] - i, *h[1:-1], h[-1] + i]


def gamma_dims(d: int, L: int) -> Iterator[tuple[int, int]]:
    """(dim gamma_i, dim gamma_i^+) for i = 0..L. d and L are checked at the call; each pair is
    made as it is read, so a caller that stops at some i makes none beyond it.

    gamma_i moves i boxes of gamma_0 from row 1 to row d, so on its shifted rows t the
    Vandermonde is that of the middle rows L-(d-2)..L-1, consecutive so of Weyl core 1, times
    prod_{k>1}(t_1 - t_k) prod_{1<k<d}(t_k - t_d), over (d-1)!(d-2)!: two range products per index.
    """
    p = GammaParams(d, L, 0)
    d, L = p.d, p.L
    h, den = _shifted_rows(gamma_shape(p), d), factorial(d - 1) * factorial(d - 2)

    def dims(i: int) -> tuple[int, int]:
        top, bottom = h[0] - i, h[-1] + i
        low = prod(range(L - d + 2 - bottom, L - bottom))  # of m - bottom over the middle rows m
        dim, rem = divmod(low * (top - bottom) * prod(range(top - L + 1, top - L + d - 1)), den)
        top += 1  # gamma_i^+ adds one box to row 1
        high = low * (top - bottom) * prod(range(top - L + 1, top - L + d - 1))
        dim_plus, rem_plus = divmod(high, den)
        assert rem == rem_plus == 0 and dim > 0 and dim_plus > 0
        return dim, dim_plus

    return map(dims, range(L + 1))


def gamma_hooks(d: int, L: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """gamma_dims' pairs with (f^gamma_i, f^gamma_i^+), f = n! dim / prod (d + c), c = column - row
    over the boxes (Stanley, EC2, Cor. 7.21.4); d, L and n = 2dL are checked on the first read."""
    p = GammaParams(d, L, 0)
    n = 2 * p.d * p.L
    if n > sys.maxsize:  # math.factorial's limit; n is even, so n + 1 is within it too
        raise ValueError(f"{n} boxes exceed the factorial limit, {sys.maxsize}")
    top = p.d + p.N + p.L  # gamma_i's row 1 holds d + c = d..top-i-1, gamma_i^+ adds top-i
    content = prod(range(p.d, top)) * prod(prod(range(j, j + p.L)) for j in range(2, p.d))
    n_fact = factorial(n)
    for i, (dim, dim_plus) in enumerate(gamma_dims(p.d, p.L)):
        hook, rem = divmod(n_fact * dim, content)
        hook_plus, rem_plus = divmod(n_fact * (n + 1) * dim_plus, content * (top - i))
        assert rem == rem_plus == 0
        yield (dim, dim_plus), (hook, hook_plus)
        content = content // (top - i - 1) * (i + 1)  # gamma_{i+1}: a box of row 1 to row d


def gamma_chain(p: GammaParams) -> Chain:
    """Interlacing chain of the probe tableau.

    Letters k < d fill row k of the L-column rectangle, so the k-th chain
    entry is the k-row rectangle (L, ..., L); the top diagram is
    gamma_shape(p), putting N-i letter-d boxes in row 1 and i in row d.
    """
    chain = [(p.L,) * k for k in range(1, p.d)]
    chain.append(gamma_shape(p))
    return tuple(chain)


def gamma_content(d: int, L: int) -> tuple[int, ...]:
    """Letter multiplicities of the probe tableau: L each for 1..d-1, N for d."""
    return (L,) * (d - 1) + ((d + 1) * L,)
