"""Brute-force validation of the protocol on small tensor-power spaces.

Everything here works directly in (C^d)^{otimes n}, on the weight sector
that holds the probe vectors, with no representation-theoretic shortcuts,
so agreement with the exact-rational modules is an independent end-to-end
check of the whole construction: the probe vectors are recovered as the
null space of the off-diagonal subgroup generators, bucketed by the
quadratic Casimir, through exact integer projectors; the branching weights
are recovered as projection norms; and the protocol's expected fidelity is
recovered by Monte Carlo integration over Haar-random measurement outcomes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import _alpha_beta_g
from .fidelity import protocol_probe, query_count_params
from .young import (
    Diagram,
    GammaParams,
    _require_integer,
    gamma_content,
    gamma_dims,
    gamma_plus_shape,
    gamma_shape,
    hook_length_dimension,
    partitions,
)

CAPACITY = 100_000
NULL_SPACE_TOL = 1e-9
CASIMIR_TOL = 1e-6
MIN_SAMPLES = 100

# A Monte Carlo chunk is min(2048, _MC_CHUNK_BUDGET // d^n) draws; the chunk size fixes
# how the seeded stream splits into real and imaginary parts, so it shapes every estimate.
# A drawn chunk is contracted in blocks of max(_MC_BLOCK_FLOOR, _MC_BLOCK_ENTRIES // s^2)
# draws, s the distinct half strings, so that the power fits in cache; the block size
# never touches the stream, and the sums are still taken per chunk.
_MC_CHUNK_BUDGET = 4_000_000
_MC_BLOCK_ENTRIES, _MC_BLOCK_FLOOR = 2**16, 64


class CapacityError(RuntimeError):
    """Requested system size exceeds the supported dense-simulation cap."""


class ExtractionError(RuntimeError):
    """The simulator's spectral data contradicts the exact construction."""


def _check_capacity(d: int, n: int) -> None:
    # 2^17 > CAPACITY, so for d >= 2 a larger n exceeds it too: d^n is formed
    # only for d <= CAPACITY and n <= 17, and so never holds thousands of digits.
    short = n <= CAPACITY.bit_length() and d <= CAPACITY
    if not short or d**n > CAPACITY:
        size = f" = {d**n}" if short else ""
        raise CapacityError(f"d^n = {d}^{n}{size} exceeds the simulator capacity of {CAPACITY}")


def _sector(d: int, n: int, content: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, list]:
    """The length-n strings over 0..d-1 with the given letter counts (none if
    the content has the wrong length or sum, or a negative count), grown site
    by site from (prefix, letters left) pairs in O(m n), never d^n: their
    ascending base-d codes (lex order), their (m, n) letter matrix, and their
    prefix tree, whose level k-1 gives each distinct length-k prefix, in lex
    order, as its parent's position among the length-(k-1) ones and a letter."""
    if d**n > 2**63:
        raise ValueError(f"d^n = {d}^{n} = {d**n} exceeds the int64 range of the sector codes")
    valid = len(content) == d and min(content, default=0) >= 0 and sum(content) == n
    codes, left = np.zeros(int(valid), dtype=int), np.array([content] * valid).reshape(-1, d)
    levels = []
    for _ in range(n):  # np.nonzero is row-major: prefixes stay in lex order
        parent, letter = np.nonzero(left > 0)
        levels.append((parent, letter))
        codes, left = codes[parent] * d + letter, left[parent] - np.eye(d, dtype=int)[letter]
    return codes, codes[:, None] // d ** np.arange(n - 1, -1, -1) % d, levels


def casimir_eigenvalue(lam: Diagram, d: int) -> int:
    """Quadratic Casimir eigenvalue sum_j lam_j (lam_j + d + 1 - 2j)."""
    return sum(r * (r + d + 1 - 2 * j) for j, r in enumerate(lam, start=1))


def _null_values(d: int, content: tuple[int, ...]) -> list[int]:
    """The eigenvalues M may have on the sector: M is the U(d-1) Casimir of
    the letters below d-1 less their sum_a c_a^2 (see _covariant_buckets)."""
    low, shift = content[:-1], sum(c * c for c in content[:-1])
    return sorted({casimir_eigenvalue(mu, d - 1) - shift for mu in partitions(sum(low), d - 1)})


def _entry_bound(n: int, content: tuple[int, ...], null_values, casimir_values) -> int:
    """A priori bound on every entry of the exact certificate: C and M are D + 2A
    with k swaps per row (2k = n^2 - sum_a c_a^2, or l^2 - sum_{a<d-1} c_a^2 over
    the l letters below d-1), so X - r scales the largest entry by |D - r| + 2k."""
    low, sq, d = sum(content[:-1]), sum(c * c for c in content), len(content)
    m_op = ((d - 2) * low, low * low - sq + content[-1] ** 2)  # (D, 2k)
    c_op = ((d - 1) * n + sq, n * n - sq)
    chains = [(m_op, r) for r in null_values if r], [(m_op, 0)], [(c_op, e) for e in casimir_values]
    kernel, null, spectrum = (math.prod(max(1, abs(D - r) + w) for (D, w), r in c) for c in chains)
    return kernel * max(null, spectrum)


def _lagrange(apply, values, keep: int, v: np.ndarray) -> tuple[np.ndarray, int]:
    """prod_{r != keep} (X - r) v and prod_{r != keep} (keep - r): numerator
    and denominator of the projector onto X's eigenvalue keep, applied to v,
    when apply multiplies by X and X's spectrum lies in values."""
    others = [r for r in values if r != keep]
    for r in others:
        v = apply(v) - r * v
    return v, math.prod(keep - r for r in others)


def _swap_tables(d: int, content: tuple[int, ...], codes: np.ndarray, letters: np.ndarray):
    """Two (k, m) tables: column x lists, for the site pairs s < t in lex order
    whose letters differ (in the second, both below d-1), the position in codes
    of string x with those letters swapped.  codes is lex-ordered, so strings
    that share their first n//2 letters form a run holding every arrangement
    of the letters left in lex order: a position is a run start plus a rank."""
    m, n = letters.shape
    half = d ** (n - n // 2)
    head, tail = np.divmod(codes, half)
    start = np.searchsorted(head, np.arange(d ** (n // 2)))
    rank = np.zeros(half, dtype=np.intp)
    rank[tail] = np.arange(m) - start[head]
    s, t = np.triu_indices(n, 1)
    shift = d ** (n - 1 - s) - d ** (n - 1 - t)
    sq, low = sum(c * c for c in content), sum(content[:-1])
    widths = (n * n - sq) // 2, (low * low - sq + content[-1] ** 2) // 2
    tables = [np.empty((k, m), dtype=np.intp) for k in widths]
    letters = letters.astype(np.int8)
    rows = 1 + 2**18 // (n * n)  # strings per block, which bounds the temporaries
    for first in range(0, m, rows):
        block = slice(first, first + rows)
        at_s, at_t = np.take(letters[block], s, axis=1), np.take(letters[block], t, axis=1)
        step = at_t - at_s
        moved = step != 0
        for table, keep in zip(tables, (moved, moved & (np.maximum(at_s, at_t) < d - 1))):
            pair = np.flatnonzero(keep)
            swapped = codes[block].repeat(len(table)) + step.ravel()[pair] * shift[pair % len(s)]
            head, tail = np.divmod(swapped, half)
            table[:, block] = (start[head] + rank[tail]).reshape(len(at_s), -1).T
    return tables


def _swap_operator(diag: int, table: np.ndarray):
    """v -> diag v + 2 sum_j v[table[j]], for a (k, m) table from _swap_tables:
    the leading-axis sum adds each string's images in the table's order."""
    return lambda v: diag * v + 2 * np.take(v, table, axis=0).sum(axis=0)


@dataclass(frozen=True, eq=False)
class GTVectorSet:
    """The probe basis vectors v_0..v_L in (C^d)^n, held on their weight sector:
    codes and levels are its ascending base-d codes and prefix tree (see
    _sector), and row i of sector is v_i at those codes, v_i being zero off them.

    Each v_i carries the i-th probe vector tensored with an arbitrary unit
    multiplicity vector; all consumed quantities are invariant to that
    choice.  casimir_values are the exact integer Casimir eigenvalues and
    sector_dims the multiplicity-space dimensions of each bucket.
    """

    d: int
    n: int
    codes: np.ndarray
    levels: list
    sector: np.ndarray
    casimir_values: tuple[int, ...]
    sector_dims: tuple[int, ...]

    @property
    def L(self) -> int:
        return self.n // (2 * self.d)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The v_i as a dense complex (L+1, d^n) array, built on first read."""
        vectors = np.zeros((len(self.sector), self.d**self.n), dtype=complex)
        vectors[:, self.codes] = self.sector
        return vectors


def _covariant_buckets(
    d: int, n: int, content: tuple, shapes: list, pick: str, null_tol: float, casimir_tol: float
) -> tuple[GTVectorSet, object]:
    """The vector set of the sector, one certified unit vector per shape in
    its subgroup-covariant part (ker M, M = sum_{a != b <= d-1} E_ba E_ab,
    split by the Casimir C), and project(v), which yields P_0 v and then each
    P_0 P_k v as numerator and denominator, P_0 and P_k the Lagrange
    projectors onto ker M and value k.

    C and M commute with each other and with every site permutation, and the
    sector is one orbit of those, so p(C, M) e_x = 0 gives p(C, M) = 0 and
    tr p(C, M) = m p(C, M)[x, x], for the string x that pick selects.  So
    integer matvecs on e_x certify M's spectrum, C's on ker M and bucket k's
    dimension m (P_0 P_k)[x, x]; its vector is P_0 P_k e_x over the root of
    (P_0 P_k)[x, x], with float residuals |M v|, |C v - e v| held within
    null_tol and casimir_tol times the spectrum's scale.
    """
    expected = [casimir_eigenvalue(shape, d) for shape in shapes]
    null_values = _null_values(d, content)
    scales = max(1, null_values[-1]), max(expected)  # of the residuals |M v| and |C v - e v|
    limits = tuple(zip(("null_tol", "casimir_tol"), (null_tol, casimir_tol), scales))
    for name, tol, scale in limits:
        if not 0 < tol < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {tol}")
        if not math.isfinite(tol * scale):
            raise ValueError(f"{name} {tol:g} times the scale {scale} exceeds the float range")
    codes, letters, levels = _sector(d, n, content)
    m = len(codes)
    if not m:
        raise ExtractionError(f"empty weight sector for content {content}")
    where = f"at d={d} n={n} (sector of m={m})"
    if len(set(expected)) != len(expected):
        raise ExtractionError(f"Casimir eigenvalues {expected} are not distinct {where}")
    bound = _entry_bound(n, content, null_values, expected)
    if bound > np.iinfo(np.int64).max:
        raise ExtractionError(f"certificate entries may reach {bound}, beyond int64, {where}")
    # E_ba E_ab = sum_{s,t} e_ba(s) e_ab(t) is e_bb(s) for s = t and swaps
    # the letters a at s and b at t otherwise.  So C = sum_{a,b} E_ba E_ab is
    # (d-1) n + sum_a c_a^2 on the diagonal plus 2 per swap of two distinct
    # letters, and M is (d-2) per letter below d-1 plus 2 per swap of two of
    # them.  Every string has as many swaps, so each is a table of images.
    swaps, low_swaps = _swap_tables(d, content, codes, letters)
    casimir = _swap_operator((d - 1) * n + sum(c * c for c in content), swaps)
    sub = _swap_operator((d - 2) * sum(content[:-1]), low_swaps)

    def project(v: np.ndarray):
        """Yield P_0 v, then P_0 P_k v for each bucket k, as numerator and denominator."""
        kernel, d0 = _lagrange(sub, null_values, 0, v)
        yield kernel, d0
        for value in expected:
            u, dk = _lagrange(casimir, expected, value, kernel)
            yield u, d0 * dk

    x = 0 if pick == "first" else m - 1
    buckets = project((np.arange(m) == x).astype(np.int64))
    if np.any(sub(next(buckets)[0])):
        raise ExtractionError(f"M has eigenvalues outside {null_values} {where}")
    sector, dims = np.zeros((len(shapes), m)), tuple(map(hook_length_dimension, shapes))
    for k, (shape, value, (u, den)) in enumerate(zip(shapes, expected, buckets)):
        if k == 0 and np.any(casimir(u) - value * u):
            raise ExtractionError(f"covariant Casimir values lie outside {expected} {where}")
        dim = Fraction(m * int(u[x]), den)
        if dim != dims[k]:
            raise ExtractionError(
                f"bucket for shape {shape} has dimension {dim}, "
                f"expected hook-length dimension {dims[k]} {where}"
            )
        sector[k] = v = u / math.sqrt(int(u[x]) * den)
        for label, op, e, (name, tol, scale) in zip("MC", (sub, casimir), (0, value), limits):
            residual = math.sqrt(float(np.sum((op(v) - e * v) ** 2)))
            if not residual <= tol * scale:
                raise ExtractionError(
                    f"bucket {k} {where}: |{label} v - {e} v| = {residual:.3g} exceeds {name}"
                    f" {tol:g} times the scale {scale}, so v matches 0 expected values"
                )
    return GTVectorSet(d, n, codes, levels, sector, tuple(expected), dims), project


def extract_gt_vectors(
    d: int,
    n: int,
    pick: str = "first",
    null_tol: float = NULL_SPACE_TOL,
    casimir_tol: float = CASIMIR_TOL,
) -> GTVectorSet:
    """Recover the probe basis vectors by exact spectral bucketing; pick
    chooses the sector string x ("first" or "last") whose bucket projections
    are the vectors, and nothing consumed downstream depends on it."""
    d, n, L = query_count_params(d, n)
    if pick not in ("first", "last"):
        raise ValueError(f"pick must be 'first' or 'last', got {pick}")
    _check_capacity(d, n)
    shapes = [gamma_shape(GammaParams(d, L, i)) for i in range(L + 1)]
    return _covariant_buckets(d, n, gamma_content(d, L), shapes, pick, null_tol, casimir_tol)[0]


def _check_system(d: int, n: int, vs: GTVectorSet) -> None:
    """Raise ValueError unless vs is a vector set of (d, n)."""
    if vs.d != d or vs.n != n:
        raise ValueError("vector set does not match the requested system")


@dataclass(frozen=True)
class CGResidual:
    """Projection weights of v_i tensor |d> onto the two grown buckets."""

    i: int
    alpha_proj: float
    beta_proj: float
    alpha_residual: float
    beta_residual: float


def verify_cg_embedding(
    d: int,
    n: int,
    pick: str = "first",
    null_tol: float = NULL_SPACE_TOL,
    casimir_tol: float = CASIMIR_TOL,
    vectors: GTVectorSet | None = None,
) -> list[CGResidual]:
    """Check the one-box branching weights against brute-force projections.

    For each i, tensors v_i with the last basis state, projects the result
    onto the covariant buckets of the (n+1)-site system, and compares the
    squared projection norms with the exact (alpha_i, beta_i).  vectors,
    if given, are the v_i to use instead of extracting them with pick.
    """
    d, n, L = query_count_params(d, n)
    _check_capacity(d, n + 1)
    vs = vectors if vectors is not None else extract_gt_vectors(d, n, pick, null_tol, casimir_tol)
    _check_system(d, n, vs)
    content = gamma_content(d, L)
    shapes_plus = [gamma_plus_shape(GammaParams(d, L, i)) for i in range(L + 1)]
    plus, project = _covariant_buckets(
        d, n + 1, content[:-1] + (content[-1] + 1,), shapes_plus, "first", null_tol, casimir_tol
    )
    # v_i tensor |d> is v_i on the grown strings ending in d-1, in the sector's order.
    grown = np.zeros((L + 1, len(plus.codes)), dtype=vs.sector.dtype)
    grown[:, plus.codes % d == d - 1] = vs.sector
    # weights[k][i] is the squared norm of v_i tensor |d> in grown bucket k.
    _, *buckets = project(grown.T)
    weights = [np.sum(np.abs(np.divide(u, den)) ** 2, axis=0) for u, den in buckets]
    weights += [np.zeros(L + 1)]
    out: list[CGResidual] = []
    for i in range(L + 1):
        a_num, b_num, den, _ = _alpha_beta_g(i, d, L)
        a, b = float(weights[i][i]), float(weights[i + 1][i])
        out.append(CGResidual(i, a, b, abs(a - a_num / den), abs(b - b_num / den)))
    return out


def _haar_batch(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """count Haar unitaries, batch last: [:, :, k] is Q^dagger, Q the unitary factor
    with positive R diagonal of the k-th Ginibre draw (real parts, then imaginary).
    Row i of Q^dagger is conjugated column i of the draw less its projections on the
    rows before it, subtracted twice (Gram-Schmidt run twice gives Q to working
    precision), then normalized, so R's diagonal is positive by construction."""
    z = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    w = np.ascontiguousarray(np.conj(z.T))  # w[i, j, k] = conj(z[k, j, i])
    for i in range(d):
        row, done = w[i], w[:i]
        for _ in range(2):
            row -= (np.sum(np.conj(done) * row, axis=1)[:, None] * done).sum(axis=0)
        row /= np.sqrt(np.sum(row.real**2 + row.imag**2, axis=0))
    return w


def _power_steps(d: int, levels: list[tuple[np.ndarray, np.ndarray]]) -> list:
    """Per prefix-tree level, the (prefix, site) row gathers that grow a
    batch-last W^{otimes k} by one site: row x size + y of the power on the
    level's strings x, y reads its parents' row and W's row x_k d + y_k."""
    steps, size = [], 1
    for parent, letter in levels:
        prefix = (parent[:, None] * size + parent).ravel()
        steps.append((prefix, (letter[:, None] * d + letter).ravel()))
        size = len(parent)
    return steps


def _restricted_power(flat: np.ndarray, steps: list) -> np.ndarray:
    """W^{otimes k} restricted to the strings x, y of the last level, batch last:
    flat is a (d^2, b) batch with W[a, c] in row a d + c, and row x s + y of
    the (s^2, b) result is prod_j W[x_j, y_j], one site per step of _power_steps."""
    power = np.ones((1, flat.shape[1]), dtype=complex)
    for prefix, site in steps:
        power = np.take(power, prefix, axis=0) * np.take(flat, site, axis=0)
    return power


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float


def mc_estimates(
    d: int,
    n: int,
    samples: int,
    seed: int,
    vectors: GTVectorSet | None = None,
    probe: np.ndarray | None = None,
) -> tuple[MCEstimate, MCEstimate]:
    """Monte Carlo estimates of the expected fidelity and of the total
    outcome probability, from one pass over a seeded stream of Haar outcomes.

    With A = sum_i f_i sqrt(dim_i) <v_i|W^{otimes n}|v_i> (W the outcome's
    inverse action, the target fixed to the identity by Haar invariance),
    the fidelity integrand is |A|^2 |<d|W|d>|^2 and the total-probability
    integrand |A|^2, whose exact mean is one.  probe overrides the protocol's
    coefficient vector f_0..f_L (normalized internally).  Returns (fidelity, total).
    """
    d, n, L = query_count_params(d, n)
    _require_integer("samples", samples)
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    vs = vectors if vectors is not None else extract_gt_vectors(d, n)
    _check_system(d, n, vs)
    if probe is None:
        f = protocol_probe(d, L)
    else:
        f = np.asarray(probe)
        if np.any(np.imag(f)):
            raise ValueError(f"probe must be real, got imaginary parts {np.imag(f)}")
        f = np.asarray(np.real(f), dtype=float)
        if f.shape != (L + 1,) or not np.any(f) or not np.all(np.isfinite(f)):
            raise ValueError(f"probe must be a finite nonzero vector of length {L + 1}")
        f = f / np.abs(f).max()  # so huge entries cannot overflow the norm
        f = f / np.linalg.norm(f)
    dims = np.array([dim for dim, _ in gamma_dims(d, L)], dtype=float)
    # The v_i lie in distinct irreps, so <v_i|W^n|v_j> = 0 for i != j and
    # sum_i w_i <v_i|W^n|v_i> = <sum_i v_i|W^n|sum_i w_i v_i>, signed w_i too.
    # Scatter both into matrices K and B by the first and last n/2 sites of each
    # sector string; <bra|W^n|ket> = sum(B * (P @ K @ P^T)), P = W^{n/2} on the
    # distinct halves.  The sector holds every arrangement of its content and
    # n = 2dL is even, so both halves range over the prefix tree's level n/2.
    # A half's letter counts, read as one base-(n+1) key, fix its partner's, and
    # partners' keys sum to the content's: with the halves sorted by key, K and B
    # are nonzero only on the blocks pairing the j-th key span with the j-th last.
    halves = np.stack(divmod(vs.codes, d ** (n // 2)))
    strings, at = np.unique(halves, return_inverse=True)
    key = ((n + 1) ** (strings[:, None] // d ** np.arange(n // 2) % d)).sum(axis=1)
    order = np.argsort(key, kind="stable")
    cuts = [0, *np.flatnonzero(np.diff(key[order])) + 1, len(key)]
    spans = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    s = len(key)
    ket = np.zeros((s, s), dtype=complex)
    bra = np.zeros_like(ket)
    # Complex and column-major: the layout sets the summation order, so the last digits.
    sector = np.asfortranarray(vs.sector, dtype=complex)
    at = tuple(np.argsort(order)[at.reshape(halves.shape)])
    ket[at] = (f * np.sqrt(dims)) @ sector
    bra[at] = sector.sum(axis=0).conj()
    blocks = [(u, v, ket[u, v].T, bra[u, v].T) for u, v in zip(spans, spans[::-1])]
    steps = _power_steps(d, vs.levels[: n // 2])
    prefix, site = steps[-1]
    pairs = (order[:, None] * s + order).ravel()  # the last level in key order
    steps[-1] = prefix[pairs], site[pairs]

    rng = np.random.default_rng(seed)
    chunk = max(1, min(2048, _MC_CHUNK_BUDGET // d**n))
    block = min(chunk, max(_MC_BLOCK_FLOOR, _MC_BLOCK_ENTRIES // s**2))
    sums, sq_sums = np.zeros(2), np.zeros(2)
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        w = _haar_batch(rng, b, d)
        flat, amps = w.reshape(d * d, b), np.empty(b, dtype=complex)
        for lo in range(0, b, block):
            # sum_{x,t} (B^T P K)[x, t] P[x, t], the batch in the GEMMs' columns.
            p = _restricted_power(flat[:, lo : lo + block], steps).reshape(s, s, -1)
            pk, q = np.empty_like(p), np.empty_like(p)
            for u, v, k_t, _ in blocks:
                np.matmul(k_t, p[:, u], out=pk[:, v])
            for x, y, _, b_t in blocks:  # q[y] is a run of whole rows, so reshape is a view
                np.matmul(b_t, pk[x].reshape(len(b_t[0]), -1), out=q[y].reshape(len(b_t), -1))
            amps[lo : lo + block] = (q * p).reshape(s * s, -1).sum(axis=0)
        total = np.abs(amps) ** 2
        fid = total * np.abs(w[d - 1, d - 1]) ** 2
        sums += (fid.sum(), total.sum())
        sq_sums += ((fid**2).sum(), (total**2).sum())
        done += b
    means = sums / samples
    variances = (sq_sums - sums**2 / samples) / (samples - 1)
    stderrs = np.sqrt(np.maximum(variances, 0.0) / samples)
    return tuple(MCEstimate(float(a), float(b)) for a, b in zip(means, stderrs))
