"""Brute-force validation of the protocol on small tensor-power spaces.

Everything here works directly in (C^d)^{otimes n} with dense/sector-level
linear algebra and no representation-theoretic shortcuts, so agreement
with the exact-rational modules is an independent end-to-end check of the
whole construction: the probe vectors are recovered as the highest-
covariance null space of the off-diagonal subgroup generators, bucketed by
the quadratic Casimir; the branching weights are recovered as projection
norms; and the protocol's expected fidelity is recovered by Monte Carlo
integration over Haar-random measurement outcomes, contracting W^{otimes n}
on the weight sector that holds the probe vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import alpha_beta
from .fidelity import protocol_probe, query_count_params
from .young import (
    Diagram,
    GammaParams,
    gamma_content,
    gamma_plus_shape,
    gamma_shape,
    hook_length_dimension,
    weyl_dimension,
)

CAPACITY = 100_000
NULL_SPACE_TOL = 1e-9
CASIMIR_TOL = 1e-6
MIN_SAMPLES = 100

_MC_CHUNK_BUDGET = 4_000_000  # complex entries held per Monte Carlo chunk


class CapacityError(RuntimeError):
    """Requested system size exceeds the supported dense-simulation cap."""


class ExtractionError(RuntimeError):
    """The simulator's spectral data contradicts the exact construction."""


def _check_capacity(d: int, n: int) -> None:
    if d**n > CAPACITY:
        raise CapacityError(
            f"d^n = {d}^{n} = {d**n} exceeds the simulator capacity of {CAPACITY}"
        )


def _sector(d: int, n: int, content: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The length-n strings over 0..d-1 with the given letter counts: their
    ascending base-d codes (lex order) and their (m, n) letter matrix."""
    letters = np.stack(np.unravel_index(np.arange(d**n), (d,) * n), axis=-1)
    if len(content) != d:
        return np.zeros(0, dtype=int), letters[:0]
    keep = np.all([(letters == a).sum(axis=1) == c for a, c in enumerate(content)], axis=0)
    return np.flatnonzero(keep), letters[keep]


def casimir_eigenvalue(lam: Diagram, d: int) -> int:
    """Quadratic Casimir eigenvalue sum_j lam_j (lam_j + d + 1 - 2j)."""
    return sum(r * (r + d + 1 - 2 * j) for j, r in enumerate(lam, start=1))


def _covariant_buckets(
    d: int,
    n: int,
    content: tuple[int, ...],
    shapes: list[Diagram],
    null_tol: float = NULL_SPACE_TOL,
    casimir_tol: float = CASIMIR_TOL,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Orthonormal bases, one per shape, of the subgroup-covariant subspace.

    Within the weight sector of the given content, computes the null space
    of M = sum_{a != b <= d-1} E_ba E_ab (the vectors transforming as a
    determinant power under the subgroup fixing the last basis state) and
    splits it by quadratic-Casimir eigenvalue into one bucket per expected
    shape.  Returns the sector's codes, which index the bucket rows.
    Raises ExtractionError whenever the spectrum disagrees with the
    hook-length bookkeeping, and ValueError unless both tolerances are
    positive and finite.
    """
    for name, tol in (("null_tol", null_tol), ("casimir_tol", casimir_tol)):
        if not 0 < tol < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {tol}")
    codes, letters = _sector(d, n, content)
    m = len(codes)
    if not m:
        raise ExtractionError(f"empty weight sector for content {content}")
    # For a != b, E_ba E_ab = sum over sites s, t of e_ba(s) e_ab(t): for
    # s = t that is e_bb(s), and for s != t it swaps the letters a at s and
    # b at t.  Summed over a != b, the s = t terms put (d-1) n on the
    # diagonal, and each pair of sites holding two distinct letters gives
    # one swap, reached from two ordered (a, b).  With the a = b terms
    # (c_a^2), the Casimir sum_{a,b} E_ba E_ab is (d-1) n + sum_a c_a^2 on
    # the diagonal and 2 per site swap; M, over the letters below d-1, is
    # (d-2) per such letter and 2 per swap of two of them.  Every entry is
    # a small integer, so both sums are exact in floating point.
    casimir = ((d - 1) * n + sum(c * c for c in content)) * np.eye(m)
    # At d = 2 the subgroup has no off-diagonal generators, so M = 0, its
    # null basis is the identity and the whole sector is covariant.
    sub = (d - 2) * sum(content[:-1]) * np.eye(m) if d > 2 else None
    place = d ** np.arange(n - 1, -1, -1)
    for s, t in itertools.combinations(range(n), 2):
        x, y = letters[:, s], letters[:, t]
        moved = np.flatnonzero(x != y)
        image = np.searchsorted(codes, codes[moved] + (y - x)[moved] * (place[s] - place[t]))
        casimir[moved, image] = 2.0
        if sub is not None:
            low = np.maximum(x, y)[moved] < d - 1
            sub[moved[low], image[low]] = 2.0
    null_basis = None
    if sub is not None:
        evals, evecs = np.linalg.eigh(sub)
        scale = max(float(evals[-1]), 1.0)
        null_basis = evecs[:, evals < null_tol * scale]
        if null_basis.shape[1] == 0:
            raise ExtractionError(f"no covariant vectors found for content {content}")
        casimir = null_basis.T @ casimir @ null_basis
    evals2, evecs2 = np.linalg.eigh(casimir)

    expected = [casimir_eigenvalue(shape, d) for shape in shapes]
    if len(set(expected)) != len(expected):
        raise ExtractionError(f"Casimir eigenvalues {expected} are not distinct")
    cols: list[list[int]] = [[] for _ in shapes]
    for col, value in enumerate(evals2):
        matches = [k for k, e in enumerate(expected) if abs(value - e) < casimir_tol]
        if len(matches) != 1:
            raise ExtractionError(
                f"Casimir eigenvalue {value} matches {len(matches)} expected "
                f"values among {expected}"
            )
        cols[matches[0]].append(col)

    buckets: list[np.ndarray] = []
    for shape, chosen in zip(shapes, cols):
        want = hook_length_dimension(shape)
        if not chosen:
            raise ExtractionError(f"empty Casimir bucket for shape {shape}")
        if len(chosen) != want:
            raise ExtractionError(
                f"bucket for shape {shape} has dimension {len(chosen)}, "
                f"expected hook-length dimension {want}"
            )
        basis = evecs2[:, chosen]
        # C order either way, so projections onto the bucket sum alike.
        buckets.append(np.ascontiguousarray(basis) if null_basis is None else null_basis @ basis)
    return codes, buckets


@dataclass(frozen=True)
class GTVectorSet:
    """Dense realizations v_0..v_L of the probe basis vectors in (C^d)^n.

    Each v_i carries the i-th probe vector tensored with an arbitrary unit
    multiplicity vector; all consumed quantities are invariant to that
    choice.  casimir_values are the exact integer Casimir eigenvalues and
    sector_dims the multiplicity-space dimensions of each bucket.
    """

    d: int
    n: int
    vectors: np.ndarray
    casimir_values: tuple[int, ...]
    sector_dims: tuple[int, ...]

    @property
    def L(self) -> int:
        return self.n // (2 * self.d)


def extract_gt_vectors(
    d: int,
    n: int,
    pick: str = "first",
    null_tol: float = NULL_SPACE_TOL,
    casimir_tol: float = CASIMIR_TOL,
) -> GTVectorSet:
    """Recover the probe basis vectors by brute-force spectral bucketing.

    pick selects which orthonormal basis vector represents each bucket
    ("first" or "last"); results consumed downstream are independent of
    the choice.
    """
    if pick not in ("first", "last"):
        raise ValueError(f"pick must be 'first' or 'last', got {pick}")
    L = query_count_params(d, n)
    _check_capacity(d, n)
    shapes = [gamma_shape(GammaParams(d, L, i)) for i in range(L + 1)]
    codes, buckets = _covariant_buckets(d, n, gamma_content(d, L), shapes, null_tol, casimir_tol)
    column = 0 if pick == "first" else -1
    vectors = np.zeros((L + 1, d**n), dtype=complex)
    for i, bucket in enumerate(buckets):
        vectors[i, codes] = bucket[:, column]
    return GTVectorSet(
        d=d,
        n=n,
        vectors=vectors,
        casimir_values=tuple(casimir_eigenvalue(s, d) for s in shapes),
        sector_dims=tuple(b.shape[1] for b in buckets),
    )


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
    _check_capacity(d, n + 1)
    vs = vectors if vectors is not None else extract_gt_vectors(d, n, pick, null_tol, casimir_tol)
    if vs.d != d or vs.n != n:
        raise ValueError("vector set does not match the requested system")
    imag = float(np.linalg.norm(vs.vectors.imag))
    if imag > 0:
        raise ValueError(f"vector set has imaginary part of norm {imag:.3g} at d={d} n={n}")
    L = vs.L
    content = gamma_content(d, L)
    shapes_plus = [gamma_plus_shape(GammaParams(d, L, i)) for i in range(L + 1)]
    plus, buckets_plus = _covariant_buckets(
        d, n + 1, content[:-1] + (content[-1] + 1,), shapes_plus, null_tol, casimir_tol
    )
    # v_i tensor |d> has entry v_i[k] at index k*d + d-1 and zeros elsewhere.
    grown = np.where(plus % d == d - 1, vs.vectors.real[:, plus // d], 0.0)

    out: list[CGResidual] = []
    for i in range(L + 1):
        alpha, beta = alpha_beta(GammaParams(d, L, i))
        alpha_proj = float(np.sum((buckets_plus[i].T @ grown[i]) ** 2))
        if i + 1 <= L:
            beta_proj = float(np.sum((buckets_plus[i + 1].T @ grown[i]) ** 2))
        else:
            beta_proj = 0.0
        out.append(
            CGResidual(
                i=i,
                alpha_proj=alpha_proj,
                beta_proj=beta_proj,
                alpha_residual=abs(alpha_proj - float(alpha)),
                beta_residual=abs(beta_proj - float(beta)),
            )
        )
    return out


def _haar_batch(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    z = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    diag = np.einsum("bii->bi", r)
    return q * (diag / np.abs(diag))[:, None, :]


def _prefix_levels(
    letters: np.ndarray, d: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The distinct prefixes of the rows of a letter matrix, one length at a time.

    Returns each row's position among the distinct rows (sorted) and, per
    prefix length k, each distinct length-k prefix's position among the
    length-(k-1) prefixes and its last letter.
    """
    parents = np.zeros(1, dtype=int)
    codes = np.zeros(len(letters), dtype=int)
    levels = []
    for column in letters.T:
        codes = codes * d + column
        level, at = np.unique(codes, return_inverse=True)
        levels.append((np.searchsorted(parents, level // d), level % d))
        parents = level
    return at, levels


def _restricted_power(w: np.ndarray, levels: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """W^{otimes k} restricted to the strings x, y of the last level, for a
    batch of W: entry [x, y] is prod_j W[x_j, y_j], one site per level."""
    power = np.ones((len(w), 1, 1), dtype=complex)
    for parent, letter in levels:
        power = power[:, parent[:, None], parent] * w[:, letter[:, None], letter]
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
    the fidelity integrand is
    |A|^2 |<d|W|d>|^2 and the total-probability integrand |A|^2, whose
    exact mean is one.  probe overrides the protocol's coefficient vector
    f_0..f_L (it is normalized internally).  Returns (fidelity, total).
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    vs = vectors if vectors is not None else extract_gt_vectors(d, n)
    if vs.d != d or vs.n != n:
        raise ValueError("vector set does not match the requested system")
    L = vs.L
    if probe is None:
        f = protocol_probe(d, L)
    else:
        f = np.asarray(probe, dtype=float)
        if f.shape != (L + 1,) or not np.any(f) or not np.all(np.isfinite(f)):
            raise ValueError(f"probe must be a finite nonzero vector of length {L + 1}")
        f = f / np.linalg.norm(f)
    dims = np.array(
        [float(weyl_dimension(gamma_shape(GammaParams(d, L, i)), d)) for i in range(L + 1)]
    )
    indices, letters = _sector(d, n, gamma_content(d, L))
    off_sector = float(np.linalg.norm(np.delete(vs.vectors, indices, axis=1)))
    if off_sector > 0:
        raise ValueError(
            f"vector set has norm {off_sector:.3g} outside the weight sector at d={d} n={n}"
        )
    # The v_i lie in distinct irreps, so <v_i|W^n|v_j> = 0 for i != j and
    # sum_i w_i <v_i|W^n|v_i> = <sum_i v_i|W^n|sum_i w_i v_i>, signed w_i too.
    # Both vectors lie in the sector: split each string into a prefix of
    # n//2 sites and a suffix, scatter them into prefix x suffix matrices K
    # and B, and <bra|W^n|ket> = sum(B * (W1 @ K @ W2^T)) with W1, W2 the
    # tensor powers of W restricted to the distinct prefixes and suffixes.
    half = n // 2
    rows, prefix_levels = _prefix_levels(letters[:, :half], d)
    cols, suffix_levels = _prefix_levels(letters[:, half:], d)
    at = (rows, cols)
    ket = np.zeros((len(prefix_levels[-1][1]), len(suffix_levels[-1][1])), dtype=complex)
    bra = np.zeros_like(ket)
    sector = vs.vectors[:, indices]
    ket[at] = (f * np.sqrt(dims)) @ sector
    bra[at] = sector.sum(axis=0).conj()

    rng = np.random.default_rng(seed)
    chunk = max(1, min(2048, _MC_CHUNK_BUDGET // d**n))
    sums = np.zeros(2)
    sq_sums = np.zeros(2)
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        outcome = _haar_batch(rng, b, d)
        w = np.conj(np.swapaxes(outcome, -1, -2))
        w2 = np.swapaxes(_restricted_power(w, suffix_levels), -1, -2)
        amps = np.sum(bra * (_restricted_power(w, prefix_levels) @ ket @ w2), axis=(1, 2))
        total = np.abs(amps) ** 2
        fid = total * np.abs(w[:, d - 1, d - 1]) ** 2
        sums += (fid.sum(), total.sum())
        sq_sums += ((fid**2).sum(), (total**2).sum())
        done += b
    means = sums / samples
    variances = (sq_sums - sums**2 / samples) / (samples - 1)
    stderrs = np.sqrt(np.maximum(variances, 0.0) / samples)
    return (
        MCEstimate(float(means[0]), float(stderrs[0])),
        MCEstimate(float(means[1]), float(stderrs[1])),
    )
