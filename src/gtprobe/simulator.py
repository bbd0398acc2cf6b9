"""Brute-force validation of the protocol on small tensor-power spaces.

Everything here works directly in (C^d)^{otimes n} with dense/sector-level
linear algebra and no representation-theoretic shortcuts, so agreement
with the exact-rational modules is an independent end-to-end check of the
whole construction: the probe vectors are recovered as the highest-
covariance null space of the off-diagonal subgroup generators, bucketed by
the quadratic Casimir; the branching weights are recovered as projection
norms; and the protocol's expected fidelity is recovered by Monte Carlo
integration over Haar-random measurement outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

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


def _sector_strings(d: int, n: int, content: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All length-n strings over 0..d-1 with the given letter counts, lex order."""
    if len(content) != d or any(c < 0 for c in content) or sum(content) != n:
        return []
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    remaining = list(content)

    def rec() -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for a in range(d):
            if remaining[a]:
                remaining[a] -= 1
                prefix.append(a)
                rec()
                prefix.pop()
                remaining[a] += 1

    rec()
    return out


def _string_index(string: tuple[int, ...], d: int) -> int:
    idx = 0
    for digit in string:
        idx = idx * d + digit
    return idx


def weight_sector(d: int, n: int, content: tuple[int, ...]) -> list[int]:
    """Computational-basis indices of the strings with the given letter counts.

    content[a] is the multiplicity of letter a+1; an inconsistent content
    vector yields the empty list.
    """
    return [_string_index(s, d) for s in _sector_strings(d, n, content)]


def weight_operator(a: int, b: int, d: int, n: int) -> csr_matrix:
    """The generator E_ab = sum over sites of the single-site |a><b|.

    Letters are 1-based.  Returned as a sparse matrix on the full d^n
    space; it maps the content-c sector into the content-(c + e_a - e_b)
    sector.
    """
    if not (1 <= a <= d and 1 <= b <= d):
        raise ValueError(f"letters must lie in 1..{d}, got a={a} b={b}")
    _check_capacity(d, n)
    dim = d**n
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    place = [d ** (n - 1 - s) for s in range(n)]
    for x in range(dim):
        for s in range(n):
            if (x // place[s]) % d == b - 1:
                rows.append(x + (a - b) * place[s])
                cols.append(x)
                vals.append(1.0)
    return coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def _transfer(
    strings: list[tuple[int, ...]],
    d: int,
    a: int,
    b: int,
    index_cache: dict[tuple[int, ...], dict[tuple[int, ...], int]],
) -> np.ndarray:
    """Matrix of E_ab (0-based letters) from the sector spanned by strings
    into its image sector; rows are indexed by the image sector's strings."""
    n = len(strings[0])
    content = [0] * d
    for digit in strings[0]:
        content[digit] += 1
    content[a] += 1
    content[b] -= 1
    target_key = tuple(content)
    if target_key not in index_cache:
        index_cache[target_key] = {
            s: k for k, s in enumerate(_sector_strings(d, n, target_key))
        }
    target = index_cache[target_key]
    mat = np.zeros((len(target), len(strings)))
    for col, s in enumerate(strings):
        for site, digit in enumerate(s):
            if digit == b:
                image = s[:site] + (a,) + s[site + 1 :]
                mat[target[image], col] += 1.0
    return mat


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
) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """Orthonormal bases, one per shape, of the subgroup-covariant subspace.

    Within the weight sector of the given content, computes the null space
    of M = sum_{a != b <= d-1} E_ba E_ab (the vectors transforming as a
    determinant power under the subgroup fixing the last basis state) and
    splits it by quadratic-Casimir eigenvalue into one bucket per expected
    shape.  Raises ExtractionError whenever the spectrum disagrees with
    the hook-length bookkeeping.
    """
    strings = _sector_strings(d, n, content)
    if not strings:
        raise ExtractionError(f"empty weight sector for content {content}")
    m = len(strings)
    index_cache: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    transfers = {
        (a, b): _transfer(strings, d, a, b, index_cache)
        for a in range(d)
        for b in range(d)
        if a != b
    }

    sub = np.zeros((m, m))
    for (a, b), t in transfers.items():
        if a <= d - 2 and b <= d - 2:
            sub += t.T @ t
    evals, evecs = np.linalg.eigh(sub)
    scale = max(float(evals[-1]), 1.0)
    null_basis = evecs[:, evals < null_tol * scale]
    if null_basis.shape[1] == 0:
        raise ExtractionError(f"no covariant vectors found for content {content}")

    casimir = np.zeros((m, m))
    for t in transfers.values():
        casimir += t.T @ t
    casimir += sum(c * c for c in content) * np.eye(m)
    restricted = null_basis.T @ casimir @ null_basis
    evals2, evecs2 = np.linalg.eigh(restricted)

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
        buckets.append(null_basis @ evecs2[:, chosen])
    return strings, buckets


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
    strings, buckets = _covariant_buckets(
        d, n, gamma_content(d, L), shapes, null_tol, casimir_tol
    )
    indices = np.array([_string_index(s, d) for s in strings])
    column = 0 if pick == "first" else -1
    vectors = np.zeros((L + 1, d**n), dtype=complex)
    for i, bucket in enumerate(buckets):
        vectors[i, indices] = bucket[:, column]
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
) -> list[CGResidual]:
    """Check the one-box branching weights against brute-force projections.

    For each i, tensors v_i with the last basis state, projects the result
    onto the covariant buckets of the (n+1)-site system, and compares the
    squared projection norms with the exact (alpha_i, beta_i).
    """
    _check_capacity(d, n + 1)
    vs = extract_gt_vectors(d, n, pick, null_tol, casimir_tol)
    L = vs.L
    content = gamma_content(d, L)
    shapes_plus = [gamma_plus_shape(GammaParams(d, L, i)) for i in range(L + 1)]
    strings_plus, buckets_plus = _covariant_buckets(
        d, n + 1, content[:-1] + (content[-1] + 1,), shapes_plus, null_tol, casimir_tol
    )
    # v_i tensor |d> has entry v_i[k] at index k*d + d-1 and zeros elsewhere.
    plus = np.array([_string_index(s, d) for s in strings_plus])
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


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic under the seed.

    Ginibre draw followed by QR, with the R diagonal's phases absorbed so
    the factorization is the canonical one with positive real diagonal.
    """
    rng = np.random.default_rng(seed)
    return _haar_batch(rng, 1, d)[0]


def _haar_batch(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    z = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    diag = np.einsum("bii->bi", r)
    return q * (diag / np.abs(diag))[:, None, :]


def apply_tensor_power(mat: np.ndarray, vec: np.ndarray, n: int) -> np.ndarray:
    """Apply mat to every tensor factor of vec via n single-site contractions.

    mat may also be a batch of matrices of shape (..., d, d); the result
    then carries the same leading axes, one transformed vector per matrix.
    """
    mat = np.asarray(mat, dtype=complex)
    d = mat.shape[-1]
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if mat.ndim < 2 or mat.shape[-2] != d or vec.size != d**n:
        raise ValueError(
            f"shape mismatch: matrix {mat.shape} on a length-{vec.size} vector"
        )
    batch = mat.shape[:-2]
    out = np.broadcast_to(vec, batch + vec.shape)
    for site in range(n):
        out = out.reshape(batch + (d**site, d, d ** (n - 1 - site)))
        out = mat[..., None, :, :] @ out
    return out.reshape(batch + vec.shape)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    samples: int
    seed: int


def mc_estimates(
    d: int,
    n: int,
    samples: int,
    seed: int,
    vectors: GTVectorSet | None = None,
    randomize_target: bool = False,
    probe: np.ndarray | None = None,
) -> tuple[MCEstimate, MCEstimate]:
    """Monte Carlo estimates of the expected fidelity and of the total
    outcome probability, from one pass over a seeded stream of Haar outcomes.

    With A = sum_i f_i sqrt(dim_i) <v_i|W^{otimes n}|v_i> (W the outcome's
    inverse action, the target fixed to the identity by Haar invariance
    unless randomize_target is set), the fidelity integrand is
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
        if f.shape != (L + 1,) or not np.any(f):
            raise ValueError(f"probe must be a nonzero vector of length {L + 1}")
        f = f / np.linalg.norm(f)
    dims = np.array(
        [float(weyl_dimension(gamma_shape(GammaParams(d, L, i)), d)) for i in range(L + 1)]
    )
    # The v_i lie in distinct irreps, so <v_i|W^n|v_j> = 0 for i != j and
    # sum_i w_i <v_i|W^n|v_i> = <sum_i v_i|W^n|sum_i w_i v_i>, signed w_i too.
    ket = (f * np.sqrt(dims)) @ vs.vectors
    bra = vs.vectors.sum(axis=0).conj()

    rng = np.random.default_rng(seed)
    chunk = max(1, min(2048, _MC_CHUNK_BUDGET // d**n))
    sums = np.zeros(2)
    sq_sums = np.zeros(2)
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        outcome = _haar_batch(rng, b, d)
        w = np.conj(np.swapaxes(outcome, -1, -2))
        if randomize_target:
            w = w @ _haar_batch(rng, b, d)
        total = np.abs(apply_tensor_power(w, ket, n) @ bra) ** 2
        fid = total * np.abs(w[:, d - 1, d - 1]) ** 2
        sums += (fid.sum(), total.sum())
        sq_sums += ((fid**2).sum(), (total**2).sum())
        done += b
    means = sums / samples
    variances = (sq_sums - sums**2 / samples) / (samples - 1)
    stderrs = np.sqrt(np.maximum(variances, 0.0) / samples)
    return (
        MCEstimate(float(means[0]), float(stderrs[0]), samples, seed),
        MCEstimate(float(means[1]), float(stderrs[1]), samples, seed),
    )
