"""Reference implementations and helpers that only the tests use.

The library contracts Monte Carlo overlaps on the weight sector, holds the
sector as base-d codes, and certifies its probe vectors with exact integer
projectors built from site swaps; full_space_mc and full_null_space_buckets
(dense eigh on generator sums from the string enumeration and E_ab
transfer matrices below) are the straightforward versions it replaced,
kept so tests can compare against them.  The rest are full-space building
blocks (tensor powers, weight sectors and generators, single Haar draws)
and float helpers (the fidelity quotient, the pure-state trace distance)
that the tests check the construction with.  reference_build and its
companions are the exact layer as written in Fractions, the oracle for the
integer-arithmetic CoeffTable.build, with its dimension-ratio checks, and the
fidelity sums (reference_build returns a ReferenceTable: CoeffTable's public
fields stored as the Fraction tuples CoeffTable held before it kept its
integers); reference_cg_add_box is the row-by-row Clebsch-Gordan loop that
the shifted-row coeffs._cg_core replaced, the oracle for that core on any
chain and for verify's CG family; reference_hook_length_dimension, n! over
the product of the hooks of any diagram, is the oracle for the standard
tableau counts that young.gamma_hooks steps along the probe family (the
hook_dim column of `gtprobe dims` and the simulator's bucket dimensions),
and full_null_space_buckets reads it too; reference_weyl_dimension the
factor-by-factor Fraction product, the oracle for young._weyl_core on any
diagram, for young.gamma_dims and for the Weyl columns of `gtprobe dims`; it
returns 0 for more than d rows. reference_hook_content_dimension is a third
route to the Weyl dimensions, in integers over the n boxes, the oracle for
young.gamma_dims at large d, where the O(d^2) Fractions of
reference_weyl_dimension are too slow, and reference_gamma_dims a fourth, the
per-index range products that young.gamma_dims now steps along i, the oracle
at large L too.
reference_optimal_probe is the scipy eigh_tridiagonal call that
fidelity.optimal_probe's direct dstebz and dstein calls replaced, the
oracle for their bit-identical results.  interlaces and
is_valid_chain are the pairwise chain checks that young.as_chain replaced, and
_prefix_levels is the prefix tree rebuilt from a letter matrix that the
simulator's sector now grows as it generates the strings.  reference_swap_tables,
reference_swap_operator and reference_restricted_power are the binary-search
site-swap tables, their row-major matvec and the fancy-indexed tensor power
that the position lookup, the swap-major tables and the flat gathers replaced;
reference_cg_embedding runs the CG check on them.  reference_haar_batch is the
LAPACK QR sampler, with the phases of R's diagonal absorbed, that the batch-last
Gram-Schmidt sampler replaced; haar_unitary and full_space_mc draw from it.
alpha_beta, g_coeff, f_squared, xy_squared and shared_radicand are the
per-index Fraction closed forms, each validating (i, d, L) with _check_index,
that CoeffTable.build and its callers now read, unreduced, from
coeffs._alpha_beta_g and coeffs._terms; reference_telescoping_check is the
Fraction form of the integer telescoping_check,
reference_amplitude_reduction_check the one-case amplitude check that the
stacked amplitude_reduction_check replaced, reference_amplitude_stacks the
one-case draw-and-normalize loop that verify's stacked states replaced, and
reference_plan_queries the doubling and bisection search that plan_queries'
closed-form start replaced.  reference_gamma_shape, reference_gamma_chain and
reference_gamma_content are the probe family gamma_i written from its formula,
one index at a time, the oracle for the shapes young.gamma_hooks yields and the
chain young.gamma_chain makes, which the library addresses by (d, L) alone.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from gtprobe.coeffs import CoeffTable, ConsistencyError
from gtprobe.fidelity import amplitude_reduction_check, closed_form_infidelity, protocol_probe
from gtprobe.simulator import (
    _MC_CHUNK_BUDGET,
    CASIMIR_TOL,
    NULL_SPACE_TOL,
    CGResidual,
    ExtractionError,
    _check_capacity,
    _lagrange,
    _null_values,
    _sector,
    casimir_eigenvalue,
)
from gtprobe.young import Diagram, _require_integer, as_chain, as_diagram, row


def reference_gamma_shape(d: int, L: int, i: int, grown: int = 0) -> Diagram:
    """The probe shape gamma_i = (N+L-i, L, ..., L, i), N = (d+1)L, with d-2 middle rows and
    a zero last row dropped; grown = 1 adds a box to row 1, giving gamma_i^+."""
    N = (d + 1) * L
    rows = [N + L - i + grown] + [L] * (d - 2) + [i]
    return tuple(r for r in rows if r)


def reference_gamma_chain(d: int, L: int, i: int) -> tuple[Diagram, ...]:
    """Interlacing chain of the probe tableau of gamma_i: letter k < d fills row k of the
    L-column rectangle, and letter d fills N-i boxes of row 1 and i of row d, so the k-th
    diagram is the k-row rectangle (L, ..., L) for k < d and gamma_i for k = d."""
    return tuple((L,) * k for k in range(1, d)) + (reference_gamma_shape(d, L, i),)


def reference_gamma_content(d: int, L: int) -> tuple[int, ...]:
    """Letter multiplicities of the probe tableau, read off its chain: L for 1..d-1, N for d."""
    sizes = [0] + [sum(lam) for lam in reference_gamma_chain(d, L, 0)]
    return tuple(b - a for a, b in zip(sizes, sizes[1:]))


def interlaces(mu, lam) -> bool:
    """True iff lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... (missing rows read 0)."""
    mu, lam = as_diagram(mu), as_diagram(lam)
    if len(mu) > len(lam):
        return False
    for k in range(1, len(lam) + 1):
        if not (row(lam, k) >= row(mu, k) >= row(lam, k + 1)):
            return False
    return True


def is_valid_chain(chain) -> bool:
    """True iff the diagrams interlace upward and the k-th has <= k rows."""
    diagrams = [as_diagram(c) for c in chain]
    for k, lam in enumerate(diagrams, start=1):
        if len(lam) > k:
            return False
        if k >= 2 and not interlaces(diagrams[k - 2], lam):
            return False
    return True


def sector_strings(d: int, n: int, content: tuple[int, ...]) -> list[tuple[int, ...]]:
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


def string_index(string: tuple[int, ...], d: int) -> int:
    idx = 0
    for digit in string:
        idx = idx * d + digit
    return idx


def transfer(
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
            s: k for k, s in enumerate(sector_strings(d, n, target_key))
        }
    target = index_cache[target_key]
    mat = np.zeros((len(target), len(strings)))
    for col, s in enumerate(strings):
        for site, digit in enumerate(s):
            if digit == b:
                image = s[:site] + (a,) + s[site + 1 :]
                mat[target[image], col] += 1.0
    return mat


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


def weight_sector(d: int, n: int, content: tuple[int, ...]) -> list[int]:
    """Computational-basis indices of the strings with the given letter counts.

    content[a] is the multiplicity of letter a+1; an inconsistent content
    vector yields the empty list.
    """
    return [string_index(s, d) for s in sector_strings(d, n, content)]


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


def reference_haar_batch(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """count Haar unitaries, batch first: the Q factors of Ginibre draws (real
    parts, then imaginary) by LAPACK QR, with the R diagonal's phases absorbed
    so the factorization is the canonical one with positive real diagonal."""
    z = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    diag = np.einsum("bii->bi", r)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic under the seed."""
    rng = np.random.default_rng(seed)
    return reference_haar_batch(rng, 1, d)[0]


def apply_tensor_power(mat: np.ndarray, vec: np.ndarray, n: int) -> np.ndarray:
    """Apply mat to every tensor factor of vec via n single-site contractions
    on all d^n amplitudes.

    mat may also be a batch of matrices of shape (..., d, d); the result
    then carries the same leading axes, one transformed vector per matrix.
    Each contraction is one batched (b, d, d) @ (b, d, d^(n-1)) matmul on the
    leading site, which is then turned to the back, so after n of them every
    site is transformed once and in its place again. The two buffers serve
    every site: a fresh d^n array per site costs more in page faults at
    (4, 8) than the arithmetic does.
    """
    mat = np.asarray(mat, dtype=complex)
    d = mat.shape[-1]
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if mat.ndim < 2 or mat.shape[-2] != d or vec.size != d**n:
        raise ValueError(
            f"shape mismatch: matrix {mat.shape} on a length-{vec.size} vector"
        )
    batch, mats = mat.shape[:-2], mat.reshape(-1, d, d)
    b = len(mats)
    out = np.empty((b, vec.size), dtype=complex)
    out[:] = vec
    turned = np.empty_like(out)
    for _ in range(n):
        np.matmul(mats, out.reshape(b, d, -1), out=turned.reshape(b, d, -1))
        out.reshape(b, -1, d)[...] = turned.reshape(b, d, -1).transpose(0, 2, 1)
    return out.reshape(batch + vec.shape)


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


def reference_optimal_probe(tab: CoeffTable) -> tuple[np.ndarray, float]:
    """The top eigenpair of the tridiagonal A^T A through scipy's eigh_tridiagonal
    (select="i"), sign fixed as in fidelity.optimal_probe, which calls the two LAPACK
    routines that wrapper runs for it."""
    from scipy.linalg import eigh_tridiagonal

    L = tab.L
    x = np.sqrt(np.array([t[3] / t[4] for t in tab.terms]))
    y = np.sqrt(np.array([t[5] / t[6] for t in tab.terms]))
    diag = x**2
    diag[:-1] += y[1:] ** 2
    off = x[1:] * y[1:]
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(L, L))
    vec = vecs[:, 0]
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return vec, float(vals[0])


def trace_distance_from_overlap(overlap_sq: float) -> float:
    """Trace norm 2*sqrt(1 - s) of the difference of two pure states
    with squared overlap s; inputs within 1e-12 outside [0, 1] are clamped."""
    s = float(overlap_sq)
    if not -1e-12 <= s <= 1 + 1e-12:
        raise ValueError(f"squared overlap must lie in [0, 1], got {s}")
    s = min(max(s, 0.0), 1.0)
    return 2.0 * math.sqrt(1.0 - s)


def full_space_mc(d, n, samples, seed, vs, randomize_target=False, probe=None):
    """The Monte Carlo pass with <bra|W^n|ket> contracted on all d^n amplitudes.

    Returns [(mean, stderr)] for the fidelity and the total probability.
    """
    L = vs.L
    f = protocol_probe(d, L) if probe is None else np.asarray(probe) / np.linalg.norm(probe)
    shapes = [reference_gamma_shape(d, L, i) for i in range(L + 1)]
    dims = np.array([float(reference_weyl_dimension(lam, d)) for lam in shapes])
    ket = (f * np.sqrt(dims)) @ vs.vectors
    bra = vs.vectors.sum(axis=0).conj()
    rng = np.random.default_rng(seed)
    chunk = max(1, min(2048, _MC_CHUNK_BUDGET // d**n))
    fids, totals = [], []
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        w = np.conj(np.swapaxes(reference_haar_batch(rng, b, d), -1, -2))
        if randomize_target:
            w = w @ reference_haar_batch(rng, b, d)
        totals.append(np.abs(apply_tensor_power(w, ket, n) @ bra) ** 2)
        fids.append(totals[-1] * np.abs(w[:, d - 1, d - 1]) ** 2)
        done += b
    return [
        (float(x.mean()), float(x.std(ddof=1) / np.sqrt(samples)))
        for x in (np.concatenate(fids), np.concatenate(totals))
    ]


def full_null_space_buckets(
    d: int,
    n: int,
    content: tuple[int, ...],
    shapes: list[Diagram],
    null_tol: float = NULL_SPACE_TOL,
    casimir_tol: float = CASIMIR_TOL,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Orthonormal bases, one per shape, of the subgroup-covariant subspace,
    by dense eigh on generator sums assembled from E_ab transfer matrices.

    Returns the sector's codes, which index the bucket rows.

    Within the weight sector of the given content, computes the null space
    of M = sum_{a != b <= d-1} E_ba E_ab (the vectors transforming as a
    determinant power under the subgroup fixing the last basis state) and
    splits it by quadratic-Casimir eigenvalue into one bucket per expected
    shape.  Raises ExtractionError whenever the spectrum disagrees with
    the hook-length bookkeeping.
    """
    strings = sector_strings(d, n, content)
    if not strings:
        raise ExtractionError(f"empty weight sector for content {content}")
    m = len(strings)
    index_cache: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    transfers = {
        (a, b): transfer(strings, d, a, b, index_cache)
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
        want = reference_hook_length_dimension(shape)
        if not chosen:
            raise ExtractionError(f"empty Casimir bucket for shape {shape}")
        if len(chosen) != want:
            raise ExtractionError(
                f"bucket for shape {shape} has dimension {len(chosen)}, "
                f"expected hook-length dimension {want}"
            )
        buckets.append(null_basis @ evecs2[:, chosen])
    return np.array([string_index(s, d) for s in strings]), buckets


def reference_weyl_dimension(lam, d):
    """Reference: one Fraction per factor of prod_{i<j} (lam_i - lam_j + j - i)/(j - i)."""
    if len(lam) > d:
        return 0
    dim = Fraction(1)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            dim *= Fraction(row(lam, i) - row(lam, j) + j - i, j - i)
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def reference_hook_length_dimension(lam) -> int:
    """Number of standard tableaux of shape lam: n! over the product of its hook lengths."""
    lam = as_diagram(lam)
    conj = [sum(1 for r in lam if r > c) for c in range(lam[0] if lam else 0)]
    hooks = 1
    for r, length in enumerate(lam):
        for c in range(length):
            hooks *= (length - c) + (conj[c] - r) - 1
    return math.factorial(sum(lam)) // hooks


def reference_hook_content_dimension(lam, d) -> int:
    """Weyl dimension of lam for GL(d) by the hook-content formula: the product of
    d + c over the contents c = column - row of its boxes, over the product of its hooks."""
    lam = as_diagram(lam)
    conj = [sum(1 for r in lam if r > c) for c in range(lam[0] if lam else 0)]
    contents = hooks = 1
    for r, length in enumerate(lam):
        for c in range(length):
            contents *= d + c - r
            hooks *= (length - c) + (conj[c] - r) - 1
    quotient, rem = divmod(contents, hooks)
    assert rem == 0
    return quotient


def reference_gamma_dims(d: int, L: int) -> list[tuple[int, int]]:
    """(dim gamma_i, dim gamma_i^+) for i = 0..L, each index's three windows made afresh as
    range products: (t_1 - t_d) prod_{1<k<d}(t_k - t_d) prod_{1<k<d}(t_1 - t_k) over
    (d-1)!(d-2)!, the middle rows' Weyl core being 1."""
    N, den = (d + 1) * L, math.factorial(d - 1) * math.factorial(d - 2)
    out = []
    for i in range(L + 1):
        top, bottom = N + L - i, i + 1 - d  # gamma_i's first and last shifted rows
        low = math.prod(range(L - d + 2 - bottom, L - bottom))
        dims = [
            low * (t - bottom) * math.prod(range(t - L + 1, t - L + d - 1)) for t in (top, top + 1)
        ]
        assert all(dim % den == 0 for dim in dims)
        out.append((dims[0] // den, dims[1] // den))
    return out


# The exact layer as it was written in Fractions, before CoeffTable.build
# and the fidelity sums moved to integer cross-multiplication: each index
# re-derives its Weyl dimensions and branching weights through
# reference_dim_ratio_check, and every comparison and sum is a Fraction one.


def reference_dim_ratio_check(d: int, L: int, i: int) -> bool:
    N = (d + 1) * L
    s = L + N + d - 2 * i
    dim_plus = reference_weyl_dimension(reference_gamma_shape(d, L, i, grown=1), d)
    ratio = Fraction(reference_weyl_dimension(reference_gamma_shape(d, L, i), d), dim_plus)
    alpha, _ = alpha_beta(i, d, L)
    x_sq, y_sq = xy_squared(i, d, L)
    ok = ratio == Fraction((s - 1) * (N - i + 1), s * (N + d - i - 1))
    ok = ok and alpha**2 * ratio == x_sq
    if i >= 1:
        prev = reference_gamma_shape(d, L, i - 1)
        ratio_prev = Fraction(reference_weyl_dimension(prev, d), dim_plus)
        beta_prev = alpha_beta(i - 1, d, L)[1]
        ok = ok and ratio_prev == Fraction((s + 1) * (L + d - i - 1), s * (L - i + 1))
        ok = ok and beta_prev**2 * ratio_prev == y_sq
    return ok


def _check_index(i: int, d: int, L: int, lo: int = 0) -> tuple[int, int, int]:
    """(i, d, L) as plain ints; raise ValueError unless they are integers and lo <= i <= L."""
    i, d, L = (_require_integer(name, v) for name, v in (("i", i), ("d", d), ("L", L)))
    if not lo <= i <= L:
        raise ValueError(f"index i must satisfy {lo} <= i <= L={L}, got {i}")
    return i, d, L


def alpha_beta(i: int, d: int, L: int) -> tuple[Fraction, Fraction]:
    """Squared branch weights (alpha_i, beta_i) at index i.

    alpha_i = (N+d-i-1) / (L+N+d-2i-1),  beta_i = (L-i) / (L+N+d-2i-1)
    """
    i, d, L = _check_index(i, d, L)
    N = (d + 1) * L
    s = L + N + d - 2 * i
    return Fraction(N + d - i - 1, s - 1), Fraction(L - i, s - 1)


def g_coeff(i: int, d: int, L: int) -> int:
    """g_i = (i+1)(L+N+d-i) for -1 <= i <= L, so g_{-1} = 0."""
    i, d, L = _check_index(i, d, L, lo=-1)
    N = (d + 1) * L
    return (i + 1) * (L + N + d - i)


def f_squared(i: int, d: int, L: int) -> Fraction:
    """Squared probe weight f_i^2 for -1 <= i <= L, not normalized, so f_{-1}^2 = 0.

    f_i^2 = g_i^2 (L+N+d-2i-1) prod_{j=2}^{d-1}(N+j-i-1) prod_{j=2}^{d-1}(L+d-j-i)
    """
    i, d, L = _check_index(i, d, L, lo=-1)
    N = (d + 1) * L
    value = Fraction(g_coeff(i, d, L) ** 2 * (L + N + d - 2 * i - 1))
    for j in range(2, d):
        value *= (N + j - i - 1) * (L + d - j - i)
    return value


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


def shared_radicand(i: int, d: int, L: int) -> Fraction:
    """Common rational factor under the square roots of f_i x_i and f_{i-1} y_i.

    R_i = prod_{j=2}^{d-1}(N+j-i) prod_{j=2}^{d-1}(L+d-j-i) / (L+N+d-2i),
    so that (f_i x_i)^2 = (g_i (N-i+1))^2 R_i and
    (f_{i-1} y_i)^2 = (g_{i-1} (L+d-i-1))^2 R_i.
    """
    i, d, L = _check_index(i, d, L)
    N = (d + 1) * L
    value = Fraction(1, L + N + d - 2 * i)
    for j in range(2, d):
        value *= (N + j - i) * (L + d - j - i)
    return value


@dataclass(frozen=True)
class ReferenceTable:
    """CoeffTable's public fields, each stored as a tuple."""

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


def reference_build(d: int, L: int) -> ReferenceTable:
    N = (d + 1) * L
    alpha, beta, x_sq, y_sq, g, f_sq, rad = [], [], [], [], [], [], []
    for i in range(L + 1):
        if not reference_dim_ratio_check(d, L, i):
            raise ConsistencyError(f"dimension-ratio identity failed at d={d} L={L} i={i}")
        a, b = alpha_beta(i, d, L)
        xs, ys = xy_squared(i, d, L)
        gi = g_coeff(i, d, L)
        fs = f_squared(i, d, L)
        ri = shared_radicand(i, d, L)
        if fs * xs != Fraction(gi * (N - i + 1)) ** 2 * ri:
            raise ConsistencyError(f"shared radicand mismatch for f_i*x_i at d={d} L={L} i={i}")
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
    return ReferenceTable(
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


def reference_cg_add_box(chain) -> list[tuple[int, Fraction]]:
    """Squared Clebsch-Gordan coefficients (k, C_k^2) for appending the
    largest letter, each factor read from the unshifted rows with row()."""
    diagrams = as_chain(chain)
    d = len(diagrams)
    lam = diagrams[-1]
    sub = diagrams[-2] if d >= 2 else ()
    out = []
    for k in range(1, d + 1):
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


def reference_expected_fidelity(tab: ReferenceTable) -> Fraction:
    L, d, N = tab.L, tab.d, tab.N
    num = Fraction(0)
    for i in range(L + 1):
        a = tab.g[i] * (N - i + 1)
        b = (tab.g[i - 1] if i >= 1 else 0) * (L + d - i - 1)
        num += (a + b) ** 2 * tab.shared_radicand[i]
    return num / sum(tab.f_sq)


def reference_infidelity_sum_form(d: int, L: int) -> Fraction:
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


def reference_telescoping_check(a: Fraction, b: Fraction, k: int) -> bool:
    """The telescoping identity of coeffs.telescoping_check, in Fractions."""
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


def reference_plan_queries(d: int, eps: float) -> int:
    """plan_queries' n by doubling, then bisecting, L over the closed-form infidelity,
    which strictly falls in L (no input validation)."""
    target = Fraction(eps) ** 2 / 100

    def ok(L: int) -> bool:
        return closed_form_infidelity(d, L) <= target

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


def reference_amplitude_reduction_check(psi, phi, proj) -> tuple[float, float]:
    """(lhs, rhs) of fidelity.amplitude_reduction_check for one case, with one
    vector-matrix product per amplitude and one eigvalsh."""
    psi, phi, proj = (np.asarray(a, dtype=complex) for a in (psi, phi, proj))
    amp_psi = math.sqrt(max(float((psi.conj() @ proj @ psi).real), 0.0))
    amp_phi = math.sqrt(max(float((phi.conj() @ proj @ phi).real), 0.0))
    diff = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return abs(amp_psi - amp_phi), trace_norm / math.sqrt(2.0)


def reference_amplitude_stacks(seed: int) -> dict:
    """verify's amplitude-reduction stacks as the one-case loop made them: per case
    the draws integers(2, 17), standard_normal(4 dim) and integers(0, 2, dim), psi
    and phi each divided by its np.linalg.norm; then, per dimension, the stacked
    psi, phi and proj and the sides amplitude_reduction_check gives on them."""
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        z = rng.standard_normal(4 * dim)
        psi, phi = z[:dim] + 1j * z[dim : 2 * dim], z[2 * dim : 3 * dim] + 1j * z[3 * dim :]
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        groups.setdefault(dim, []).append((psi, phi, rng.integers(0, 2, dim)))
    stacks = {}
    for dim in sorted(groups):
        psi, phi, diag = (np.array(a) for a in zip(*groups[dim]))
        proj = diag[..., None] * np.eye(dim, dtype=complex)
        stacks[dim] = (psi, phi, proj, *amplitude_reduction_check(psi, phi, proj))
    return stacks


def reference_swap_tables(d: int, codes: np.ndarray, letters: np.ndarray):
    """The site-swap image tables by binary search: every swapped code of every
    string, formed at once as int64 over all n(n-1)/2 site pairs and found in
    codes with np.searchsorted.  Row x lists string x's images in (s, t) order,
    so these are the (m, k) transposes of simulator._swap_tables."""
    m, n = letters.shape
    s, t = np.triu_indices(n, 1)
    at_s, at_t = letters[:, s], letters[:, t]
    moved = at_s != at_t
    place = d ** np.arange(n - 1, -1, -1)
    image = np.searchsorted(codes, (codes[:, None] + (at_t - at_s) * (place[s] - place[t]))[moved])
    low = (np.maximum(at_s, at_t) < d - 1)[moved]
    return image.reshape(m, -1), image[low].reshape(m, -1)


def reference_swap_operator(diag: int, images: np.ndarray):
    """The row-major matvec on an (m, k) image table: diag v + 2 sum_j v[images[:, j]]."""
    return lambda v: diag * v + 2 * v[images].sum(axis=1)


def reference_restricted_power(w: np.ndarray, levels) -> np.ndarray:
    """W^{otimes k} on the last level's strings, fancy-indexing the (b, h, h) power."""
    power = np.ones((len(w), 1, 1), dtype=complex)
    for parent, letter in levels:
        power = power[:, parent[:, None], parent] * w[:, letter[:, None], letter]
    return power


def reference_cg_embedding(d: int, n: int, vs) -> list[CGResidual]:
    """verify_cg_embedding's records for the vector set vs, from the binary-search
    tables and the row-major matvec, running the M-kernel product again for
    every grown bucket."""
    L = vs.L
    content = reference_gamma_content(d, L)
    content = content[:-1] + (content[-1] + 1,)
    codes, letters, _ = _sector(d, n + 1, content)
    swaps, low_swaps = reference_swap_tables(d, codes, letters)
    casimir = reference_swap_operator((d - 1) * (n + 1) + sum(c * c for c in content), swaps)
    sub = reference_swap_operator((d - 2) * sum(content[:-1]), low_swaps)
    values = [casimir_eigenvalue(reference_gamma_shape(d, L, i, grown=1), d) for i in range(L + 1)]
    grown = np.zeros((L + 1, len(codes)), dtype=vs.sector.dtype)
    grown[:, codes % d == d - 1] = vs.sector
    weights = []
    for value in values:
        kernel, d0 = _lagrange(sub, _null_values(d, content), 0, grown.T)
        u, dk = _lagrange(casimir, values, value, kernel)
        weights.append(np.sum(np.abs(np.divide(u, d0 * dk)) ** 2, axis=0))
    weights.append(np.zeros(L + 1))
    out = []
    for i in range(L + 1):
        alpha, beta = (float(w) for w in alpha_beta(i, d, L))
        a, b = float(weights[i][i]), float(weights[i + 1][i])
        out.append(CGResidual(i, a, b, abs(a - alpha), abs(b - beta)))
    return out
