import dataclasses
import math
import re
import tracemalloc
from itertools import product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtprobe import simulator
from gtprobe.coeffs import CoeffTable
from gtprobe.fidelity import expected_fidelity
from gtprobe.simulator import (
    _MC_CHUNK_BUDGET,
    CapacityError,
    ExtractionError,
    GTVectorSet,
    _covariant_buckets,
    _entry_bound,
    _haar_batch,
    _null_values,
    _power_steps,
    _restricted_power,
    _sector,
    _swap_operator,
    _swap_tables,
    casimir_eigenvalue,
    extract_gt_vectors,
    mc_estimates,
    verify_cg_embedding,
)
from gtprobe.young import (
    GammaParams,
    gamma_content,
    gamma_plus_shape,
    gamma_shape,
    hook_length_dimension,
)
from oracles import (
    _prefix_levels,
    apply_tensor_power,
    f_squared,
    full_null_space_buckets,
    full_space_mc,
    haar_unitary,
    reference_cg_embedding,
    reference_haar_batch,
    reference_restricted_power,
    reference_swap_operator,
    reference_swap_tables,
    reference_weyl_dimension,
    sector_strings,
    weight_operator,
    weight_sector,
)


def reference_mc(d, n, samples, seed, vs, probe=None):
    """Per-irrep Monte Carlo loop: one tensor-power overlap per v_i."""
    L = vs.L
    if probe is None:
        f_sq = np.array([float(f_squared(i, d, L)) for i in range(L + 1)])
        f = np.sqrt(f_sq / f_sq.sum())
    else:
        f = np.asarray(probe, dtype=float) / np.linalg.norm(probe)
    shapes = [gamma_shape(GammaParams(d, L, i)) for i in range(L + 1)]
    dims = np.array([float(reference_weyl_dimension(lam, d)) for lam in shapes])
    weights = f * np.sqrt(dims)
    rng = np.random.default_rng(seed)
    chunk = max(1, min(2048, _MC_CHUNK_BUDGET // d**n))
    fids, totals = [], []
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        w = np.conj(np.swapaxes(reference_haar_batch(rng, b, d), -1, -2))
        amps = np.zeros(b, dtype=complex)
        for i in range(L + 1):
            out = np.repeat(vs.vectors[i][None, :], b, axis=0)
            for site in range(n):
                out = w[:, None, :, :] @ out.reshape(b, d**site, d, d ** (n - 1 - site))
            amps += weights[i] * (out.reshape(b, -1) @ vs.vectors[i].conj())
        totals.append(np.abs(amps) ** 2)
        fids.append(totals[-1] * np.abs(w[:, d - 1, d - 1]) ** 2)
        done += b
    return [
        (float(x.mean()), float(x.std(ddof=1) / math.sqrt(samples)))
        for x in (np.concatenate(fids), np.concatenate(totals))
    ]


def zero_vector_set(d, n):
    """A vector set of zeros on an empty sector for (d, n), which need not have n = 2dL."""
    L = n // (2 * d)
    empty = np.zeros(0, dtype=int)
    return GTVectorSet(d, n, empty, [], np.zeros((L + 1, 0)), (0,) * (L + 1), (1,) * (L + 1))


def reference_cg_projections(d, n, pick, vs=None):
    """(alpha_proj, beta_proj) per i from the oracle's buckets: v_i tensor |d>
    projected onto its (n+1)-site buckets, with v_i the oracle's n-site
    bucket vector that pick selects unless the vector set vs gives it."""
    L = n // (2 * d)
    content = gamma_content(d, L)
    shapes = [gamma_shape(GammaParams(d, L, i)) for i in range(L + 1)]
    shapes_plus = [gamma_plus_shape(GammaParams(d, L, i)) for i in range(L + 1)]
    codes, buckets = full_null_space_buckets(d, n, content, shapes)
    plus, buckets_plus = full_null_space_buckets(
        d, n + 1, content[:-1] + (content[-1] + 1,), shapes_plus
    )
    index_plus = {c: k for k, c in enumerate(plus)}
    positions = [index_plus[c * d + d - 1] for c in codes]
    column = 0 if pick == "first" else -1
    out = []
    for i in range(L + 1):
        grown = np.zeros(len(plus))
        grown[positions] = buckets[i][:, column] if vs is None else vs.vectors[i, codes].real
        alpha = float(np.sum((buckets_plus[i].T @ grown) ** 2))
        beta = float(np.sum((buckets_plus[i + 1].T @ grown) ** 2)) if i < L else 0.0
        out.append((alpha, beta))
    return out


def assert_matches_oracle(d, n, pick):
    """Each extracted vector has norm 1 and lies in its bucket of the
    eigh-based transfer-matrix oracle, and its CG records match the
    oracle's projections of the same vectors, all within 1e-12."""
    vs = extract_gt_vectors(d, n, pick=pick)
    shapes = [gamma_shape(GammaParams(d, vs.L, i)) for i in range(vs.L + 1)]
    codes, buckets = full_null_space_buckets(d, n, gamma_content(d, vs.L), shapes)
    for v, bucket in zip(vs.vectors, buckets):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(bucket.T @ v[codes]) == pytest.approx(1.0, abs=1e-12)
    if d ** (n + 1) <= simulator.CAPACITY:  # 4^9 is beyond it
        recs = verify_cg_embedding(d, n, vectors=vs)
        for rec, (alpha, beta) in zip(recs, reference_cg_projections(d, n, pick, vs)):
            assert rec.alpha_proj == pytest.approx(alpha, rel=0, abs=1e-12)
            assert rec.beta_proj == pytest.approx(beta, rel=0, abs=1e-12)


SECTOR_CASES = [
    (2, 4, (1, 3)),
    (3, 6, (1, 1, 4)),
    (3, 3, (3, 0, 0)),
    (3, 4, (1, 1, 2)),
    (3, 4, (2, 1, 1)),
    (2, 4, (1, 1)),
    (2, 4, (1, 3, 0)),
]


# The four sectors the perfbench extract workload builds: extract_gt_vectors
# at (2,16) and (4,8), and the grown sectors of verify_cg_embedding at (2,12)
# and (3,6).
WORKLOAD_SECTORS = [
    (2, 16, (4, 12)),
    (4, 8, (1, 1, 1, 5)),
    (2, 13, (3, 10)),
    (3, 7, (1, 1, 5)),
]

@st.composite
def sector_args(draw):
    """(d, n, content) with content valid, of the wrong length, of the wrong
    sum, or with a negative count."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=d - 1, max_size=d - 1)))
    content = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    kind = draw(st.sampled_from(["valid", "length", "sum", "negative"]))
    if kind == "length":
        content = content + [0] if draw(st.booleans()) or d == 1 else content[:-1]
    elif kind == "sum":
        content[draw(st.integers(0, d - 1))] += draw(st.integers(-3, 3).filter(bool))
    elif kind == "negative":
        i = draw(st.integers(0, d - 1))
        shift = content[i] + draw(st.integers(1, 3))
        content[i] -= shift
        if d > 1:  # keep the sum, so only the sign is wrong
            content[(i + 1) % d] += shift
    return d, n, tuple(content)


def level_lists(levels):
    return [(parent.tolist(), letter.tolist()) for parent, letter in levels]


def assert_sector_matches_oracle(d, n, content):
    codes, letters, levels = _sector(d, n, content)
    strings = sector_strings(d, n, content)
    assert codes.dtype == letters.dtype == np.int64
    assert codes.tolist() == weight_sector(d, n, content)
    assert letters.shape == (len(strings), n)
    assert [tuple(row) for row in letters.tolist()] == strings
    # The sector holds every arrangement of its content, so its distinct
    # length-k prefixes and suffixes are one set: the tree's first k levels.
    assert len(levels) == n
    for k in range(1, n + 1):
        for part in (letters[:, :k], letters[:, n - k :]):
            assert level_lists(levels[:k]) == level_lists(_prefix_levels(part, d)[1])


def peak_bytes(fn, *args):
    """Peak traced allocation of one call fn(*args), and its result; numpy
    traces its data buffers under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestWeightSector:
    @pytest.mark.parametrize("d,n,content", SECTOR_CASES + WORKLOAD_SECTORS)
    def test_sector_matches_string_oracle(self, d, n, content):
        assert_sector_matches_oracle(d, n, content)

    @given(sector_args())
    @settings(max_examples=200, deadline=None)
    def test_sector_matches_string_oracle_on_random_contents(self, args):
        assert_sector_matches_oracle(*args)

    def test_sector_never_builds_all_strings(self):
        peak, (codes, _, _) = peak_bytes(_sector, 2, 16, (4, 12))
        assert len(codes) == comb(16, 4)
        assert peak < 2_000_000  # the 2^16 x 16 letter matrix alone is 8.4 MB

    def test_sector_beyond_any_dense_space(self):
        peak, (codes, letters, _) = peak_bytes(_sector, 2, 40, (2, 38))
        assert len(codes) == comb(40, 2)
        assert codes.tolist() == weight_sector(2, 40, (2, 38))
        assert letters.sum(axis=1).tolist() == [38] * comb(40, 2)
        assert peak < 2_000_000

    @pytest.mark.parametrize("d,n", [(3, 12), (2, 20), (5, 10)])
    def test_half_levels_index_prefixes_and_suffixes(self, d, n):
        _, letters, levels = _sector(d, n, gamma_content(d, n // (2 * d)))
        for part in (letters[:, : n // 2], letters[:, n // 2 :]):
            assert level_lists(levels[: n // 2]) == level_lists(_prefix_levels(part, d)[1])

    def test_codes_at_the_int64_edge(self):
        codes, _, _ = _sector(2, 63, (1, 62))
        assert codes.tolist() == weight_sector(2, 63, (1, 62))
        assert codes[-1] == 2**63 - 2

    def test_codes_beyond_int64_raise(self):
        message = r"d\^n = 2\^64 = 18446744073709551616 exceeds the int64 range"
        with pytest.raises(ValueError, match=message):
            _sector(2, 64, (1, 63))

    def test_counts(self):
        assert len(weight_sector(2, 4, (1, 3))) == comb(4, 1)
        assert len(weight_sector(3, 6, (1, 1, 4))) == factorial(6) // factorial(4)
        assert weight_sector(3, 3, (3, 0, 0)) == [0]

    def test_mismatched_content_is_empty(self):
        assert weight_sector(2, 4, (1, 1)) == []
        assert weight_sector(2, 4, (1, 3, 0)) == []

    def test_lexicographic_order(self):
        sector = weight_sector(2, 4, (1, 3))
        assert sector == sorted(sector)
        assert sector == [0b0111, 0b1011, 0b1101, 0b1110]


class TestWeightOperator:
    def test_counting_operator(self):
        op = weight_operator(2, 2, 2, 4)
        sector = weight_sector(2, 4, (1, 3))
        v = np.zeros(16)
        v[sector] = 1.0
        assert np.allclose(op @ v, 3.0 * v)  # letter 2 appears 3 times

    def test_commutator_identity(self):
        e12 = weight_operator(1, 2, 2, 4)
        e21 = weight_operator(2, 1, 2, 4)
        e11 = weight_operator(1, 1, 2, 4)
        e22 = weight_operator(2, 2, 2, 4)
        comm = (e12 @ e21 - e21 @ e12) - (e11 - e22)
        assert abs(comm).max() == 0.0

    def test_content_shift(self):
        op = weight_operator(1, 3, 3, 4)
        src = weight_sector(3, 4, (1, 1, 2))
        dst = set(weight_sector(3, 4, (2, 1, 1)))
        for k in src:
            v = np.zeros(81)
            v[k] = 1.0
            support = set(np.nonzero(op @ v)[0])
            assert support <= dst

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            weight_operator(0, 1, 2, 3)


class TestCasimir:
    def test_known_eigenvalues(self):
        assert casimir_eigenvalue((4,), 2) == 20
        assert casimir_eigenvalue((3, 1), 2) == 12

    def test_brute_force_spectrum(self):
        # Assemble sum_ab E_ab E_ba on the full 2^4 space and compare its
        # eigenvalues on the (1,3)-content sector with the shape labels.
        d, n = 2, 4
        c2 = None
        for a in range(1, d + 1):
            for b in range(1, d + 1):
                term = weight_operator(a, b, d, n) @ weight_operator(b, a, d, n)
                c2 = term if c2 is None else c2 + term
        sector = weight_sector(d, n, (1, 3))
        block = c2.toarray()[np.ix_(sector, sector)]
        eigs = sorted(np.linalg.eigvalsh(block).round(8))
        assert eigs == [12, 12, 12, 20]


class TestExtraction:
    def test_qubit_buckets(self):
        vs = extract_gt_vectors(2, 4)
        assert vs.sector_dims == (1, 3)
        assert vs.casimir_values == (20, 12)

    def test_qutrit_buckets_match_hooks(self):
        vs = extract_gt_vectors(3, 6)
        hooks = tuple(
            hook_length_dimension(gamma_shape(GammaParams(3, 1, i))) for i in range(2)
        )
        assert vs.sector_dims == hooks == (5, 10)

    def test_vectors_are_orthonormal_and_sector_supported(self):
        vs = extract_gt_vectors(3, 6)
        gram = vs.vectors @ vs.vectors.conj().T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        support = set(weight_sector(3, 6, gamma_content(3, 1)))
        for v in vs.vectors:
            assert set(np.nonzero(v)[0]) <= support

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 8), (3, 6), (2, 12), (4, 8), (2, 16)])
    @pytest.mark.parametrize("pick", ["first", "last"])
    def test_dense_vectors_are_the_sector_built_once(self, d, n, pick):
        vs = extract_gt_vectors(d, n, pick=pick)
        dense = vs.vectors
        assert dense.shape == (vs.L + 1, d**n) and dense.dtype == complex
        assert not np.any(np.delete(dense, vs.codes, axis=1))
        assert np.array_equal(dense[:, vs.codes], vs.sector)
        assert vs.vectors is dense

    def test_sets_compare_and_hash_by_identity(self):
        first, second = extract_gt_vectors(2, 4), extract_gt_vectors(2, 4)
        assert first == first and second == second
        assert first != second
        assert len({first, second, first}) == 2

    def test_extraction_builds_no_dense_array(self):
        peak, vs = peak_bytes(extract_gt_vectors, 4, 8)
        assert vs.sector.shape == (2, 336)
        assert peak < 1_000_000  # the dense (2, 4^8) complex array alone is 2.1 MB

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            extract_gt_vectors(5, 10)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            extract_gt_vectors(2, 5)

    def test_rejects_a_float_n(self):
        with pytest.raises(ValueError, match="n must be an integer, got 4.0"):
            extract_gt_vectors(2, 4.0)

    def test_rejects_an_unknown_pick(self):
        with pytest.raises(ValueError, match="^pick must be 'first' or 'last', got middle$"):
            extract_gt_vectors(2, 4, pick="middle")

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError, match="null_tol must be positive and finite, got -1"):
            extract_gt_vectors(2, 4, null_tol=-1.0)
        with pytest.raises(ValueError, match="casimir_tol must be positive and finite, got inf"):
            extract_gt_vectors(3, 6, casimir_tol=math.inf)
        with pytest.raises(ValueError, match="casimir_tol must be positive and finite, got nan"):
            verify_cg_embedding(2, 4, casimir_tol=math.nan)

    def test_basis_choice_flag_changes_vector_not_invariants(self):
        first = extract_gt_vectors(2, 4)
        last = extract_gt_vectors(2, 4, pick="last")
        assert first.sector_dims == last.sector_dims
        # bucket 0 is one-dimensional, bucket 1 is not
        assert np.allclose(np.abs(first.vectors[0]), np.abs(last.vectors[0]))
        assert not np.allclose(first.vectors[1], last.vectors[1])

    # The oracle diagonalizes the generator sums, assembled from E_ab
    # transfer matrices, with eigh, taking the subgroup null space even at
    # d = 2; the library certifies its buckets with exact integer matvecs.
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("pick", ["first", "last"])
    def test_qubit_shortcut_matches_full_null_space(self, n, pick):
        assert_matches_oracle(2, n, pick)

    @pytest.mark.parametrize("d,n", [(3, 6), (4, 8)])
    @pytest.mark.parametrize("pick", ["first", "last"])
    def test_swap_casimir_matches_transfer_oracle(self, d, n, pick):
        assert_matches_oracle(d, n, pick)


def admitted_sizes():
    """Every (d, sites) whose sector the extraction or the CG check can
    certify within CAPACITY: sites = n and n + 1 for n a multiple of 2d."""
    d = 2
    while d ** (2 * d) <= simulator.CAPACITY:
        n = 2 * d
        while d**n <= simulator.CAPACITY:
            yield d, n, False
            if d ** (n + 1) <= simulator.CAPACITY:
                yield d, n, True
            n += 2 * d
        d += 1


def certified_sector(d, n, grown):
    L = n // (2 * d)
    content = gamma_content(d, L)
    shape = gamma_plus_shape if grown else gamma_shape
    if grown:
        content = content[:-1] + (content[-1] + 1,)
    return n + grown, content, [shape(GammaParams(d, L, i)) for i in range(L + 1)]


class TestExactCertificate:
    def test_admitted_sizes(self):
        sizes = {(d, n + grown) for d, n, grown in admitted_sizes()}
        assert sizes == {(2, 4), (2, 5), (2, 8), (2, 9), (2, 12), (2, 13), (2, 16),
                         (3, 6), (3, 7), (4, 8)}

    @pytest.mark.parametrize("d,n,grown", list(admitted_sizes()))
    def test_entry_bound_fits_int64(self, d, n, grown):
        sites, content, shapes = certified_sector(d, n, grown)
        values = [casimir_eigenvalue(shape, d) for shape in shapes]
        bound = _entry_bound(sites, content, _null_values(d, content), values)
        assert 0 < bound <= np.iinfo(np.int64).max

    @pytest.mark.parametrize("d,n,grown", [(2, 12, True), (3, 6, False), (4, 8, False)])
    def test_entry_bound_covers_the_certificate(self, d, n, grown, monkeypatch):
        sites, content, shapes = certified_sector(d, n, grown)
        values = [casimir_eigenvalue(shape, d) for shape in shapes]
        bound = _entry_bound(sites, content, _null_values(d, content), values)
        largest = []
        lagrange = simulator._lagrange

        def recorded(apply, values, keep, v):
            out = lagrange(apply, values, keep, v)
            largest.append(int(np.abs(out[0]).max()))
            return out

        monkeypatch.setattr(simulator, "_lagrange", recorded)
        _covariant_buckets(d, sites, content, shapes, "first", 1e-9, 1e-6)
        assert largest and max(largest) <= bound

    def test_entry_bound_guard(self, monkeypatch):
        monkeypatch.setattr(simulator, "_entry_bound", lambda *args: 2**63)
        with pytest.raises(
            ExtractionError,
            match=r"may reach 9223372036854775808, beyond int64, at d=2 n=4 \(sector of m=4\)",
        ):
            extract_gt_vectors(2, 4)

    @pytest.mark.parametrize("d,n,m", [(3, 6, 30), (4, 8, 336)])
    def test_planted_missing_null_value(self, d, n, m, monkeypatch):
        values = simulator._null_values
        monkeypatch.setattr(simulator, "_null_values", lambda d, content: values(d, content)[:-1])
        with pytest.raises(
            ExtractionError, match=rf"M has eigenvalues outside .* at d={d} n={n} \(sector of m={m}\)"
        ):
            extract_gt_vectors(d, n)

    @pytest.mark.parametrize("d,n,m", [(2, 8, 28), (3, 6, 30), (4, 8, 336)])
    @pytest.mark.parametrize("shifted", [0, 1])
    def test_planted_casimir_shift(self, d, n, m, shifted, monkeypatch):
        true_value = simulator.casimir_eigenvalue
        shape = gamma_shape(GammaParams(d, n // (2 * d), shifted))

        def planted(lam, rank):
            return true_value(lam, rank) + (rank == d and tuple(lam) == shape)

        monkeypatch.setattr(simulator, "casimir_eigenvalue", planted)
        with pytest.raises(
            ExtractionError,
            match=rf"covariant Casimir values lie outside .* at d={d} n={n} \(sector of m={m}\)",
        ):
            extract_gt_vectors(d, n)

    @pytest.mark.parametrize("d,n,m,shifted", [(2, 8, 28, 1), (3, 6, 30, 0), (2, 9, 36, 2)])
    def test_planted_hook_dimension(self, d, n, m, shifted, monkeypatch):
        grown = n % (2 * d) == 1
        sites, content, shapes = certified_sector(d, n - grown, grown)
        true_dim = simulator.hook_length_dimension
        monkeypatch.setattr(
            simulator,
            "hook_length_dimension",
            lambda lam: true_dim(lam) + (tuple(lam) == shapes[shifted]),
        )
        dim = true_dim(shapes[shifted])
        with pytest.raises(
            ExtractionError,
            match=rf"shape {re.escape(str(shapes[shifted]))} has dimension {dim}, expected "
            rf"hook-length dimension {dim + 1} at d={d} n={n} \(sector of m={m}\)",
        ):
            if grown:
                verify_cg_embedding(d, n - 1)
            else:
                extract_gt_vectors(d, n)

    @pytest.mark.parametrize("d,n,m", [(3, 6, 30), (4, 8, 336)])
    def test_vector_off_the_kernel_fails_null_tol(self, d, n, m, monkeypatch):
        # Past bucket 0, the certificates read only the x-th entry of each
        # numerator, so one changed elsewhere passes them; the residual
        # check sees it.
        lagrange = simulator._lagrange

        def planted(apply, values, keep, v):
            u, den = lagrange(apply, values, keep, v)
            if keep and keep == min(values) and u.dtype == np.int64:
                u = u.copy()
                u[1] += 1
            return u, den

        monkeypatch.setattr(simulator, "_lagrange", planted)
        with pytest.raises(ExtractionError) as err:
            extract_gt_vectors(d, n)
        message = str(err.value)
        assert re.match(rf"bucket 1 at d={d} n={n} \(sector of m={m}\): ", message)
        residual = float(re.search(r"\|M v - 0 v\| = (\S+) exceeds null_tol 1e-09 times", message)[1])
        assert residual > 1e-6

    @pytest.mark.parametrize("d,n", [(2, 16), (4, 8)])
    def test_vectors_are_orthonormal_eigenvectors(self, d, n):
        vs = extract_gt_vectors(d, n, pick="last")
        gram = vs.vectors @ vs.vectors.conj().T
        assert np.max(np.abs(gram - np.eye(vs.L + 1))) < 1e-14


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_tables_match(d, n, content):
    codes, letters, _ = _sector(d, n, content)
    for table, images in zip(_swap_tables(d, content, codes, letters),
                             reference_swap_tables(d, codes, letters)):
        assert_bitwise(table, np.ascontiguousarray(images.T))


class TestSwapTables:
    @pytest.mark.parametrize(
        "d,n", [(2, n) for n in range(1, 10)] + [(3, n) for n in range(1, 7)] + [(4, n) for n in range(1, 6)]
    )
    def test_lookup_matches_binary_search_on_every_content(self, d, n):
        for content in product(range(n + 1), repeat=d):
            if sum(content) == n:
                assert_tables_match(d, n, content)

    @pytest.mark.parametrize(
        "d,n,grown", list(admitted_sizes()) + [(3, 12, False), (5, 10, False), (2, 20, False)]
    )
    def test_lookup_matches_binary_search_on_certified_sectors(self, d, n, grown):
        sites, content, _ = certified_sector(d, n, grown)
        assert_tables_match(d, sites, content)

    @pytest.mark.parametrize("d,n,grown", list(admitted_sizes()))
    def test_operator_matches_row_major_matvec(self, d, n, grown):
        sites, content, _ = certified_sector(d, n, grown)
        codes, letters, _ = _sector(d, sites, content)
        rng = np.random.default_rng(sites)
        floats, ints = rng.standard_normal((len(codes), 3)), rng.integers(-2**40, 2**40, len(codes))
        for table, images in zip(_swap_tables(d, content, codes, letters),
                                 reference_swap_tables(d, codes, letters)):
            got, want = _swap_operator(sites, table), reference_swap_operator(sites, images)
            assert_bitwise(got(floats), want(floats))
            for v in (ints, ints[:, None] * [1, -3]):
                assert_bitwise(got(v), want(v))

    @pytest.mark.parametrize("d,n", [(d, n) for d, n, grown in admitted_sizes() if not grown])
    def test_restricted_power_matches_fancy_indexing(self, d, n):
        _, _, levels = _sector(d, n, gamma_content(d, n // (2 * d)))
        w = _haar_batch(np.random.default_rng(n), 5, d)
        power = _restricted_power(w.reshape(d * d, 5), _power_steps(d, levels[: n // 2]))
        assert power.flags.c_contiguous
        want = reference_restricted_power(np.moveaxis(w, -1, 0), levels[: n // 2])
        assert_bitwise(power, np.moveaxis(want, 0, -1).reshape(-1, 5))

    @pytest.mark.parametrize("d,n", [(2, 12), (3, 6)])
    @pytest.mark.parametrize("pick", ["first", "last"])
    def test_cg_embedding_matches_binary_search_oracle(self, d, n, pick):
        vs = extract_gt_vectors(d, n, pick=pick)
        assert verify_cg_embedding(d, n, vectors=vs) == reference_cg_embedding(d, n, vs)

    def test_kernel_product_runs_once_per_input(self, monkeypatch):
        # Casimir values are positive, so keep = 0 marks the M-kernel product.
        kernels = []
        lagrange = simulator._lagrange

        def counted(apply, values, keep, v):
            kernels.append(keep == 0)
            return lagrange(apply, values, keep, v)

        monkeypatch.setattr(simulator, "_lagrange", counted)
        verify_cg_embedding(3, 6, vectors=extract_gt_vectors(3, 6))
        # e_x of the 6-site and of the 7-site sector, then the grown vectors:
        # one kernel product each, then one Casimir product per bucket.
        assert kernels == [True, False, False] * 3

    def test_tables_never_form_all_pair_codes(self):
        content = gamma_content(2, 4)
        codes, letters, _ = _sector(2, 16, content)
        peak, (swaps, low_swaps) = peak_bytes(_swap_tables, 2, content, codes, letters)
        assert swaps.shape == (48, comb(16, 4)) and low_swaps.shape == (0, comb(16, 4))
        assert peak < 5_000_000  # the binary-search tables peaked at 7.3 MB


class TestHaar:
    def test_unitarity(self):
        for d in (2, 3, 6):
            u = haar_unitary(d, 11)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gram_schmidt_matches_lapack_qr(self, d):
        # The same 10^4 Ginibre draws: batch-last Q^dagger against LAPACK's Q factor.
        w = _haar_batch(np.random.default_rng(d), 10_000, d)
        q = reference_haar_batch(np.random.default_rng(d), 10_000, d)
        assert w.shape == (d, d, 10_000) and w.flags.c_contiguous
        assert np.max(np.abs(w - np.conj(q.T))) < 1e-12
        gram = np.einsum("ijk,ljk->kil", w, w.conj())
        assert np.max(np.abs(gram - np.eye(d))) < 1e-14

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(4, 5), haar_unitary(4, 5))
        assert not np.array_equal(haar_unitary(4, 5), haar_unitary(4, 6))

    def test_first_moment(self):
        # E|U_11|^2 = 1/d for the Haar measure.
        d, samples = 3, 10_000
        values = np.array(
            [abs(haar_unitary(d, seed)[0, 0]) ** 2 for seed in range(samples)]
        )
        stderr = values.std(ddof=1) / math.sqrt(samples)
        assert abs(values.mean() - 1 / d) < 5 * stderr


class TestTensorPower:
    def test_identity(self):
        v = np.arange(8, dtype=complex)
        assert np.allclose(apply_tensor_power(np.eye(2), v, 3), v)

    def test_product_state(self):
        w = haar_unitary(2, 9)
        v = np.zeros(4, dtype=complex)
        v[0b01] = 1.0  # |0>|1>
        got = apply_tensor_power(w, v, 2)
        assert np.allclose(got, np.kron(w[:, 0], w[:, 1]))

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(27) + 1j * rng.standard_normal(27)
        v /= np.linalg.norm(v)
        w = haar_unitary(3, 1)
        assert abs(np.linalg.norm(apply_tensor_power(w, v, 3)) - 1) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_tensor_power(np.eye(2), np.zeros(5), 2)

    def test_batch_matches_single_calls(self):
        rng = np.random.default_rng(8)
        for d, n in ((2, 4), (3, 3)):
            v = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
            mats = np.stack([haar_unitary(d, seed) for seed in range(6)]).reshape(2, 3, d, d)
            got = apply_tensor_power(mats, v, n)
            assert got.shape == (2, 3, d**n)
            for j, k in np.ndindex(2, 3):
                assert np.array_equal(got[j, k], apply_tensor_power(mats[j, k], v, n))


class TestCGEmbedding:
    def test_qubit_projections(self):
        recs = verify_cg_embedding(2, 4)
        assert recs[0].alpha_proj == pytest.approx(0.8, abs=1e-10)
        assert recs[0].beta_proj == pytest.approx(0.2, abs=1e-10)
        assert recs[1].alpha_proj == pytest.approx(1.0, abs=1e-10)
        assert recs[1].beta_proj == 0.0
        assert all(r.alpha_residual < 1e-8 and r.beta_residual < 1e-8 for r in recs)

    def test_qutrit_projections(self):
        recs = verify_cg_embedding(3, 6)
        assert recs[0].alpha_proj == pytest.approx(6 / 7, abs=1e-10)
        assert recs[0].beta_proj == pytest.approx(1 / 7, abs=1e-10)
        for rec in recs:
            assert rec.alpha_proj + rec.beta_proj == pytest.approx(1.0, abs=1e-8)

    def test_choice_independence(self):
        for pick in ("first", "last"):
            recs = verify_cg_embedding(2, 4, pick=pick)
            assert all(
                r.alpha_residual < 1e-8 and r.beta_residual < 1e-8 for r in recs
            )

    def test_matches_reference_projections(self):
        for (d, n), pick in product(((2, 4), (2, 8), (3, 6)), ("first", "last")):
            recs = verify_cg_embedding(d, n, pick=pick)
            for rec, (alpha, beta) in zip(recs, reference_cg_projections(d, n, pick)):
                assert rec.alpha_proj == pytest.approx(alpha, rel=1e-12, abs=1e-12)
                assert rec.beta_proj == pytest.approx(beta, rel=1e-12, abs=1e-12)

    def test_given_vectors_match_extraction(self):
        for pick in ("first", "last"):
            vs = extract_gt_vectors(3, 6, pick=pick)
            assert verify_cg_embedding(3, 6, vectors=vs) == verify_cg_embedding(3, 6, pick=pick)

    def test_rejects_n_not_a_multiple_of_2d(self):
        with pytest.raises(ValueError, match=r"multiple of 2d=4, got 5"):
            verify_cg_embedding(2, 5, vectors=zero_vector_set(2, 5))

    def test_rejects_mismatched_vectors(self):
        with pytest.raises(ValueError, match="does not match"):
            verify_cg_embedding(2, 8, vectors=extract_gt_vectors(2, 4))

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 8), (3, 6)])
    def test_phases_leave_weights_and_estimates_unchanged(self, d, n):
        # Each v_i is valid under any phase, global or its own; dropping the
        # imaginary part would report zero weights.
        vs = extract_gt_vectors(d, n)
        records = verify_cg_embedding(d, n, vectors=vs)
        estimates = mc_estimates(d, n, 300, 11, vs)
        phases = np.exp(1j * np.arange(1, vs.L + 2))[:, None]
        for sector in (1j * vs.sector, phases * vs.sector):
            rotated = dataclasses.replace(vs, sector=sector)
            for got, want in zip(verify_cg_embedding(d, n, vectors=rotated), records):
                assert got.i == want.i
                for a, b in zip(dataclasses.astuple(got)[1:], dataclasses.astuple(want)[1:]):
                    assert a == pytest.approx(b, rel=0, abs=1e-12)
            for got, want in zip(mc_estimates(d, n, 300, 11, rotated), estimates):
                assert got.mean == pytest.approx(want.mean, rel=1e-13, abs=0)
                assert got.stderr == pytest.approx(want.stderr, rel=1e-13, abs=0)

    def test_capacity_covers_grown_system(self):
        with pytest.raises(CapacityError):
            verify_cg_embedding(4, 8)  # 4^9 exceeds the dense cap

    @pytest.mark.parametrize("d,n", [(3, 6000), (2, 20000), (10**6, 2 * 10**6)])
    def test_capacity_message_never_prints_a_huge_power(self, d, n):
        message = rf"d\^n = {d}\^{n + 1} exceeds the simulator capacity of 100000$"
        with pytest.raises(CapacityError, match=message):
            verify_cg_embedding(d, n)


class TestMonteCarlo:
    def test_qubit_agreement(self):
        est = mc_estimates(2, 4, 20_000, seed=42)[0]
        assert abs(est.mean - 0.875) <= 3 * est.stderr

    def test_total_probability(self):
        est = mc_estimates(2, 4, 20_000, seed=42)[1]
        assert abs(est.mean - 1.0) <= 3 * est.stderr

    def test_single_term_probe_total_probability(self):
        probe = np.array([1.0, 0.0])
        est = mc_estimates(2, 4, 20_000, seed=1, probe=probe)[1]
        assert abs(est.mean - 1.0) <= 3 * est.stderr

    def test_seed_consistency(self):
        a = mc_estimates(2, 4, 10_000, seed=1)[0]
        b = mc_estimates(2, 4, 10_000, seed=2)[0]
        joint = math.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) <= 5 * joint

    def test_deterministic_under_seed(self):
        a = mc_estimates(2, 4, 1_000, seed=9)
        b = mc_estimates(2, 4, 1_000, seed=9)
        assert a == b

    def test_randomized_target_agrees(self):
        direct = mc_estimates(2, 4, 20_000, seed=5)[0]
        vs = extract_gt_vectors(2, 4)
        twisted_mean, twisted_stderr = full_space_mc(2, 4, 20_000, 6, vs, randomize_target=True)[0]
        joint = math.hypot(direct.stderr, twisted_stderr)
        assert abs(direct.mean - twisted_mean) <= 5 * joint

    def test_basis_choice_independence(self):
        first = extract_gt_vectors(2, 4, pick="first")
        last = extract_gt_vectors(2, 4, pick="last")
        a = mc_estimates(2, 4, 20_000, seed=3, vectors=first)[0]
        b = mc_estimates(2, 4, 20_000, seed=3, vectors=last)[0]
        joint = math.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) <= 3 * joint

    def test_rejects_few_samples(self):
        with pytest.raises(ValueError):
            mc_estimates(2, 4, 99, seed=0)

    def test_rejects_non_integer_samples(self):
        with pytest.raises(ValueError, match="samples must be an integer, got 100.5"):
            mc_estimates(2, 4, 100.5, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probe(self, bad):
        with pytest.raises(ValueError, match="finite nonzero vector of length 2"):
            mc_estimates(2, 4, 100, seed=0, probe=[bad, 1.0])

    def test_rejects_complex_probe(self):
        with pytest.raises(ValueError, match=r"probe must be real, got imaginary parts \[1\. 0\.\]"):
            mc_estimates(2, 4, 100, seed=0, probe=np.array([1 + 1j, 0.5]))

    def test_complex_probe_with_zero_imaginary_parts_is_its_real_part(self):
        probe = np.array([0.3 + 0j, -0.7 + 0j])
        assert mc_estimates(2, 4, 100, seed=0, probe=probe) == mc_estimates(
            2, 4, 100, seed=0, probe=probe.real
        )

    def test_huge_probe_matches_its_direction(self):
        # 1e308 squared overflows; the estimates depend on the direction only.
        huge = mc_estimates(2, 4, 100, seed=0, probe=[1e308, 1e308])
        assert huge == mc_estimates(2, 4, 100, seed=0, probe=[1.0, 1.0])
        assert huge[0].mean > 0 and huge[0].stderr > 0

    def test_matches_analytic_value_qutrit(self):
        est = mc_estimates(3, 6, 20_000, seed=42)[0]
        assert abs(est.mean - float(expected_fidelity(CoeffTable.build(3, 1)))) <= 3 * est.stderr

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 6), (2, 8)])
    @pytest.mark.parametrize("pick", ["first", "last"])
    def test_fused_contraction_matches_per_irrep_loop(self, d, n, pick):
        vs = extract_gt_vectors(d, n, pick=pick)
        runs = [dict()]
        if vs.L == 1:
            runs.append(dict(probe=np.array([0.3, -0.7])))
        samples = 2_500 if d**n <= 16 else 300  # (2, 4) spans two chunks
        for kwargs in runs:
            got = mc_estimates(d, n, samples, 11, vs, **kwargs)
            want = reference_mc(d, n, samples, 11, vs, **kwargs)
            for est, (mean, stderr) in zip(got, want):
                assert est.mean == pytest.approx(mean, rel=1e-12)
                assert est.stderr == pytest.approx(stderr, rel=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 8), (3, 6), (2, 12), (4, 8)])
    @pytest.mark.parametrize("pick", ["first", "last"])
    def test_sector_kernel_matches_full_space_oracle(self, d, n, pick):
        vs = extract_gt_vectors(d, n, pick=pick)
        runs = [dict()]
        if vs.L == 1:
            runs.append(dict(probe=np.array([0.3, -0.7])))
        # (2, 4) and (4, 8) span two chunks of 2048 and 61 samples
        samples = {(2, 4): 2_500, (2, 8): 300, (3, 6): 300}.get((d, n), 100)
        for kwargs in runs:
            got = mc_estimates(d, n, samples, 11, vs, **kwargs)
            want = full_space_mc(d, n, samples, 11, vs, **kwargs)
            for est, (mean, stderr) in zip(got, want):
                assert est.mean == pytest.approx(mean, rel=1e-12)
                assert est.stderr == pytest.approx(stderr, rel=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 8), (3, 6)])
    def test_block_size_leaves_the_estimates(self, d, n, monkeypatch):
        # One draw per block, the default blocks and the whole chunk as one block,
        # over two chunks of the same stream.
        vs = extract_gt_vectors(d, n)
        runs = []
        for entries, floor in ((1, 1), (simulator._MC_BLOCK_ENTRIES, simulator._MC_BLOCK_FLOOR),
                               (0, 10**9)):
            monkeypatch.setattr(simulator, "_MC_BLOCK_ENTRIES", entries)
            monkeypatch.setattr(simulator, "_MC_BLOCK_FLOOR", floor)
            runs.append(mc_estimates(d, n, 2_500, 11, vs))
        for one, *others in zip(*runs):
            for other in others:
                assert one.mean == pytest.approx(other.mean, rel=1e-13, abs=0.0)
                assert one.stderr == pytest.approx(other.stderr, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "d,n,samples,pinned",
        [
            # (fidelity mean, stderr, total mean, stderr) of the full-space
            # kernel at seed 42, the benchmark's three simulate runs
            (2, 4, 20_000, (0.886830848033371, 0.012020353821508246,
                            1.0125604897107936, 0.012565601093722343)),
            (2, 8, 8_000, (0.9343670788070076, 0.03247547411251455,
                           0.9897158687171966, 0.0332355774576829)),
            (3, 6, 6_000, (0.8356491091926512, 0.04111028775718627,
                           1.0421788723088896, 0.04564265575636277)),
        ],
    )
    def test_pinned_estimates(self, d, n, samples, pinned):
        fid, tot = mc_estimates(d, n, samples, seed=42)
        got = (fid.mean, fid.stderr, tot.mean, tot.stderr)
        assert got == pytest.approx(pinned, rel=1e-13, abs=0.0)

    def test_rejects_n_not_a_multiple_of_2d(self):
        with pytest.raises(ValueError, match=r"multiple of 2d=4, got 5"):
            mc_estimates(2, 5, 100, seed=0, vectors=zero_vector_set(2, 5))


class TestIsotypicStructure:
    def test_cross_overlaps_vanish(self):
        vs = extract_gt_vectors(2, 4)
        for seed in range(100):
            u = haar_unitary(2, seed)
            rotated = apply_tensor_power(u, vs.vectors[1], 4)
            assert abs(np.vdot(vs.vectors[0], rotated)) < 1e-8

    def test_tensor_power_norms(self):
        vs = extract_gt_vectors(3, 6)
        u = haar_unitary(3, 4)
        for v in vs.vectors:
            assert abs(np.linalg.norm(apply_tensor_power(u, v, 6)) - 1) < 1e-10
