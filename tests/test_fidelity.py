import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gtprobe import cli
from gtprobe.coeffs import CoeffTable, ConsistencyError, cg_branch_weights, g_increments
from gtprobe.fidelity import (
    amplitude_reduction_check,
    bound_ratio,
    closed_form_infidelity,
    expected_fidelity,
    fidelity_report,
    infidelity_sum_form,
    optimal_probe,
    plan_queries,
    protocol_probe,
    query_count_params,
)
from gtprobe.young import GammaParams, gamma_dims, gamma_plus_shape, gamma_shape
from oracles import (
    rayleigh_quotient,
    reference_amplitude_reduction_check,
    reference_hook_content_dimension,
    reference_optimal_probe,
    reference_plan_queries,
    trace_distance_from_overlap,
    xy_squared,
)


class TestExpectedFidelity:
    def test_golden_values(self):
        assert expected_fidelity(CoeffTable.build(2, 1)) == Fraction(7, 8)
        assert expected_fidelity(CoeffTable.build(3, 1)) == Fraction(4, 5)
        assert expected_fidelity(CoeffTable.build(2, 2)) == 1 - Fraction(1, 18)

    def test_rejects_bad_query_counts(self):
        with pytest.raises(ValueError):
            query_count_params(2, 5)
        with pytest.raises(ValueError):
            query_count_params(2, 0)
        with pytest.raises(ValueError):
            query_count_params(1, 4)

    @pytest.mark.parametrize("d,n,message", [
        (2, 4.0, "n must be an integer, got 4.0"),
        (2.0, 4, "d must be an integer, got 2.0"),
        (2, "4", "n must be an integer, got '4'"),
    ])
    def test_rejects_non_integer_sizes(self, d, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            query_count_params(d, n)

    def test_numpy_integers_pass(self):
        sizes = query_count_params(np.int64(3), np.int32(12))
        assert sizes == (3, 12, 2)
        assert [type(v) for v in sizes] == [int, int, int]

    @pytest.mark.parametrize("d,n", [(2, 200), (6, 240)])
    def test_numpy_sizes_report_as_ints(self, d, n):
        # int64 arithmetic on these sizes overflows inside the exact table.
        rep = fidelity_report(np.int64(d), np.int64(n))
        assert rep == fidelity_report(d, n)
        assert type(rep.d) is type(rep.n) is type(rep.L) is int

    @pytest.mark.parametrize("entry", [bound_ratio, fidelity_report])
    def test_entry_points_reject_a_float_n(self, entry):
        with pytest.raises(ValueError, match="n must be an integer, got 4.0"):
            entry(2, 4.0)


class TestInfidelityForms:
    def test_sum_form_values(self):
        assert infidelity_sum_form(2, 1) == Fraction(1, 8)
        assert infidelity_sum_form(3, 1) == Fraction(1, 5)

    def test_closed_form_values(self):
        assert closed_form_infidelity(2, 1) == Fraction(1, 8)
        assert closed_form_infidelity(3, 1) == Fraction(1, 5)

    def test_closed_form_qubit_family(self):
        for L in range(1, 51):
            assert closed_form_infidelity(2, L) == Fraction(1, 2 * (L + 1) ** 2)

    def test_three_routes_agree(self):
        for d, L in product(range(2, 5), range(1, 7)):
            swept = 1 - expected_fidelity(CoeffTable.build(d, L))
            assert swept == infidelity_sum_form(d, L) == closed_form_infidelity(d, L)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 120))
    @example(30, 120)
    def test_expected_fidelity_checks_the_routes_beyond_the_grid(self, d, L):
        expected_fidelity(CoeffTable.build(d, L))  # raises unless the three routes agree

    @pytest.mark.parametrize("route", ["infidelity_sum_form", "closed_form_infidelity"])
    def test_expected_fidelity_raises_on_a_wrong_route(self, monkeypatch, route):
        from gtprobe import fidelity as fmod

        true_fn = getattr(fmod, route)
        monkeypatch.setattr(fmod, route, lambda d, L: true_fn(d, L) + Fraction(1, 7))
        with pytest.raises(ConsistencyError, match=r"disagree at d=3 L=2 n=12: "):
            expected_fidelity(CoeffTable.build(3, 2))


class TestBoundRatio:
    def test_values(self):
        assert bound_ratio(2, 4) == pytest.approx(0.5, abs=1e-12)
        assert bound_ratio(3, 6) == pytest.approx(2 / 3, abs=1e-12)

    def test_asymptote(self):
        # For n >> d^2 the ratio approaches 2(d-1)/d and stays below 2.
        for d in range(2, 9):
            r = bound_ratio(d, 2000 * d)
            assert r < 2.0
            assert abs(r - 2 * (d - 1) / d) < 0.1

    def test_underflowing_infidelity_raises(self):
        # The ratio is about 1 here, but the infidelity alone is below 1e-308.
        assert bound_ratio(2, 4 * 10**150) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match=rf"at d=2 n={4 * 10**200} underflows"):
            bound_ratio(2, 4 * 10**200)


class TestRayleighQuotient:
    def test_protocol_probe_matches_exact_value(self):
        f = protocol_probe(2, 1)
        assert rayleigh_quotient(f, 2, 1) == pytest.approx(0.875, abs=1e-12)

    def test_first_basis_vector(self):
        # e_0 feeds both the i=0 term and the i=1 cross term.
        f = np.zeros(3)
        f[0] = 1.0
        x_sq, _ = xy_squared(0, 3, 2)
        _, y1_sq = xy_squared(1, 3, 2)
        want = float(x_sq) + float(y1_sq)
        assert rayleigh_quotient(f, 3, 2) == pytest.approx(want, abs=1e-12)

    def test_scale_invariance(self):
        f = protocol_probe(3, 2)
        base = rayleigh_quotient(f, 3, 2)
        for c in (-3.0, 1 / 7, 1e3):
            assert rayleigh_quotient(c * f, 3, 2) == pytest.approx(base, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(np.zeros(2), 2, 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(np.ones(3), 2, 1)


class TestProtocolProbe:
    @pytest.mark.parametrize("d,L", [(2, 0), (1, 2)])
    def test_rejects_invalid_sizes(self, d, L):
        message = {(2, 0): "L must be >= 1, got 0", (1, 2): "d must be >= 2, got 1"}[d, L]
        with pytest.raises(ValueError, match=rf"^{message}$"):
            protocol_probe(d, L)

    def test_large_d_stays_finite(self):
        # f_sq at d=100 exceeds the float range; normalizing first avoids it.
        f = protocol_probe(100, 2)
        assert np.all(np.isfinite(f)) and np.all(f >= 0)
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-15)

    def test_small_cases_match_float_normalization(self):
        for d, L in product(range(2, 6), range(1, 8)):
            f_sq = np.array([float(v) for v in CoeffTable.build(d, L).f_sq])
            old = np.sqrt(f_sq / f_sq.sum())
            assert np.max(np.abs(protocol_probe(d, L) - old)) <= 1e-15

    def test_equals_table_normalization(self):
        for d, L in product(range(2, 9), range(1, 21)):
            f_sq = CoeffTable.build(d, L).f_sq
            want = np.sqrt([float(v / sum(f_sq)) for v in f_sq])
            assert np.array_equal(protocol_probe(d, L), want), (d, L)


class TestOptimalProbe:
    def test_dominates_protocol_choice(self):
        for d, L in product(range(2, 6), range(1, 8)):
            tab = CoeffTable.build(d, L)
            vec, lam = optimal_probe(tab)
            fid = float(expected_fidelity(tab))
            assert lam >= fid - 1e-10
            assert lam <= 1.0 + 1e-10
            assert rayleigh_quotient(vec, d, L) == pytest.approx(lam, abs=1e-10)

    def test_qubit_single_column(self):
        vec, lam = optimal_probe(CoeffTable.build(2, 1))
        assert lam >= 0.875
        assert vec.shape == (2,)
        assert np.all(vec > 0)  # top eigenvector of a positive tridiagonal matrix

    def test_eigenpair_residual(self):
        from gtprobe.coeffs import CoeffTable

        d, L = 3, 4
        tab = CoeffTable.build(d, L)
        x = np.sqrt([float(v) for v in tab.x_sq])
        y = np.sqrt([float(v) for v in tab.y_sq])
        a = np.diag(x) + np.diag(y[1:], -1)
        m = a.T @ a
        vec, lam = optimal_probe(tab)
        assert np.max(np.abs(m @ vec - lam * vec)) < 1e-10


    def test_equals_eigh_tridiagonal_bit_for_bit(self):
        # Every (d, L) of `sweep --d-range 2:8 --n-range 4:400`, and three large tables.
        grid = [(d, L) for d in range(2, 9) for L in range(1, 400 // (2 * d) + 1)]
        assert len(grid) == 342
        for d, L in grid + [(2, 2000), (10, 1000), (1000, 1)]:
            tab = CoeffTable.build(d, L)
            (vec, lam), (want_vec, want_lam) = optimal_probe(tab), reference_optimal_probe(tab)
            assert np.array_equal(vec, want_vec) and lam == want_lam, (d, L)

    @pytest.mark.parametrize(
        "routine,wrong,message",
        [
            ("dstebz", lambda out: (0, *out[1:]), "LAPACK dstebz gave info=0 m=0 at d=3 L=2"),
            ("dstebz", lambda out: (*out[:4], -2), "LAPACK dstebz gave info=-2 m=1 at d=3 L=2"),
            ("dstein", lambda out: (out[0], 1), "LAPACK dstein gave info=1 m=1 at d=3 L=2"),
        ],
    )
    def test_lapack_failure_raises(self, monkeypatch, routine, wrong, message):
        from scipy.linalg import lapack

        true_fn = getattr(lapack, routine)
        monkeypatch.setattr(lapack, routine, lambda *args: wrong(true_fn(*args)))
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            optimal_probe(CoeffTable.build(3, 2))


class TestPaperRegime:
    """The exact layer, the optimizer and the Weyl dimensions at d up to 1000 and L up to
    2000, where the two terms of the paper's bound O(min{d^(3/2)/eps, d/eps^2}) cross."""

    GRID = [(1000, 1), (1000, 3), (300, 10), (100, 100), (10, 1000), (2, 2000)]

    @pytest.mark.parametrize("d,L", GRID)
    def test_exact_identities_and_optimizer_sandwich(self, d, L):
        tab = CoeffTable.build(d, L)  # raises on the dimension ratios and shared radicands
        fid = expected_fidelity(tab)  # raises unless the three infidelity routes agree
        assert 1 - fid == closed_form_infidelity(d, L)
        assert set(cg_branch_weights([(d, L)])) == {None}
        assert set(g_increments([(d, L)])) == {None}
        _, lam = optimal_probe(tab)
        assert float(fid) <= lam <= 1.0, (d, L, lam)

    @pytest.mark.parametrize("d,L", [(400, 1), (1000, 1), (1000, 3)])
    def test_gamma_dims_match_hook_content(self, d, L):
        for i, dims in enumerate(gamma_dims(d, L)):
            p = GammaParams(d, L, i)
            shapes = gamma_shape(p), gamma_plus_shape(p)
            assert list(dims) == [reference_hook_content_dimension(lam, d) for lam in shapes], i

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 10**9),
        st.integers(1, 10**6),
        st.floats(1e-10, 1, exclude_max=True),
    )
    @example(10**9, 10**6, 1e-10)
    @example(10**6, 10**6, 0.5)
    @example(2, 1, 0.9)
    def test_envelope_and_planner_bound_across_the_regime(self, d, L, eps):
        # The closed form over the envelope is 2 (d-1)/d L(2L+d)/(L(2L+d)+2L+d) < 2.
        assert bound_ratio(d, 2 * d * L) < 2, (d, L)
        # The paper's bound with its constants: n <= min{2 sqrt(50) d^(3/2)/eps, 200 d/eps^2}
        # + 2d, compared in exact arithmetic at the eps the planner reads.
        excess, e = plan_queries(d, eps) - 2 * d, Fraction(eps)
        assert excess * e**2 <= 200 * d, (d, eps)
        assert excess**2 * e**2 <= 200 * d**3, (d, eps)

    def test_planted_faults_fire_at_large_d(self, monkeypatch):
        # f_0^2 one too large at d = 1000, and dim(gamma_1^+) one too large at (1000, 3).
        from gtprobe import coeffs

        true_terms, true_dims = coeffs._terms, coeffs.gamma_dims

        def wrong_terms(i, d, L):
            terms = list(true_terms(i, d, L))
            terms[8] += i == 0  # f, the 9th integer
            return tuple(terms)

        def wrong_dims(d, L):
            for i, (dim, dim_plus) in enumerate(true_dims(d, L)):
                yield dim, dim_plus + (i == 1)

        monkeypatch.setattr(coeffs, "_terms", wrong_terms)
        with pytest.raises(ConsistencyError, match=r"f_i\*x_i at d=1000 L=1 i=0$"):
            CoeffTable.build(1000, 1)
        monkeypatch.setattr(coeffs, "_terms", true_terms)
        monkeypatch.setattr(coeffs, "gamma_dims", wrong_dims)
        message = r"^dimension-ratio identity failed at d=1000 L=3 i=1$"
        with pytest.raises(ConsistencyError, match=message):
            CoeffTable.build(1000, 3)


class TestPlanner:
    def test_examples(self):
        assert plan_queries(2, 0.2) == 140
        assert plan_queries(2, 0.9) == 28

    def test_monotone_in_eps(self):
        previous = 0
        for eps in (0.9, 0.5, 0.2, 0.1, 0.05):
            n = plan_queries(2, eps)
            assert n >= previous
            previous = n

    def test_soundness_boundary(self):
        for d in (2, 3, 5):
            for eps in (0.5, 0.2, 0.07):
                n = plan_queries(d, eps)
                target = Fraction(eps) ** 2 / 100
                assert closed_form_infidelity(d, n // (2 * d)) <= target
                if n > 2 * d:
                    assert closed_form_infidelity(d, n // (2 * d) - 1) > target

    @given(st.integers(2, 60), st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_closed_form_strictly_decreases_in_L(self, d, L):
        # The planner's step up from below the root relies on this to return the minimal L.
        assert closed_form_infidelity(d, L + 1) < closed_form_infidelity(d, L)

    @pytest.mark.parametrize("d", [*range(2, 13), 10**6, 10**20, 10**40])
    def test_equals_bisection_on_a_grid(self, d):
        for eps in (0.99, 0.9, 0.5, 0.2, 0.1, 0.07, 0.01, 1e-3, 1e-7, 1e-30, 1e-100, 1.5e-153):
            assert plan_queries(d, eps) == reference_plan_queries(d, eps), eps

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10**40), st.floats(-152.8, -1e-9).map(lambda e: 10.0**e))
    @example(2, 0.2)
    @example(3, 1.5e-153)
    def test_equals_bisection(self, d, eps):
        assert plan_queries(d, eps) == reference_plan_queries(d, eps)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            plan_queries(2, 0.0)
        with pytest.raises(ValueError):
            plan_queries(2, 1.0)
        # eps^2/100 below the normal float range would underflow the CLI's figures.
        with pytest.raises(ValueError, match="eps=1e-170"):
            plan_queries(2, 1e-170)
        n = plan_queries(2, 1e-150)
        assert closed_form_infidelity(2, n // 4) <= Fraction(1e-150) ** 2 / 100


class TestTraceDistance:
    def test_endpoints(self):
        assert trace_distance_from_overlap(1.0) == 0.0
        assert trace_distance_from_overlap(0.0) == 2.0

    def test_evaluated_point(self):
        assert trace_distance_from_overlap(7 / 8) == pytest.approx(
            2 * math.sqrt(1 / 8), abs=1e-12
        )

    def test_clamps_tiny_violations(self):
        assert trace_distance_from_overlap(-1e-13) == 2.0
        assert trace_distance_from_overlap(1 + 1e-13) == 0.0

    def test_rejects_gross_violations(self):
        with pytest.raises(ValueError):
            trace_distance_from_overlap(-0.01)
        with pytest.raises(ValueError):
            trace_distance_from_overlap(1.01)


class TestAmplitudeReduction:
    def test_identical_states(self):
        psi = np.array([1, 0], dtype=complex)
        lhs, rhs = amplitude_reduction_check(psi, psi, np.eye(2))
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_states_rank_one_projector(self):
        psi = np.array([1, 0, 0], dtype=complex)
        phi = np.array([0, 1, 0], dtype=complex)
        lhs, rhs = amplitude_reduction_check(psi, phi, np.outer(psi, psi.conj()))
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            proj = np.diag(rng.integers(0, 2, dim).astype(float))
            lhs, rhs = amplitude_reduction_check(psi, phi, proj)
            assert lhs <= rhs + 1e-10

    def test_rejects_non_unit_state(self):
        psi = np.array([1, 1], dtype=complex)
        with pytest.raises(ValueError):
            amplitude_reduction_check(psi, psi / np.sqrt(2), np.eye(2))

    def test_rejects_non_projector(self):
        psi = np.array([1, 0], dtype=complex)
        with pytest.raises(ValueError):
            amplitude_reduction_check(psi, psi, 2 * np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("where", ["psi", "phi", "proj"])
    def test_rejects_non_finite_inputs(self, bad, where):
        args = {"psi": np.array([1, 0], dtype=complex), "phi": np.array([0, 1], dtype=complex)}
        args["proj"] = np.diag([1.0, 0.0]).astype(complex)
        args[where][0 if where != "proj" else (1, 1)] = bad
        with pytest.raises(ValueError, match="finite"):
            amplitude_reduction_check(**args)

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_stacks_equal_one_case_calls_on_the_verify_stream(self, seed):
        # The verify family's cases, drawn as it draws them, checked stacked per
        # dimension, one case at a time, and by the one-case reference.
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            cases.append((psi, phi, np.diag(rng.integers(0, 2, dim).astype(float))))
        for dim in range(2, 17):
            group = [case for case in cases if len(case[0]) == dim]
            lhs, rhs = amplitude_reduction_check(*(np.array(part) for part in zip(*group)))
            assert lhs.shape == rhs.shape == (len(group),)
            for case, pair in zip(group, zip(lhs.tolist(), rhs.tolist())):
                one = amplitude_reduction_check(*case)
                assert one == pair == reference_amplitude_reduction_check(*case)
                assert type(one[0]) is type(one[1]) is float

    @pytest.mark.parametrize(
        "where,member,message",
        [
            ("proj", [[math.nan, 0], [0, 0]], "psi, phi and proj must be finite"),
            ("psi", [1, 1], "psi is not unit norm"),
            ("phi", [0.5, 0], "phi is not unit norm"),
            ("proj", [[1, 1], [0, 0]], "projector is not Hermitian"),
            ("proj", [[2, 0], [0, 0]], "projector is not idempotent"),
        ],
    )
    def test_one_bad_member_of_a_stack_fires(self, where, member, message):
        psi = np.tile(np.array([1, 0], dtype=complex), (3, 1))
        args = {"psi": psi, "phi": psi.copy(), "proj": np.tile(np.eye(2, dtype=complex), (3, 1, 1))}
        args[where][1] = member
        with pytest.raises(ValueError, match=f"^{message}$"):
            amplitude_reduction_check(**args)

    @pytest.mark.parametrize(
        "shapes",
        [
            ((2,), (3,), (2, 2)),
            ((2,), (2,), (3, 3)),
            ((4, 2), (4, 2), (2, 2)),
            ((4, 2), (3, 2), (4, 2, 2)),
            ((), (), ()),
        ],
    )
    def test_mismatched_shapes_name_the_shapes(self, shapes):
        psi, phi, proj = (np.ones(shape, dtype=complex) for shape in shapes)
        message = re.escape(f"got {shapes[0]}, {shapes[1]} and {shapes[2]}")
        with pytest.raises(ValueError, match=message):
            amplitude_reduction_check(psi, phi, proj)


class TestFidelityReport:
    def test_fields(self):
        rep = fidelity_report(2, 4)
        assert rep.fidelity_exact == Fraction(7, 8)
        assert rep.infidelity_exact == Fraction(1, 8)
        assert rep.fidelity_exact + rep.infidelity_exact == 1
        assert rep.bound_ratio == pytest.approx(0.5, abs=1e-12)
        assert rep.optimal_rayleigh >= 0.875
        assert len(rep.optimal_f) == rep.L + 1
        assert rep.gap_ratio == pytest.approx(
            rep.optimal_infidelity / float(rep.infidelity_exact), rel=1e-12
        )

    def test_consistency_guard_fires_on_broken_sum(self, monkeypatch):
        from gtprobe import fidelity as fmod

        monkeypatch.setattr(fmod, "infidelity_sum_form", lambda d, L: Fraction(1, 7))
        with pytest.raises(ConsistencyError):
            fidelity_report(2, 4)


REPORT_CASES = [(2, 4), (2, 40), (3, 12), (5, 30)]


class TestOneTablePerReport:
    @pytest.fixture
    def build_calls(self, monkeypatch):
        calls = []
        build = CoeffTable.build.__func__

        def counting_build(cls, d, L):
            calls.append((d, L))
            return build(cls, d, L)

        monkeypatch.setattr(CoeffTable, "build", classmethod(counting_build))
        return calls

    @pytest.mark.parametrize("d,n", REPORT_CASES)
    def test_report_builds_one_table(self, build_calls, d, n):
        fidelity_report(d, n)
        assert build_calls == [(d, n // (2 * d))]

    @pytest.mark.parametrize("d,n", REPORT_CASES)
    def test_report_matches_public_functions(self, d, n):
        rep = fidelity_report(d, n)
        tab = CoeffTable.build(d, rep.L)
        vec, lam = optimal_probe(tab)
        assert rep.fidelity_exact == expected_fidelity(tab)
        assert rep.optimal_rayleigh == lam
        assert rep.optimal_f == tuple(float(v) for v in vec)

    def test_protocol_probe_builds_no_table(self, build_calls):
        protocol_probe(3, 4)
        assert build_calls == []

    def test_simulate_builds_one_table(self, build_calls, capsys):
        argv = ["simulate", "--d", "2", "--n", "8", "--samples", "200", "--check-cg"]
        assert cli.main(argv) == 0
        assert build_calls == [(2, 2)]

    def test_verify_builds_each_table_once(self, build_calls, capsys):
        assert cli.main(["verify", "--max-d", "4", "--max-L", "5"]) == 0
        assert build_calls == [(d, L) for d in range(2, 5) for L in range(1, 6)]

    def test_no_table_outlives_a_call(self, monkeypatch):
        from gtprobe import coeffs

        fidelity_report(3, 12)
        true_terms = coeffs._terms

        def doubled_x_sq(i, d, L):  # a table kept from the first call would hide it
            terms = list(true_terms(i, d, L))
            terms[3] *= 2  # the numerator of x_i^2
            return tuple(terms)

        monkeypatch.setattr(coeffs, "_terms", doubled_x_sq)
        with pytest.raises(ConsistencyError):
            fidelity_report(3, 12)
