from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gtprobe import coeffs
from gtprobe.coeffs import (
    CoeffTable,
    ConsistencyError,
    alpha_beta,
    cg_add_box,
    dim_ratio_check,
    f_squared,
    g_coeff,
    shared_radicand,
    telescoping_check,
    xy_squared,
)
from gtprobe.young import GammaParams, gamma_chain, weyl_dimension


@st.composite
def chain_strategy(draw, max_d=4, max_part=4):
    """Random valid interlacing chain, built top-down."""
    d = draw(st.integers(2, max_d))
    nrows = draw(st.integers(0, d))
    top = tuple(
        sorted(draw(st.lists(st.integers(1, max_part), min_size=nrows, max_size=nrows)), reverse=True)
    )
    chain = [top]
    for k in range(d - 1, 0, -1):
        lam = chain[0]
        mu = []
        for j in range(min(k, len(lam))):
            lo = lam[j + 1] if j + 1 < len(lam) else 0
            mu.append(draw(st.integers(lo, lam[j])))
        while mu and mu[-1] == 0:
            mu.pop()
        chain.insert(0, tuple(mu))
    return tuple(chain)


class TestAlphaBeta:
    def test_examples(self):
        assert alpha_beta(GammaParams(2, 1, 0)) == (Fraction(4, 5), Fraction(1, 5))
        assert alpha_beta(GammaParams(3, 1, 0)) == (Fraction(6, 7), Fraction(1, 7))

    def test_sum_to_one_and_vanishing_tail(self):
        for d, L in product(range(2, 7), range(1, 9)):
            for i in range(L + 1):
                a, b = alpha_beta(GammaParams(d, L, i))
                assert a + b == 1
                assert a > 0 and b >= 0
            assert alpha_beta(GammaParams(d, L, L))[1] == 0


class TestXYSquared:
    def test_examples(self):
        assert xy_squared(GammaParams(2, 1, 0))[0] == Fraction(8, 15)
        assert xy_squared(GammaParams(2, 1, 1)) == (Fraction(3, 4), Fraction(1, 20))
        assert xy_squared(GammaParams(3, 1, 1))[1] == Fraction(1, 21)

    def test_positive(self):
        for d, L in product(range(2, 6), range(1, 6)):
            for i in range(L + 1):
                x_sq, y_sq = xy_squared(GammaParams(d, L, i))
                assert x_sq > 0 and y_sq > 0


class TestGAndF:
    def test_g_examples(self):
        assert g_coeff(-1, 2, 1) == 0
        assert g_coeff(0, 2, 1) == 6
        assert g_coeff(1, 2, 1) == 10

    def test_g_range_check(self):
        with pytest.raises(ValueError):
            g_coeff(-2, 2, 1)
        with pytest.raises(ValueError):
            g_coeff(2, 2, 1)

    def test_f_examples(self):
        assert f_squared(0, 2, 1) == 180
        assert f_squared(1, 2, 1) == 300
        assert f_squared(-1, 2, 1) == 0

    def test_g_increments(self):
        for d, L in product(range(2, 7), range(1, 11)):
            N = (d + 1) * L
            for i in range(L + 1):
                assert g_coeff(i, d, L) - g_coeff(i - 1, d, L) == L + N + d - 2 * i

    def test_shared_radicand_combines_f_with_x_and_y(self):
        for d, L in product(range(2, 6), range(1, 7)):
            N = (d + 1) * L
            for i in range(L + 1):
                r = shared_radicand(i, d, L)
                x_sq, y_sq = xy_squared(GammaParams(d, L, i))
                assert f_squared(i, d, L) * x_sq == (g_coeff(i, d, L) * (N - i + 1)) ** 2 * r
                lhs = f_squared(i - 1, d, L) * y_sq
                rhs = (g_coeff(i - 1, d, L) * (L + d - i - 1)) ** 2 * r
                assert lhs == rhs


class TestClebschGordan:
    def test_single_box_pair(self):
        # One letter-2 box onto a single letter-1 box: symmetric/antisymmetric
        # split of two qudits gives squared coefficients 1/2 each.
        assert cg_add_box(((1,), (1,))) == [(1, Fraction(1, 2)), (2, Fraction(1, 2))]

    def test_vacuum_absorbs_box(self):
        assert cg_add_box(((), (), ())) == [(1, Fraction(1))]

    def test_probe_chain_matches_branch_weights(self):
        for d, L in product(range(2, 7), range(1, 8)):
            for i in range(L + 1):
                p = GammaParams(d, L, i)
                got = cg_add_box(gamma_chain(p))
                alpha, beta = alpha_beta(p)
                want = [(1, alpha)] + ([(d, beta)] if i < L else [])
                assert got == want, (d, L, i)

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            cg_add_box(((2,), (1,)))

    @given(chain_strategy())
    @settings(max_examples=200)
    def test_unitarity(self, chain):
        total = sum(c for _, c in cg_add_box(chain))
        assert total == 1

    @given(chain_strategy())
    @settings(max_examples=100)
    def test_rows_grow_valid_diagrams(self, chain):
        lam = chain[-1]
        for k, c in cg_add_box(chain):
            grown = list(lam) + [0] * (k - len(lam))
            grown[k - 1] += 1
            assert all(a >= b for a, b in zip(grown, grown[1:]))
            assert c > 0


class TestDimensionRatios:
    def test_base_case_dimensions(self):
        assert weyl_dimension((4,), 2) == 5
        assert weyl_dimension((5,), 2) == 6
        assert dim_ratio_check(GammaParams(2, 1, 0))

    def test_spot_checks(self):
        assert dim_ratio_check(GammaParams(3, 2, 1))
        assert dim_ratio_check(GammaParams(2, 1, 1))

    def test_x_equals_alpha_scaled_ratio(self):
        p = GammaParams(2, 1, 1)
        alpha, _ = alpha_beta(p)
        x_sq, _ = xy_squared(p)
        assert x_sq == alpha**2 * Fraction(3, 4)  # dim(3,1)/dim(4,1) = 3/4 at d=2

    def test_grid(self):
        for d, L in product(range(2, 6), range(1, 6)):
            for i in range(L + 1):
                assert dim_ratio_check(GammaParams(d, L, i))


class TestTelescoping:
    def test_trivial(self):
        assert telescoping_check(Fraction(0), Fraction(0), 0)

    def test_known_rational_point(self):
        assert telescoping_check(Fraction(3, 2), Fraction(-1, 3), 5)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            telescoping_check(Fraction(1), Fraction(1), -1)

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=30),
        st.fractions(min_value=-10, max_value=10, max_denominator=30),
        st.integers(0, 25),
    )
    @settings(max_examples=200)
    def test_holds_for_random_rationals(self, a, b, k):
        assert telescoping_check(a, b, k)


class TestCoeffTable:
    def test_build_matches_pointwise_functions(self):
        tab = CoeffTable.build(2, 1)
        assert tab.N == 3
        assert tab.alpha == (Fraction(4, 5), Fraction(1, 1))
        assert tab.beta == (Fraction(1, 5), Fraction(0, 1))
        assert tab.x_sq == (Fraction(8, 15), Fraction(3, 4))
        assert tab.g == (6, 10)
        assert tab.f_sq == (Fraction(180), Fraction(300))
        assert tab.shared_radicand == (Fraction(1, 6), Fraction(1, 4))

    def test_probe_branch_coefficients(self):
        assert cg_add_box(gamma_chain(GammaParams(2, 1, 0))) == [
            (1, Fraction(4, 5)),
            (2, Fraction(1, 5)),
        ]

    def test_detects_broken_coefficients(self, monkeypatch):
        true_f = coeffs.f_squared

        def bad_f(i, d, L):
            if i == 1:
                return Fraction(999)
            return true_f(i, d, L)

        monkeypatch.setattr(coeffs, "f_squared", bad_f)
        with pytest.raises(ConsistencyError) as err:
            CoeffTable.build(2, 1)
        assert "i=1" in str(err.value)
