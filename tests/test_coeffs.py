import dataclasses
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gtprobe import cli, coeffs, fidelity, young
from gtprobe.coeffs import CoeffTable, ConsistencyError, telescoping_check
from gtprobe.fidelity import (
    closed_form_infidelity,
    expected_fidelity,
    fidelity_report,
    infidelity_sum_form,
    plan_queries,
    protocol_probe,
)
from gtprobe.young import (
    GammaParams,
    _shifted_rows,
    gamma_chain,
    gamma_dims,
    gamma_plus_shape,
    gamma_shape,
)
import oracles
from oracles import (
    alpha_beta,
    f_squared,
    g_coeff,
    ReferenceTable,
    reference_build,
    reference_cg_add_box,
    reference_dim_ratio_check,
    reference_expected_fidelity,
    reference_infidelity_sum_form,
    reference_telescoping_check,
    reference_weyl_dimension,
    shared_radicand,
    xy_squared,
)

# Every (d, L) of `gtprobe verify --max-d 10 --max-L 40`.
VERIFY_GRID = [(d, L) for d in range(2, 11) for L in range(1, 41)]


def _wrap(monkeypatch, name, wrapper):
    """Replace coeffs.<name>, as CoeffTable.build sees it, by
    wrapper(true_function, *args)."""
    true_fn = getattr(coeffs, name)
    monkeypatch.setattr(coeffs, name, lambda *args: wrapper(true_fn, *args))


def _wrong_dim(monkeypatch, wrong_rows):
    """Make the Weyl dimension CoeffTable.build reads for the diagram with shifted rows
    wrong_rows (gamma_i's or gamma_i^+'s) one too large."""

    def wrong(f, d, L):
        h = _shifted_rows(gamma_shape(GammaParams(d, L, 0)), d)
        for i, (dim, dim_plus) in enumerate(f(d, L)):
            rows = young._gamma_rows(h, i)
            yield dim + (rows == wrong_rows), dim_plus + ([rows[0] + 1, *rows[1:]] == wrong_rows)

    _wrap(monkeypatch, "gamma_dims", wrong)


def cg(chain):
    """(k, C_k^2) for appending the largest letter to a valid chain of d >= 2 diagrams:
    coeffs._cg_core on the shifted rows of its top two diagrams, reduced."""
    d = len(chain)
    t, s = _shifted_rows(chain[-1], d), _shifted_rows(chain[-2], d - 1)
    return [(k, Fraction(num, den)) for k, num, den in coeffs._cg_core(t, s)]


# Positions in the tuple coeffs._terms returns: (a, b, s-1, xn, xd, yn, yd, g, f, rn, s).
ALPHA, BETA, AB_DEN, Y, F, R = 0, 1, 2, 5, 8, 9


def _plant(monkeypatch, where, k, wrong):
    """Have coeffs._terms, as CoeffTable.build sees it, return wrong(terms) in
    place of its k-th integer at every index i for which where(i) holds."""

    def planted(true_terms, i, d, L):
        terms = list(true_terms(i, d, L))
        if where(i):
            terms[k] = wrong(terms)
        return tuple(terms)

    _wrap(monkeypatch, "_terms", planted)


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
        tab2, tab3 = CoeffTable.build(2, 1), CoeffTable.build(3, 1)
        assert (tab2.alpha[0], tab2.beta[0]) == (Fraction(4, 5), Fraction(1, 5))
        assert (tab3.alpha[0], tab3.beta[0]) == (Fraction(6, 7), Fraction(1, 7))

    def test_sum_to_one_and_vanishing_tail(self):
        for d, L in product(range(2, 7), range(1, 9)):
            tab = CoeffTable.build(d, L)
            for a, b in zip(tab.alpha, tab.beta):
                assert a + b == 1
                assert a > 0 and b >= 0
            assert tab.beta[L] == 0


class TestXYSquared:
    def test_examples(self):
        assert xy_squared(0, 2, 1)[0] == Fraction(8, 15)
        assert xy_squared(1, 2, 1) == (Fraction(3, 4), Fraction(1, 20))
        assert xy_squared(1, 3, 1)[1] == Fraction(1, 21)

    def test_positive(self):
        for d, L in product(range(2, 6), range(1, 6)):
            for i in range(L + 1):
                x_sq, y_sq = xy_squared(i, d, L)
                assert x_sq > 0 and y_sq > 0


class TestGAndF:
    def test_g_examples(self):
        assert CoeffTable.build(2, 1).g == (6, 10)
        assert g_coeff(-1, 2, 1) == 0
        assert g_coeff(0, 2, 1) == 6
        assert g_coeff(1, 2, 1) == 10

    def test_g_range_check(self):
        with pytest.raises(ValueError):
            g_coeff(-2, 2, 1)
        with pytest.raises(ValueError):
            g_coeff(2, 2, 1)

    def test_shared_radicand_range_check(self):
        with pytest.raises(ValueError, match=r"0 <= i <= L=2, got 5"):
            shared_radicand(5, 3, 2)
        with pytest.raises(ValueError, match=r"0 <= i <= L=2, got -1"):
            shared_radicand(-1, 3, 2)
        assert shared_radicand(2, 3, 2) > 0

    def test_f_examples(self):
        assert CoeffTable.build(2, 1).f_sq == (180, 300)
        assert f_squared(0, 2, 1) == 180
        assert f_squared(1, 2, 1) == 300
        assert f_squared(-1, 2, 1) == 0

    def test_g_increments(self):
        for d, L in product(range(2, 7), range(1, 11)):
            N, g = (d + 1) * L, CoeffTable.build(d, L).g
            for i in range(L + 1):
                assert g[i] - (g[i - 1] if i else 0) == L + N + d - 2 * i

    def test_shared_radicand_combines_f_with_x_and_y(self):
        for d, L in product(range(2, 6), range(1, 7)):
            tab, N = CoeffTable.build(d, L), (d + 1) * L
            for i in range(L + 1):
                r = tab.shared_radicand[i]
                assert tab.f_sq[i] * tab.x_sq[i] == (tab.g[i] * (N - i + 1)) ** 2 * r
                if i:
                    lhs = tab.f_sq[i - 1] * tab.y_sq[i]
                    assert lhs == (tab.g[i - 1] * (L + d - i - 1)) ** 2 * r


class TestClebschGordan:
    def test_single_box_pair(self):
        # One letter-2 box onto a single letter-1 box: symmetric/antisymmetric
        # split of two qudits gives squared coefficients 1/2 each.
        assert cg(((1,), (1,))) == [(1, Fraction(1, 2)), (2, Fraction(1, 2))]

    def test_vacuum_absorbs_box(self):
        assert cg(((), (), ())) == [(1, Fraction(1))]

    def test_probe_chain_matches_branch_weights(self):
        for d, L in product(range(2, 7), range(1, 8)):
            for i in range(L + 1):
                got = cg(gamma_chain(GammaParams(d, L, i)))
                alpha, beta = alpha_beta(i, d, L)
                want = [(1, alpha)] + ([(d, beta)] if i < L else [])
                assert got == want, (d, L, i)

    def test_invalid_chain_rejected(self, monkeypatch):
        # verify's CG family checks gamma_0's chain with as_chain before it steps the rows.
        true_chain = coeffs.gamma_chain
        monkeypatch.setattr(coeffs, "gamma_chain", lambda p: true_chain(p)[::-1])
        with pytest.raises(ValueError, match="not a valid interlacing chain"):
            list(coeffs.cg_branch_weights([(3, 2)]))

    @pytest.mark.parametrize("bad", [None, 1j])
    def test_rejects_rows_int_cannot_convert(self, monkeypatch, bad):
        true_chain = coeffs.gamma_chain
        monkeypatch.setattr(coeffs, "gamma_chain", lambda p: (*true_chain(p)[:-1], (bad,)))
        with pytest.raises(ValueError, match="must be integers"):
            list(coeffs.cg_branch_weights([(3, 2)]))

    @settings(max_examples=300, deadline=None)
    @given(chain_strategy(max_d=12, max_part=10**4))
    @example(gamma_chain(GammaParams(10, 40, 0)))
    @example(gamma_chain(GammaParams(10, 40, 17)))
    @example(gamma_chain(GammaParams(10, 40, 40)))
    def test_matches_row_by_row_reference(self, chain):
        assert cg(chain) == reference_cg_add_box(chain)

    @given(chain_strategy())
    @settings(max_examples=200)
    def test_unitarity(self, chain):
        total = sum(c for _, c in cg(chain))
        assert total == 1

    @given(chain_strategy())
    @settings(max_examples=100)
    def test_rows_grow_valid_diagrams(self, chain):
        lam = chain[-1]
        for k, c in cg(chain):
            grown = list(lam) + [0] * (k - len(lam))
            grown[k - 1] += 1
            assert all(a >= b for a, b in zip(grown, grown[1:]))
            assert c > 0


class TestDimensionRatios:
    """CoeffTable.build raises unless the dimension ratios hold at every i."""

    def test_base_case_dimensions(self):
        # (4,) and (5,), then (3, 1) and (4, 1), at d=2
        assert list(gamma_dims(2, 1)) == [(5, 6), (3, 4)]
        CoeffTable.build(2, 1)

    def test_spot_checks(self):
        CoeffTable.build(3, 2)
        CoeffTable.build(2, 1)

    def test_x_equals_alpha_scaled_ratio(self):
        alpha, _ = alpha_beta(1, 2, 1)
        x_sq, _ = xy_squared(1, 2, 1)
        assert x_sq == alpha**2 * Fraction(3, 4)  # dim(3,1)/dim(4,1) = 3/4 at d=2

    def test_grid(self):
        for d, L in product(range(2, 6), range(1, 6)):
            CoeffTable.build(d, L)


class TestSteppedRows:
    """CoeffTable.build and verify's CG family step gamma_0's shifted rows along i
    and call the cores on them; each stepped call equals the validated route."""

    def test_build_rows_and_weyl_core(self, monkeypatch):
        seen = []

        def recorded(f, d, L):
            seen.append((d, L, list(f(d, L))))
            return iter(seen[-1][-1])

        _wrap(monkeypatch, "gamma_dims", recorded)
        for d, L in VERIFY_GRID:
            seen.clear()
            CoeffTable.build(d, L)
            assert [args[:2] for args in seen] == [(d, L)]  # one call, read at every index
            h = _shifted_rows(gamma_shape(GammaParams(d, L, 0)), d)
            if d >= 3:  # the middle rectangle (L, ..., L) of U(d-2) has dimension 1
                core = young._weyl_core(h[1:-1], prod(map(factorial, range(d - 2))))
                assert core == reference_weyl_dimension((L,) * (d - 2), d - 2) == 1, (d, L)
            assert len(seen[0][2]) == L + 1
            for i, dims in enumerate(seen[0][2]):
                p = GammaParams(d, L, i)
                # gamma_dims steps gamma_0's first and last shifted rows by i
                assert young._gamma_rows(h, i) == _shifted_rows(gamma_shape(p), d), (d, L, i)
                for lam, dim in zip((gamma_shape(p), gamma_plus_shape(p)), dims, strict=True):
                    assert dim == reference_weyl_dimension(lam, d), (d, L, i)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(1, 40))
    @example(60, 3)
    @example(200, 1)
    def test_build_reads_the_weyl_dimensions(self, d, L):
        # Every (dim gamma_i, dim gamma_i^+) the build uses, against the Fraction product.
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            _wrap(mp, "gamma_dims", lambda f, d, L: seen.extend(f(d, L)) or iter(seen))
            CoeffTable.build(d, L)
        assert len(seen) == L + 1
        for i, dims in enumerate(seen):
            p = GammaParams(d, L, i)
            for lam, dim in zip((gamma_shape(p), gamma_plus_shape(p)), dims, strict=True):
                assert dim == reference_weyl_dimension(lam, d), i

    def test_cg_family_rows_and_cg_core(self, monkeypatch):
        seen = []
        true_core = coeffs._cg_core
        monkeypatch.setattr(
            coeffs, "_cg_core", lambda t, s: seen.append((tuple(t), tuple(s))) or true_core(t, s)
        )
        cases = dict(fidelity.identity_families(10, 40, 0))["cg-branch-weights"]
        assert set(cases) == {None}
        indexed = [(d, L, i) for d, L in VERIFY_GRID for i in range(L + 1)]
        assert len(seen) == len(indexed)
        for (d, L, i), (t, s) in zip(indexed, seen):
            chain = gamma_chain(GammaParams(d, L, i))
            assert t == tuple(_shifted_rows(chain[-1], d)), (d, L, i)
            assert s == tuple(_shifted_rows(chain[-2], d - 1)), (d, L, i)
            reduced = [(k, Fraction(num, den)) for k, num, den in true_core(t, s)]
            assert reduced == reference_cg_add_box(chain)

    @settings(deadline=None)
    @given(chain_strategy(max_d=12, max_part=10**4))
    def test_cg_core_matches_row_by_row_reference(self, chain):
        d = len(chain)
        t, s = _shifted_rows(chain[-1], d), _shifted_rows(chain[-2], d - 1)
        core = coeffs._cg_core(t, s)
        assert all(type(v) is int for entry in core for v in entry) and all(e[2] > 0 for e in core)
        assert [(k, Fraction(num, den)) for k, num, den in core] == reference_cg_add_box(chain)

    @pytest.mark.parametrize("d", [2, 5])
    def test_build_validates_once_per_table(self, monkeypatch, d):
        # Per-index validation would make GammaParams or as_diagram calls grow with L;
        # the build checks no index, as each one it makes lies in 0..L.
        calls = {"GammaParams": 0, "as_diagram": 0}

        def counted(module, name):
            true_fn = getattr(module, name)

            def call(*args):
                calls[name] += 1
                return true_fn(*args)

            monkeypatch.setattr(module, name, call)

        counted(coeffs, "GammaParams")
        counted(young, "as_diagram")
        seen = []
        for L in (1, 40):
            calls.update(GammaParams=0, as_diagram=0)
            CoeffTable.build(d, L)
            seen.append(dict(calls))
        assert seen[0]["GammaParams"] == seen[1]["GammaParams"] == 1
        assert seen[0]["as_diagram"] == seen[1]["as_diagram"]


# Each exact entry point, and each per-index Fraction form of tests/oracles.py, names its
# non-integer size through young._require_integer:
# (function, arguments with one non-integer size, message, the same sizes as integers).
NON_INTEGER_SIZES = [
    (g_coeff, (0, 2.5, 1), "d must be an integer, got 2.5", (0, 2, 1)),
    (f_squared, (0, 2, 1.5), "L must be an integer, got 1.5", (0, 2, 1)),
    (shared_radicand, (0, 2, 1.5), "L must be an integer, got 1.5", (0, 2, 1)),
    (alpha_beta, (0.0, 2, 1), "i must be an integer, got 0.0", (0, 2, 1)),
    (xy_squared, (1, 2, 1.0), "L must be an integer, got 1.0", (1, 2, 1)),
    (telescoping_check, (1, 1, 1.5), "k must be an integer, got 1.5", (1, 1, 2)),
    (CoeffTable.build, (2, 1.5), "L must be an integer, got 1.5", (2, 1)),
    (closed_form_infidelity, (2, 1.5), "L must be an integer, got 1.5", (2, 1)),
    (infidelity_sum_form, (2, 1.5), "L must be an integer, got 1.5", (2, 1)),
    (protocol_probe, (2, 1.5), "L must be an integer, got 1.5", (2, 1)),
    (plan_queries, (2.5, 0.1), "d must be an integer, got 2.5", (3, 0.1)),
]
NON_INTEGER_IDS = [case[0].__name__ for case in NON_INTEGER_SIZES]


class TestNonIntegerSizes:
    @pytest.mark.parametrize("fn,args,message,_", NON_INTEGER_SIZES, ids=NON_INTEGER_IDS)
    def test_raises_value_error_naming_the_field(self, fn, args, message, _):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(*args)

    @pytest.mark.parametrize("fn,_,__,sizes", NON_INTEGER_SIZES, ids=NON_INTEGER_IDS)
    def test_numpy_integers_pass(self, fn, _, __, sizes):
        numpy_sizes = [np.int64(a) if type(a) is int else a for a in sizes]
        assert np.all(fn(*numpy_sizes) == fn(*sizes))

    @pytest.mark.parametrize("d,L", [(6, 20), (10, 40)])
    def test_numpy_sizes_build_the_int_table(self, d, L):
        # int64 products of these sizes overflow; the build computes with plain ints.
        tab = CoeffTable.build(np.int64(d), np.int64(L))
        assert tab == CoeffTable.build(d, L)
        assert type(tab.d) is type(tab.L) is type(tab.N) is type(tab.g[-1]) is int


@st.composite
def telescoping_args(draw):
    """(a, b, k): rationals, or negative integers >= -(k+1), which make a factor
    a+j or b+j of the identity vanish for some 0 <= j <= k+1."""
    k = draw(st.integers(0, 25))
    zero_factor = st.integers(-(k + 1), -1).map(Fraction)
    rational = st.fractions(min_value=-10, max_value=10, max_denominator=30)
    a, b = draw(st.one_of(rational, zero_factor)), draw(st.one_of(rational, zero_factor))
    return a, b, k


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

    @settings(max_examples=300)
    @given(telescoping_args())
    @example((Fraction(0), Fraction(0), 0))
    @example((Fraction(-1), Fraction(5, 3), 0))
    @example((Fraction(7, 2), Fraction(-26), 25))
    @example((Fraction(-3), Fraction(-1), 2))
    def test_equals_fraction_reference(self, args):
        assert telescoping_check(*args) is reference_telescoping_check(*args) is True


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
        assert cg(gamma_chain(GammaParams(2, 1, 0))) == [
            (1, Fraction(4, 5)),
            (2, Fraction(1, 5)),
        ]

    def test_detects_broken_coefficients(self, monkeypatch):
        _plant(monkeypatch, lambda i: i == 1, F, lambda terms: 999)  # f_1^2 = 999, not 300
        with pytest.raises(ConsistencyError) as err:
            CoeffTable.build(2, 1)
        assert "i=1" in str(err.value)

    def test_f_squared_off_by_one_fires(self, monkeypatch):
        _plant(monkeypatch, lambda i: i == 1, F, lambda terms: terms[F] + 1)
        with pytest.raises(ConsistencyError, match=r"for f_i\*x_i at d=3 L=2 i=1$"):
            CoeffTable.build(3, 2)

    @pytest.mark.parametrize("shape_of", [gamma_shape, gamma_plus_shape])
    def test_wrong_weyl_dimension_fires(self, monkeypatch, shape_of):
        d, L = 3, 4
        _wrong_dim(monkeypatch, _shifted_rows(shape_of(GammaParams(d, L, 1)), d))
        message = r"dimension-ratio identity failed at d=3 L=4 i=1$"
        with pytest.raises(ConsistencyError, match=message):
            CoeffTable.build(d, L)

    @pytest.mark.parametrize("which,fails_at", [(ALPHA, 2), (BETA, 3)])
    def test_wrong_alpha_or_beta_fires(self, monkeypatch, which, fails_at):
        # A wrong alpha_2 breaks x_2; a wrong beta_2 enters the y check at i = 3.
        _plant(monkeypatch, lambda i: i == 2, which, lambda terms: terms[which] + 1)
        with pytest.raises(ConsistencyError, match=rf"at d=4 L=5 i={fails_at}$"):
            CoeffTable.build(4, 5)

    def test_nonvanishing_beta_L_fires(self, monkeypatch):
        _plant(monkeypatch, lambda i: i == 3, BETA, lambda terms: terms[AB_DEN])  # beta_3 = 1
        with pytest.raises(ConsistencyError, match=r"beta_L must vanish, got 1 at d=2 L=3$"):
            CoeffTable.build(2, 3)

    def test_wrong_shared_radicand_fires(self, monkeypatch):
        _plant(monkeypatch, lambda i: i == 2, R, lambda terms: 2 * terms[R])
        with pytest.raises(ConsistencyError, match=r"for f_i\*x_i at d=5 L=3 i=2$"):
            CoeffTable.build(5, 3)

    def test_wrong_y_squared_fires(self, monkeypatch):
        # y_3^2 four times too large, with beta_2 doubled so that the dimension ratio
        # at i = 3 still holds: only the f_(i-1)*y_i radicand check sees it.
        _plant(monkeypatch, lambda i: i == 3, Y, lambda terms: 4 * terms[Y])
        _plant(monkeypatch, lambda i: i == 2, BETA, lambda terms: 2 * terms[BETA])
        with pytest.raises(ConsistencyError, match=r"for f_\(i-1\)\*y_i at d=4 L=5 i=3$"):
            CoeffTable.build(4, 5)

    @pytest.mark.parametrize("d,L", [(2, 7), (5, 12)])
    def test_evaluates_each_quantity_once_per_index(self, monkeypatch, d, L):
        calls = {"gamma_dims": 0, "dims read": 0, "_terms": 0, "_weyl_core": 0}

        def counted(name):
            def call(f, *args):
                calls[name] += 1
                return f(*args)

            return call

        def dims_read(f, d, L):
            calls["gamma_dims"] += 1
            for dims in f(d, L):
                calls["dims read"] += 1
                yield dims

        _wrap(monkeypatch, "gamma_dims", dims_read)
        _wrap(monkeypatch, "_terms", counted("_terms"))
        true_core = young._weyl_core
        monkeypatch.setattr(young, "_weyl_core", lambda *args: counted("_weyl_core")(true_core, *args))
        CoeffTable.build(d, L)
        # Both dimensions and _terms per index; the middle rows' Weyl core, always 1, never.
        assert calls == {"gamma_dims": 1, "dims read": L + 1, "_terms": L + 1, "_weyl_core": 0}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 60))
    def test_terms_match_the_closed_forms(self, d, L):
        # Factor by factor, against the forms in _terms' docstring and the oracles.
        N = (d + 1) * L
        for i in range(L + 1):
            a, b, ad, xn, xd, yn, yd, g, f, rn, rd = coeffs._terms(i, d, L)
            s = L + N + d - 2 * i
            assert (a, b, ad, rd) == (N + d - i - 1, L - i, s - 1, s)
            assert (Fraction(a, ad), Fraction(b, ad)) == alpha_beta(i, d, L)
            assert (Fraction(xn, xd), Fraction(yn, yd)) == xy_squared(i, d, L)
            assert g == (i + 1) * (L + N + d - i) == g_coeff(i, d, L)
            window = prod((N + j - i - 1) * (L + d - j - i) for j in range(2, d))
            assert f == g * g * (s - 1) * window == f_squared(i, d, L)
            assert Fraction(rn, rd) == shared_radicand(i, d, L)


class TestAgainstFractionReference:
    """The integer-arithmetic build, with its dimension-ratio checks, and the
    fidelity sums against the same code written in Fractions (tests/oracles.py)."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 60))
    @example(2, 200)
    @example(10, 40)
    def test_equal_to_reference(self, d, L):
        # Every field of the Fraction table, read from CoeffTable's integers on access.
        tab, ref = CoeffTable.build(d, L), reference_build(d, L)
        for field in dataclasses.fields(ReferenceTable):
            got, want = getattr(tab, field.name), getattr(ref, field.name)
            assert got == want, field.name
            assert type(got) is type(want), field.name
            if isinstance(want, tuple):
                assert [type(v) for v in got] == [type(v) for v in want], field.name
        fid, want_fid = expected_fidelity(tab), reference_expected_fidelity(ref)
        assert fid == want_fid and type(fid) is Fraction
        summed, want_summed = infidelity_sum_form(d, L), reference_infidelity_sum_form(d, L)
        assert summed == want_summed and type(summed) is Fraction
        for i in range(L + 1):
            assert reference_dim_ratio_check(GammaParams(d, L, i)) is True, i

    def test_dim_ratio_check_sees_a_wrong_dimension(self, monkeypatch):
        # A wrong dim(gamma_1) fails the build and its Fraction reference at the same i:
        # the build reads it from young.gamma_dims, which steps gamma_0's shifted rows to
        # i = 1, the reference from reference_weyl_dimension on gamma_1.
        wrong = gamma_shape(GammaParams(3, 4, 1))
        _wrong_dim(monkeypatch, _shifted_rows(wrong, 3))
        true_dim = oracles.reference_weyl_dimension
        monkeypatch.setattr(
            oracles, "reference_weyl_dimension", lambda lam, d: true_dim(lam, d) + (lam == wrong)
        )
        for build in (CoeffTable.build, reference_build):
            with pytest.raises(
                ConsistencyError, match=r"^dimension-ratio identity failed at d=3 L=4 i=1$"
            ):
                build(3, 4)


class TestFractionsOnlyWhereRead:
    """The exact layer computes and compares in integers: a Fraction is made only
    where one is returned or printed, so its count does not grow with L."""

    @pytest.fixture
    def made(self, monkeypatch):
        """The number of Fractions made through the Fraction names of coeffs,
        fidelity and cli since the test began (or since reset to 0)."""
        made = [0]

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                made[0] += 1
                return super().__new__(cls, *args, **kwargs)

        for module in (coeffs, fidelity, cli):
            monkeypatch.setattr(module, "Fraction", Counted)
        return made

    @pytest.mark.parametrize("d,L", [(2, 100), (6, 40)])
    def test_build_makes_none(self, made, d, L):
        tab = CoeffTable.build(d, L)
        assert made[0] == 0
        fields = tab.alpha + tab.f_sq  # each field makes its Fractions on access
        assert made[0] == len(fields) == 2 * (L + 1)

    @pytest.mark.parametrize("d", [2, 5])
    def test_report_count_is_the_same_at_every_L(self, made, d):
        counts = []
        for L in (10, 100):
            made[0] = 0
            fidelity_report(d, 2 * d * L)
            counts.append(made[0])
        assert counts[0] == counts[1] > 0

    def test_cg_family_makes_none(self, made):
        # Every weight, at i = 0 too, is compared as cross-multiplied integers.
        cases = dict(fidelity.identity_families(5, 12, 0))["cg-branch-weights"]
        assert set(cases) == {None}
        assert made[0] == 0


def test_exact_layer_imports_only_the_standard_library():
    src = str(Path(coeffs.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gtprobe.young, gtprobe.coeffs; "
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
