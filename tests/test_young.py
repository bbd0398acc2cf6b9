import sys
from fractions import Fraction
from itertools import product
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gtprobe import young
from gtprobe.coeffs import CoeffTable
from gtprobe.young import (
    _shifted_rows,
    _weyl_core,
    as_chain,
    as_diagram,
    branching_restrictions,
    gamma_chain,
    gamma_dims,
    gamma_hooks,
    partitions,
    row,
)
from oracles import (
    interlaces,
    is_valid_chain,
    reference_gamma_chain,
    reference_gamma_content,
    reference_gamma_shape,
    reference_hook_content_dimension,
    reference_hook_length_dimension,
    reference_weyl_dimension,
)


def count_ssyt(shape, d):
    """Brute-force count of semistandard fillings with alphabet 1..d.

    Independent oracle for Weyl dimensions: the GT basis of the irrep is
    indexed by exactly these fillings.
    """
    shape = tuple(shape)
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    if not cells:
        return 1

    def rec(pos, filling):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        total = 0
        for v in range(1, d + 1):
            if c > 0 and v < filling[r, c - 1]:
                continue
            if r > 0 and v <= filling[r - 1, c]:
                continue
            filling[r, c] = v
            total += rec(pos + 1, filling)
            del filling[r, c]
        return total

    return rec(0, {})


@st.composite
def diagram_strategy(draw, max_rows=4, max_part=5):
    nrows = draw(st.integers(0, max_rows))
    rows = sorted(
        draw(st.lists(st.integers(1, max_part), min_size=nrows, max_size=nrows)),
        reverse=True,
    )
    return tuple(rows)


@st.composite
def chain_strategy(draw):
    """Chains of up to five diagrams as lists or tuples, some with trailing
    zeros.  Half are interlacing chains grown from the empty diagram, then
    possibly broken by one changed or appended row (too many rows, rows out
    of interlacing, or no diagram at all); the rest are unrelated diagrams."""
    length = draw(st.integers(0, 5))
    if draw(st.booleans()):
        chain = [list(draw(diagram_strategy(max_rows=5))) for _ in range(length)]
    else:
        chain, mu = [], ()
        for _ in range(length):
            # lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...: lam_j lies in [mu_j, mu_{j-1}].
            bounds = [(row(mu, 1), row(mu, 1) + 3)]
            bounds += [(row(mu, j), row(mu, j - 1)) for j in range(2, len(mu) + 2)]
            lam = [draw(st.integers(lo, hi)) for lo, hi in bounds]
            chain.append(lam)
            mu = tuple(r for r in lam if r)
        if chain and draw(st.booleans()):
            lam = draw(st.sampled_from(chain))
            if not lam or draw(st.booleans()):
                lam.append(draw(st.integers(1, 3)))
            else:
                lam[draw(st.integers(0, len(lam) - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    for lam in chain:
        lam.extend([0] * draw(st.integers(0, 2)))
    return [draw(st.sampled_from([list, tuple]))(lam) for lam in chain]


@st.composite
def shape_and_d(draw):
    """d up to 16 and a diagram with up to d rows and parts up to 10^4."""
    d = draw(st.integers(1, 16))
    return draw(diagram_strategy(max_rows=d, max_part=10**4)), d


def weyl(lam, d):
    """Weyl dimension of a diagram with at most d rows, through young._weyl_core."""
    return _weyl_core(_shifted_rows(as_diagram(lam), d), prod(map(factorial, range(d))))


class TestDiagramBasics:
    def test_as_diagram_strips_trailing_zeros(self):
        assert as_diagram((3, 1, 0, 0)) == (3, 1)
        assert as_diagram(()) == ()
        assert as_diagram((0,)) == ()

    def test_as_diagram_rejects_increasing(self):
        with pytest.raises(ValueError):
            as_diagram((1, 2))

    def test_as_diagram_rejects_negative(self):
        with pytest.raises(ValueError):
            as_diagram((2, -1))

    def test_as_diagram_rejects_non_integral_rows(self):
        for rows in ([2.7, 1.2], (2.5,), [3.9, 0.5], [Fraction(5, 2)], [np.float64(1.5)]):
            with pytest.raises(ValueError, match="must be integers"):
                as_diagram(rows)
        with pytest.raises(ValueError, match=r"got \(3.9, 0.5\)"):
            branching_restrictions([3.9, 0.5], 2)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_as_diagram_rejects_non_finite_rows(self, bad):
        with pytest.raises(ValueError, match="must be integers"):
            as_diagram([bad])
        with pytest.raises(ValueError, match="must be integers"):
            as_diagram([3, bad])

    @pytest.mark.parametrize("bad", [None, 1j, 2 + 0j, object()])
    def test_as_diagram_rejects_rows_int_cannot_convert(self, bad):
        for rows in ([bad], [3, bad]):
            for call in (as_diagram, lambda r: as_chain([r])):
                with pytest.raises(ValueError, match="must be integers"):
                    call(rows)

    def test_as_diagram_accepts_integral_values(self):
        rows = as_diagram([np.int64(3), 2.0, Fraction(4, 2), np.int32(1), 0.0])
        assert rows == (3, 2, 2, 1)
        assert all(type(r) is int for r in rows)

    def test_row_padding(self):
        assert row((3, 1), 1) == 3
        assert row((3, 1), 2) == 1
        assert row((3, 1), 3) == 0


class TestAsChain:
    def test_known_chains(self):
        assert as_chain([(3,), (3, 3), (3, 3, 1), (4, 3, 1)]) == ((3,), (3, 3), (3, 3, 1), (4, 3, 1))
        assert as_chain([[2, 0], (3, 1, 0)]) == ((2,), (3, 1))
        assert as_chain([(), [0, 0], (2,)]) == ((), (), (2,))
        assert as_chain([]) == ()
        for k in range(8):
            assert as_chain([(k,)]) == ((k,) if k else (),)

    @pytest.mark.parametrize(
        "chain",
        [
            [(1, 1)],  # the first diagram has two rows
            [(4,), (3, 3)],  # mu_1 > lam_1
            [(2,), (2, 1), (2, 2, 2)],  # lam_3 > mu_2
            [(1,), (1, 1), (1, 1, 1), (2, 1)],  # mu has more rows than lam
            [(), (1, 1)],  # lam_2 > mu_1
        ],
    )
    def test_rejects_non_interlacing(self, chain):
        with pytest.raises(ValueError, match="not a valid interlacing chain"):
            as_chain(chain)

    def test_rejects_non_diagrams(self):
        with pytest.raises(ValueError, match="weakly decreasing"):
            as_chain([(1,), (1, 2)])

    @settings(max_examples=500, deadline=None)
    @given(chain_strategy())
    @example([(1,), (1, 1), (1, 1, 1), (2, 1)])
    @example([[2, 0], (3, 1, 0)])
    @example([(1, 1)])
    def test_matches_oracle(self, chain):
        try:
            diagrams = tuple(as_diagram(lam) for lam in chain)
        except ValueError:
            with pytest.raises(ValueError):
                as_chain(chain)
            return
        if is_valid_chain(diagrams):
            got = as_chain(chain)
            assert got == diagrams
            assert all(type(r) is int for lam in got for r in lam)
        else:
            with pytest.raises(ValueError, match="not a valid interlacing chain"):
                as_chain(chain)


class TestInterlacing:
    """Pins the pairwise oracle that as_chain and branching_restrictions are checked against."""

    def test_known_chain(self):
        assert interlaces((3, 3, 1), (4, 3, 1))
        assert interlaces((3, 1), (3, 3, 1))
        assert interlaces((2,), (3, 1))

    def test_empty_interlaces_single_row(self):
        for k in range(8):
            assert interlaces((), (k,))

    def test_row_too_long(self):
        assert not interlaces((4,), (3, 3))

    def test_too_many_rows(self):
        assert not interlaces((1, 1, 1), (2, 1))

    @given(diagram_strategy())
    def test_every_diagram_interlaces_itself(self, lam):
        assert interlaces(lam, lam)


class TestWeylDimension:
    """young._weyl_core on any diagram of at most d rows, and the argument checks of
    young.gamma_dims, the public route to the probe shapes' Weyl dimensions."""

    def test_defining_representation(self):
        for d in range(1, 8):
            assert weyl((1,), d) == d

    def test_single_row(self):
        assert weyl((4,), 2) == 5

    def test_adjoint_like(self):
        assert weyl((2, 1), 3) == 8

    def test_empty_diagram_is_trivial_rep(self):
        assert weyl((), 4) == 1

    @settings(max_examples=300, deadline=None)
    @given(shape_and_d())
    @example(((), 1))
    @example(((7,), 1))
    @example(((), 16))
    @example(((10**4,) * 16, 16))
    @example((reference_gamma_shape(10, 40, 0), 10))
    @example((reference_gamma_shape(10, 40, 17), 10))
    @example((reference_gamma_shape(10, 40, 40), 10))
    def test_matches_fraction_product(self, case):
        lam, d = case
        assert weyl(lam, d) == reference_weyl_dimension(lam, d)

    def test_rejects_nonpositive_d(self):
        for d in (0, -1):
            with pytest.raises(ValueError, match=rf"^d must be >= 2, got {d}$"):
                gamma_dims(d, 1)

    @pytest.mark.parametrize("d", [2.0, 2.5, "2", None])
    def test_rejects_non_integer_d(self, d):
        with pytest.raises(ValueError) as err:
            gamma_dims(d, 1)  # checked at the call, before any dimension is read
        assert str(err.value) == f"d must be an integer, got {d!r}"

    def test_accepts_numpy_integer_d(self):
        got = list(gamma_dims(np.int64(3), np.int64(2)))
        assert got == list(gamma_dims(3, 2)) == [(162, 195), (80, 99), (28, 36)]
        assert all(type(dim) is int for dims in got for dim in dims)

    def test_hook_content_oracle_matches_fraction_product(self):
        # The large-d oracle of gamma_dims against the small-d one, 0 on more than d rows too.
        for d in range(1, 6):
            for lam in (lam for n in range(9) for lam in partitions(n, 6)):
                want = reference_weyl_dimension(lam, d)
                assert reference_hook_content_dimension(lam, d) == want, (lam, d)

    def test_matches_ssyt_count(self):
        for d in (2, 3):
            for n in range(0, 7):
                for lam in partitions(n, d):
                    assert weyl(lam, d) == count_ssyt(lam, d), (lam, d)


class TestBranching:
    def test_column(self):
        assert branching_restrictions((1, 1), 2) == [(1,)]

    def test_row(self):
        assert branching_restrictions((2,), 2) == [(), (1,), (2,)]

    def test_rectangle_is_rigid(self):
        for d in (2, 3, 4):
            for L in (1, 2, 3):
                lam = (L,) * d
                assert branching_restrictions(lam, d) == [(L,) * (d - 1)]

    def test_d_one_has_no_restrictions(self):
        assert branching_restrictions((3,), 1) == []

    def test_rejects_more_rows_than_d(self):
        with pytest.raises(ValueError, match=r"^diagram \(1, 1, 1\) has more than d=2 rows$"):
            branching_restrictions((1, 1, 1), 2)

    def test_lexicographic_order(self):
        out = branching_restrictions((3, 2), 3)
        assert out == sorted(out)

    def test_members_interlace(self):
        for mu in branching_restrictions((4, 2, 1), 4):
            assert interlaces(mu, (4, 2, 1))
            assert len(mu) <= 3

    def test_members_are_canonical_and_complete(self):
        for d in range(2, 9):
            for boxes in range(0, 11):
                for lam in partitions(boxes, d):
                    got = branching_restrictions(lam, d)
                    assert got == [as_diagram(mu) for mu in got]
                    want = [
                        mu
                        for m in range(boxes + 1)
                        for mu in partitions(m, d - 1)
                        if interlaces(mu, lam)
                    ]
                    assert got == sorted(want), (lam, d)

    def test_dimension_sum_rule(self):
        for d in range(2, 7):
            for n in range(0, 11):
                for lam in partitions(n, d):
                    total = sum(weyl(mu, d - 1) for mu in branching_restrictions(lam, d))
                    assert total == weyl(lam, d), (lam, d)


class TestHookLengths:
    """young.gamma_hooks, the standard tableau counts of the probe shapes, against the
    per-box hook product of tests/oracles.py, and that oracle's own identities."""

    def test_single_row(self):
        # gamma_0 at d = 2 is the one row (4L), and gamma_0^+ the row (4L+1)
        for L in range(1, 9):
            assert next(gamma_hooks(2, L))[::2] == ((4 * L,), (1, 1))

    def test_known_values(self):
        assert list(gamma_hooks(2, 1)) == [((4,), (5, 6), (1, 1)), ((3, 1), (3, 4), (3, 4))]
        assert [hooks for _, _, hooks in gamma_hooks(3, 1)] == [(5, 6), (10, 15)]
        got = list(gamma_hooks(np.int64(3), np.int64(2)))
        assert got == list(gamma_hooks(3, 2))
        assert all(type(v) is int for member in got for part in member for v in part)

    @pytest.mark.parametrize("d,L", [(2**62, 1), (2, 2**61), (sys.maxsize, 1)])
    def test_box_count_beyond_the_factorial_limit_is_a_value_error(self, d, L, monkeypatch):
        # Checked before any shape, factorial or Weyl dimension is made: at d = 2^62 a shape
        # alone would hold 2^62 rows.
        for name in ("_gamma_i", "gamma_dims", "factorial"):
            monkeypatch.setattr(young, name, lambda *args: pytest.fail("made before the check"))
        hooks = gamma_hooks(d, L)  # a generator: nothing is checked or made until it is read
        with pytest.raises(ValueError, match=f"^{2 * d * L} boxes exceed the factorial limit, "
                           f"{sys.maxsize}$"):
            next(hooks)

    def test_equals_hook_product_on_the_probe_shapes(self):
        for i, (_, _, hooks) in enumerate(gamma_hooks(10, 40)):
            shapes = reference_gamma_shape(10, 40, i), reference_gamma_shape(10, 40, i, grown=1)
            assert list(hooks) == [reference_hook_length_dimension(lam) for lam in shapes], i

    @pytest.mark.parametrize("d,L,indices", [(2, 2000, (0, 1, 1000, 2000)), (10, 400, (0, 200, 400))])
    def test_stepped_counts_equal_hook_product_at_large_L(self, d, L, indices):
        # Past i = 0 each count steps from the one before, so a fault in a step would
        # carry to every later index; n = 8000 at both sizes.
        got = list(gamma_hooks(d, L))
        assert len(got) == L + 1
        for i in indices:
            shapes = reference_gamma_shape(d, L, i), reference_gamma_shape(d, L, i, grown=1)
            assert list(got[i][2]) == [reference_hook_length_dimension(lam) for lam in shapes], i

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 16), st.integers(1, 40))
    @example(16, 40)
    @example(200, 1)
    @example(1000, 1)
    @example(1000, 3)
    def test_every_hook_pair_equals_hook_product(self, d, L):
        got = list(gamma_hooks(d, L))
        assert [dims for _, dims, _ in got] == list(gamma_dims(d, L))
        for i, (_, _, hooks) in enumerate(got):
            shapes = reference_gamma_shape(d, L, i), reference_gamma_shape(d, L, i, grown=1)
            assert list(hooks) == [reference_hook_length_dimension(lam) for lam in shapes], i

    def test_every_yielded_shape_equals_the_formula(self):
        for d, L in [*product(range(2, 17), range(1, 41)), (1000, 1)]:
            shapes = [shape for shape, _, _ in gamma_hooks(d, L)]
            assert shapes == [reference_gamma_shape(d, L, i) for i in range(L + 1)], (d, L)

    def test_square_sum_is_factorial(self):
        for n in range(1, 9):
            total = sum(reference_hook_length_dimension(lam) ** 2 for lam in partitions(n, n))
            assert total == factorial(n)

    def test_schur_weyl_dimension_identity(self):
        for d in (2, 3):
            for n in range(1, 7):
                total = sum(
                    weyl(lam, d) * reference_hook_length_dimension(lam) for lam in partitions(n, d)
                )
                assert total == d**n


# The entry points that take the probe family's (d, L), each read to its first value.
FAMILY_ENTRIES = {
    "gamma_dims": lambda d, L: next(gamma_dims(d, L)),
    "gamma_hooks": lambda d, L: next(gamma_hooks(d, L)),
    "gamma_chain": gamma_chain,
    "CoeffTable.build": CoeffTable.build,
}


class TestGammaFamily:
    def test_params_validation(self):
        for entry in FAMILY_ENTRIES.values():
            with pytest.raises(ValueError, match=r"^d must be >= 2, got 1$"):
                entry(1, 1)
            with pytest.raises(ValueError, match=r"^L must be >= 1, got 0$"):
                entry(2, 0)

    @pytest.mark.parametrize(
        "args,field,value",
        [((2.5, 1), "d", 2.5), ((2, 1.5), "L", 1.5), ((2.0, 1), "d", 2.0),
         ((2, "1"), "L", "1"), ((None, 1), "d", None)],
    )
    def test_params_must_be_integers(self, args, field, value):
        for name, entry in FAMILY_ENTRIES.items():
            with pytest.raises(ValueError) as err:
                entry(*args)
            assert str(err.value) == f"{field} must be an integer, got {value!r}", name

    def test_params_reject_d_beyond_a_tuple_of_rows(self):
        # A shape holds d rows in a tuple; a larger d cannot even be repeated.
        assert young._require_family(sys.maxsize, 1) == (sys.maxsize, 1)
        for entry in FAMILY_ENTRIES.values():
            with pytest.raises(ValueError) as err:
                entry(10**20, 1)
            assert str(err.value) == f"d={10**20} exceeds the longest tuple of rows, {sys.maxsize}"

    def test_params_accept_numpy_integers(self):
        for name, entry in FAMILY_ENTRIES.items():
            assert entry(np.int64(3), np.int32(2)) == entry(3, 2), name
        assert gamma_chain(np.int64(3), np.int32(2)) == ((2,), (2, 2), (10, 2))
        assert all(type(r) is int for lam in gamma_chain(np.int64(3), np.int32(2)) for r in lam)

    def test_derived_quantities(self):
        # N = (d+1)L boxes hold the letter d, all of them in row 1 of gamma_0.
        assert CoeffTable.build(3, 2).N == 8
        assert gamma_chain(3, 2)[-1][0] - gamma_chain(3, 2)[-2][0] == 8

    def test_shapes(self):
        assert [shape for shape, _, _ in gamma_hooks(2, 1)] == [(4,), (3, 1)]
        assert [shape for shape, _, _ in gamma_hooks(3, 1)] == [(5, 1), (4, 1, 1)]
        assert reference_gamma_shape(2, 1, 0, grown=1) == (5,)
        assert reference_gamma_shape(2, 1, 1, grown=1) == (4, 1)
        assert reference_gamma_shape(3, 1, 0, grown=1) == (6, 1)

    def test_shapes_are_canonical(self):
        for d, L in product(range(2, 9), range(1, 21)):
            for i, (shape, _, _) in enumerate(gamma_hooks(d, L)):
                old = as_diagram([(d + 1) * L + L - i] + [L] * (d - 2) + [i])
                assert shape == reference_gamma_shape(d, L, i) == old
                assert reference_gamma_shape(d, L, i, grown=1) == (old[0] + 1,) + old[1:]

    def test_box_counts(self):
        for d, L in product(range(2, 7), range(1, 11)):
            for i, (shape, _, _) in enumerate(gamma_hooks(d, L)):
                assert sum(shape) == 2 * d * L
                assert sum(reference_gamma_shape(d, L, i, grown=1)) == 2 * d * L + 1

    def test_two_routes_to_next_grown_shape(self):
        # Adding the deep-row box to gamma_i gives the same diagram as
        # growing the (i+1)-th member in row 1.
        for d, L in product(range(2, 7), range(1, 8)):
            for i, (shape, _, _) in enumerate(gamma_hooks(d, L)):
                if i < L:
                    grown = list(shape) + [0] * (d - len(shape))
                    grown[d - 1] += 1
                    assert as_diagram(grown) == reference_gamma_shape(d, L, i + 1, grown=1)

    def test_chain_examples(self):
        assert gamma_chain(2, 1) == reference_gamma_chain(2, 1, 0) == ((1,), (4,))
        assert reference_gamma_chain(2, 1, 1) == ((1,), (3, 1))

    def test_chain_is_valid_and_top_boxes_split(self):
        for d, L in product(range(2, 6), range(1, 6)):
            assert gamma_chain(d, L) == reference_gamma_chain(d, L, 0)
            for i in range(L + 1):
                chain = reference_gamma_chain(d, L, i)
                assert as_chain(chain) == chain
                top, below = chain[-1], chain[-2]
                assert row(top, 1) - row(below, 1) == (d + 1) * L - i
                assert row(top, d) - row(below, d) == i

    def test_content(self):
        assert reference_gamma_content(2, 1) == (1, 3)
        assert reference_gamma_content(3, 2) == (2, 2, 8)
        for d, L in product(range(2, 6), range(1, 6)):
            assert sum(reference_gamma_content(d, L)) == 2 * d * L
            assert sum(gamma_chain(d, L)[-1]) == 2 * d * L


class TestPartitions:
    def test_counts(self):
        known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, expect in enumerate(known):
            assert len(partitions(n, n)) == expect

    def test_max_rows_filter(self):
        assert set(partitions(4, 2)) == {(4,), (3, 1), (2, 2)}

    @given(st.integers(0, 12))
    @settings(max_examples=20)
    def test_all_sum_to_n(self, n):
        for lam in partitions(n, n):
            assert sum(lam) == n
            assert as_diagram(lam) == lam
