"""The protocol's size rule (d >= 2, L >= 1, n a positive multiple of 2d) at every
entry point that takes sizes: non-integer sizes raise ValueError naming the field
before any work, and numpy integer sizes give exactly the plain-int result."""

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtprobe.coeffs import CoeffTable
from gtprobe.fidelity import (
    bound_ratio,
    closed_form_infidelity,
    fidelity_report,
    infidelity_sum_form,
    plan_queries,
    protocol_probe,
    query_count_params,
)
from gtprobe.simulator import CapacityError, extract_gt_vectors, mc_estimates, verify_cg_embedding
from gtprobe.young import gamma_chain, gamma_dims, gamma_hooks

# (entry point, its size fields, a call from valid (d, L) sizes keyed by field)
ENTRY_POINTS = [
    (query_count_params, ("d", "n"), lambda s: query_count_params(s["d"], s["n"])),
    (bound_ratio, ("d", "n"), lambda s: bound_ratio(s["d"], s["n"])),
    (fidelity_report, ("d", "n"), lambda s: fidelity_report(s["d"], s["n"])),
    (closed_form_infidelity, ("d", "L"), lambda s: closed_form_infidelity(s["d"], s["L"])),
    (infidelity_sum_form, ("d", "L"), lambda s: infidelity_sum_form(s["d"], s["L"])),
    (protocol_probe, ("d", "L"), lambda s: protocol_probe(s["d"], s["L"])),
    (plan_queries, ("d",), lambda s: plan_queries(s["d"], 0.1)),
    (CoeffTable.build, ("d", "L"), lambda s: CoeffTable.build(s["d"], s["L"])),
    (gamma_chain, ("d", "L"), lambda s: gamma_chain(s["d"], s["L"])),
    (gamma_dims, ("d", "L"), lambda s: list(gamma_dims(s["d"], s["L"]))),
    (gamma_hooks, ("d", "L"), lambda s: list(gamma_hooks(s["d"], s["L"]))),
    (extract_gt_vectors, ("d", "n"), lambda s: extract_gt_vectors(s["d"], s["n"])),
    (verify_cg_embedding, ("d", "n"), lambda s: verify_cg_embedding(s["d"], s["n"])),
    (mc_estimates, ("d", "n"), lambda s: mc_estimates(s["d"], s["n"], 100, 0)),
]
ENTRY_IDS = [entry.__name__ for entry, _, _ in ENTRY_POINTS]

non_integers = st.one_of(
    st.integers(-3, 40).map(float),  # integral floats such as 4.0
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.none(),
    st.floats(-1e6, 1e6).map(np.float64),
)


def _sizes(d: int, L: int, cast=int) -> dict:
    return {"d": cast(d), "L": cast(L), "n": cast(2 * d * L)}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(ENTRY_POINTS), data=st.data(), value=non_integers)
def test_non_integer_sizes_raise_value_error_naming_the_field(case, data, value):
    _, fields, call = case
    field = data.draw(st.sampled_from(fields))
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        call({**_sizes(2, 1), field: value})


def _same(a, b) -> bool:
    """Equal values of the same types, field by field and entry by entry."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _outcome(call, sizes):
    try:
        return call(sizes)
    except CapacityError as exc:  # the simulator's cap, checked before any work
        return type(exc), str(exc)


@pytest.mark.parametrize("d,L", product(range(2, 5), range(1, 3)))
@pytest.mark.parametrize("call", [call for _, _, call in ENTRY_POINTS], ids=ENTRY_IDS)
def test_numpy_integer_sizes_give_the_plain_int_result(call, d, L):
    plain = _outcome(call, _sizes(d, L))
    for cast in (np.int64, np.int32, np.uint16):
        assert _same(_outcome(call, _sizes(d, L, cast)), plain), cast
