"""Property tests: exact identities checked on generated inputs, no Monte Carlo."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orderpv.bcmc import BinaryMatrix, ChainConfig, _advance, serial_pvalue
from orderpv.correction import envelope, solve_combiner, tail_ratio

# Each example of the correction properties may solve a fresh (n, k).
SOLVE_SETTINGS = settings(max_examples=40, deadline=None)
CHAIN_SETTINGS = settings(max_examples=60, deadline=None)
# About 1 s: each example solves a fresh (n, k) with n up to 10^4.
LARGE_N_SETTINGS = settings(max_examples=300, deadline=None)

unit = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def n_and_k(draw, max_n):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return n, draw(st.integers(min_value=1, max_value=n))


binary_matrices = st.tuples(
    st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8)
).flatmap(lambda shape: arrays(np.int8, shape, elements=st.integers(0, 1)))


@SOLVE_SETTINGS
@given(n_and_k(1000), unit)
def test_apply_inverts_invert(nk, alpha):
    spec = solve_combiner(*nk)
    assert abs(spec.apply(spec.invert(alpha)) - alpha) <= 1e-12


@SOLVE_SETTINGS
@given(n_and_k(1000), unit, unit)
def test_apply_is_monotone(nk, u1, u2):
    spec = solve_combiner(*nk)
    lo, hi = min(u1, u2), max(u1, u2)
    assert spec.apply(lo) <= spec.apply(hi)


@SOLVE_SETTINGS
@given(n_and_k(10_000), unit)
def test_envelope_sandwich(nk, u):
    spec = solve_combiner(*nk)
    lower, upper = envelope(*nk, u)
    value = spec.apply(u)
    assert lower * (1.0 - 1e-12) <= value <= upper * (1.0 + 1e-12)


@LARGE_N_SETTINGS
@given(n_and_k(10_000), unit, st.floats(min_value=-1e-3, max_value=1e-3))
def test_slope_is_maximum_of_tail_ratio(nk, p, offset):
    # beyond the reach of the exact knee oracle: no p, anywhere or right
    # beside the knee, beats the solved knee
    spec = solve_combiner(*nk)
    near = min(1.0, max(0.0, spec.knee + offset))
    assert np.max(tail_ratio(*nk, [p, near])) <= spec.slope * (1.0 + 1e-12)


@CHAIN_SETTINGS
@given(binary_matrices, st.integers(min_value=0, max_value=300), seeds)
def test_advance_preserves_margins(entries, steps, seed):
    work = entries.copy()
    _advance(work, steps, np.random.default_rng(seed))
    assert np.isin(work, (0, 1)).all()
    assert work.sum(axis=1).tolist() == entries.sum(axis=1).tolist()
    assert work.sum(axis=0).tolist() == entries.sum(axis=0).tolist()


@CHAIN_SETTINGS
@given(binary_matrices, st.integers(min_value=1, max_value=200), seeds)
def test_serial_pvalue_on_lattice(entries, length, seed):
    p = serial_pvalue(BinaryMatrix(entries), ChainConfig(length=length, seed=seed))
    assert 0.0 < p <= 1.0
    assert p == round(p * length) / length


@CHAIN_SETTINGS
@given(binary_matrices, st.integers(min_value=1, max_value=200), seeds)
def test_serial_pvalue_same_for_plain_array(entries, length, seed):
    cfg = ChainConfig(length=length, seed=seed)
    expected = serial_pvalue(BinaryMatrix(entries), cfg)
    assert serial_pvalue(entries, cfg) == expected
    assert serial_pvalue(entries.astype(int).tolist(), cfg) == expected
