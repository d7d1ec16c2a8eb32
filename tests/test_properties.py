"""Cross-module property-based tests (hypothesis).

These pin the invariants that the paper's analysis rests on, over
randomized inputs rather than fixed examples:

* serialization: arbitrary policy states survive the JSON wire format;
* quantization: every input lands exactly on the stars-and-bars grid,
  so Eq. 1's cardinality really covers the encoder's input space;
* encoders: determinism (the eps_bar = 0 premise) and code-range
  validity for arbitrary contexts;
* participation + shuffler composed: the released batch never violates
  crowd-blending and never exceeds the population's report budget.

A failing example must be reported, not crash pytest, under the repo's
config.  The fleet engine's fuzz lives with its harness
(``tests/sim/test_harness.py``).
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import RandomizedParticipation, Shuffler
from repro.encoding import GridEncoder, KMeansEncoder, LSHEncoder, quantize_simplex
from repro.privacy import composition_rank, context_cardinality, verify_crowd_blending
from repro.utils.serialization import state_from_json, state_to_json, states_equal



# --------------------------------------------------------------------- #
# a failing example is reported, not an internal error
# --------------------------------------------------------------------- #
def test_failing_example_is_reported_under_the_repo_config(tmp_path):
    """Explaining a failing example imports modules that warn on import;
    under the config's warnings-as-errors that must not crash pytest
    (exit 3, the failure unreported, later tests never run)."""
    (tmp_path / "test_fails.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @given(st.integers(0, 10))
            @settings(max_examples=5, database=None)
            def test_fails(x):
                assert x < 0

            def test_passes():
                pass
            """
        )
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


# --------------------------------------------------------------------- #
# serialization fuzz
# --------------------------------------------------------------------- #
_scalars = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=20),
    st.none(),
)
_float_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(max_dims=3, max_side=5),
    elements=st.floats(-1e6, 1e6),
)
_int_arrays = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(max_dims=2, max_side=5),
    elements=st.integers(-(2**31), 2**31),
)
_arrays = st.one_of(_float_arrays, _int_arrays)
_state_values = st.one_of(_scalars, _arrays, st.lists(_scalars, max_size=5))


@given(st.dictionaries(st.text(min_size=1, max_size=10), _state_values, max_size=8))
@settings(max_examples=80, deadline=None)
def test_property_json_state_round_trip(state):
    restored = state_from_json(state_to_json(state))
    assert states_equal(state, restored)


# --------------------------------------------------------------------- #
# quantization closes over the Eq. 1 grid
# --------------------------------------------------------------------- #
@given(
    hnp.arrays(np.float64, st.integers(2, 8), elements=st.floats(0.0, 100.0)),
    st.integers(1, 2),
)
@settings(max_examples=100)
def test_property_quantized_context_has_valid_grid_rank(x, q):
    """Every quantized context ranks to a code within Eq. 1's cardinality."""
    if x.sum() == 0:
        x = x + 1.0
    d = x.shape[0]
    grid_point = quantize_simplex(x, q)
    counts = np.round(grid_point * 10**q).astype(np.int64)
    rank = composition_rank(counts, 10**q)
    assert 0 <= rank < context_cardinality(q, d)


# --------------------------------------------------------------------- #
# encoder determinism + code ranges over arbitrary contexts
# --------------------------------------------------------------------- #
@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_property_all_encoders_deterministic(seed):
    rng = np.random.default_rng(seed)
    X = rng.dirichlet(np.ones(4), size=30)
    encoders = [
        KMeansEncoder(n_codes=6, n_features=4, n_fit_samples=300, seed=0).fit(),
        LSHEncoder(n_bits=3, n_features=4, seed=0).fit(),
        GridEncoder(n_features=4, q=1),
    ]
    for enc in encoders:
        codes_a = enc.encode_batch(X)
        codes_b = enc.encode_batch(X)
        np.testing.assert_array_equal(codes_a, codes_b)
        assert codes_a.min() >= 0 and codes_a.max() < enc.n_codes


# --------------------------------------------------------------------- #
# participation + shuffler composed: the mechanism-level invariants
# --------------------------------------------------------------------- #
@given(
    st.floats(0.0, 1.0),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_property_pipeline_release_invariants(p, window, threshold, seed):
    rng = np.random.default_rng(seed)
    n_users = 60
    codes = []
    for u in range(n_users):
        part = RandomizedParticipation(p=p, window=window, max_reports=1, seed=seed + u)
        code = int(rng.integers(0, 5))
        for t in range(12):
            if part.offer((code, 0, 1.0)) is not None:
                codes.append(code)
    # budget: at most one report per user
    assert len(codes) <= n_users
    r_codes, r_actions, r_rewards, stats = Shuffler(threshold, seed=seed).process_arrays(
        np.array(codes, dtype=np.intp), np.zeros(len(codes), dtype=np.intp), np.ones(len(codes))
    )
    # crowd-blending holds on whatever was released
    audit = verify_crowd_blending(r_codes, threshold)
    assert audit.satisfied
    # release is a sub-multiset of the reports
    assert stats.n_released <= stats.n_received
    released = Counter(r_codes.tolist())
    assert all(released[c] <= codes.count(c) for c in released)


@given(st.floats(0.05, 0.95), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_property_report_rate_concentrates_around_p(p, seed):
    """Over many users the empirical participation rate concentrates
    near p — the quantity eps is computed from."""
    n_users = 400
    sent = 0
    for u in range(n_users):
        part = RandomizedParticipation(p=p, window=3, max_reports=1, seed=seed + u)
        for t in range(3):
            if part.offer((t, 0, 0.0)) is not None:
                sent += 1
    rate = sent / n_users
    # 4-sigma band for a binomial(n_users, p)
    sigma = (p * (1 - p) / n_users) ** 0.5
    assert abs(rate - p) < 4 * sigma + 0.01
