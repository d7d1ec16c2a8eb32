#!/usr/bin/env python
"""A tour of P2B's privacy accounting (paper §2, §4).

Walks through every quantity in the paper's analysis with live numbers:
context-space cardinality (Eq. 1), the eps(p) curve (Eq. 3), the delta
bound (Eq. 2), crowd-blending audits of an actual shuffler batch,
composition for multi-report users, and a comparison against RAPPOR's
LDP budget.

Run:  python examples/privacy_budget_tour.py
"""

from __future__ import annotations

import numpy as np

from repro import Shuffler
from repro.privacy import (
    PrivacyReport,
    advanced_composition,
    basic_composition,
    context_cardinality,
    delta_bound,
    epsilon_from_p,
    p_from_epsilon,
    rappor_permanent_epsilon,
    required_l_for_delta,
    verify_crowd_blending,
)
from repro.utils.tables import format_kv, format_series


def main() -> None:
    print("=== Eq. 1: how many distinct quantized contexts exist? ===")
    for d in (3, 5, 10, 20):
        print(f"  d={d:>2}, q=1  ->  n = {context_cardinality(1, d):,}")
    print()

    print("=== Eq. 3: the privacy lever eps(p)  (Figure 3) ===")
    ps = [0.1, 0.25, 0.5, 0.75, 0.9]
    print(format_series(ps, {"epsilon": [epsilon_from_p(p) for p in ps]}, x_name="p"))
    print(f"  inverse: a budget of eps=1.0 allows p = {p_from_epsilon(1.0):.3f}")
    print()

    print("=== Eq. 2: delta shrinks exponentially in the crowd size l ===")
    print(format_series(
        [5, 10, 20, 40],
        {"delta(p=0.5)": [delta_bound(l, 0.5) for l in (5, 10, 20, 40)]},
        x_name="l",
    ))
    print(f"  for delta <= 1e-6 at p=0.5 you need l >= {required_l_for_delta(1e-6, 0.5)}")
    print()

    print("=== the shuffler enforces crowd-blending operationally ===")
    rng = np.random.default_rng(0)
    # 200 reports as (code, action, reward) columns: the shuffler sees
    # no sender, so there is no metadata to strip
    codes = rng.integers(0, 6, size=200)
    actions = np.zeros(200, dtype=np.intp)
    rewards = np.ones(200)
    shuffler = Shuffler(threshold=25, seed=0)
    released_codes, _, _, stats = shuffler.process_arrays(codes, actions, rewards)
    print(f"  received {stats.n_received}, released {stats.n_released} "
          f"(dropped {stats.n_dropped} below l={shuffler.threshold})")
    audit = verify_crowd_blending(released_codes, 25)
    print(f"  audit: satisfied={audit.satisfied}, smallest crowd={audit.smallest}")
    print()

    print("=== composition: users sending r tuples (paper §6) ===")
    eps = epsilon_from_p(0.5)
    for r in (1, 5, 25):
        basic_eps, _ = basic_composition(eps, r)
        adv_eps, _ = advanced_composition(eps, r, delta_prime=1e-6)
        print(f"  r={r:>2}: basic eps={basic_eps:6.3f}   advanced eps={adv_eps:6.3f}")
    print()

    print("=== the full deployment report ===")
    report = PrivacyReport(p=0.5, l=10, tuples_per_user=1)
    print(format_kv(report.as_dict(), title="  PrivacyReport(p=0.5, l=10)"))
    print()

    print("=== versus RAPPOR's local-DP budget (paper §2.3) ===")
    for f in (0.25, 0.5, 0.75):
        print(f"  RAPPOR f={f}: permanent eps = {rappor_permanent_epsilon(f):.3f}")
    print(f"  P2B at p=0.5:            eps = {eps:.3f}")


if __name__ == "__main__":
    main()
