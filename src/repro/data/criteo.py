"""Criteo-like online-advertising stream (paper §5.3).

The paper uses the Criteo Kaggle CTR dataset: 7 days of traffic, 13
numerical + 26 categorical (hashed) features, binary click labels.  The
data is not available offline, so :func:`make_criteo_like` synthesizes
a stream with the properties the experiment exercises, and — critically
— the synthetic stream is pushed through the **paper's exact label
pipeline** (:func:`build_criteo_actions`):

1. hash the 26 categorical values of each record into one integer
   (feature hashing, Weinberger et al. 2009 — our
   :func:`repro.hashing.hash_row_to_code`);
2. keep the 40 most frequent hash codes;
3. relabel them 0..39 by frequency rank (paper: "label 1 shows the most
   frequent code");
4. drop records outside the top 40.

Generator realism knobs (matching public Criteo statistics):

* numerical features are heavy-tailed (log-normal), as Criteo's counts
  are — and depend on a latent *user segment*;
* categorical columns have power-law vocabularies (a few head values,
  long tail), which makes the "top-40 hash codes" selection meaningful;
* clicks are rare (base CTR ≈ 3%) and depend on segment × ad-category
  affinity, so there is signal for a contextual policy to find.

Bandit protocol (paper §5.3): the agent sees the numerical context
(first ``d=10`` features, simplex-normalized) and proposes one of the
40 product categories; reward 1 iff the proposed category matches the
logged one *and* the logged impression was clicked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..hashing.feature_hashing import hash_row_to_code
from ..utils.exceptions import DataError
from ..utils.math import normalize_simplex
from ..utils.rng import ensure_rng
from ..utils.validation import check_in_range, check_positive_int, check_scalar
from .environment import Environment, ReplayUserSession, TraceRowTable

__all__ = [
    "CriteoLikeRecords",
    "make_criteo_like",
    "build_criteo_actions",
    "CriteoBanditDataset",
    "CriteoBanditEnvironment",
    "CriteoUserSession",
]

N_NUMERICAL = 13
N_CATEGORICAL = 26


@dataclass(frozen=True)
class CriteoLikeRecords:
    """Raw synthetic ad records, pre-pipeline.

    Attributes
    ----------
    numerical:
        ``(n, 13)`` heavy-tailed numerical features.
    categorical:
        ``(n, 26)`` string-valued categorical features (hashed-token
        style values, e.g. ``"c03_0007"``).
    clicked:
        ``(n,)`` boolean click labels.
    """

    numerical: np.ndarray
    categorical: np.ndarray
    clicked: np.ndarray

    def __post_init__(self) -> None:
        n = self.numerical.shape[0]
        if self.numerical.shape != (n, N_NUMERICAL):
            raise DataError(f"numerical must be (n, {N_NUMERICAL})")
        if self.categorical.shape != (n, N_CATEGORICAL):
            raise DataError(f"categorical must be (n, {N_CATEGORICAL})")
        if self.clicked.shape != (n,) or self.clicked.dtype != bool:
            raise DataError("clicked must be boolean of shape (n,)")

    @property
    def n_records(self) -> int:
        return self.numerical.shape[0]

    @property
    def ctr(self) -> float:
        return float(self.clicked.mean())


def make_criteo_like(
    n_records: int = 40_000,
    *,
    n_segments: int = 12,
    n_ad_categories: int = 60,
    base_ctr: float = 0.25,
    affinity_strength: float = 2.0,
    feature_noise: float = 0.3,
    vocab_sizes: tuple[int, ...] | None = None,
    seed=None,
) -> CriteoLikeRecords:
    """Generate the synthetic ad stream.

    Parameters
    ----------
    n_records:
        Stream length.
    n_segments:
        Latent user segments driving numerical features and click taste.
    n_ad_categories:
        Latent ad categories driving the categorical columns (more than
        40, so the top-40 filter actually filters).
    base_ctr:
        Baseline click probability.  The default 0.25 matches the
        *Kaggle* Criteo CTR dataset the paper uses, whose negatives are
        downsampled to a ~26% positive rate (organic display CTR would
        be <1%, leaving replay rewards too sparse for any policy —
        including the paper's — to learn from 300 interactions).
    affinity_strength:
        Log-odds boost when an ad category matches the segment's taste.
    feature_noise:
        Within-segment log-normal sigma of the numerical features.  The
        default keeps segments tight, mirroring how real quantized
        Criteo contexts collapse onto few recurring grid points (count
        features are extremely skewed); recurring codes are what lets
        the paper's private agents exploit locally (§5.3).
    vocab_sizes:
        Per-column categorical vocabulary sizes; defaults to a mix of
        small (10) and large (1000) vocabularies like Criteo's columns.
    """
    check_positive_int(n_records, name="n_records")
    check_positive_int(n_segments, name="n_segments")
    check_positive_int(n_ad_categories, name="n_ad_categories", minimum=41)
    check_scalar(base_ctr, name="base_ctr", minimum=0.0, maximum=1.0)
    rng = ensure_rng(seed)
    if vocab_sizes is None:
        vocab_sizes = tuple(
            10 if i % 3 == 0 else (100 if i % 3 == 1 else 1000) for i in range(N_CATEGORICAL)
        )
    if len(vocab_sizes) != N_CATEGORICAL:
        raise DataError(f"vocab_sizes must have {N_CATEGORICAL} entries")

    segments = rng.integers(0, n_segments, size=n_records)
    # Ad categories are zipf so a head of categories dominates traffic;
    # exponent 1.5 gives the strong skew real ad streams show (the top
    # label carries a double-digit share after the paper's top-40
    # filter, making "predict the popular label" a meaningful baseline
    # that both warm settings discover quickly).
    cat_weights = 1.0 / np.arange(1, n_ad_categories + 1) ** 1.5
    cat_weights /= cat_weights.sum()
    ad_categories = rng.choice(n_ad_categories, size=n_records, p=cat_weights)

    # Numerical features: log-normal around a segment-specific location
    # plus an ad-category-specific shift.  Real Criteo numericals are
    # impression/click counters that reflect both the user and the ad
    # being served, so the context carries signal about the logged
    # action — the property §5.3's replay evaluation rewards.
    check_scalar(feature_noise, name="feature_noise", minimum=0.0)
    seg_locs = rng.normal(0.0, 1.0, size=(n_segments, N_NUMERICAL))
    ad_locs = rng.normal(0.0, 0.8, size=(n_ad_categories, N_NUMERICAL))
    numerical = rng.lognormal(
        mean=seg_locs[segments] + ad_locs[ad_categories],
        sigma=feature_noise,
        size=(n_records, N_NUMERICAL),
    )

    # Categorical columns: mostly deterministic views of the ad category
    # (aliased through differing vocabulary moduli, like correlated
    # campaign/advertiser/product columns in real CTR logs) plus two
    # low-cardinality noisy columns.  Keeping the *joint* signature
    # entropy low is essential at simulation scale: the paper's top-40
    # hash-code filter only retains data when popular signatures repeat
    # (Criteo has 45M rows; we have tens of thousands).
    noise_columns = (5, 17)
    categorical = np.empty((n_records, N_CATEGORICAL), dtype=object)
    for col, vocab in enumerate(vocab_sizes):
        if col in noise_columns:
            noise_vocab = 5
            zipf_w = 1.0 / np.arange(1, noise_vocab + 1) ** 1.2
            zipf_w /= zipf_w.sum()
            values = rng.choice(noise_vocab, size=n_records, p=zipf_w)
        else:
            # distinct salts per column so columns are not identical
            values = (ad_categories * (col + 3) + col) % vocab
        categorical[:, col] = np.array([f"c{col:02d}_{v:04d}" for v in values], dtype=object)

    # click model: base rate + segment-category affinity
    taste = rng.integers(0, n_ad_categories, size=n_segments)  # favourite category
    logits = np.log(base_ctr / (1 - base_ctr)) + affinity_strength * (
        ad_categories == taste[segments]
    ).astype(np.float64)
    # mild numerical effect so the context carries click signal too
    logits += 0.2 * (np.log1p(numerical[:, 0]) - np.log1p(numerical[:, 0]).mean())
    probs = 1.0 / (1.0 + np.exp(-logits))
    clicked = rng.random(n_records) < probs
    return CriteoLikeRecords(numerical=numerical, categorical=categorical, clicked=clicked)


@dataclass(frozen=True)
class CriteoBanditDataset:
    """Post-pipeline bandit view of the ad stream.

    Attributes
    ----------
    X:
        ``(n, d)`` simplex-normalized numerical contexts.
    actions:
        ``(n,)`` logged product-category labels in ``0..39`` (frequency
        ranked: 0 = most frequent hash code).
    clicked:
        ``(n,)`` click indicators.
    """

    X: np.ndarray
    actions: np.ndarray
    clicked: np.ndarray
    n_actions: int = 40

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if self.actions.shape != (n,) or self.clicked.shape != (n,):
            raise DataError("actions/clicked must align with X")
        if self.actions.size and (self.actions.min() < 0 or self.actions.max() >= self.n_actions):
            raise DataError(f"actions must lie in [0, {self.n_actions})")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def logged_ctr(self) -> float:
        """CTR of the logged policy on the filtered stream."""
        return float(self.clicked.mean())


def build_criteo_actions(
    records: CriteoLikeRecords,
    *,
    n_actions: int = 40,
    d: int = 10,
    hash_buckets: int = 2**20,
    hash_seed: int = 0,
) -> CriteoBanditDataset:
    """The paper's §5.3 pipeline: hash 26 categoricals → top-``n_actions``
    labels → filter; contexts are the first ``d`` numerical features,
    simplex-normalized after a log transform (heavy tails ⇒ log first).
    """
    check_positive_int(n_actions, name="n_actions")
    check_in_range(d, name="d", low=2, high=N_NUMERICAL + 1)
    codes = np.array(
        [
            hash_row_to_code(list(row), n_buckets=hash_buckets, seed=hash_seed)
            for row in records.categorical
        ],
        dtype=np.int64,
    )
    counts = Counter(codes.tolist())
    top = [code for code, _ in counts.most_common(n_actions)]
    if len(top) < n_actions:
        raise DataError(
            f"stream only produced {len(top)} distinct hash codes; need {n_actions}"
        )
    code_to_label = {code: rank for rank, code in enumerate(top)}
    keep = np.array([c in code_to_label for c in codes])
    labels = np.array([code_to_label[c] for c in codes[keep]], dtype=np.intp)
    X = np.log1p(records.numerical[keep][:, :d])
    X = normalize_simplex(X, axis=1)
    return CriteoBanditDataset(
        X=X, actions=labels, clicked=records.clicked[keep], n_actions=n_actions
    )


class CriteoUserSession(ReplayUserSession):
    """One user's pass over its assigned impressions.

    Reward (paper §5.3): 1 iff the proposed action equals the logged
    action *and* the logged impression was clicked — the standard
    replay-style offline bandit evaluation.  Replay rewards are
    deterministic row lookups, so the session is traceable for the
    fleet engine (``has_trace_plan`` via :class:`ReplayUserSession`):
    row ``i``'s reward table is the one-hot of the logged action,
    zeroed when the impression was not clicked.  The fleet engine
    gathers the one-hot expansion through a shared per-dataset row
    table — materialized once per dataset (a boolean ``(n, A)`` view of
    ``actions``/``clicked``) instead of once per agent per step.
    """

    def __init__(
        self, dataset: CriteoBanditDataset, indices: np.ndarray, rng: np.random.Generator
    ) -> None:
        self._dataset = dataset
        super().__init__(indices, rng, noun="impression")

    def _context_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._dataset.X[rows]

    def _reward_rows(self, rows: np.ndarray) -> np.ndarray:
        d = self._dataset
        one_hot = d.actions[rows, None] == np.arange(d.n_actions)[None, :]
        return one_hot & d.clicked[rows, None]

    def _row_table_owner(self):
        return self._dataset

    def _build_row_table(self) -> TraceRowTable:
        # the same expression as _reward_rows, evaluated once over the
        # whole stream (bit-identical per row by construction); expected
        # rewards coincide with realized ones for logged data
        d = self._dataset
        one_hot = d.actions[:, None] == np.arange(d.n_actions)[None, :]
        rewards = one_hot & d.clicked[:, None]
        return TraceRowTable(contexts=d.X, action_rewards=rewards, expected=rewards)

    def reward(self, action: int) -> float:
        self._require_context(self._current)
        action = check_in_range(action, name="action", low=0, high=self._dataset.n_actions)
        i = self._current
        return float(
            (action == int(self._dataset.actions[i])) and bool(self._dataset.clicked[i])
        )

    def expected_rewards(self) -> np.ndarray:
        self._require_context(self._current)
        out = np.zeros(self._dataset.n_actions)
        i = self._current
        if bool(self._dataset.clicked[i]):
            out[int(self._dataset.actions[i])] = 1.0
        return out


class CriteoBanditEnvironment(Environment):
    """Population view over the filtered ad stream (paper: 3000 agents
    with 300 interactions each)."""

    def __init__(
        self,
        dataset: CriteoBanditDataset,
        *,
        impressions_per_user: int = 300,
        seed=None,
    ) -> None:
        super().__init__(dataset.n_actions, dataset.n_features)
        self.dataset = dataset
        self.impressions_per_user = check_positive_int(
            impressions_per_user, name="impressions_per_user"
        )
        if self.impressions_per_user > dataset.n_samples:
            raise DataError(
                f"impressions_per_user={impressions_per_user} exceeds the stream "
                f"size {dataset.n_samples}"
            )
        self._assign_rng = ensure_rng(seed)

    def new_user(self, seed=None) -> CriteoUserSession:
        rng = ensure_rng(seed)
        indices = self._assign_rng.choice(
            self.dataset.n_samples, size=self.impressions_per_user, replace=False
        )
        return CriteoUserSession(self.dataset, indices, rng)
