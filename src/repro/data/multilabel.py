"""Multi-label classification with bandit feedback (paper §5.2).

The paper evaluates on MediaMill (video concepts) and TextMining
(tmc2007 aviation reports).  Neither dataset is downloadable in this
offline environment, so :func:`make_mediamill_like` and
:func:`make_textmining_like` generate synthetic corpora preserving the
properties the experiment actually exercises (see DESIGN.md §2):

* contexts exhibit **cluster structure** (topic/scene mixtures) so the
  k-means codebook is informative;
* labels are **correlated with clusters** with per-sample label
  cardinality matching the originals (~4.4 for MediaMill, ~2.2 for
  TextMining), so a linear policy can learn and multi-label "accuracy
  = did the policy pick one of this sample's labels" is well-defined;
* evaluated dimensions follow the paper's Fig. 6 settings
  (MediaMill d=20 / A=40, TextMining d=20 / A=20).

The bandit protocol (:class:`MultilabelBanditEnvironment`): the agent
proposes a label for the sample's context and receives reward 1 iff
the proposed label is among the sample's true labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import DataError
from ..utils.math import normalize_simplex
from ..utils.rng import ensure_rng
from ..utils.validation import check_in_range, check_positive_int, check_scalar
from .environment import Environment, ReplayUserSession, TraceRowTable

__all__ = [
    "MultilabelDataset",
    "make_multilabel_dataset",
    "make_mediamill_like",
    "make_textmining_like",
    "MultilabelBanditEnvironment",
    "MultilabelUserSession",
]


@dataclass(frozen=True)
class MultilabelDataset:
    """Feature matrix + boolean label matrix.

    Attributes
    ----------
    X:
        ``(n_samples, n_features)`` contexts, rows on the simplex.
    Y:
        ``(n_samples, n_labels)`` boolean label indicators; every row
        has at least one positive label.
    name:
        Human-readable tag used in experiment reports.
    """

    X: np.ndarray
    Y: np.ndarray
    name: str = "multilabel"

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise DataError("X and Y must be 2-D")
        if self.X.shape[0] != self.Y.shape[0]:
            raise DataError(
                f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}"
            )
        if self.Y.dtype != bool:
            raise DataError("Y must be boolean")
        if not self.Y.any(axis=1).all():
            raise DataError("every sample must have at least one label")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_labels(self) -> int:
        return self.Y.shape[1]

    @property
    def label_cardinality(self) -> float:
        """Mean number of labels per sample (MediaMill ≈ 4.4, tmc ≈ 2.2)."""
        return float(self.Y.sum(axis=1).mean())


def make_multilabel_dataset(
    n_samples: int,
    n_features: int,
    n_labels: int,
    *,
    n_clusters: int = 20,
    label_cardinality: float = 3.0,
    cluster_spread: float = 0.08,
    label_noise: float = 0.1,
    sparsity: float = 0.0,
    name: str = "multilabel",
    seed=None,
) -> MultilabelDataset:
    """Generate a clustered multi-label corpus.

    Mechanism: ``n_clusters`` topic centres are drawn on the simplex;
    each sample is its cluster's centre plus Gaussian spread (then
    optionally sparsified and re-normalized).  Each cluster prefers a
    subset of labels; a sample's labels are drawn from its cluster's
    preference with a little noise, with cardinality ~Poisson around
    ``label_cardinality`` (min 1).

    Parameters mirror the knobs that differ between the MediaMill-like
    and TextMining-like variants; see those wrappers for tuned values.
    """
    check_positive_int(n_samples, name="n_samples")
    check_positive_int(n_features, name="n_features", minimum=2)
    check_positive_int(n_labels, name="n_labels", minimum=2)
    check_positive_int(n_clusters, name="n_clusters")
    check_scalar(label_cardinality, name="label_cardinality", minimum=1.0)
    check_scalar(cluster_spread, name="cluster_spread", minimum=0.0)
    check_scalar(label_noise, name="label_noise", minimum=0.0, maximum=1.0)
    check_scalar(sparsity, name="sparsity", minimum=0.0, maximum=0.95)
    rng = ensure_rng(seed)

    centres = rng.dirichlet(np.ones(n_features) * 0.5, size=n_clusters)
    # each cluster prefers a few labels; preferences overlap across clusters
    prefs_per_cluster = max(2, int(round(label_cardinality)) + 1)
    cluster_labels = np.zeros((n_clusters, n_labels), dtype=np.float64)
    for c in range(n_clusters):
        chosen = rng.choice(n_labels, size=min(prefs_per_cluster, n_labels), replace=False)
        cluster_labels[c, chosen] = rng.dirichlet(np.ones(chosen.size))

    assignments = rng.integers(0, n_clusters, size=n_samples)
    X = centres[assignments] + rng.normal(0.0, cluster_spread, size=(n_samples, n_features))
    X = np.abs(X)
    if sparsity > 0:
        mask = rng.random(X.shape) < sparsity
        X = np.where(mask, 0.0, X)
    X = normalize_simplex(X, axis=1)

    Y = np.zeros((n_samples, n_labels), dtype=bool)
    cardinalities = np.maximum(1, rng.poisson(label_cardinality, size=n_samples))
    uniform = np.full(n_labels, 1.0 / n_labels)
    for i in range(n_samples):
        probs = cluster_labels[assignments[i]]
        probs = (1.0 - label_noise) * probs + label_noise * uniform
        probs = probs / probs.sum()
        count = int(min(cardinalities[i], n_labels))
        chosen = rng.choice(n_labels, size=count, replace=False, p=probs)
        Y[i, chosen] = True
    return MultilabelDataset(X=X, Y=Y, name=name)


def make_mediamill_like(
    n_samples: int = 8000, *, seed=None
) -> MultilabelDataset:
    """MediaMill-like corpus at the paper's evaluated scale (d=20, A=40).

    The original has 43,907 instances / 120 features / 101 labels with
    label cardinality ≈ 4.4; Fig. 6 evaluates a d=20, A=40 reduction.
    Video scenes cluster strongly but labels are noisy — hence many
    clusters, moderate spread, higher label noise (the paper's harder
    task, lower accuracy than TextMining at equal interactions).
    """
    return make_multilabel_dataset(
        n_samples,
        n_features=20,
        n_labels=40,
        n_clusters=30,
        label_cardinality=4.4,
        cluster_spread=0.06,
        label_noise=0.25,
        sparsity=0.0,
        name="mediamill-like",
        seed=seed,
    )


def make_textmining_like(
    n_samples: int = 8000, *, seed=None
) -> MultilabelDataset:
    """TextMining(tmc2007)-like corpus (d=20, A=20 per Fig. 6).

    The original has 28,596 instances / 500 sparse text features / 22
    labels with cardinality ≈ 2.2; documents are sparse and topics
    well-separated, so fewer clusters, sparser features, less label
    noise (the paper's easier task).
    """
    return make_multilabel_dataset(
        n_samples,
        n_features=20,
        n_labels=20,
        n_clusters=15,
        label_cardinality=2.2,
        cluster_spread=0.04,
        label_noise=0.12,
        sparsity=0.4,
        name="textmining-like",
        seed=seed,
    )


class MultilabelUserSession(ReplayUserSession):
    """One agent's walk through its assigned samples.

    Samples are visited in a random order; if the agent interacts more
    times than it has samples, the walk reshuffles and repeats (a user
    re-encountering content) — see :class:`ReplayUserSession`, which
    also makes the whole horizon traceable for the fleet engine
    (``has_trace_plan``): the reward of action ``a`` at a sample is the
    deterministic label lookup ``Y[sample, a]``.  Because that lookup
    is a pure dataset-row view, the dataset's own ``(X, Y)`` arrays
    *are* the shared row table — sharing them across a population
    allocates nothing per agent beyond the row-index walk.
    """

    def __init__(
        self,
        dataset: MultilabelDataset,
        indices: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self._dataset = dataset
        super().__init__(indices, rng, noun="sample")

    def _context_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._dataset.X[rows]

    def _reward_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._dataset.Y[rows]

    def _row_table_owner(self):
        return self._dataset

    def _build_row_table(self) -> TraceRowTable:
        # the dataset arrays are the table: contexts alias X, realized
        # rewards alias Y, and expected rewards coincide with realized
        # ones for logged data (same convention as _expected_rows)
        return TraceRowTable(
            contexts=self._dataset.X,
            action_rewards=self._dataset.Y,
            expected=self._dataset.Y,
        )

    def reward(self, action: int) -> float:
        self._require_context(self._current)
        action = check_in_range(
            action, name="action", low=0, high=self._dataset.n_labels
        )
        return float(self._dataset.Y[self._current, action])

    def expected_rewards(self) -> np.ndarray:
        self._require_context(self._current)
        return self._dataset.Y[self._current].astype(np.float64)


class MultilabelBanditEnvironment(Environment):
    """Population view over a multi-label corpus.

    Parameters
    ----------
    dataset:
        The corpus.
    samples_per_user:
        Paper: "every agent has access to up to 100 samples".
    seed:
        Seeds the sample-to-agent assignment.  Each call to
        :meth:`new_user` consumes the next block of the global
        partition (disjoint while data lasts, overlapping after — see
        :func:`repro.data.partition.partition_indices`).
    """

    def __init__(
        self,
        dataset: MultilabelDataset,
        *,
        samples_per_user: int = 100,
        seed=None,
    ) -> None:
        super().__init__(dataset.n_labels, dataset.n_features)
        self.dataset = dataset
        self.samples_per_user = check_positive_int(
            samples_per_user, name="samples_per_user"
        )
        self._assign_rng = ensure_rng(seed)
        self._free = self._assign_rng.permutation(dataset.n_samples).tolist()

    def _draw_indices(self) -> np.ndarray:
        if len(self._free) >= self.samples_per_user:
            chosen = self._free[: self.samples_per_user]
            del self._free[: self.samples_per_user]
            return np.asarray(chosen, dtype=np.intp)
        # dataset exhausted: draw independently (users may share samples)
        return self._assign_rng.choice(
            self.dataset.n_samples, size=self.samples_per_user, replace=False
        )

    def new_user(self, seed=None) -> MultilabelUserSession:
        rng = ensure_rng(seed)
        return MultilabelUserSession(self.dataset, self._draw_indices(), rng)
