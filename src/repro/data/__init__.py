"""Benchmark environments: synthetic, multi-label, and Criteo-like (paper §5)."""

from .criteo import (
    CriteoBanditDataset,
    CriteoBanditEnvironment,
    CriteoLikeRecords,
    CriteoUserSession,
    build_criteo_actions,
    make_criteo_like,
)
from .drift import DriftingSyntheticEnvironment, DriftingSyntheticSession
from .environment import (
    Environment,
    IndexedTracePlan,
    ReplayUserSession,
    RewardBlock,
    RewardModel,
    TracePlan,
    TraceRowTable,
    UserSession,
)
from .multilabel import (
    MultilabelBanditEnvironment,
    MultilabelDataset,
    MultilabelUserSession,
    make_mediamill_like,
    make_multilabel_dataset,
    make_textmining_like,
)
from .partition import partition_indices, train_test_split_agents
from .synthetic import SyntheticPreferenceEnvironment, SyntheticUserSession

__all__ = [
    "Environment",
    "UserSession",
    "ReplayUserSession",
    "RewardModel",
    "RewardBlock",
    "TracePlan",
    "TraceRowTable",
    "IndexedTracePlan",
    "SyntheticPreferenceEnvironment",
    "SyntheticUserSession",
    "DriftingSyntheticEnvironment",
    "DriftingSyntheticSession",
    "MultilabelDataset",
    "make_multilabel_dataset",
    "make_mediamill_like",
    "make_textmining_like",
    "MultilabelBanditEnvironment",
    "MultilabelUserSession",
    "CriteoLikeRecords",
    "make_criteo_like",
    "build_criteo_actions",
    "CriteoBanditDataset",
    "CriteoBanditEnvironment",
    "CriteoUserSession",
    "partition_indices",
    "train_test_split_agents",
]
