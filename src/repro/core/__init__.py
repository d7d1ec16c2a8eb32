"""The P2B system: local agents, shuffler, central server (paper §3)."""

from .agent import LocalAgent
from .config import AgentMode, P2BConfig
from .participation import RandomizedParticipation, StackedParticipation
from .payload import ReportBatch, ReportLog, drain_report_batches
from .rounds import DeploymentLoop, RoundStats
from .server import NonPrivateServer, PrivateServer
from .shuffler import Shuffler, ShufflerStats
from .system import CollectionResult, P2BSystem

__all__ = [
    "LocalAgent",
    "AgentMode",
    "P2BConfig",
    "RandomizedParticipation",
    "StackedParticipation",
    "ReportBatch",
    "ReportLog",
    "drain_report_batches",
    "PrivateServer",
    "NonPrivateServer",
    "Shuffler",
    "ShufflerStats",
    "P2BSystem",
    "CollectionResult",
    "DeploymentLoop",
    "RoundStats",
]
