"""Hashing substrate: feature hashing."""

from .feature_hashing import FeatureHasher, hash_row_to_code, hash_string

__all__ = [
    "FeatureHasher",
    "hash_string",
    "hash_row_to_code",
]
