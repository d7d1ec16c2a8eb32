"""An order-sensitive record of the tuples a private server ingests.

``P2BSystem`` keeps only per-code crowd counts of what it released, so
tests that compare two deployments' released streams record them at the
server instead: ``released = record_released(system)`` before collecting,
then compare the lists.
"""

from __future__ import annotations


def record_released(system) -> list[tuple[int, int, float]]:
    """Append every ``(code, action, reward)`` the server ingests from now on.

    ``PrivateServer.ingest`` adapts report objects onto
    ``ingest_arrays``, so recording that one entry point covers the
    object and the columnar collection paths alike.
    """
    released: list[tuple[int, int, float]] = []
    server = system.server
    ingest_arrays = server.ingest_arrays

    def record(codes, actions, rewards):
        released.extend(zip(codes.tolist(), actions.tolist(), rewards.tolist()))
        return ingest_arrays(codes, actions, rewards)

    server.ingest_arrays = record
    return released
