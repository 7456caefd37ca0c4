"""Metrics: ground-truth scoring of FDS runs.

:func:`score_knowledge` is the one completeness/accuracy scorer, over a
``(node, target)`` knowledge matrix; :func:`evaluate_properties` packs
an event or rt run into it (the array engine hands over its own
matrix).  :func:`collect_message_counts` totals the messages.
"""

from repro.metrics.collectors import MessageCounts, collect_message_counts
from repro.metrics.properties import (
    PropertyReport,
    detection_latency,
    evaluate_properties,
    score_knowledge,
)

__all__ = [
    "MessageCounts",
    "collect_message_counts",
    "PropertyReport",
    "detection_latency",
    "evaluate_properties",
    "score_knowledge",
]
