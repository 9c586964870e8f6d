"""Precision/recall scoring of detection reports against planted ground truth.

Cluster- and gang-style plants are scored over same-group account pairs;
motif plants are scored instance-for-instance on participant tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Score:
    precision: float
    recall: float

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def _pairs(groups: Iterable[Iterable[str]]) -> set[frozenset[str]]:
    pairs = set()
    for group in groups:
        for a, b in combinations(sorted(set(group)), 2):
            pairs.add(frozenset((a, b)))
    return pairs


def _score(truth: set, detected: set) -> Score:
    """Precision and recall of detected against truth; an empty detection is
    precise only when there is nothing to find."""
    if not detected:
        return Score(precision=1.0 if not truth else 0.0,
                     recall=0.0 if truth else 1.0)
    hit = len(truth & detected)
    return Score(precision=hit / len(detected),
                 recall=hit / len(truth) if truth else 1.0)


def pairwise_score(truth_groups: Sequence[Iterable[str]],
                   detected_groups: Sequence[Iterable[str]]) -> Score:
    """Co-membership pair precision/recall of detected groups vs planted."""
    return _score(_pairs(truth_groups), _pairs(detected_groups))


def instance_score(truth_instances: Sequence[Sequence[str]],
                   detected_instances: Sequence[Sequence[str]]) -> Score:
    """Instance-level precision/recall on participant tuples (order-exact)."""
    return _score({tuple(t) for t in truth_instances},
                  {tuple(d) for d in detected_instances})
