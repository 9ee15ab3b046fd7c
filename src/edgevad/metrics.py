"""Evaluation metrics: rank-based ROC-AUC and per-video detection verdicts."""

from __future__ import annotations

from typing import Sequence


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outranks a random negative; ties count 1/2.

    Computed with integer pair counting over the sorted score list, so the
    result is exactly the brute-force pairwise value.
    """
    if len(scores) != len(labels):
        raise ValueError(f"{len(scores)} scores vs {len(labels)} labels")
    for l in labels:
        if l not in (0, 1):
            raise ValueError(f"roc_auc labels must be 0 or 1, got {l!r}")
    pos = sum(1 for l in labels if l == 1)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise ValueError("roc_auc needs both classes present")
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    wins2 = 0  # twice the win count, so ties add 1 exactly
    neg_below = 0
    i = 0
    n = len(order)
    while i < n:
        j = i
        while j < n and scores[order[j]] == scores[order[i]]:
            j += 1
        tied = order[i:j]
        tied_neg = sum(1 for t in tied if labels[t] == 0)
        tied_pos = len(tied) - tied_neg
        wins2 += tied_pos * (2 * neg_below + tied_neg)
        neg_below += tied_neg
        i = j
    return wins2 / (2.0 * pos * neg)


def video_verdict(records: Sequence, rule: str = "any-alert", n: int = 2) -> bool:
    """True when the video counts as detected under the given rule.

    "any-alert": any snippet alert fires. "run-n": at least n consecutive
    alerts; ValueError for n < 1. Records may be ScoreRecord objects or dicts
    with an "alert" key.
    """
    if len(records) == 0:
        raise ValueError("no records")
    alerts = [bool(r["alert"]) if isinstance(r, dict) else bool(r.alert) for r in records]
    if rule == "any-alert":
        return any(alerts)
    if rule == "run-n":
        if n < 1:
            raise ValueError(f"run-n needs n >= 1, got {n}")
        run = 0
        for a in alerts:
            run = run + 1 if a else 0
            if run >= n:
                return True
        return False
    raise ValueError(f"unknown verdict rule {rule!r}")
