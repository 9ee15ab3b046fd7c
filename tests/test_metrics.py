"""AUC and verdict tests: brute-force pairwise oracle, invariances, rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevad.metrics import roc_auc, video_verdict


def pairwise_auc_oracle(scores, labels):
    """O(n^2) definition: wins count 1, ties 1/2, over all pos/neg pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins2 = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins2 += 2
            elif p == q:
                wins2 += 1
    return wins2 / (2.0 * len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_equal_scores_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([0.1, 0.9], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1], [1, 0])

    def test_label_other_than_zero_or_one_rejected(self):
        with pytest.raises(ValueError, match="labels must be 0 or 1, got 7"):
            roc_auc([0.1, 0.9], [7, 1])

    @pytest.mark.parametrize("seed", range(60))
    def test_exact_match_with_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = (rng.integers(0, 6, size=n) / 5.0).tolist()
        assert roc_auc(scores, labels) == pairwise_auc_oracle(scores, labels)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        base = roc_auc(scores.tolist(), labels)
        a, b = float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2))
        for transform in (lambda s: a * s + b, np.exp, lambda s: np.tanh(2 * s)):
            assert roc_auc(transform(scores).tolist(), labels) == pytest.approx(base, abs=1e-12)

    def test_complement_rule_without_ties(self):
        rng = np.random.default_rng(7)
        scores = rng.permutation(20) / 20.0
        labels = rng.integers(0, 2, size=20).tolist()
        labels[0], labels[1] = 0, 1
        auc = roc_auc(scores.tolist(), labels)
        flipped = roc_auc((1 - scores).tolist(), labels)
        assert flipped == pytest.approx(1 - auc, abs=1e-12)


class TestVideoVerdict:
    def _records(self, alerts):
        return [{"alert": a, "score": 0.9 if a else 0.1} for a in alerts]

    def test_no_alerts_not_detected(self):
        assert video_verdict(self._records([False] * 5)) is False

    def test_single_alert_detected_under_any(self):
        assert video_verdict(self._records([False, True, False])) is True

    def test_run_rule_ignores_isolated_alert(self):
        recs = self._records([False, True, False, True, False])
        assert video_verdict(recs, rule="run-n", n=2) is False
        recs2 = self._records([False, True, True, False])
        assert video_verdict(recs2, rule="run-n", n=2) is True

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            video_verdict([])

    def test_monotone_in_scores(self):
        # raising any score can only turn detection on, never off
        alerts = [False, False, True, False]
        base = video_verdict(self._records(alerts))
        more = video_verdict(self._records([True] + alerts[1:]))
        assert base is True and more is True

    def test_demo_protocol_counts_detections_across_videos(self):
        # the 10-video demo protocol, structurally: per-video verdicts tallied
        rng = np.random.default_rng(11)
        videos = []
        for v in range(10):
            scores = rng.uniform(0.0, 0.6, size=32)
            if v != 7:  # one miss
                hot = rng.integers(0, 32)
                scores[hot] = rng.uniform(0.75, 0.99)
            videos.append([{"alert": s > 0.7, "score": float(s)} for s in scores])
        detected = sum(video_verdict(recs) for recs in videos)
        assert detected == 9
