"""Simulated crowdsourcing oracle: majority vote over noisy workers.

The paper motivates OASIS with crowdsourced labelling; its theory covers
any randomised oracle.  This oracle exercises that generality: each
query polls ``n_workers`` simulated annotators, each of whom reports the
true label with their own accuracy, and returns the majority vote.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from repro.oracle.base import BaseOracle
from repro.utils import check_in_range, ensure_rng

__all__ = ["CrowdOracle"]


class CrowdOracle(BaseOracle):
    """Majority vote of independent noisy workers over ground truth.

    Parameters
    ----------
    true_labels:
        Binary ground-truth labels per pool item.
    worker_accuracies:
        Sequence of per-worker probabilities of reporting the true
        label.  Must have odd length so votes cannot tie.
    random_state:
        Seed or generator for the simulated workers.
    """

    def __init__(self, true_labels, worker_accuracies, random_state=None):
        labels = np.asarray(true_labels, dtype=np.int8)
        accs = np.asarray(worker_accuracies, dtype=float)
        if accs.ndim != 1 or len(accs) == 0:
            raise ValueError("worker_accuracies must be a non-empty 1-D sequence")
        if len(accs) % 2 == 0:
            raise ValueError("need an odd number of workers to avoid tied votes")
        if np.any((accs < 0) | (accs > 1)):
            raise ValueError("worker accuracies must lie in [0, 1]")
        self._labels = labels
        self._accs = accs
        self._rng = ensure_rng(random_state)
        self._p_correct_majority = self._majority_probability(accs)

    @staticmethod
    def _majority_probability(accs: np.ndarray) -> float:
        """P(majority vote is correct) for independent heterogeneous workers.

        Computed exactly by dynamic programming over the Poisson-binomial
        distribution of correct votes.
        """
        n = len(accs)
        # dist[k] = P(exactly k workers correct), built worker by worker.
        dist = np.zeros(n + 1)
        dist[0] = 1.0
        for acc in accs:
            dist[1:] = dist[1:] * (1 - acc) + dist[:-1] * acc
            dist[0] *= 1 - acc
        majority = n // 2 + 1
        return float(dist[majority:].sum())

    def __len__(self) -> int:
        return len(self._labels)

    def label(self, index: int) -> int:
        truth = int(self._labels[index])
        correct = self._rng.random(len(self._accs)) < self._accs
        votes = np.where(correct, truth, 1 - truth)
        return int(votes.sum() * 2 > len(votes))

    def _label_batch(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised majority votes: one worker panel per distinct index.

        Draws a ``(batch, n_workers)`` uniform block, so the worker
        randomness matches a sequential loop of :meth:`label` calls.
        """
        truth = self._labels[indices].astype(np.int64)
        correct = self._rng.random((len(indices), len(self._accs))) < self._accs
        votes = np.where(correct, truth[:, None], 1 - truth[:, None])
        return (votes.sum(axis=1) * 2 > len(self._accs)).astype(np.int8)

    def probability(self, index: int) -> float:
        p = self._p_correct_majority
        return p if self._labels[index] == 1 else 1.0 - p

    @property
    def majority_accuracy(self) -> float:
        """Exact probability that a single majority vote is correct."""
        return self._p_correct_majority

    def wilson_interval(self, n_votes: int, confidence: float = 0.95) -> tuple:
        """Wilson score interval for the empirical majority accuracy.

        Utility for sizing crowd experiments: given ``n_votes`` queries,
        the interval within which the observed accuracy should fall.
        ``confidence`` must lie in (0, 1).
        """
        if n_votes <= 0:
            raise ValueError("n_votes must be positive")
        check_in_range(confidence, 0.0, 1.0, "confidence",
                       low_open=True, high_open=True)
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        p = self._p_correct_majority
        denom = 1.0 + z**2 / n_votes
        centre = (p + z**2 / (2 * n_votes)) / denom
        half = z * np.sqrt(p * (1 - p) / n_votes + z**2 / (4 * n_votes**2)) / denom
        return (max(0.0, centre - half), min(1.0, centre + half))
