"""Passive (uniform) sampling baseline (paper section 6.2).

Samples pool items uniformly at random with replacement and estimates
the F-measure with the unweighted Eqn (1) on the labels gathered so
far.  Under ER's extreme class imbalance the estimate stays undefined
until the first (predicted or true) positive appears — the cold-start
failure mode section 6.3.1 highlights.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import BaseEvaluationSampler
from repro.core.estimators import AISEstimator

__all__ = ["PassiveSampler"]


class PassiveSampler(BaseEvaluationSampler):
    """Uniform-with-replacement sampler with the plain F estimator.

    Accepts the same (predictions, scores, oracle) triple as the other
    samplers; the scores are unused but kept for interface parity.

    Parameters
    ----------
    predictions:
        Predicted labels (R-hat membership) per pool item.
    scores:
        Similarity scores per pool item; unused by this baseline but
        accepted so sampler factories stay interchangeable.
    oracle:
        Labelling oracle queried for ground truth.
    alpha:
        Deprecated F-measure shim: ``alpha=a`` targets ``FMeasure(a)``.
    measure:
        Target :class:`~repro.measures.ratio.RatioMeasure`; defaults to
        ``FMeasure(0.5)``.
    random_state:
        Seed or generator for the sampling randomness.
    """

    def __init__(self, predictions, scores, oracle, *, alpha=None,
                 measure=None, random_state=None):
        super().__init__(predictions, scores, oracle, alpha=alpha,
                         measure=measure, random_state=random_state)
        self._estimator = AISEstimator(measure=self.measure,
                                       track_observations=True)

    def _step(self) -> None:
        index = int(self.rng.integers(self.n_items))
        label = self._query_label(index)
        prediction = int(self.predictions[index])
        # Uniform sampling from the uniform target: unit weights.
        self._estimator.update(label, prediction, 1.0)
        self._record(index, self._estimator.estimate)

    def _propose_batch(self, batch_size: int) -> dict:
        """Batched uniform draws: one RNG call proposes the whole block."""
        return {"indices": self.rng.integers(self.n_items, size=batch_size)}

    def _commit_batch(self, context, labels, new_mask) -> None:
        indices = context["indices"]
        predictions = self.predictions[indices]
        trajectory = self._estimator.update_batch(
            labels, predictions, np.ones(len(indices))
        )
        self._record(indices, trajectory, new_mask)

    def _extra_state(self) -> dict:
        return {"estimator": self._estimator.state_dict()}

    def _load_extra_state(self, state: dict) -> None:
        self._estimator.load_state_dict(state["estimator"])

    @property
    def precision_estimate(self) -> float:
        return self._estimator.precision

    @property
    def recall_estimate(self) -> float:
        return self._estimator.recall

    def confidence_interval(self, level: float = 0.95) -> tuple:
        """Normal-approximation confidence interval for the estimate."""
        return self._estimator.confidence_interval(level)
