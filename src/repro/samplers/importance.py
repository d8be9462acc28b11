"""Static importance sampling baseline (Sawade et al. [24]).

Approximates the asymptotically optimal instrumental distribution
(Eqn 5) *once* using the similarity scores as stand-ins for the oracle
probabilities — scores mapped to [0, 1] play p(1|z), and a plug-in
F-measure guess replaces the true F.  Sampling then proceeds i.i.d.
from this fixed per-item distribution.

Two properties of this baseline matter in the paper's experiments:

* when the scores are uncalibrated the distribution is far from
  optimal and never corrects itself (Figure 3); and
* the per-item categorical draw costs O(N) per iteration, which is why
  IS scales poorly to large pools (Table 3).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import BaseEvaluationSampler
from repro.core.estimators import AISEstimator
from repro.core.instrumental import epsilon_greedy, optimal_instrumental_pointwise
from repro.utils import check_in_range, expit

__all__ = ["ImportanceSampler"]


class ImportanceSampler(BaseEvaluationSampler):
    """Non-adaptive importance sampler over individual pool items.

    Parameters
    ----------
    predictions:
        Predicted labels (R-hat membership) per pool item.
    scores:
        Similarity scores per pool item; mapped to pseudo-probabilities
        that instantiate the optimal distribution of Eqn (5).
    oracle:
        Labelling oracle queried for ground truth.
    alpha:
        Deprecated F-measure shim: ``alpha=a`` targets ``FMeasure(a)``.
    measure:
        Target :class:`~repro.measures.ratio.RatioMeasure`; defaults to
        ``FMeasure(0.5)``.  The static optimal-distribution
        approximation of Eqn (5) is instantiated for this measure.
    random_state:
        Seed or generator for the sampling randomness.
    epsilon:
        Mixing weight with the uniform distribution.  The paper's IS
        baseline follows [24], which does not mix (epsilon = 0 keeps
        the raw approximation); a small epsilon guards against zero
        mass on items with nonzero contribution.
    scores_are_probabilities:
        None auto-detects from the score range; raw margins are passed
        through the logistic function, shifted by ``threshold``.
    threshold:
        Decision threshold tau for the logit mapping.
    score_scale:
        Optional divisor for the margin squash (None = raw scores as
        in [24]; "auto" = half the margin standard deviation; or any
        positive number).  See the score-scale ablation benchmark.
    """

    def __init__(
        self,
        predictions,
        scores,
        oracle,
        *,
        alpha=None,
        measure=None,
        epsilon: float = 1e-3,
        scores_are_probabilities: bool | None = None,
        threshold: float = 0.0,
        score_scale: float | str | None = None,
        random_state=None,
    ):
        super().__init__(predictions, scores, oracle, alpha=alpha,
                         measure=measure, random_state=random_state)
        check_in_range(epsilon, 0.0, 1.0, "epsilon")
        self.epsilon = epsilon

        if scores_are_probabilities is None:
            scores_are_probabilities = bool(
                self.scores.min() >= 0.0 and self.scores.max() <= 1.0
            )
        if scores_are_probabilities:
            pseudo_probabilities = np.clip(self.scores, 0.0, 1.0)
        else:
            if score_scale is None:
                scale = 1.0
            elif score_scale == "auto":
                spread = float(np.std(self.scores))
                scale = 0.5 * spread if spread > 0 else 1.0
            else:
                scale = float(score_scale)
                if scale <= 0:
                    raise ValueError(f"score_scale must be positive; got {scale}")
            pseudo_probabilities = np.asarray(
                expit((self.scores - threshold) / scale), dtype=float
            )

        uniform = np.full(self.n_items, 1.0 / self.n_items)
        plug_in = self._plug_in_estimate(pseudo_probabilities)
        optimal = optimal_instrumental_pointwise(
            uniform,
            self.predictions,
            pseudo_probabilities,
            plug_in,
            measure=self.measure,
        )
        if epsilon > 0:
            self._instrumental = epsilon_greedy(optimal, uniform, epsilon)
        else:
            self._instrumental = optimal
        self._uniform = uniform
        self._estimator = AISEstimator(measure=self.measure)

    def _plug_in_estimate(self, pseudo_probabilities: np.ndarray) -> float:
        """Score-based guess of the target measure for Eqn (5)."""
        tp = float(np.sum(pseudo_probabilities * self.predictions))
        predicted = float(np.sum(self.predictions))
        actual = float(np.sum(pseudo_probabilities))
        return self.measure.value_from_sums(
            tp, predicted, actual, float(self.n_items), clamp=False
        )

    @property
    def instrumental(self) -> np.ndarray:
        """The fixed per-item instrumental distribution."""
        view = self._instrumental.view()
        view.flags.writeable = False
        return view

    def _step(self) -> None:
        # Categorical draw over the whole pool: deliberately O(N) per
        # iteration, the cost profile Table 3 reports for IS.
        index = int(self.rng.choice(self.n_items, p=self._instrumental))
        label = self._query_label(index)
        prediction = int(self.predictions[index])
        weight = self._uniform[index] / self._instrumental[index]
        self._estimator.update(label, prediction, weight)
        self._record(index, self._estimator.estimate)

    def _propose_batch(self, batch_size: int) -> dict:
        """Batched categorical draws over the pool.

        The O(N) cost of the full-pool categorical draw — Table 3's
        reason IS scales poorly — is paid once per block instead of
        once per draw, which is exactly the amortisation the batched
        engine targets.
        """
        return {
            "indices": self.rng.choice(
                self.n_items, p=self._instrumental, size=batch_size
            )
        }

    def _commit_batch(self, context, labels, new_mask) -> None:
        indices = context["indices"]
        predictions = self.predictions[indices]
        weights = self._uniform[indices] / self._instrumental[indices]
        trajectory = self._estimator.update_batch(labels, predictions, weights)
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
