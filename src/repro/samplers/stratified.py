"""Proportional stratified sampling baseline (Druck & McCallum [14]).

Strata are drawn with probability proportional to their size (omega_k)
and items uniformly within; the F-measure is estimated with a
stratified plug-in: per-stratum sample means of the label statistics,
combined with the known stratum weights.  The method is adaptive in
neither allocation nor bias — the properties the paper identifies as
the reason it barely improves on passive sampling (section 6.3.1).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import BaseEvaluationSampler
from repro.core.stratification import Strata, stratify
from repro.utils import check_positive

__all__ = ["StratifiedSampler"]


class StratifiedSampler(BaseEvaluationSampler):
    """Stratified sampler with proportional allocation.

    Parameters
    ----------
    predictions:
        Predicted labels (R-hat membership) per pool item.
    scores:
        Similarity scores per pool item; drive the stratification.
    oracle:
        Labelling oracle queried for ground truth.
    alpha:
        Deprecated F-measure shim: ``alpha=a`` targets ``FMeasure(a)``.
    measure:
        Target :class:`~repro.measures.ratio.RatioMeasure`; defaults to
        ``FMeasure(0.5)``.  The stratified plug-in estimate evaluates
        this measure from the per-stratum moments.
    n_strata:
        Requested number of CSF strata (the paper's baseline uses 30).
    stratification_method:
        ``"csf"`` (Algorithm 1) or ``"equal_size"``.
    strata:
        Pre-built :class:`~repro.core.stratification.Strata` to reuse
        (skips stratification).
    random_state:
        Seed or generator for the sampling randomness.
    """

    def __init__(
        self,
        predictions,
        scores,
        oracle,
        *,
        alpha=None,
        measure=None,
        n_strata: int = 30,
        stratification_method: str = "csf",
        strata: Strata | None = None,
        random_state=None,
    ):
        super().__init__(predictions, scores, oracle, alpha=alpha,
                         measure=measure, random_state=random_state)
        if strata is not None:
            if strata.n_items != self.n_items:
                raise ValueError(
                    f"strata cover {strata.n_items} items but the pool has "
                    f"{self.n_items}"
                )
            self.strata = strata
        else:
            check_positive(n_strata, "n_strata")
            self.strata = stratify(self.scores, n_strata, stratification_method)

        k = self.strata.n_strata
        self._weights = self.strata.weights
        self._total_weight = float(np.sum(self.strata.weights))
        self._mean_predictions = self.strata.stratum_means(self.predictions)
        # Per-stratum running sums of sampled (l * lhat) and l.
        self._n_sampled = np.zeros(k)
        self._sum_tp = np.zeros(k)
        self._sum_true = np.zeros(k)

    @property
    def n_strata(self) -> int:
        return self.strata.n_strata

    def _stratified_estimate(self) -> float:
        """Stratified plug-in F estimate from per-stratum means.

        Predicted positives are known exactly (lambda_k); true-positive
        and actual-positive rates come from the per-stratum sample
        means.  Unsampled strata contribute zero to the estimated
        rates, the plain plug-in behaviour.
        """
        sampled = self._n_sampled > 0
        if not np.any(sampled):
            return float("nan")
        tp_rate = np.zeros(self.n_strata)
        true_rate = np.zeros(self.n_strata)
        tp_rate[sampled] = self._sum_tp[sampled] / self._n_sampled[sampled]
        true_rate[sampled] = self._sum_true[sampled] / self._n_sampled[sampled]

        tp = float(np.sum(self._weights * tp_rate))
        predicted = float(np.sum(self._weights * self._mean_predictions))
        actual = float(np.sum(self._weights * true_rate))
        if tp == 0 and actual == 0 and not self.measure.uses_true_negatives:
            # No positive has been seen at all: for positive-class-only
            # measures (the F family) the sample carries no information
            # yet.  TN-weighted measures (accuracy, specificity, ...)
            # are estimable from all-negative samples, so they proceed.
            return float("nan")
        return self.measure.value_from_sums(
            tp, predicted, actual, self._total_weight, clamp=False
        )

    def _stratum_probabilities(self) -> np.ndarray:
        """Stratum draw probabilities: proportional allocation."""
        return self._weights

    def _step(self) -> None:
        stratum = int(
            self.rng.choice(self.n_strata, p=self._stratum_probabilities()))
        index = self.strata.sample_in_stratum(stratum, self.rng)
        label = self._query_label(index)
        prediction = int(self.predictions[index])

        self._n_sampled[stratum] += 1
        self._sum_tp[stratum] += label * prediction
        self._sum_true[stratum] += label
        self._record(index, self._stratified_estimate())

    def _propose_batch(self, batch_size: int) -> dict:
        """Batched draws, strata then items, vectorised.

        The stratum probabilities are computed once per batch; for an
        adaptive allocation (:class:`~repro.samplers.oss.OSSSampler`)
        that is the block-adaptive relaxation OASIS uses for its
        instrumental distribution.
        """
        strata_drawn = self.rng.choice(
            self.n_strata, p=self._stratum_probabilities(), size=batch_size
        )
        indices = self.strata.sample_in_strata(strata_drawn, self.rng)
        return {"indices": indices, "strata": strata_drawn}

    def _commit_batch(self, context, labels, new_mask) -> None:
        """Fold one proposed batch's labels into the plug-in estimate.

        The plug-in estimate is replayed per draw (it has no cumulative
        closed form like the AIS ratio), keeping the recorded history
        identical to the sequential path draw for draw.
        """
        indices = context["indices"]
        strata_drawn = context["strata"]
        predictions = self.predictions[indices]
        estimates = np.empty(len(indices))
        for t in range(len(indices)):
            stratum = strata_drawn[t]
            self._n_sampled[stratum] += 1
            self._sum_tp[stratum] += labels[t] * predictions[t]
            self._sum_true[stratum] += labels[t]
            estimates[t] = self._stratified_estimate()
        self._record(indices, estimates, new_mask)

    def _extra_state(self) -> dict:
        return {
            "strata_checksum": self.strata.checksum(),
            "n_sampled": np.array(self._n_sampled, copy=True),
            "sum_tp": np.array(self._sum_tp, copy=True),
            "sum_true": np.array(self._sum_true, copy=True),
        }

    def _load_extra_state(self, state: dict) -> None:
        if state["strata_checksum"] != self.strata.checksum():
            raise ValueError(
                "state was captured over a different stratification; "
                "rebuild the sampler with the same scores and strata "
                "configuration before restoring"
            )
        self._n_sampled = np.asarray(state["n_sampled"], dtype=float)
        self._sum_tp = np.asarray(state["sum_tp"], dtype=float)
        self._sum_true = np.asarray(state["sum_true"], dtype=float)
