"""Semi-supervised mixture-model estimator (Welinder et al. [26]).

The paper's related work discusses a third evaluation strategy beyond
sampling: fit a generative model of the (score, label) joint
distribution from all scores plus a few labels, then read performance
estimates off the fitted model.  The approach is "semi-supervised and
makes use of the classifier scores, but it doesn't incorporate biased
sampling or adaptivity, making it unsuited to problems with class
imbalance.  It also imposes a restrictive assumption on the joint
distribution of scores and labels" (paper section 7).

This module implements that strategy as a two-component Beta mixture:

    s | l=1 ~ Beta(a1, b1),   s | l=0 ~ Beta(a0, b0),   P(l=1) = pi

fitted by EM over *all* pool scores, with the labelled subset's
responsibilities clamped to their observed labels.  F-measure estimates
follow from the fitted mixture: the model supplies P(l=1 | predicted
positive) analytically, so TP/FP/FN come from mixture tail masses.

The benchmark `benchmarks/test_extension_semisupervised.py` reproduces
the paper's criticism: when the parametric assumption is good the
estimator is extremely label-efficient; under class imbalance and
model misfit it is *biased* — more labels do not fix it.
"""

from __future__ import annotations

import numpy as np

from repro.measures.ratio import resolve_measure
from repro.utils import check_in_range, check_positive, ensure_rng

__all__ = ["BetaMixtureModel", "SemiSupervisedEstimator"]

# ``scipy.stats`` is imported inside the methods that evaluate a Beta
# distribution: its import costs ~0.7 s and ~70 MiB, and ``repro/__init__``
# imports this module, so every process would pay that at start-up.

# Scores are clipped into the open unit interval before fitting: Beta
# densities are unbounded or zero at {0, 1}.
_EDGE = 1e-4


def _fit_beta_moments(values: np.ndarray, weights: np.ndarray) -> tuple:
    """Weighted method-of-moments Beta fit (robust, no iteration).

    Matches the weighted mean and variance:  with m in (0,1) and
    v < m(1-m),  a = m * k,  b = (1-m) * k,  k = m(1-m)/v - 1.
    """
    total = weights.sum()
    if total <= 0:
        return 1.0, 1.0
    mean = float(np.sum(weights * values) / total)
    var = float(np.sum(weights * (values - mean) ** 2) / total)
    mean = min(max(mean, _EDGE), 1.0 - _EDGE)
    # Variance floor keeps k finite; cap below the Bernoulli bound.
    var = min(max(var, 1e-8), mean * (1.0 - mean) * 0.999)
    k = mean * (1.0 - mean) / var - 1.0
    return max(mean * k, 1e-3), max((1.0 - mean) * k, 1e-3)


class BetaMixtureModel:
    """Two-component Beta mixture over unit-interval scores.

    Parameters
    ----------
    max_iter:
        EM iterations.
    tol:
        Convergence threshold on the change in mixing weight.
    """

    def __init__(self, max_iter: int = 200, tol: float = 1e-8):
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, scores, labelled_index=None, labels=None) -> "BetaMixtureModel":
        """EM fit; labelled items have their responsibilities clamped.

        Parameters
        ----------
        scores:
            All pool scores in [0, 1].
        labelled_index:
            Indices of items with known labels (optional).
        labels:
            The corresponding binary labels.
        """
        from scipy import stats

        scores = np.clip(np.asarray(scores, dtype=float), _EDGE, 1.0 - _EDGE)
        n = len(scores)
        if n == 0:
            raise ValueError("scores must be non-empty")
        clamped = np.full(n, np.nan)
        if labelled_index is not None:
            labelled_index = np.asarray(labelled_index, dtype=int)
            labels = np.asarray(labels, dtype=float)
            if len(labelled_index) != len(labels):
                raise ValueError("labelled_index and labels must align")
            clamped[labelled_index] = labels

        known = ~np.isnan(clamped)
        # Initialise responsibilities from the labels where known and
        # from the score rank elsewhere.
        resp = np.where(known, clamped, scores)
        pi = float(resp.mean())

        for __ in range(self.max_iter):
            # M step: moment-matched Betas per component.
            a1, b1 = _fit_beta_moments(scores, resp)
            a0, b0 = _fit_beta_moments(scores, 1.0 - resp)
            # E step on the unlabelled items.
            log_pos = stats.beta.logpdf(scores, a1, b1) + np.log(max(pi, 1e-12))
            log_neg = stats.beta.logpdf(scores, a0, b0) + np.log(
                max(1.0 - pi, 1e-12)
            )
            shift = np.maximum(log_pos, log_neg)
            pos = np.exp(log_pos - shift)
            neg = np.exp(log_neg - shift)
            new_resp = pos / (pos + neg)
            new_resp[known] = clamped[known]
            new_pi = float(new_resp.mean())
            converged = abs(new_pi - pi) < self.tol
            resp, pi = new_resp, new_pi
            if converged:
                break

        self.pi_ = pi
        self.pos_params_ = (a1, b1)
        self.neg_params_ = (a0, b0)
        self.responsibilities_ = resp
        return self

    def positive_tail(self, threshold: float) -> float:
        """P(s >= threshold | l = 1) under the fitted model."""
        from scipy import stats

        a, b = self.pos_params_
        return float(stats.beta.sf(np.clip(threshold, _EDGE, 1 - _EDGE), a, b))

    def negative_tail(self, threshold: float) -> float:
        """P(s >= threshold | l = 0) under the fitted model."""
        from scipy import stats

        a, b = self.neg_params_
        return float(stats.beta.sf(np.clip(threshold, _EDGE, 1 - _EDGE), a, b))


class SemiSupervisedEstimator:
    """F-measure estimation from the fitted score mixture.

    Mirrors the evaluation interface of the samplers loosely: call
    :meth:`fit` with the pool scores, a label budget and an oracle;
    labels are spent on a *uniform* random subset (the method has no
    biased-sampling mechanism — that is the point of the comparison).

    Parameters
    ----------
    threshold:
        The matcher's decision threshold on the (unit-interval) scores.
    alpha:
        Deprecated F-measure shim: ``alpha=a`` targets ``FMeasure(a)``.
    measure:
        Target :class:`~repro.measures.ratio.RatioMeasure`; defaults to
        ``FMeasure(0.5)``.
    random_state:
        Seed for the uniform label subset.
    """

    def __init__(self, threshold: float = 0.5, *, alpha=None, measure=None,
                 random_state=None):
        check_in_range(threshold, 0.0, 1.0, "threshold")
        self.threshold = threshold
        self.measure = resolve_measure(measure, alpha)
        self.rng = ensure_rng(random_state)
        self.model = BetaMixtureModel()

    @property
    def alpha(self):
        """The F-family weight, or None for non-F measures (deprecated)."""
        return getattr(self.measure, "alpha", None)

    def fit(self, scores, oracle, n_labels: int) -> "SemiSupervisedEstimator":
        """Spend ``n_labels`` uniform labels and fit the mixture.

        Parameters
        ----------
        scores:
            All pool scores in [0, 1].
        oracle:
            Labelling oracle; consulted once via its bulk
            :meth:`~repro.oracle.base.BaseOracle.query_many` API.
        n_labels:
            Number of uniform-random labels to spend (capped at the
            pool size).
        """
        check_positive(n_labels, "n_labels")
        scores = np.asarray(scores, dtype=float)
        n = len(scores)
        n_labels = min(int(n_labels), n)
        chosen = self.rng.choice(n, size=n_labels, replace=False)
        labels = oracle.query_many(chosen)
        self.model.fit(scores, chosen, labels)
        self.labels_consumed = n_labels
        return self

    @property
    def estimate(self) -> float:
        """Model-based value of the target measure at the threshold.

        TP rate = pi * P(s >= tau | l=1); predicted-positive rate =
        TP rate + (1-pi) * P(s >= tau | l=0); actual-positive rate =
        pi; all rates normalise to a total mass of one, so any ratio
        measure evaluates from the fitted mixture.
        """
        pi = self.model.pi_
        tp = pi * self.model.positive_tail(self.threshold)
        fp = (1.0 - pi) * self.model.negative_tail(self.threshold)
        predicted = tp + fp
        return self.measure.value_from_sums(tp, predicted, pi, 1.0,
                                            clamp=False)

    @property
    def precision_estimate(self) -> float:
        pi = self.model.pi_
        tp = pi * self.model.positive_tail(self.threshold)
        fp = (1.0 - pi) * self.model.negative_tail(self.threshold)
        if tp + fp <= 0:
            return float("nan")
        return tp / (tp + fp)

    @property
    def recall_estimate(self) -> float:
        return self.model.positive_tail(self.threshold)
