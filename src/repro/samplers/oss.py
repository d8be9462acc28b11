"""Online stratified sampling with adaptive Neyman allocation.

An implementation of the adaptive stratified method of Bennett &
Carvalho (paper reference [3]): strata are sampled with probability
proportional to their population weight times a running estimate of
the within-stratum label standard deviation (Neyman allocation), so
labelling effort concentrates where labels are uncertain.  The paper
discusses this approach in related work as adaptive-but-stratified —
stronger than proportional allocation, weaker than importance
sampling.  Included as an extension baseline beyond the paper's three.
"""

from __future__ import annotations

import numpy as np

from repro.samplers.stratified import StratifiedSampler
from repro.utils import check_in_range, normalise

__all__ = ["OSSSampler"]


class OSSSampler(StratifiedSampler):
    """Adaptive stratified sampler (Neyman allocation on label variance).

    Allocation at iteration t: stratum k is drawn with probability
    proportional to  omega_k * sigma_hat_k + floor, where sigma_hat_k
    is the posterior standard deviation of a Bernoulli with an add-one
    smoothed match-rate estimate, and the epsilon floor keeps every
    stratum reachable.  The F-measure uses the stratified plug-in of
    :class:`~repro.samplers.stratified.StratifiedSampler`, whose
    draw, commit and snapshot paths this sampler shares.

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
        Requested CSF strata.
    epsilon:
        Mixing weight with proportional allocation (coverage floor).
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
        epsilon: float = 0.1,
        stratification_method: str = "csf",
        strata=None,
        random_state=None,
    ):
        check_in_range(epsilon, 0.0, 1.0, "epsilon", low_open=True)
        super().__init__(predictions, scores, oracle, alpha=alpha,
                         measure=measure, n_strata=n_strata,
                         stratification_method=stratification_method,
                         strata=strata, random_state=random_state)
        self.epsilon = epsilon

    def allocation(self) -> np.ndarray:
        """Current Neyman-style stratum allocation probabilities."""
        # Add-one smoothed match-rate estimate per stratum.
        p_hat = (self._sum_true + 1.0) / (self._n_sampled + 2.0)
        sigma = np.sqrt(p_hat * (1.0 - p_hat))
        neyman = normalise(self._weights * sigma)
        return self.epsilon * self._weights + (1.0 - self.epsilon) * neyman

    def _stratum_probabilities(self) -> np.ndarray:
        return self.allocation()

    def _extra_state(self) -> dict:
        return {**super()._extra_state(), "epsilon": self.epsilon}

    def _load_extra_state(self, state: dict) -> None:
        if float(state["epsilon"]) != self.epsilon:
            raise ValueError(
                f"state was captured with epsilon={state['epsilon']}, but "
                f"this sampler has epsilon={self.epsilon}"
            )
        super()._load_extra_state(state)
