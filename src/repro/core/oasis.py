"""The OASIS sampler (paper Algorithm 3, section 4.4).

Each iteration: compute the epsilon-greedy stratified instrumental
distribution v^(t) from the current Bayesian model, draw a stratum then
a pair uniformly within it, query the oracle (with label caching),
update the Beta posterior and the importance-weighted estimate of the
target measure.  The paper targets the F-measure; any
:class:`~repro.measures.ratio.RatioMeasure` (precision, recall,
accuracy, ...) can be targeted instead — the instrumental distribution
is derived from the measure's gradient, so the sampling effort
reallocates to wherever *that* measure's variance lives.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import BaseEvaluationSampler
from repro.core.bayes import BetaBernoulliModel
from repro.core.estimators import AISEstimator
from repro.core.initialisation import initialise_from_scores
from repro.core.instrumental import epsilon_greedy, stratified_optimal_instrumental
from repro.core.stratification import Strata, stratify
from repro.oracle.base import BaseOracle
from repro.utils import check_in_range, check_positive

__all__ = ["OASISSampler"]


class OASISSampler(BaseEvaluationSampler):
    """Optimal Asymptotic Sequential Importance Sampling.

    Parameters
    ----------
    predictions:
        Predicted labels (R-hat membership) per pool item.
    scores:
        Similarity scores per pool item (probabilities or margins).
    oracle:
        Labelling oracle.
    alpha:
        Deprecated F-measure shim: ``alpha=a`` targets ``FMeasure(a)``.
    measure:
        The target :class:`~repro.measures.ratio.RatioMeasure` (or kind
        name / spec dict); defaults to ``FMeasure(0.5)``, the paper's
        setting.
    epsilon:
        Greediness 0 < epsilon <= 1 (paper experiments use 1e-3).
        Small epsilon exploits the optimal distribution; epsilon = 1 is
        pure passive sampling.
    n_strata:
        Requested number of CSF strata K-tilde (30-60 recommended).
    prior_strength:
        eta for the prior Gamma^(0) = eta * [pi; 1-pi]; defaults to 2K.
    stratification_method:
        "csf" (Algorithm 1) or "equal_size".
    strata:
        Pre-built :class:`Strata` to reuse (skips stratification).
    decaying_prior:
        Enable the Remark 4 prior decay (default True: the paper
        reports it speeds convergence of pi-hat and adds robustness to
        misspecified priors; disable to recover the plain conjugate
        update).
    scores_are_probabilities:
        Passed to initialisation; None auto-detects from score range.
    threshold:
        Decision threshold tau used in the logit mapping of
        uncalibrated scores.
    score_scale:
        Optional divisor for the margin-to-probability squash in
        initialisation; see
        :func:`repro.core.initialisation.initialise_from_scores`.
        The default (None = raw scores) follows the paper; "auto"
        standardises the margins first, which can sharpen priors for
        small-scale margins considerably.
    record_diagnostics:
        When True, record per-iteration snapshots of pi-hat and v^(t)
        (needed by the Figure 4 convergence experiment; costs memory).
    random_state:
        Seed or generator.
    """

    def __init__(
        self,
        predictions,
        scores,
        oracle: BaseOracle,
        *,
        alpha: float | None = None,
        measure=None,
        epsilon: float = 1e-3,
        n_strata: int = 30,
        prior_strength: float | None = None,
        stratification_method: str = "csf",
        strata: Strata | None = None,
        decaying_prior: bool = True,
        scores_are_probabilities: bool | None = None,
        threshold: float = 0.0,
        score_scale: float | str | None = None,
        record_diagnostics: bool = False,
        random_state=None,
    ):
        super().__init__(predictions, scores, oracle, alpha=alpha,
                         measure=measure, random_state=random_state)
        check_in_range(epsilon, 0.0, 1.0, "epsilon", low_open=True)
        self.epsilon = epsilon

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

        init = initialise_from_scores(
            self.strata,
            self.predictions,
            measure=self.measure,
            prior_strength=prior_strength,
            scores_are_probabilities=scores_are_probabilities,
            threshold=threshold,
            score_scale=score_scale,
        )
        self._initialisation = init
        self.model = BetaBernoulliModel(init.prior_gamma, decaying_prior=decaying_prior)
        self._estimator = AISEstimator(measure=self.measure,
                                       track_observations=True)
        # G-hat^(0): the score-based guess seeds the instrumental
        # distribution until weighted observations arrive.
        self._current_estimate = init.estimate
        self._mean_predictions = init.mean_predictions
        self._stratum_weights = self.strata.weights

        self.record_diagnostics = record_diagnostics
        self.pi_history: list[np.ndarray] = []
        self.instrumental_history: list[np.ndarray] = []
        self.weight_history: list[float] = []

    @property
    def n_strata(self) -> int:
        return self.strata.n_strata

    @property
    def initial_estimate(self) -> float:
        """The score-based plug-in guess G-hat^(0) from Algorithm 2."""
        return self._initialisation.estimate

    @property
    def initial_f_measure(self) -> float:
        """Historical alias for :attr:`initial_estimate`."""
        return self._initialisation.estimate

    @property
    def pi_estimate(self) -> np.ndarray:
        """Current posterior-mean estimate of the stratum probabilities."""
        return self.model.posterior_mean()

    def instrumental_distribution(self) -> np.ndarray:
        """The epsilon-greedy stratified distribution v^(t) (Eqn 12)."""
        optimal = stratified_optimal_instrumental(
            self._stratum_weights,
            self._mean_predictions,
            self.model.posterior_mean(),
            self._current_estimate,
            measure=self.measure,
        )
        return epsilon_greedy(optimal, self._stratum_weights, self.epsilon)

    def optimal_distribution(self) -> np.ndarray:
        """The un-mixed v*^(t) estimate (diagnostic for Figure 4)."""
        return stratified_optimal_instrumental(
            self._stratum_weights,
            self._mean_predictions,
            self.model.posterior_mean(),
            self._current_estimate,
            measure=self.measure,
        )

    def _step(self) -> None:
        # (3) instrumental distribution from the current model state.
        v = self.instrumental_distribution()
        # (4) draw a stratum, (5) then a pair uniformly within it.
        stratum = int(self.rng.choice(self.n_strata, p=v))
        index = self.strata.sample_in_stratum(stratum, self.rng)
        # (6) importance weight w_t = omega_k / v_k  (p uniform on pool,
        # within-stratum draw uniform, so p(z)/q(z) reduces to this).
        weight = self._stratum_weights[stratum] / v[stratum]
        # (7) oracle label (cached re-draws are free) and (8) prediction.
        label = self._query_label(index)
        prediction = int(self.predictions[index])
        # (9)-(10) posterior update.
        self.model.update(stratum, label)
        # (11) measure-estimate update.
        self._estimator.update(label, prediction, weight)
        estimate = self._estimator.estimate
        if not np.isnan(estimate):
            self._current_estimate = estimate

        self._record(index, estimate)
        if self.record_diagnostics:
            # Snapshots must be copies owned by the history: aliasing
            # live model state would let later updates silently rewrite
            # the recorded Figure-4 convergence trajectories.
            self.pi_history.append(np.array(self.model.posterior_mean(), copy=True))
            self.instrumental_history.append(np.array(v, copy=True))
            self.weight_history.append(float(weight))

    def _propose_batch(self, batch_size: int) -> dict:
        """Propose ``batch_size`` draws under a frozen v^(t).

        The instrumental distribution is computed once for the block
        (the Delyon & Portier block-adaptive relaxation of Algorithm
        3); stratum choices, within-stratum draws and the importance
        weights are all vectorised.  No labels are consumed — commit
        happens in :meth:`_commit_batch` once they arrive.
        """
        v = self.instrumental_distribution()
        strata_drawn = self.rng.choice(self.n_strata, p=v, size=batch_size)
        indices = self.strata.sample_in_strata(strata_drawn, self.rng)
        weights = self._stratum_weights[strata_drawn] / v[strata_drawn]
        return {
            "indices": indices,
            "strata": strata_drawn,
            "weights": weights,
            "v": v,
        }

    def _commit_batch(self, context, labels, new_mask) -> None:
        """Fold one proposed batch's labels into model and estimator.

        Histories gain one entry per draw: the estimate trajectory is
        exact (the AIS running sums are replayed cumulatively) while
        the diagnostic snapshots record the post-batch state for every
        draw in the block, since intermediate posteriors are never
        materialised.
        """
        indices = context["indices"]
        strata_drawn = context["strata"]
        weights = context["weights"]
        predictions = self.predictions[indices]

        self.model.update_batch(strata_drawn, labels)
        trajectory = self._estimator.update_batch(labels, predictions, weights)
        estimate = trajectory[-1]
        if not np.isnan(estimate):
            self._current_estimate = float(estimate)

        self._record(indices, trajectory, new_mask)
        if self.record_diagnostics:
            pi = np.array(self.model.posterior_mean(), copy=True)
            v_snapshot = np.array(context["v"], copy=True)
            batch_size = len(indices)
            self.pi_history.extend([pi] * batch_size)
            self.instrumental_history.extend([v_snapshot] * batch_size)
            self.weight_history.extend(float(w) for w in weights)

    def _extra_state(self) -> dict:
        state = {
            "epsilon": self.epsilon,
            "strata_checksum": self.strata.checksum(),
            "n_strata": self.n_strata,
            "model": self.model.state_dict(),
            "estimator": self._estimator.state_dict(),
            "current_estimate": self._current_estimate,
            "record_diagnostics": self.record_diagnostics,
        }
        if self.record_diagnostics:
            state["pi_history"] = [np.array(p, copy=True) for p in self.pi_history]
            state["instrumental_history"] = [
                np.array(v, copy=True) for v in self.instrumental_history
            ]
            state["weight_history"] = list(self.weight_history)
        return state

    def _load_extra_state(self, state: dict) -> None:
        if state["strata_checksum"] != self.strata.checksum():
            raise ValueError(
                "state was captured over a different stratification; "
                "rebuild the sampler with the same scores and strata "
                "configuration before restoring"
            )
        if float(state["epsilon"]) != self.epsilon:
            raise ValueError(
                f"state was captured with epsilon={state['epsilon']}, but "
                f"this sampler has epsilon={self.epsilon}"
            )
        self.model.load_state_dict(state["model"])
        self._estimator.load_state_dict(state["estimator"])
        # v1 snapshots stored the running estimate as "current_f".
        current = state.get("current_estimate", state.get("current_f"))
        self._current_estimate = float(current)
        self.record_diagnostics = bool(state["record_diagnostics"])
        if self.record_diagnostics:
            self.pi_history = [
                np.asarray(p, dtype=float) for p in state["pi_history"]
            ]
            self.instrumental_history = [
                np.asarray(v, dtype=float) for v in state["instrumental_history"]
            ]
            self.weight_history = [float(w) for w in state["weight_history"]]
        else:
            self.pi_history = []
            self.instrumental_history = []
            self.weight_history = []

    @property
    def precision_estimate(self) -> float:
        """Importance-weighted precision estimate (alpha = 1)."""
        return self._estimator.precision

    @property
    def recall_estimate(self) -> float:
        """Importance-weighted recall estimate (alpha = 0)."""
        return self._estimator.recall

    def confidence_interval(self, level: float = 0.95) -> tuple:
        """Asymptotic confidence interval for the target-measure estimate.

        Delta-method normal approximation on the importance-weighted
        ratio estimator (an extension beyond the paper; see
        :meth:`repro.core.estimators.AISEstimator.confidence_interval`).
        """
        return self._estimator.confidence_interval(level)
