"""Importance-weighted ratio-measure estimation (paper Eqn 3, section 5.2).

The AIS estimator generalises the paper's F-measure estimator to any
:class:`~repro.measures.ratio.RatioMeasure`.  It maintains the four
weighted moment sums

    (sum_t w_t l_t lhat_t,  sum_t w_t lhat_t,  sum_t w_t l_t,  sum_t w_t)

— a linear bijection of the weighted confusion masses (TP, FP, FN, TN)
— and evaluates the configured measure (or any other measure, since the
moments are measure-independent) at every iteration.  For
``FMeasure(alpha)`` this is exactly the paper's ratio of
importance-weighted sums

    F-hat = sum_t w_t l_t lhat_t
            -------------------------------------------------
            alpha sum_t w_t lhat_t + (1-alpha) sum_t w_t l_t

with w_t = p(z_t) / q_t(z_t), evaluated through the identical
floating-point expression tree as the historical alpha-only
implementation.  ``alpha=`` and the ``f_measure()`` / ``precision`` /
``recall`` accessors are kept as thin shims over the measure API.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from repro.measures.ratio import (
    FMeasure,
    LinearRatioMeasure,
    measure_from_spec,
    resolve_measure,
)
from repro.utils import check_in_range

__all__ = [
    "AISEstimator",
    "sample_f_measure_history",
    "sample_measure_history",
]

#: Label and prediction of each (l, lhat) cell, indexed ``2 * l + lhat``.
_CELLS_L, _CELLS_P = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])


class AISEstimator:
    """Online ratio-of-sums estimator for any ratio measure.

    Parameters
    ----------
    alpha:
        Deprecated F-measure shim: ``alpha=a`` is ``measure=FMeasure(a)``
        (0.5 balanced; 1 precision; 0 recall).  Mutually exclusive with
        ``measure``.
    measure:
        The target :class:`~repro.measures.ratio.RatioMeasure` (or a
        kind name / spec dict); defaults to ``FMeasure(0.5)``.
    track_observations:
        Keep the count, sum of weights and sum of squared weights of
        each (l, lhat) cell so delta-method confidence intervals
        (:meth:`confidence_interval`) and the weight ESS can be computed
        on demand.  Twelve floats, however many updates.
    """

    def __init__(self, alpha: float | None = None, *, measure=None,
                 track_observations: bool = False):
        self.measure = resolve_measure(measure, alpha)
        self.track_observations = track_observations
        self._weighted_tp = 0.0  # sum w * l * lhat
        self._weighted_pred = 0.0  # sum w * lhat
        self._weighted_true = 0.0  # sum w * l
        self._weighted_count = 0.0  # sum w
        self.n_observations = 0
        # Cell c = 2 l + lhat: count at c, sum w at 4 + c, sum w^2 at 8 + c.
        self._cells = [0.0] * 12

    @property
    def alpha(self):
        """The F-family weight, or None for non-F measures (deprecated)."""
        return getattr(self.measure, "alpha", None)

    def update(self, label: int, prediction: int, weight: float = 1.0) -> None:
        """Fold in one observation (l_t, lhat_t) with weight w_t."""
        # Python floats: the IEEE operations of NumPy scalars, faster.
        weight = float(weight)
        if weight < 0:
            raise ValueError(f"weight must be non-negative; got {weight}")
        label = float(label)
        prediction = float(prediction)
        self._weighted_tp += weight * label * prediction
        self._weighted_pred += weight * prediction
        self._weighted_true += weight * label
        self._weighted_count += weight
        self.n_observations += 1
        if self.track_observations:
            cells = self._cells
            cell = int(2.0 * label + prediction)
            cells[cell] += 1.0
            cells[4 + cell] += weight
            cells[8 + cell] += weight * weight

    def update_batch(self, labels, predictions, weights=None) -> np.ndarray:
        """Fold in a batch of observations with one vectorised update.

        Equivalent to calling :meth:`update` per observation in order.
        The running sums advance by cumulative sums computed in the
        same left-to-right order as the sequential path, so the
        post-batch state matches a sequential replay of the same
        observations and a batch of one is bit-identical to a single
        :meth:`update`.

        Returns the per-observation estimate trajectory (the value
        :attr:`estimate` would have reported after each observation;
        NaN where undefined) so batched samplers can keep per-draw
        histories without materialising intermediate states.
        """
        labels = np.asarray(labels, dtype=float)
        predictions = np.asarray(predictions, dtype=float)
        if labels.shape != predictions.shape or labels.ndim != 1:
            raise ValueError(
                f"labels {labels.shape} and predictions {predictions.shape} "
                "must be aligned 1-D arrays"
            )
        if weights is None:
            weights = np.ones_like(labels)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != labels.shape:
                raise ValueError(
                    f"weights {weights.shape} must align with labels "
                    f"{labels.shape}"
                )
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")
        if len(labels) == 0:
            return np.zeros(0)

        # Cumulate with the running sums as the first row so additions
        # happen in exactly the sequential left-to-right order — the
        # post-batch state is bit-identical to a sequential replay.
        start = [self._weighted_tp, self._weighted_pred,
                 self._weighted_true, self._weighted_count]
        moments = np.cumsum(np.vstack([
            start, self.measure.observation_moments(labels, predictions, weights)
        ]), axis=0)[1:]
        trajectory = np.asarray(
            self.measure.value_from_moments(*moments.T), dtype=float)
        (self._weighted_tp, self._weighted_pred, self._weighted_true,
         self._weighted_count) = moments[-1].tolist()
        self.n_observations += len(labels)
        if self.track_observations:
            self._fold_cells(labels, predictions, weights)
        return trajectory

    def _fold_cells(self, labels, predictions, weights) -> None:
        # np.add.at is unbuffered and adds in index (draw) order, so the
        # per-cell sums are bitwise those of an update() loop.
        sums = np.reshape(self._cells, (3, 4))
        np.add.at(sums.T, (2 * labels + predictions).astype(np.intp),
                  np.column_stack([np.ones_like(weights), weights,
                                   weights * weights]))
        self._cells = sums.ravel().tolist()

    def measure_value(self, measure=None) -> float:
        """Evaluate any ratio measure at the current moment sums.

        The moments are measure-independent, so a single sampling run
        can be read out under every measure; ``measure=None`` evaluates
        the configured target.
        """
        measure = self.measure if measure is None else measure_from_spec(measure)
        return measure.value_from_sums(
            self._weighted_tp,
            self._weighted_pred,
            self._weighted_true,
            self._weighted_count,
        )

    def f_measure(self, alpha: float | None = None) -> float:
        """Current F_alpha estimate; NaN while undefined.

        With ``alpha=None`` and a non-F configured measure, evaluates
        that measure instead (the method predates the measure API and
        is kept as its F-parametrised shim).
        """
        if alpha is None:
            return self.measure_value()
        check_in_range(alpha, 0.0, 1.0, "alpha")
        return self.measure_value(FMeasure(alpha))

    #: The configured measure's value (read after every draw, hence no
    #: wrapper around :meth:`measure_value`).
    estimate = property(measure_value)

    @property
    def precision(self) -> float:
        return self.f_measure(alpha=1.0)

    @property
    def recall(self) -> float:
        return self.f_measure(alpha=0.0)

    def _resolve(self, alpha, measure):
        if alpha is not None and measure is not None:
            raise ValueError("pass either measure= or alpha=, not both")
        if alpha is not None:
            check_in_range(alpha, 0.0, 1.0, "alpha")
            return FMeasure(alpha)
        if measure is not None:
            return measure_from_spec(measure)
        return self.measure

    def variance_estimate(self, alpha: float | None = None, *,
                          measure=None) -> float:
        """Delta-method variance of the ratio estimator.

        For a linear ratio G = A/B (A, B importance-weighted moment
        means) the first-order expansion gives
        ``Var(G) ~ mean[(w (g_num - G g_den))^2] / (T B^2)``; for
        non-linear measures the full gradient form
        ``mean[(grad . (w x - s))^2] / T`` is used.  ``g_num``, ``g_den``
        and ``x`` are constant within each (l, lhat) cell, so both means
        are evaluated from the per-cell sums.  Requires
        ``track_observations=True``; returns NaN while the estimate is
        undefined or the measure's denominator mass is zero (degenerate
        pools never raise).
        """
        if not self.track_observations:
            raise RuntimeError(
                "variance_estimate requires track_observations=True"
            )
        measure = self._resolve(alpha, measure)
        g_hat = self.measure_value(measure)
        if np.isnan(g_hat) or self.n_observations == 0:
            return float("nan")
        count, weight, square = np.reshape(self._cells, (3, 4))
        t = self.n_observations
        if isinstance(measure, LinearRatioMeasure):
            g_num, g_den = measure.observation_statistics(_CELLS_L, _CELLS_P)
            b_bar = float(weight @ g_den) / t
            if b_bar <= 0:
                return float("nan")
            residual = g_num - g_hat * g_den
            return float(square @ residual**2) / t / (t * b_bar**2)
        moments = measure.observation_moments(_CELLS_L, _CELLS_P, np.ones(4))
        mean_moments = weight @ moments / t
        gradient = np.asarray(
            measure.moment_gradient(*mean_moments), dtype=float
        )
        if not np.all(np.isfinite(gradient)):
            return float("nan")
        # Per cell, sum_i (w_i a - m)^2 = a^2 sum w^2 - 2 a m sum w + n m^2.
        a, m = moments @ gradient, float(mean_moments @ gradient)
        total = square @ a**2 - 2.0 * m * (weight @ a) + m * m * count.sum()
        return float(total) / t / t

    def confidence_interval(self, level: float = 0.95,
                            alpha: float | None = None, *,
                            measure=None) -> tuple:
        """Normal-approximation confidence interval for the estimate.

        Based on the asymptotic normality of the importance-weighted
        ratio estimator; clipped symmetrically into the measure's
        bounds ([0, 1] for the F family).  The normal quantile comes
        from the standard library's ``statistics.NormalDist().inv_cdf``.
        Returns (NaN, NaN) while the estimate or its variance is
        undefined.
        """
        check_in_range(level, 0.0, 1.0, "level", low_open=True, high_open=True)
        measure = self._resolve(alpha, measure)
        g_hat = self.measure_value(measure)
        variance = self.variance_estimate(measure=measure)
        if np.isnan(g_hat) or np.isnan(variance):
            return (float("nan"), float("nan"))
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        half = z * np.sqrt(variance)
        low, high = measure.bounds
        return (max(low, g_hat - half), min(high, g_hat + half))

    def weight_ess(self) -> float:
        """Kish effective sample size of the importance weights.

        ``(sum w)^2 / sum w^2`` — equals the observation count when the
        instrumental distribution matches the target exactly and decays
        toward 1 as the weights degenerate, making it a direct
        convergence signal for the sampling policy (the observability
        layer exports it per session).  Requires
        ``track_observations=True``; 0.0 before any observation.
        """
        if not self.track_observations:
            raise RuntimeError("weight_ess requires track_observations=True")
        square_sum = float(np.sum(self._cells[8:]))
        if square_sum <= 0.0:
            return 0.0
        total = float(np.sum(self._cells[4:8]))
        return total * total / square_sum

    def state(self) -> dict:
        """Snapshot of the running sums (for checkpoint/diagnostics)."""
        return {
            "weighted_tp": self._weighted_tp,
            "weighted_pred": self._weighted_pred,
            "weighted_true": self._weighted_true,
            "weighted_count": self._weighted_count,
            "n_observations": self.n_observations,
        }

    def state_dict(self) -> dict:
        """Versioned snapshot capturing the estimator exactly.

        Together with :meth:`load_state_dict` this is the
        snapshot-restore contract of the serving layer: restoring the
        returned dict into a fresh estimator reproduces every future
        estimate bit for bit, including the delta-method confidence
        intervals (the per-cell sums ride along).

        Format version 3 records the measure spec and the per-cell
        sums; versions 1 (alpha-only) and 2 (per-observation log) still
        load — see :meth:`load_state_dict`.
        """
        state = dict(self.state())
        state["format_version"] = 3
        state["measure"] = self.measure.spec()
        state["track_observations"] = self.track_observations
        state["cells"] = np.reshape(self._cells, (3, 4))
        return state

    def _check_measure(self, captured) -> None:
        if captured != self.measure:
            raise ValueError(
                f"state was captured for measure {captured.name}, but this "
                f"estimator targets {self.measure.name}"
            )

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Version-1 and -2 snapshots carry the per-observation log; it is
        folded into the per-cell sums in draw order, so the estimator
        continues bitwise.  Version-1 (alpha-only) snapshots target
        ``FMeasure(alpha)``; their missing total-weight moment is summed
        from the log in draw order, or is NaN without one — then measures
        that need it (accuracy, specificity, ...) read NaN until reset,
        while the F family is unaffected.
        """
        version = state.get("format_version")
        if version == 1:
            captured = FMeasure(float(state["alpha"]))
        elif version in (2, 3):
            captured = measure_from_spec(state["measure"])
        else:
            raise ValueError(f"unsupported estimator state version {version!r}")
        self._check_measure(captured)
        self._weighted_tp = float(state["weighted_tp"])
        self._weighted_pred = float(state["weighted_pred"])
        self._weighted_true = float(state["weighted_true"])
        self.n_observations = int(state["n_observations"])
        self.track_observations = bool(state["track_observations"])
        if version == 3:
            self._cells = np.ravel(state["cells"]).astype(float).tolist()
        else:
            self._cells = [0.0] * 12
            log = np.asarray(state["observations"], dtype=float).reshape(-1, 3)
            self._fold_cells(log[:, 1], log[:, 2], log[:, 0])
        if version >= 2:
            self._weighted_count = float(state["weighted_count"])
        elif self.track_observations and len(log) == self.n_observations:
            self._weighted_count = float(np.cumsum(np.append(0.0, log[:, 0]))[-1])
        elif self.n_observations == 0:
            self._weighted_count = 0.0
        else:
            self._weighted_count = float("nan")

    def reset(self) -> None:
        self._weighted_tp = 0.0
        self._weighted_pred = 0.0
        self._weighted_true = 0.0
        self._weighted_count = 0.0
        self.n_observations = 0
        self._cells = [0.0] * 12


def sample_measure_history(labels, predictions, weights=None, *,
                           measure=None, alpha=None):
    """Vectorised trajectory of the AIS estimate after each observation.

    Equivalent to feeding the sequence through :class:`AISEstimator`
    configured with the same measure and recording the estimate at
    every step — used to post-process recorded sampling runs without
    re-simulation.

    Returns an array of length T with NaN where the estimate is
    undefined.
    """
    measure = resolve_measure(measure, alpha)
    labels = np.asarray(labels, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if weights is None:
        weights = np.ones_like(labels)
    else:
        weights = np.asarray(weights, dtype=float)
    if not (len(labels) == len(predictions) == len(weights)):
        raise ValueError("labels, predictions and weights must share length")

    moments = np.cumsum(
        measure.observation_moments(labels, predictions, weights), axis=0)
    return np.asarray(measure.value_from_moments(*moments.T), dtype=float)


def sample_f_measure_history(labels, predictions, weights=None,
                             alpha: float = 0.5):
    """F-measure shim over :func:`sample_measure_history`."""
    check_in_range(alpha, 0.0, 1.0, "alpha")
    return sample_measure_history(
        labels, predictions, weights, measure=FMeasure(alpha)
    )
