"""The pairwise F-measure family (paper Eqn 1).

The alpha-parametrisation weights precision against recall:

    F_alpha = TP / (alpha * (TP + FP) + (1 - alpha) * (TP + FN))

with ``alpha = 1`` giving precision, ``alpha = 0`` recall and
``alpha = 1/2`` the balanced F-measure.  The conventional
beta-parametrisation relates via ``alpha = 1 / (1 + beta^2)``
(paper footnote 1).
"""

from __future__ import annotations

import math

import numpy as np

from repro.measures.confusion import ConfusionCounts, confusion_counts
from repro.utils import check_in_range

__all__ = [
    "alpha_from_beta",
    "beta_from_alpha",
    "f_measure",
    "f_measure_from_counts",
    "precision",
    "recall",
    "pool_performance",
]


def alpha_from_beta(beta: float) -> float:
    """Convert an F_beta weight into the paper's alpha weight."""
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return 1.0 / (1.0 + beta**2)


def beta_from_alpha(alpha: float) -> float:
    """Convert an alpha weight into the conventional beta weight."""
    check_in_range(alpha, 0.0, 1.0, "alpha", low_open=True)
    return math.sqrt(1.0 / alpha - 1.0)


def f_measure_from_counts(counts: ConfusionCounts, alpha: float = 0.5) -> float:
    """Evaluate F_alpha from confusion counts.

    Returns ``nan`` when the denominator is zero, i.e. before any
    predicted or actual positive has been observed — the "undefined
    estimate" regime of passive sampling (paper section 6.3.1).
    """
    check_in_range(alpha, 0.0, 1.0, "alpha")
    # The Eqn 1 denominator regrouped as TP plus non-negative terms, so it
    # rounds to at least TP and the ratio never exceeds 1 (the expanded
    # form gives 3 / 2.9999999999999996 for TP = 3, alpha = 0.01).
    den = counts.tp + alpha * counts.fp + (1.0 - alpha) * counts.fn
    if den <= 0:
        return float("nan")
    return counts.tp / den


def f_measure(true_labels, pred_labels, alpha: float = 0.5, weights=None) -> float:
    """F_alpha of predictions against true labels (optionally weighted)."""
    counts = confusion_counts(true_labels, pred_labels, weights=weights)
    return f_measure_from_counts(counts, alpha=alpha)


def precision(true_labels, pred_labels, weights=None) -> float:
    """Precision = F_1 in the alpha-parametrisation."""
    return f_measure(true_labels, pred_labels, alpha=1.0, weights=weights)


def recall(true_labels, pred_labels, weights=None) -> float:
    """Recall = F_0 in the alpha-parametrisation."""
    return f_measure(true_labels, pred_labels, alpha=0.0, weights=weights)


def pool_performance(true_labels, pred_labels, alpha: float = 0.5) -> dict:
    """Exhaustive ground-truth performance of a predicted ER on a pool.

    This is the quantity every sampler is trying to estimate with fewer
    labels (the "true" columns of paper Table 2).

    Returns a dict with every ratio measure of
    :data:`repro.measures.ratio.MEASURE_KINDS` — precision, recall,
    F_alpha, accuracy, specificity, balanced accuracy and weighted
    relative accuracy — all evaluated from one confusion-count pass,
    plus the counts themselves.
    """
    from repro.measures.ratio import MEASURE_KINDS, FMeasure

    true_labels = np.asarray(true_labels, dtype=float)
    pred_labels = np.asarray(pred_labels, dtype=float)
    counts = confusion_counts(true_labels, pred_labels)
    out = {
        "precision": f_measure_from_counts(counts, alpha=1.0),
        "recall": f_measure_from_counts(counts, alpha=0.0),
        "f_measure": f_measure_from_counts(counts, alpha=alpha),
        "alpha": alpha,
        "counts": counts,
    }
    for kind, cls in MEASURE_KINDS.items():
        if cls is FMeasure:
            continue  # parametrised; covered by f_measure/precision/recall
        if kind in out:
            continue
        out[kind] = cls().value_from_counts(counts)
    return out
