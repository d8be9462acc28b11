"""Scale-ladder runner: memory-bounded end-to-end rung execution.

One rung = generate a :mod:`repro.datasets.scale` pool (chunked on
disk), block it with MinHash-LSH, train and apply the pair classifier
chunk-wise under a memory budget, then evaluate the predicted
resolution's F-measure two ways: exactly (ground truth over the
candidate pool) and with an :class:`~repro.core.oasis.OASISSampler`
consuming a small label budget — the paper's estimator running on top
of the out-of-core pipeline it was built for.

Per-phase wall time, candidate/scoring throughput, peak RSS (when
measurable; see :mod:`repro.utils.memory`) and blocking recall against
ground truth are reported per rung, giving ``BENCH_pipeline.json`` its
scale *trajectory*.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro.classifiers.calibration import PlattCalibrator
from repro.classifiers.linear_svm import LinearSVM
from repro.core.oasis import OASISSampler
from repro.datasets.scale import DATASET_SPECS, ScaleSpec, generate_scale_sources
from repro.measures.fmeasure import pool_performance
from repro.oracle.deterministic import DeterministicOracle
from repro.pipeline.blocking import minhash_lsh_pairs, token_blocking_pairs
from repro.pipeline.features import FieldSpec, PairFeatureExtractor
from repro.pipeline.matching import ERPipeline
from repro.utils.memory import PeakRssTracker, rss_supported

__all__ = ["run_scale_rung", "run_scale_ladder", "DEFAULT_MEMORY_BUDGET"]

# Transient-memory target for scoring kernels; deliberately far below
# what the eager pair space of the large rungs would need.
DEFAULT_MEMORY_BUDGET = 128 * 1024 * 1024

_FIELD_SPECS = (
    FieldSpec("name", "short_text"),
    FieldSpec("description", "long_text"),
    FieldSpec("price", "numeric"),
)
_SCORE_CHUNK_PAIRS = 65_536


def _encode(pairs: np.ndarray, n_b: int) -> np.ndarray:
    return pairs[:, 0] * n_b + pairs[:, 1]


def _training_pairs(
    candidates: np.ndarray,
    true_keys: np.ndarray,
    n_b: int,
    rng: np.random.Generator,
    train_size: int,
):
    """A labelled, non-representative training subset (paper 2.1.1).

    Half the budget comes from candidate pairs that are true matches,
    half from candidate non-matches, sampled uniformly from each side.
    """
    keys = _encode(candidates, n_b)
    is_match = np.isin(keys, true_keys)
    match_rows = np.flatnonzero(is_match)
    other_rows = np.flatnonzero(~is_match)
    take_m = min(len(match_rows), train_size // 2)
    take_o = min(len(other_rows), train_size - take_m)
    rows = np.concatenate(
        [
            rng.choice(match_rows, size=take_m, replace=False),
            rng.choice(other_rows, size=take_o, replace=False),
        ]
    )
    rng.shuffle(rows)
    return candidates[rows], is_match[rows].astype(np.int8), is_match


def run_scale_rung(
    spec: ScaleSpec | str,
    *,
    seed: int = 0,
    directory=None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    bands: int = 32,
    rows: int = 4,
    ngram_size: int | None = 3,
    train_size: int = 1_000,
    label_budget: int = 600,
    oracle_recall_check: bool | None = None,
    rss_interval: float = 0.02,
) -> dict:
    """Run one ladder rung end-to-end and return its metrics dict.

    Phases: stream-generate the pool into chunked stores (under
    ``directory`` or a temporary directory), MinHash-LSH block, fit the
    extractor + linear SVM on a small labelled subset, score every
    candidate chunk-wise under ``memory_budget``, threshold into a
    predicted resolution, then estimate the F-measure with OASIS
    against the ground-truth oracle.

    ``oracle_recall_check`` additionally runs exact token blocking as
    the recall oracle (defaults to on for pools up to the ``small``
    rung's size, where the exact scheme comfortably fits in memory).
    """
    if isinstance(spec, str):
        spec = DATASET_SPECS[spec]
    rng = np.random.default_rng(seed + 7)
    if oracle_recall_check is None:
        oracle_recall_check = spec.n_records <= DATASET_SPECS["small"].n_records

    metrics: dict = {
        "rung": spec.name,
        "n_records": spec.n_records,
        "n_records_a": spec.n_records_a,
        "n_records_b": spec.n_records_b,
        "exact_pair_space": spec.exact_pair_space,
        "exact_pair_bytes": spec.exact_pair_space * 2 * 8,
        "memory_budget": int(memory_budget),
        "bands": bands,
        "rows": rows,
        "ngram_size": ngram_size,
        "rss_supported": rss_supported(),
    }

    with tempfile.TemporaryDirectory() as tmp:
        workdir = directory if directory is not None else tmp
        tracker = PeakRssTracker(interval=rss_interval)
        with tracker:
            t0 = time.perf_counter()
            sources = generate_scale_sources(spec, seed=seed, directory=workdir)
            t1 = time.perf_counter()

            candidates = minhash_lsh_pairs(
                sources.store_a,
                sources.store_b,
                "name",
                bands=bands,
                rows=rows,
                seed=seed,
                ngram_size=ngram_size,
            )
            t2 = time.perf_counter()

            n_b = len(sources.store_b)
            true_pairs = sources.true_match_pairs()
            true_keys = _encode(true_pairs, n_b)
            candidate_keys = _encode(candidates, n_b)
            lsh_hits = int(np.isin(true_keys, candidate_keys).sum())
            metrics["n_true_matches"] = len(true_pairs)
            metrics["n_candidates"] = len(candidates)
            metrics["lsh_recall_truth"] = (
                lsh_hits / len(true_pairs) if len(true_pairs) else 1.0
            )

            train_pairs, train_labels, is_match = _training_pairs(
                candidates, true_keys, n_b, rng, train_size
            )
            extractor = PairFeatureExtractor(
                list(_FIELD_SPECS), memory_budget=memory_budget
            )
            classifier = PlattCalibrator(
                LinearSVM(random_state=seed), random_state=seed)
            pipeline = ERPipeline(
                extractor,
                classifier,
                threshold=0.5,
                use_probabilities=True,
                memory_budget=memory_budget,
            )
            pipeline.fit(
                sources.store_a, sources.store_b, train_pairs, train_labels
            )
            t3 = time.perf_counter()

            # Chunk-wise scoring of the whole candidate pool: only the
            # compact score/prediction vectors accumulate.
            score_blocks: list[np.ndarray] = []
            pair_blocks = (
                candidates[start : start + _SCORE_CHUNK_PAIRS]
                for start in range(0, len(candidates), _SCORE_CHUNK_PAIRS)
            )
            for block in pipeline.score_pairs_iter(pair_blocks):
                score_blocks.append(block)
            scores = (
                np.concatenate(score_blocks)
                if score_blocks
                else np.empty(0, dtype=float)
            )
            predictions = (scores >= pipeline.threshold).astype(np.int8)
            t4 = time.perf_counter()

            true_labels = is_match.astype(np.int8)
            performance = dict(pool_performance(true_labels, predictions))
            counts = performance.pop("counts")
            performance["counts"] = {
                k: float(getattr(counts, k)) for k in ("tp", "fp", "fn", "tn")
            }
            metrics["pool_performance"] = performance
            oracle = DeterministicOracle(true_labels)
            sampler = OASISSampler(
                predictions,
                scores,
                oracle,
                threshold=pipeline.threshold,
                scores_are_probabilities=True,
                random_state=seed,
            )
            budget = min(label_budget, len(true_labels))
            sampler.sample_until_budget(budget, batch_size=50)
            metrics["oasis"] = {
                "estimate": float(sampler.estimate),
                "true_f_measure": metrics["pool_performance"]["f_measure"],
                "labels_consumed": int(sampler.labels_consumed),
                "pool_size": int(len(true_labels)),
            }
            t5 = time.perf_counter()

            if oracle_recall_check:
                exact = token_blocking_pairs(
                    sources.store_a, sources.store_b, "name"
                )
                exact_keys = _encode(exact, n_b)
                true_in_exact = np.isin(true_keys, exact_keys)
                denom = int(true_in_exact.sum())
                hits = int(
                    np.isin(true_keys[true_in_exact], candidate_keys).sum()
                )
                metrics["oracle"] = {
                    "n_exact_candidates": int(len(exact)),
                    "lsh_recall_vs_exact": hits / denom if denom else 1.0,
                }

        metrics["peak_rss_bytes"] = tracker.peak_bytes
        metrics["timings"] = {
            "generate_s": t1 - t0,
            "block_s": t2 - t1,
            "fit_s": t3 - t2,
            "score_s": t4 - t3,
            "evaluate_s": t5 - t4,
            "total_s": t5 - t0,
        }
        metrics["throughput"] = {
            "records_per_s_generate": spec.n_records / max(t1 - t0, 1e-9),
            "pairs_per_s_score": len(candidates) / max(t4 - t3, 1e-9),
        }
    return metrics


def run_scale_ladder(
    rungs=("small", "medium", "large"),
    *,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    **rung_kwargs,
) -> list[dict]:
    """Run several rungs in sequence; returns one metrics dict each."""
    return [
        run_scale_rung(
            rung, seed=seed, memory_budget=memory_budget, **rung_kwargs
        )
        for rung in rungs
    ]
