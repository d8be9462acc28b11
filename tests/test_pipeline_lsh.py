"""MinHash-LSH blocking: soundness, dedup exactness and recall floor.

LSH is the approximate at-scale replacement for exact token blocking,
so its contract is asymmetric: it may *miss* pairs (bounded below by
the seeded recall floor against the exact oracle) but everything it
emits must be sound — a subset of the cross product, exactly
deduplicated, deterministic in the seed and invariant to the chunk
size it streams columns with.  The band keys must equal those of the
``(tokens, n_perm)`` broadcast formula the per-permutation loop
replaced, and the signature pass must stay small in memory.  The
external-memory sorted neighbourhood must be bit-identical to the
in-memory variant.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.scale import ScaleSpec, generate_scale_sources
from repro.pipeline import (
    Record,
    RecordStore,
    minhash_lsh_pairs,
    sorted_neighbourhood_pairs,
    sorted_neighbourhood_pairs_external,
    token_blocking_pairs,
)
from repro.pipeline.blocking import _MIX, _band_keys, _token_hashes

# Small word pool: collisions (shared tokens) are likely, which is
# what exercises the banding and dedup paths.
_WORDS = ["acme", "zen", "polar", "rocket", "lamp", "", "中文", "a-b"]

name_values = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_WORDS), min_size=0, max_size=4).map(" ".join),
)
name_lists = st.lists(name_values, min_size=1, max_size=14)


def _store(names) -> RecordStore:
    store = RecordStore(("name",))
    for i, name in enumerate(names):
        fields = {} if name is None else {"name": name}
        store.add(Record(i, i, fields))
    return store


@settings(max_examples=40, deadline=None)
@given(
    names_a=name_lists,
    names_b=name_lists,
    seed=st.integers(0, 10**6),
    bands=st.integers(1, 8),
    rows=st.integers(1, 4),
)
def test_candidates_sound_and_deduplicated(names_a, names_b, seed, bands, rows):
    """Every emitted pair is in-range, unique and lexicographically sorted."""
    store_a, store_b = _store(names_a), _store(names_b)
    pairs = minhash_lsh_pairs(
        store_a, store_b, "name", bands=bands, rows=rows, seed=seed
    )
    assert pairs.shape[1] == 2
    assert np.all((pairs[:, 0] >= 0) & (pairs[:, 0] < len(store_a)))
    assert np.all((pairs[:, 1] >= 0) & (pairs[:, 1] < len(store_b)))
    # Dedup exactness of the a*n_b+b integer-key encoding: no repeated
    # rows, and the canonical np.unique (lexicographic) order.
    keys = pairs[:, 0] * len(store_b) + pairs[:, 1]
    assert len(np.unique(keys)) == len(keys)
    assert np.all(np.diff(keys) > 0) if len(keys) > 1 else True


@settings(max_examples=25, deadline=None)
@given(names_a=name_lists, names_b=name_lists, seed=st.integers(0, 10**6))
def test_identical_keys_always_pair(names_a, names_b, seed):
    """Records with equal non-empty keys agree on every MinHash band."""
    store_a, store_b = _store(names_a), _store(names_b)
    pairs = minhash_lsh_pairs(store_a, store_b, "name", seed=seed)
    found = {tuple(p) for p in pairs}
    keys_a = store_a.normalised_field("name")
    keys_b = store_b.normalised_field("name")
    for i, key_a in enumerate(keys_a):
        if not key_a:
            continue
        for j, key_b in enumerate(keys_b):
            if key_a == key_b:
                assert (i, j) in found


@settings(max_examples=25, deadline=None)
@given(
    names_a=name_lists,
    names_b=name_lists,
    seed=st.integers(0, 10**6),
    chunk_size=st.integers(1, 20),
)
def test_chunk_size_invariance(names_a, names_b, seed, chunk_size):
    """The streamed signature is independent of column chunking."""
    store_a, store_b = _store(names_a), _store(names_b)
    reference = minhash_lsh_pairs(store_a, store_b, "name", seed=seed)
    chunked = minhash_lsh_pairs(
        store_a, store_b, "name", seed=seed, chunk_size=chunk_size
    )
    np.testing.assert_array_equal(reference, chunked)


def _broadcast_band_keys(store, field, bands, rows, params_a, params_b,
                         chunk_size, ngram_size):
    """The parity oracle: band keys from the (tokens, n_perm) broadcast."""
    key_blocks, valid_blocks = [], []
    cache: dict[str, int] = {}
    for chunk in store.iter_normalised_chunks(field, chunk_size):
        lengths = np.empty(len(chunk), dtype=np.int64)
        flat: list[int] = []
        for i, key in enumerate(chunk):
            hashes = _token_hashes(key, cache, ngram_size)
            lengths[i] = len(hashes)
            flat.extend(hashes)
        valid = lengths > 0
        keys = np.zeros((len(chunk), bands), dtype=np.uint64)
        if flat:
            x = np.array(flat, dtype=np.uint64)
            hashed = params_a[None, :] * x[:, None] + params_b[None, :]
            offsets = np.zeros(int(valid.sum()), dtype=np.int64)
            np.cumsum(lengths[valid][:-1], out=offsets[1:])
            minima = np.minimum.reduceat(hashed, offsets, axis=0)
            sig = minima.reshape(-1, bands, rows)
            band = sig[:, :, 0].copy()
            for r in range(1, rows):
                band = band * _MIX ^ sig[:, :, r]
            keys[valid] = band
        key_blocks.append(keys)
        valid_blocks.append(valid)
    return np.concatenate(key_blocks), np.concatenate(valid_blocks)


@settings(max_examples=60, deadline=None)
@given(
    names=name_lists,
    seed=st.integers(0, 10**6),
    bands=st.integers(1, 8),
    rows=st.integers(1, 4),
    ngram_size=st.sampled_from([None, 3]),
    chunk_size=st.integers(1, 20),
)
def test_band_keys_match_the_broadcast_formula(
    names, seed, bands, rows, ngram_size, chunk_size
):
    """Per-permutation minima give the broadcast formula's keys, bit for bit."""
    store = _store(names)
    rng = np.random.default_rng(seed)
    params_a = rng.integers(0, 2**64, size=bands * rows,
                            dtype=np.uint64) | np.uint64(1)
    params_b = rng.integers(0, 2**64, size=bands * rows, dtype=np.uint64)
    # uint64 wraparound on arrays raises no floating-point error.
    with np.errstate(all="raise"):
        keys, valid = _band_keys(store, "name", bands, rows, params_a,
                                 params_b, {}, chunk_size, ngram_size)
    expected_keys, expected_valid = _broadcast_band_keys(
        store, "name", bands, rows, params_a, params_b, chunk_size, ngram_size
    )
    assert keys.dtype == np.uint64
    assert keys.shape == (len(names), bands)
    np.testing.assert_array_equal(valid, expected_valid)
    np.testing.assert_array_equal(keys, expected_keys)


def test_signature_memory_does_not_scale_with_permutations():
    """The small rung's LSH pass peaks far below tokens x n_perm x 8 B.

    The rung's settings (32 x 4 permutations over character trigrams)
    on ``small`` in-memory stores: ~76k tokens per source, so one
    (tokens, n_perm) uint64 matrix alone would need ~74 MiB.
    """
    sources = generate_scale_sources("small", seed=0)
    for store in (sources.store_a, sources.store_b):
        store.normalised_field("name")
    tracemalloc.start()
    try:
        pairs = minhash_lsh_pairs(
            sources.store_a, sources.store_b, "name",
            bands=32, rows=4, seed=0, ngram_size=3,
        )
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) > 0
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@settings(max_examples=25, deadline=None)
@given(
    names_a=name_lists,
    names_b=name_lists,
    window=st.integers(2, 6),
    run_size=st.integers(1, 8),
)
def test_external_snm_matches_in_memory(names_a, names_b, window, run_size):
    """Disk-run merge == in-memory sort, bit for bit."""
    store_a, store_b = _store(names_a), _store(names_b)
    in_memory = sorted_neighbourhood_pairs(
        store_a, store_b, "name", window=window
    )
    external = sorted_neighbourhood_pairs_external(
        store_a, store_b, "name", window=window, run_size=run_size
    )
    np.testing.assert_array_equal(in_memory, external)


class TestRecallFloor:
    """Seeded recall floor on a corrupted-duplicate pool."""

    @pytest.fixture(scope="class")
    def pool(self):
        spec = ScaleSpec(name="tiny", n_entities=400)
        return generate_scale_sources(spec, seed=11)

    def test_recall_vs_exact_token_blocking(self, pool):
        """Of the true matches exact blocking finds, LSH keeps >= 0.9."""
        candidates = minhash_lsh_pairs(
            pool.store_a, pool.store_b, "name",
            bands=32, rows=4, seed=0, ngram_size=3,
        )
        exact = token_blocking_pairs(pool.store_a, pool.store_b, "name")
        n_b = len(pool.store_b)
        true_keys = pool.true_match_pairs()[:, 0] * n_b + pool.true_match_pairs()[:, 1]
        exact_keys = exact[:, 0] * n_b + exact[:, 1]
        candidate_keys = candidates[:, 0] * n_b + candidates[:, 1]
        oracle_hits = np.intersect1d(true_keys, exact_keys)
        assert len(oracle_hits) > 0
        recall = np.isin(oracle_hits, candidate_keys).mean()
        assert recall >= 0.9

    def test_lsh_prunes_the_pair_space(self, pool):
        candidates = minhash_lsh_pairs(
            pool.store_a, pool.store_b, "name",
            bands=32, rows=4, seed=0, ngram_size=3,
        )
        full = len(pool.store_a) * len(pool.store_b)
        assert len(candidates) < 0.05 * full

    def test_deterministic_in_seed(self, pool):
        first = minhash_lsh_pairs(pool.store_a, pool.store_b, "name", seed=5)
        again = minhash_lsh_pairs(pool.store_a, pool.store_b, "name", seed=5)
        other = minhash_lsh_pairs(pool.store_a, pool.store_b, "name", seed=6)
        np.testing.assert_array_equal(first, again)
        assert len(first) > 0
        # A different seed redraws the hash family; the candidate set
        # is allowed to differ (and virtually always does).
        same = len(first) == len(other) and bool(np.all(first == other))
        assert not same


class TestNgramTokens:
    def test_ngrams_survive_a_typo(self):
        """Character n-grams pair a typo'd duplicate that word tokens miss."""
        store_a = _store(["farnsworth chronoscope"])
        store_b = _store(["farnswroth chronoscpoe"])  # two transpositions
        word_pairs = minhash_lsh_pairs(
            store_a, store_b, "name", bands=32, rows=4, seed=0
        )
        ngram_pairs = minhash_lsh_pairs(
            store_a, store_b, "name", bands=32, rows=4, seed=0, ngram_size=3
        )
        assert (0, 0) not in {tuple(p) for p in word_pairs}
        assert (0, 0) in {tuple(p) for p in ngram_pairs}

    def test_bands_rows_validated(self):
        store = _store(["a b"])
        with pytest.raises(ValueError):
            minhash_lsh_pairs(store, store, "name", bands=0)
        with pytest.raises(ValueError):
            minhash_lsh_pairs(store, store, "name", rows=0)
