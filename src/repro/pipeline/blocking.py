"""Blocking schemes for candidate-pair reduction.

The paper's background describes blocking as the pipeline stage that
reduces pair comparisons with a linear scan.  Two classic schemes are
provided as substrate: token blocking and sorted neighbourhood.  Note
the paper's evaluation deliberately avoids blocking-filtered pools
(filtering "injects hidden bias into estimates"); these are offered for
building realistic pipelines, not for constructing evaluation pools.

Both schemes are join-based internally: candidate pairs are encoded as
single integers ``a * len(store_b) + b``, blocks are expanded with
``np.repeat``/``np.tile``-style broadcasting, and deduplication is one
``np.unique`` over the encoded keys — no Python ``set`` of tuples on
the hot path.  The original set-based scans survive as
``token_blocking_pairs_reference`` / ``sorted_neighbourhood_pairs_reference``
for parity testing.
"""

from __future__ import annotations

import heapq
import pickle
import tempfile
from collections import defaultdict, deque
from hashlib import blake2b
from pathlib import Path

import numpy as np

from repro.pipeline.records import BaseRecordStore as RecordStore

__all__ = [
    "token_blocking_pairs",
    "sorted_neighbourhood_pairs",
    "minhash_lsh_pairs",
    "sorted_neighbourhood_pairs_external",
    "token_blocking_pairs_reference",
    "sorted_neighbourhood_pairs_reference",
]


def _normalised_keys(store: RecordStore, field: str) -> list[str]:
    """Each record's blocking key, normalised and cached on the store."""
    return store.normalised_field(field)


def _decode_pair_keys(keys: np.ndarray, n_b: int) -> np.ndarray:
    """Sorted unique ``a * n_b + b`` keys back to an (n, 2) index array."""
    if len(keys) == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = np.unique(keys)
    return np.column_stack([keys // n_b, keys % n_b])


def _token_index(keys: list[str]) -> dict[str, list[int]]:
    """Inverted index: token -> record indices whose key contains it."""
    index: dict[str, list[int]] = defaultdict(list)
    for i, key in enumerate(keys):
        for token in set(key.split()):
            index[token].append(i)
    return index


def _token_block_allowed(
    size_a: int,
    size_b: int,
    max_block_size: int | None,
    max_pairs_per_token: int | None,
) -> bool:
    """Shared guard semantics for the join and reference paths."""
    if max_block_size is not None and (
        size_a > max_block_size or size_b > max_block_size
    ):
        return False
    if max_pairs_per_token is not None and size_a * size_b > max_pairs_per_token:
        return False
    return True


def token_blocking_pairs(
    store_a: RecordStore,
    store_b: RecordStore,
    field: str,
    *,
    max_block_size: int | None = None,
    max_pairs_per_token: int | None = None,
) -> np.ndarray:
    """Candidate pairs sharing at least one token of ``field``.

    Records are indexed by normalised tokens; every (a, b) pair that
    co-occurs in some token's block becomes a candidate.  Per-token
    blocks are expanded into integer pair keys and deduplicated with a
    single ``np.unique``.

    Parameters
    ----------
    store_a, store_b:
        The two record sources.
    field:
        Schema field supplying the blocking key.
    max_block_size:
        Drop a token whose block in *either* source holds more than
        this many records (stop-word tokens).  Bounds per-source block
        membership.
    max_pairs_per_token:
        Drop a token whose block *product* ``len(block_a) * len(block_b)``
        exceeds this many candidate pairs.  Bounds per-token pair
        generation independently of either side's membership.

    Returns a deduplicated (n, 2) array of index pairs, sorted
    lexicographically.
    """
    n_b = len(store_b)
    if len(store_a) == 0 or n_b == 0:
        return np.empty((0, 2), dtype=np.int64)
    index_a = _token_index(_normalised_keys(store_a, field))
    index_b = _token_index(_normalised_keys(store_b, field))

    key_chunks: list[np.ndarray] = []
    for token, block_a in index_a.items():
        block_b = index_b.get(token)
        if not block_b:
            continue
        if not _token_block_allowed(
            len(block_a), len(block_b), max_block_size, max_pairs_per_token
        ):
            continue
        lefts = np.asarray(block_a, dtype=np.int64)
        rights = np.asarray(block_b, dtype=np.int64)
        # Cross product of the token's two blocks, as encoded keys.
        key_chunks.append(
            (np.repeat(lefts, len(rights)) * n_b + np.tile(rights, len(lefts)))
        )
    if not key_chunks:
        return np.empty((0, 2), dtype=np.int64)
    return _decode_pair_keys(np.concatenate(key_chunks), n_b)


def token_blocking_pairs_reference(
    store_a: RecordStore,
    store_b: RecordStore,
    field: str,
    *,
    max_block_size: int | None = None,
    max_pairs_per_token: int | None = None,
) -> np.ndarray:
    """Set-based scan with the same semantics as :func:`token_blocking_pairs`.

    The original per-pair accumulation, kept as the parity baseline for
    the join-based implementation.
    """
    index_a = _token_index(_normalised_keys(store_a, field))
    index_b = _token_index(_normalised_keys(store_b, field))

    seen: set[tuple[int, int]] = set()
    for token, block_a in index_a.items():
        block_b = index_b.get(token)
        if not block_b:
            continue
        if not _token_block_allowed(
            len(block_a), len(block_b), max_block_size, max_pairs_per_token
        ):
            continue
        for i in block_a:
            for j in block_b:
                seen.add((i, j))
    if not seen:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(sorted(seen), dtype=np.int64)


def _sorted_merge(store_a: RecordStore, store_b: RecordStore, field: str):
    """Both stores merged and sorted by (normalised key, source, index)."""
    keyed = [
        (key, 0, i) for i, key in enumerate(_normalised_keys(store_a, field))
    ]
    keyed.extend(
        (key, 1, j) for j, key in enumerate(_normalised_keys(store_b, field))
    )
    keyed.sort()
    return keyed


def sorted_neighbourhood_pairs(
    store_a: RecordStore,
    store_b: RecordStore,
    field: str,
    *,
    window: int = 5,
) -> np.ndarray:
    """Sorted-neighbourhood blocking over a shared sort key.

    Records from both sources are merged, sorted by the normalised
    field value, and every cross-source pair within a sliding window of
    size ``window`` becomes a candidate.  The window scan is one array
    shift per offset: positions ``p`` and ``p + offset`` pair up for
    every offset below ``window``, cross-source pairs are kept, and the
    encoded keys are deduplicated with ``np.unique``.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2; got {window}")
    n_b = len(store_b)
    if len(store_a) == 0 or n_b == 0:
        return np.empty((0, 2), dtype=np.int64)
    keyed = _sorted_merge(store_a, store_b, field)
    source = np.fromiter((s for __, s, __ in keyed), dtype=np.int64, count=len(keyed))
    local = np.fromiter((i for __, __, i in keyed), dtype=np.int64, count=len(keyed))

    key_chunks: list[np.ndarray] = []
    for offset in range(1, window):
        if offset >= len(keyed):
            break
        head = slice(None, len(keyed) - offset)
        tail = slice(offset, None)
        cross = source[head] != source[tail]
        if not cross.any():
            continue
        first_is_a = source[head][cross] == 0
        left = np.where(first_is_a, local[head][cross], local[tail][cross])
        right = np.where(first_is_a, local[tail][cross], local[head][cross])
        key_chunks.append(left * n_b + right)
    if not key_chunks:
        return np.empty((0, 2), dtype=np.int64)
    return _decode_pair_keys(np.concatenate(key_chunks), n_b)


# -- MinHash-LSH ------------------------------------------------------

# Multiply-shift MinHash parameters live in uint64 with wraparound
# arithmetic; the odd multiplier keeps the map a bijection.
_MIX = np.uint64(0x9E3779B97F4A7C15)
_LSH_CHUNK = 8_192


def _key_tokens(key: str, ngram_size: int | None):
    """A key's token set: whitespace words, or character n-grams.

    N-gram tokens (via :func:`repro.pipeline.similarity.ngrams`) make
    the MinHash sketch robust to typos — one character edit perturbs
    only ``n`` of a key's grams instead of knocking out a whole word.
    """
    if ngram_size is None:
        return set(key.split())
    from repro.pipeline.similarity import ngrams

    return ngrams(key, ngram_size)


def _token_hashes(
    key: str, cache: dict[str, int], ngram_size: int | None
) -> list[int]:
    """Stable 64-bit hashes of a key's unique tokens (memoised)."""
    out = []
    for token in _key_tokens(key, ngram_size):
        h = cache.get(token)
        if h is None:
            h = int.from_bytes(
                blake2b(token.encode("utf-8"), digest_size=8).digest(), "little"
            )
            cache[token] = h
        out.append(h)
    return out


def _band_keys(
    store: RecordStore,
    field: str,
    bands: int,
    rows: int,
    params_a: np.ndarray,
    params_b: np.ndarray,
    token_cache: dict[str, int],
    chunk_size: int,
    ngram_size: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record banded MinHash keys, computed chunk-by-chunk.

    Returns ``(keys, valid)`` where ``keys`` is an ``(n, bands)`` uint64
    array of band signatures and ``valid`` marks records whose key has
    at least one token.  Only the compact band keys are retained — the
    full ``bands * rows`` signature matrix exists per chunk only.

    The minima are taken one permutation at a time: the chunk's flat
    token hashes are permuted in place into one scratch vector and
    min-reduced per record into one row of an ``(n_perm, n_valid)``
    array, so the transient memory is two token-length vectors plus the
    minima, never a ``(tokens, n_perm)`` matrix.  uint64 arithmetic on
    arrays wraps around without a floating-point warning.
    """
    n_perm = bands * rows
    key_blocks: list[np.ndarray] = []
    valid_blocks: list[np.ndarray] = []
    for chunk in store.iter_normalised_chunks(field, chunk_size):
        lengths = np.empty(len(chunk), dtype=np.int64)
        flat: list[int] = []
        for i, key in enumerate(chunk):
            hashes = _token_hashes(key, token_cache, ngram_size)
            lengths[i] = len(hashes)
            flat.extend(hashes)
        valid = lengths > 0
        keys = np.zeros((len(chunk), bands), dtype=np.uint64)
        if flat:
            x = np.array(flat, dtype=np.uint64)
            h = np.empty_like(x)
            offsets = np.zeros(int(valid.sum()), dtype=np.int64)
            np.cumsum(lengths[valid][:-1], out=offsets[1:])
            minima = np.empty((n_perm, len(offsets)), dtype=np.uint64)
            for p in range(n_perm):
                np.multiply(x, params_a[p], out=h)
                h += params_b[p]
                np.minimum.reduceat(h, offsets, out=minima[p])
            sig = minima.reshape(bands, rows, -1)
            band = sig[:, 0].copy()
            for r in range(1, rows):
                band = band * _MIX ^ sig[:, r]
            keys[valid] = band.T
        key_blocks.append(keys)
        valid_blocks.append(valid)
    if not key_blocks:
        return (
            np.empty((0, bands), dtype=np.uint64),
            np.empty(0, dtype=bool),
        )
    return np.concatenate(key_blocks), np.concatenate(valid_blocks)


def _bucket_join(
    keys_a: np.ndarray,
    keys_b: np.ndarray,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    n_b: int,
    max_bucket_size: int | None,
) -> np.ndarray:
    """Encoded pair keys for every (a, b) sharing a band bucket.

    A vectorised grouped cross product: both key columns are mapped to
    shared integer codes, each side is grouped by code with one stable
    argsort, and per-bucket blocks are expanded with
    ``np.repeat`` + a grouped ``arange`` — no Python loop over buckets.
    """
    codes, inverse = np.unique(
        np.concatenate([keys_a, keys_b]), return_inverse=True
    )
    codes_a = inverse[: len(keys_a)]
    codes_b = inverse[len(keys_a):]
    n_codes = len(codes)
    counts_a = np.bincount(codes_a, minlength=n_codes)
    counts_b = np.bincount(codes_b, minlength=n_codes)
    keep = (counts_a > 0) & (counts_b > 0)
    if max_bucket_size is not None:
        keep &= (counts_a <= max_bucket_size) & (counts_b <= max_bucket_size)
    if not keep.any():
        return np.empty(0, dtype=np.int64)

    order_b = np.argsort(codes_b, kind="stable")
    starts_b = np.zeros(n_codes, dtype=np.int64)
    np.cumsum(counts_b[:-1], out=starts_b[1:])

    mask_a = keep[codes_a]
    a_idx = idx_a[mask_a]
    a_codes = codes_a[mask_a]
    per_a = counts_b[a_codes]
    total = int(per_a.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    lefts = np.repeat(a_idx, per_a)
    # Grouped arange: position of each emitted pair within its bucket.
    ends = np.cumsum(per_a)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - per_a, per_a)
    rights = idx_b[order_b[np.repeat(starts_b[a_codes], per_a) + within]]
    return lefts * n_b + rights


def minhash_lsh_pairs(
    store_a: RecordStore,
    store_b: RecordStore,
    field: str,
    *,
    bands: int = 16,
    rows: int = 4,
    seed: int = 0,
    chunk_size: int = _LSH_CHUNK,
    max_bucket_size: int | None = None,
    ngram_size: int | None = None,
) -> np.ndarray:
    """Approximate candidate pairs via banded MinHash-LSH over tokens.

    Each record's normalised ``field`` tokens are min-hashed under
    ``bands * rows`` multiply-shift permutations; the signature is cut
    into ``bands`` bands of ``rows`` values, and two records become a
    candidate pair when *any* band key collides.  A pair with token
    Jaccard similarity ``s`` is recalled with probability
    ``1 - (1 - s**rows)**bands`` — more bands or fewer rows per band
    raise recall (and candidate volume), the reverse raises precision.

    Unlike :func:`token_blocking_pairs` this never builds a full
    inverted index of exact tokens, consumes columns chunk-wise
    (``iter_normalised_chunks``), and retains only ``bands`` uint64
    keys per record, so it scales to pools where the exact pair space
    is unmaterialisable.  Candidates are deduplicated with the same
    ``a * n_b + b`` integer-key ``np.unique`` idiom as the exact
    schemes; the result is always a subset of the full cross product
    of records with non-empty keys.

    Parameters
    ----------
    store_a, store_b:
        The two record sources (in-memory or chunked).
    field:
        Schema field supplying the token key.
    bands, rows:
        Banding shape; ``bands * rows`` permutations total.
    seed:
        Seeds the permutation parameters; identical seeds give
        identical candidates for identical inputs.
    chunk_size:
        Records per signature-computation chunk.
    max_bucket_size:
        Drop a band bucket holding more than this many records in
        either source (the LSH analogue of ``max_block_size``).
    ngram_size:
        When set, sketch character ``ngram_size``-grams of the key
        instead of whitespace words — typo-robust blocking at the cost
        of denser token sets (the right setting for dirty text).

    Returns a deduplicated (n, 2) array of index pairs, sorted
    lexicographically.
    """
    if bands < 1 or rows < 1:
        raise ValueError(f"bands and rows must be >= 1; got {bands}x{rows}")
    n_b = len(store_b)
    if len(store_a) == 0 or n_b == 0:
        return np.empty((0, 2), dtype=np.int64)

    rng = np.random.default_rng(seed)
    n_perm = bands * rows
    # Odd multipliers + arbitrary offsets: multiply-shift hash family.
    params_a = rng.integers(0, 2**64, size=n_perm, dtype=np.uint64) | np.uint64(1)
    params_b = rng.integers(0, 2**64, size=n_perm, dtype=np.uint64)

    token_cache: dict[str, int] = {}
    keys_a, valid_a = _band_keys(
        store_a, field, bands, rows, params_a, params_b, token_cache,
        chunk_size, ngram_size,
    )
    keys_b, valid_b = _band_keys(
        store_b, field, bands, rows, params_a, params_b, token_cache,
        chunk_size, ngram_size,
    )
    idx_a = np.flatnonzero(valid_a)
    idx_b = np.flatnonzero(valid_b)
    if len(idx_a) == 0 or len(idx_b) == 0:
        return np.empty((0, 2), dtype=np.int64)

    key_chunks: list[np.ndarray] = []
    for band in range(bands):
        encoded = _bucket_join(
            keys_a[idx_a, band],
            keys_b[idx_b, band],
            idx_a,
            idx_b,
            n_b,
            max_bucket_size,
        )
        if len(encoded):
            # Dedup per band before concatenating across bands.
            key_chunks.append(np.unique(encoded))
    if not key_chunks:
        return np.empty((0, 2), dtype=np.int64)
    return _decode_pair_keys(np.concatenate(key_chunks), n_b)


# -- External-memory sorted neighbourhood -----------------------------

_DEFAULT_RUN_SIZE = 8_192


def _write_run(directory: Path, index: int, run: list) -> Path:
    """Persist one sorted run of (key, source, index) tuples."""
    run.sort()
    path = directory / f"run-{index:06d}.pkl"
    with open(path, "wb") as handle:
        for item in run:
            pickle.dump(item, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def _read_run(path: Path):
    """Stream one run file back as tuples."""
    with open(path, "rb") as handle:
        while True:
            try:
                yield pickle.load(handle)
            except EOFError:
                return


def sorted_neighbourhood_pairs_external(
    store_a: RecordStore,
    store_b: RecordStore,
    field: str,
    *,
    window: int = 5,
    run_size: int = _DEFAULT_RUN_SIZE,
    tmp_dir=None,
) -> np.ndarray:
    """External-memory sorted neighbourhood: disk runs + k-way merge.

    Produces *exactly* the same candidate set as
    :func:`sorted_neighbourhood_pairs` without ever holding the merged
    key list in memory: normalised keys stream chunk-wise into sorted
    runs of ``run_size`` tuples spilled to ``tmp_dir``, a
    ``heapq.merge`` re-streams the global sort order, and a
    ``window``-sized deque emits cross-source pairs on the fly.  The
    tuple sort key ``(key, source, index)`` is a strict total order, so
    the merged stream is identical to the in-memory sort and the two
    variants are bit-identical by construction.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2; got {window}")
    if run_size < 1:
        raise ValueError(f"run_size must be >= 1; got {run_size}")
    n_b = len(store_b)
    if len(store_a) == 0 or n_b == 0:
        return np.empty((0, 2), dtype=np.int64)

    with tempfile.TemporaryDirectory(dir=tmp_dir) as workdir:
        workdir = Path(workdir)
        run_paths: list[Path] = []
        run: list = []
        for source, store in ((0, store_a), (1, store_b)):
            position = 0
            for chunk in store.iter_normalised_chunks(field):
                for key in chunk:
                    run.append((key, source, position))
                    position += 1
                    if len(run) >= run_size:
                        run_paths.append(_write_run(workdir, len(run_paths), run))
                        run = []
        if run:
            run_paths.append(_write_run(workdir, len(run_paths), run))

        merged = heapq.merge(*(_read_run(path) for path in run_paths))
        recent: deque = deque(maxlen=window - 1)
        buffer: list[int] = []
        key_chunks: list[np.ndarray] = []
        for __, src_y, idx_y in merged:
            for __, src_x, idx_x in recent:
                if src_x == src_y:
                    continue
                left, right = (
                    (idx_x, idx_y) if src_x == 0 else (idx_y, idx_x)
                )
                buffer.append(left * n_b + right)
            recent.append((None, src_y, idx_y))
            if len(buffer) >= 4 * run_size:
                key_chunks.append(np.unique(np.array(buffer, dtype=np.int64)))
                buffer = []
        if buffer:
            key_chunks.append(np.unique(np.array(buffer, dtype=np.int64)))
    if not key_chunks:
        return np.empty((0, 2), dtype=np.int64)
    return _decode_pair_keys(np.concatenate(key_chunks), n_b)


def sorted_neighbourhood_pairs_reference(
    store_a: RecordStore,
    store_b: RecordStore,
    field: str,
    *,
    window: int = 5,
) -> np.ndarray:
    """Per-pair scan with the same semantics as
    :func:`sorted_neighbourhood_pairs`, kept as the parity baseline."""
    if window < 2:
        raise ValueError(f"window must be >= 2; got {window}")
    keyed = _sorted_merge(store_a, store_b, field)

    seen: set[tuple[int, int]] = set()
    for pos in range(len(keyed)):
        for other in range(pos + 1, min(pos + window, len(keyed))):
            __, src_x, idx_x = keyed[pos]
            __, src_y, idx_y = keyed[other]
            if src_x == src_y:
                continue
            pair = (idx_x, idx_y) if src_x == 0 else (idx_y, idx_x)
            seen.add(pair)
    if not seen:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(sorted(seen), dtype=np.int64)
