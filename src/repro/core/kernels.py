"""Shared numpy helpers for the per-cache block decision kernels.

The vectorized kernels (:meth:`~repro.core.base.VideoCache.handle_span_block_kernel`
overrides in :mod:`repro.core.xlru`, :mod:`repro.core.baselines` and
:mod:`repro.core.policy.kernel`) all follow the same shape: snapshot the
mutable structures once per block, classify as many requests as
possible in whole-column numpy passes, then walk only the undecided
residue through the scalar per-request code.  This module holds the
snapshot/classification primitives they share:

* gathering per-unique-video state (tracker last-access times, hit
  counts) into aligned numpy columns for block-wide admission tests;
* per-video **residency summaries** — sorted cached-chunk-number
  arrays — and the searchsorted span probe that turns them into
  guaranteed-hit / zero-residency masks for whole requests.

Soundness conventions the kernels rely on (and the equivalence tests
enforce):

* Snapshots are taken at **block start**; a screen is only used when
  later in-block mutations cannot invalidate it (e.g. a span fully
  resident at block start stays resident until the first eviction, so
  hit screens are demoted to the scalar residue once anything is
  evicted).
* Screens may only pre-decide a request when the decision *and* the
  mutation footprint are exactly those of the scalar walk; anything
  uncertain stays in the residue.

All helpers require numpy (callers guard on ``block.vectorized``; the
``REPRO_NO_NUMPY`` lane never reaches them).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.trace.columnar import _np

__all__ = [
    "snapshot_times",
    "snapshot_counts",
    "chunks_by_video",
    "residency_arrays",
    "span_resident_counts",
]


def snapshot_times(uniq, times: dict) -> "object":
    """Gather ``times.get(v)`` for each unique video into a float column.

    Absent videos become NaN, so admission arithmetic can run on the
    whole column and ``isnan`` recovers the never-seen mask.  ``times``
    is a raw recency dict (video -> last access time); the loop runs
    over unique videos only, not over requests.
    """
    out = _np.empty(len(uniq), dtype=_np.float64)
    get = times.get
    nan = _np.nan
    for j, v in enumerate(uniq.tolist()):
        t = get(v)
        out[j] = nan if t is None else t
    return out


def snapshot_counts(uniq, counts: dict) -> "object":
    """Gather ``counts.get(v, 0)`` per unique video into an int column."""
    out = _np.empty(len(uniq), dtype=_np.int64)
    get = counts.get
    for j, v in enumerate(uniq.tolist()):
        out[j] = get(v, 0)
    return out


def chunks_by_video(chunk_keys: Iterable[Tuple[int, int]]) -> Dict[int, list]:
    """Group ``(video, chunk_number)`` keys into video -> chunk list.

    One pass over the resident set (bounded by the disk size), the raw
    material of :func:`residency_arrays` for caches that key their disk
    by whole chunk ids (pull-through LRU, LFU, policy kernels).
    """
    grouped: Dict[int, list] = {}
    for video, c in chunk_keys:
        bucket = grouped.get(video)
        if bucket is None:
            grouped[video] = [c]
        else:
            bucket.append(c)
    return grouped


def residency_arrays(uniq, grouped: Dict[int, "object"]) -> List[Optional["object"]]:
    """Per-unique-video sorted cached-chunk-number arrays.

    ``grouped`` maps video -> iterable of cached chunk numbers (a list
    from :func:`chunks_by_video`).  Videos with nothing cached get None, letting
    the span probe skip them without allocating.
    """
    arrays: List[Optional["object"]] = []
    get = grouped.get
    for v in uniq.tolist():
        chunks = get(v)
        if chunks:
            arr = _np.fromiter(chunks, dtype=_np.int64, count=len(chunks))
            arr.sort()
            arrays.append(arr)
        else:
            arrays.append(None)
    return arrays


def span_resident_counts(block, arrays: List[Optional["object"]]) -> "object":
    """How many chunks of each request's span were resident at block start.

    For request ``i`` with span ``[c0, c1]`` of video ``v``, counts the
    cached chunk numbers of ``v`` (from ``arrays``, aligned with
    ``block.video_groups()[0]``) that fall inside the span — two
    searchsorted probes per request, grouped per video.  ``counts[i] ==
    span size`` is the guaranteed-hit screen; ``counts[i] == 0`` the
    zero-residency screen.
    """
    uniq, order, starts = block.video_groups()
    c0s = block.c0s
    c1s = block.c1s
    counts = _np.zeros(block.n, dtype=_np.int64)
    searchsorted = _np.searchsorted
    for j in range(len(uniq)):
        arr = arrays[j]
        if arr is None:
            continue
        idx = order[starts[j] : starts[j + 1]]
        lo = searchsorted(arr, c0s[idx], side="left")
        hi = searchsorted(arr, c1s[idx], side="right")
        counts[idx] = hi - lo
    return counts
