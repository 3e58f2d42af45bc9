"""Per-cache probes: pure observers of cache-internal behaviour.

A probe is attached to a cache's ``probe`` attribute (see
:class:`~repro.core.base.VideoCache`); the cache's hot paths call the
hooks only when a probe is present, so a probe-free replay pays a few
``is None`` checks per request.  Attaching a probe does not change
which code runs: the hoisted block walks and the vectorized decision
kernels bind the hooks once per block and fire them inline, in the
same per-request order as ``handle_span``, so a probed packed replay
runs the same kernels and screens as a plain one and records a
registry byte-identical to the object lane's.  Probes never influence
decisions — the telemetry parity suite holds every algorithm to
byte-identical totals with probes on and off.

Which caches emit events: xLRU, Cafe and every policy kernel
(LFU-PK, qLRU, Retention).  PullLRU, the hand-fused LFU, LRU-K and
GDS fire no hooks; their lanes carry snapshots and gauges only.

What gets captured:

* **all hooked caches** — serve/redirect outcome counters (with
  per-reason redirect breakdown), fill/eviction volumes, eviction-age
  (time since the victim's last access) and residence-time (time since
  the victim's admission) distributions, and the serve-vs-redirect
  decision margin distribution;
* **xLRU** (:class:`XlruProbe`) — Eq. 5 admission margins
  (``CacheAge - (t_now - t_last) * alpha_F2R``; positive admits) and
  the tracker size;
* **Cafe** (:class:`CafeProbe`) — Eqs. 6-7 cost margins
  (``E[redirect] - E[serve]``; positive serves), plus IAT-estimator
  health: how many missing-chunk estimates came from the chunk's own
  Eq. 8 history, from the unseen-chunk max-IAT video fallback, or from
  no history at all (cold).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.obs.registry import MetricRegistry
from repro.trace.requests import ChunkId

__all__ = ["CacheProbe", "CafeProbe", "PolicyProbe", "XlruProbe", "probe_for"]


class CacheProbe:
    """Base probe: outcome counters and lifetime distributions.

    Subclasses add algorithm-specific hooks; the base hooks cover every
    cache that reports serve/redirect outcomes and chunk fills and
    evictions.
    """

    #: extra lane-snapshot gauges this probe contributes (see
    #: :meth:`snapshot_gauges`)
    kind = "generic"

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        #: chunk -> admission time, for residence-time distributions
        self._admitted: Dict[ChunkId, float] = {}

    # -- outcome hooks -------------------------------------------------------

    def on_serve(self, t: float, filled_chunks: int, evicted_chunks: int) -> None:
        counters = self.registry.counters
        counters["serve"] = counters.get("serve", 0) + 1
        if filled_chunks:
            counters["fill_chunks"] = counters.get("fill_chunks", 0) + filled_chunks
        else:
            counters["serve.hit"] = counters.get("serve.hit", 0) + 1
        if evicted_chunks:
            counters["evict_chunks"] = (
                counters.get("evict_chunks", 0) + evicted_chunks
            )

    def on_redirect(self, t: float, reason: str) -> None:
        counters = self.registry.counters
        counters["redirect"] = counters.get("redirect", 0) + 1
        key = "redirect." + reason
        counters[key] = counters.get(key, 0) + 1

    # -- chunk lifetime hooks ------------------------------------------------

    def on_fill(self, t: float, chunk: ChunkId) -> None:
        """One chunk admitted to disk at time ``t``."""
        self._admitted[chunk] = t

    def on_evict(self, t: float, chunk: ChunkId, last_access: float) -> None:
        """One chunk evicted at ``t``; it was last touched at ``last_access``."""
        registry = self.registry
        age = t - last_access
        if math.isfinite(age) and age >= 0.0:
            registry.observe("evict_age", age)
        admitted = self._admitted.pop(chunk, None)
        if admitted is not None:
            registry.observe("residence", t - admitted)

    # -- decision margin -----------------------------------------------------

    def on_margin(self, margin: float) -> None:
        """The serve-vs-redirect margin of one decision (positive favours
        serving).  Unbounded margins (warm-up horizons) are counted, not
        binned."""
        if math.isfinite(margin):
            self.registry.observe("margin", margin)
        else:
            counters = self.registry.counters
            counters["margin.unbounded"] = counters.get("margin.unbounded", 0) + 1

    # -- pull-based gauges ---------------------------------------------------

    def snapshot_gauges(self, cache) -> dict:
        """Probe-specific gauges for one telemetry snapshot (cheap reads)."""
        return {"residence_tracked": len(self._admitted)}


class XlruProbe(CacheProbe):
    """xLRU-specific probe: Eq. 5 admission outcomes and tracker size."""

    kind = "xlru"

    def snapshot_gauges(self, cache) -> dict:
        gauges = super().snapshot_gauges(cache)
        gauges["tracked_videos"] = cache.tracked_videos
        return gauges


class CafeProbe(CacheProbe):
    """Cafe-specific probe: cost margins and IAT-estimator health."""

    kind = "cafe"

    def on_iat_estimate(self, source: str) -> None:
        """Classify one missing-chunk IAT estimate.

        ``source`` is ``"own"`` (the chunk's own Eq. 8 history),
        ``"video"`` (the unseen-chunk max-IAT fallback over cached
        sibling chunks) or ``"cold"`` (no usable history; the future
        term contributes nothing).
        """
        counters = self.registry.counters
        key = "iat." + source
        counters[key] = counters.get(key, 0) + 1

    def iat_fallback_rate(self) -> Optional[float]:
        """Fraction of estimates that used the video fallback (None if
        no estimates were made)."""
        return self.registry.rate("iat.video", "iat.own", "iat.video", "iat.cold")

    def snapshot_gauges(self, cache) -> dict:
        gauges = super().snapshot_gauges(cache)
        gauges["tracked_chunks"] = cache.tracked_chunks
        gauges["ghost_chunks"] = cache.ghost_chunks
        return gauges


class PolicyProbe(CacheProbe):
    """Policy-kernel probe: the base hooks (the generic
    :class:`~repro.core.policy.kernel.KernelCache` pipeline calls every
    outcome and lifetime hook, with per-reason redirect breakdowns from
    the policy's ``admit``) plus whatever numeric gauges the bound
    policy exposes through ``gauges()``."""

    kind = "policy"

    def snapshot_gauges(self, cache) -> dict:
        gauges = super().snapshot_gauges(cache)
        policy = getattr(cache, "policy", None)
        if policy is not None:
            for key, value in policy.gauges().items():
                gauges[f"policy.{key}"] = value
        return gauges


def probe_for(cache, registry: Optional[MetricRegistry] = None) -> CacheProbe:
    """The most specific probe for ``cache``, chosen by algorithm name.

    Dispatch is on the cache's ``name`` attribute rather than its class
    so wrappers and duck-typed caches that forward ``name`` still get
    the right probe; unknown algorithms get the generic base probe
    (outcome/lifetime hooks only fire if the cache calls them).
    Policy-kernel caches (anything carrying a bound ``policy`` object)
    get :class:`PolicyProbe`, which mirrors the policy's gauges.
    """
    name = getattr(cache, "name", "")
    if name == "xLRU":
        return XlruProbe(registry)
    if name == "Cafe":
        return CafeProbe(registry)
    if getattr(cache, "policy", None) is not None:
        return PolicyProbe(registry)
    return CacheProbe(registry)
