"""The benchmark's inputs: seeded traces of the paper's server profiles."""

from __future__ import annotations

from perfbench.common import Sizing

#: Fraction of the trace footprint that plays the paper's 1 TB disk
#: (``repro.experiments.common.DISK_SCALED_1TB``).
DISK_FRACTION = 0.18
#: The fill-to-redirect cost ratio of every cell that does not sweep it.
ALPHA = 2.0


def seeded_generator(profile, seed: int, days: float):
    """A generator whose popularity dynamics and sessions come from ``seed``.

    The catalog (video sizes and ranks) stays the profile's own, so
    every seed describes the same server: request counts and hit ratios
    then differ between seeds by a few percent instead of ten.
    """
    from repro.workload.generator import DAY, TraceGenerator

    catalog = TraceGenerator(profile).build_catalog(days * DAY)
    return TraceGenerator(profile, seed=seed, catalog=catalog)


def europe_trace(sizing: Sizing, seed: int):
    """The Europe server's trace and its scaled 1 TB disk (chunks)."""
    from repro.workload.servers import SERVER_PROFILES

    profile = SERVER_PROFILES["europe"].scaled(sizing.profile_scale)
    trace = seeded_generator(profile, seed, sizing.days).generate(days=sizing.days)
    footprint = set()
    for request in trace:
        footprint.update(request.chunk_ids())
    return trace, max(16, int(len(footprint) * DISK_FRACTION))
