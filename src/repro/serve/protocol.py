"""The ``repro-serve`` wire protocol: JSONL requests, JSONL responses.

One line in, one line out.  Clients send either a *decision request*
(the trace-file schema plus an optional exactly-once sequence number)
or an *operation*::

    {"seq": 17, "t": 123.5, "video": 42, "b0": 0, "b1": 1048575}
    {"op": "hello"}

and receive exactly one JSON response line per input line.  Responses
always carry ``ok`` (bool); failures add a machine-readable ``error``
code from :data:`ERROR_CODES` so clients can branch without parsing
prose.  Malformed lines produce an ``ok=false`` *response*, never a
connection teardown — a misbehaving producer cannot take the daemon
down (DESIGN.md §13's failure matrix).

**Exactly-once accounting.**  ``seq`` numbers are assigned by the
client, contiguous from 1.  The daemon applies ``seq == watermark + 1``
only: a lower seq is acknowledged as a ``duplicate`` (not re-applied,
not re-counted), a higher seq is a ``sequence-gap`` error (not
applied).  After a crash the client asks ``hello`` for the restored
watermark and resends from ``watermark + 1`` — replayed requests land
exactly once no matter where the crash fell relative to the last
snapshot.

:func:`decide_and_account` is the *single* implementation of
decision + traffic accounting, shared by the live daemon and the
offline batch comparator, so "daemon totals == batch totals" holds by
construction rather than by parallel maintenance.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.core.base import Decision, VideoCache

__all__ = [
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "parse_line",
    "read_line",
    "decision_response",
    "duplicate_response",
    "error_response",
    "line_too_long_response",
    "shed_response",
    "decide_and_account",
    "new_totals",
]

#: Wire protocol version.  Version 1 is the single-worker daemon of
#: DESIGN.md §13; version 2 adds the sharded router handshake
#: (``hello`` gains ``workers``/``num_buckets``/``shards`` and ``seq``
#: becomes per-shard contiguous when ``workers > 1``).  A ``--workers
#: 1`` daemon still speaks version 1 unchanged — that is the documented
#: downgrade path for clients that assign one global sequence.
PROTOCOL_VERSION = 2

#: Operations a client may issue instead of a decision request.
OPS = (
    "hello",      # identify the daemon; returns watermark + config
    "stats",      # totals, counters, latency quantiles, watermark
    "snapshot",   # force a cache snapshot now; returns its watermark
    "subscribe",  # turn this connection into a telemetry subscriber
    "shutdown",   # graceful stop: drain, snapshot, flush telemetry
    "crash-worker",  # test hook (only honored with --test-hooks)
)

#: Machine-readable failure codes responses may carry.
ERROR_CODES = (
    "malformed",       # unparseable/invalid line (counted, skipped)
    "line-too-long",   # line over MAX_LINE_BYTES (counted, skipped)
    "overloaded",      # load shed at admission; retry_after included
    "sequence-gap",    # seq beyond watermark+1; resend from watermark+1
    "stale-timestamp", # t went backwards; consumed but not applied
    "decision-failed", # transient failure survived all retries
    "timeout",         # per-request deadline exceeded
    "unsupported",     # unknown op, or op not enabled
    "misrouted",       # video does not hash to this shard (not applied)
    "worker-down",     # a fan-out op could not reach a worker shard
)


#: Longest input line the servers buffer (their asyncio stream limit).
#: A longer line is answered with ``line-too-long`` and its bytes are
#: discarded through the next newline; the connection stays open.
MAX_LINE_BYTES = 2**16


async def read_line(reader) -> Optional[bytes]:
    """Read the next newline-framed line from an asyncio stream reader.

    Returns the line (newline included; a final unterminated line
    without it), ``b""`` at EOF, or None when the line is longer than
    the reader's limit.  An over-long line is discarded through its
    newline, so the next call starts on the following line.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    # The overrun bytes are still buffered: drop them, then keep
    # reading until the newline that ends the over-long line.
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None  # EOF inside the line; the next read returns b""
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


class ProtocolError(Exception):
    """A structured, per-line protocol failure (never fatal)."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def parse_line(line: str) -> dict:
    """Parse one wire line into a validated request or op dict.

    Returns ``{"type": "op", "op": ...}`` or ``{"type": "request",
    "seq": int | None, "t": float, "video": int, "b0": int, "b1":
    int}``.  Raises :class:`ProtocolError` (code ``malformed`` or
    ``unsupported``) on anything else; the caller turns that into an
    error *response*, not a disconnect.
    """
    text = line.strip()
    if not text:
        raise ProtocolError("malformed", "empty line")
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ProtocolError("malformed", f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            "malformed", f"expected an object, got {type(obj).__name__}"
        )

    if "op" in obj:
        op = obj["op"]
        if op not in OPS:
            raise ProtocolError("unsupported", f"unknown op {op!r}")
        return {"type": "op", "op": op}

    try:
        t = obj["t"]
        video = obj["video"]
        b0 = obj["b0"]
        b1 = obj["b1"]
    except KeyError as exc:
        raise ProtocolError("malformed", f"missing field {exc.args[0]!r}") from None
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ProtocolError("malformed", f"t must be a number, got {t!r}")
    for name, value in (("video", video), ("b0", b0), ("b1", b1)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "malformed", f"{name} must be an integer, got {value!r}"
            )
    if video < 0 or b0 < 0 or b1 < b0:
        raise ProtocolError(
            "malformed", f"need video >= 0 and 0 <= b0 <= b1, got {text}"
        )
    seq = obj.get("seq")
    if seq is not None and (
        isinstance(seq, bool) or not isinstance(seq, int) or seq < 1
    ):
        raise ProtocolError("malformed", f"seq must be an integer >= 1, got {seq!r}")
    return {
        "type": "request",
        "seq": seq,
        "t": float(t),
        "video": video,
        "b0": b0,
        "b1": b1,
    }


# -- response builders ---------------------------------------------------------


def decision_response(seq: int, fields: Dict) -> dict:
    out = {"ok": True, "kind": "decision", "seq": seq}
    out.update(fields)
    return out


def duplicate_response(seq: int, watermark: int) -> dict:
    return {"ok": True, "kind": "duplicate", "seq": seq, "watermark": watermark}


def error_response(
    code: str, detail: str, seq: Optional[int] = None
) -> dict:
    out: dict = {"ok": False, "error": code, "detail": detail}
    if seq is not None:
        out["seq"] = seq
    return out


def line_too_long_response() -> dict:
    """The answer to an input line longer than :data:`MAX_LINE_BYTES`."""
    return error_response(
        "line-too-long",
        f"line longer than {MAX_LINE_BYTES} bytes; skipped through its newline",
    )


def shed_response(retry_after: float, detail: str = "admission shed") -> dict:
    """The structured overload answer, with a Retry-After hint (s)."""
    return {
        "ok": False,
        "error": "overloaded",
        "detail": detail,
        "retry_after": round(max(retry_after, 0.0), 6),
    }


# -- shared decision accounting ------------------------------------------------


def new_totals() -> Dict[str, int]:
    """A zeroed traffic-totals dict (every field is an exact int)."""
    return {
        "requests": 0,
        "served": 0,
        "hits": 0,
        "redirected": 0,
        "rejected_stale": 0,
        "filled_chunks": 0,
        "evicted_chunks": 0,
        "requested_bytes": 0,
    }


def decide_and_account(
    cache: VideoCache,
    totals: Dict[str, int],
    t: float,
    video: int,
    b0: int,
    b1: int,
    last_t: float,
) -> Tuple[dict, float]:
    """Apply one request to ``cache`` and fold it into ``totals``.

    Returns ``(response_fields, new_last_t)``.  Timestamps must be
    non-decreasing; a request whose ``t`` went backwards is *consumed*
    (it advances the watermark and is counted under
    ``rejected_stale``) but never touches the cache — both the daemon
    and the batch comparator apply this rule, so totals stay
    byte-identical across them.
    """
    if t < last_t:
        totals["requests"] += 1
        totals["rejected_stale"] += 1
        return (
            {
                "decision": "rejected",
                "error": "stale-timestamp",
                "detail": f"t={t!r} is before the stream clock {last_t!r}",
            },
            last_t,
        )
    k = cache.chunk_bytes
    response = cache.handle_span(t, video, b0, b1, b0 // k, b1 // k)
    totals["requests"] += 1
    totals["requested_bytes"] += b1 - b0 + 1
    if response.decision is Decision.SERVE:
        totals["served"] += 1
        if response.filled_chunks == 0:
            totals["hits"] += 1
        totals["filled_chunks"] += response.filled_chunks
        totals["evicted_chunks"] += response.evicted_chunks
        fields = {
            "decision": "serve",
            "filled_chunks": response.filled_chunks,
            "evicted_chunks": response.evicted_chunks,
        }
    else:
        totals["redirected"] += 1
        fields = {"decision": "redirect"}
    return fields, t
