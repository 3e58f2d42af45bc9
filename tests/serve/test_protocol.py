"""Wire-protocol parsing, line framing, response shapes, and shared
accounting."""

import asyncio
import json

import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    ProtocolError,
    decide_and_account,
    error_response,
    line_too_long_response,
    new_totals,
    parse_line,
    read_line,
    shed_response,
)
from repro.sim.runner import build_cache

K = 1024


def _parse_error(line):
    with pytest.raises(ProtocolError) as excinfo:
        parse_line(line)
    return excinfo.value


class TestParseLine:
    def test_valid_request(self):
        parsed = parse_line('{"seq": 3, "t": 1.5, "video": 7, "b0": 0, "b1": 99}')
        assert parsed == {
            "type": "request",
            "seq": 3,
            "t": 1.5,
            "video": 7,
            "b0": 0,
            "b1": 99,
        }

    def test_seq_is_optional(self):
        parsed = parse_line('{"t": 0, "video": 0, "b0": 0, "b1": 0}')
        assert parsed["seq"] is None

    def test_every_known_op_parses(self):
        for op in OPS:
            assert parse_line(json.dumps({"op": op})) == {"type": "op", "op": op}

    def test_unknown_op(self):
        assert _parse_error('{"op": "reboot"}').code == "unsupported"

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "   ",
            "not json at all",
            '{"t": "not-a-number", "video": -3',  # the soak's injected line
            "[1, 2, 3]",
            '"just a string"',
            '{"t": 1.0, "video": 1, "b0": 0}',  # missing b1
            '{"t": true, "video": 1, "b0": 0, "b1": 0}',  # bool is not a number
            '{"t": 1.0, "video": true, "b0": 0, "b1": 0}',
            '{"t": 1.0, "video": 1.5, "b0": 0, "b1": 0}',  # float video
            '{"t": 1.0, "video": -1, "b0": 0, "b1": 0}',
            '{"t": 1.0, "video": 1, "b0": 5, "b1": 4}',  # b1 < b0
            '{"seq": 0, "t": 1.0, "video": 1, "b0": 0, "b1": 0}',  # seq < 1
            '{"seq": "x", "t": 1.0, "video": 1, "b0": 0, "b1": 0}',
        ],
    )
    def test_malformed_lines(self, line):
        assert _parse_error(line).code == "malformed"

    def test_error_codes_are_registered(self):
        assert _parse_error("{").code in ERROR_CODES
        assert _parse_error('{"op": "reboot"}').code in ERROR_CODES


class TestReadLine:
    """Over-long lines are reported as None and skipped through their
    newline, whether the newline is already buffered or arrives later."""

    @staticmethod
    def _lines(chunks, count, limit=16):
        async def scenario():
            reader = asyncio.StreamReader(limit=limit)

            async def feed():
                for chunk in chunks:
                    reader.feed_data(chunk)
                    await asyncio.sleep(0)
                reader.feed_eof()

            feeder = asyncio.create_task(feed())
            lines = [await read_line(reader) for _ in range(count)]
            await feeder
            return lines

        return asyncio.run(scenario())

    def test_newline_already_buffered(self):
        chunks = [b"ok\n" + b"x" * 40 + b"\nnext\ntail"]
        assert self._lines(chunks, 5) == [b"ok\n", None, b"next\n", b"tail", b""]

    def test_newline_arrives_later(self):
        chunks = [b"x" * 20, b"x" * 30, b"x" * 5 + b"\nnext\n"]
        assert self._lines(chunks, 3) == [None, b"next\n", b""]

    def test_eof_inside_an_overlong_line(self):
        assert self._lines([b"x" * 40], 2) == [None, b""]

    def test_line_too_long_response(self):
        response = line_too_long_response()
        assert response["ok"] is False
        assert response["error"] == "line-too-long"
        assert response["error"] in ERROR_CODES


class TestResponses:
    def test_error_response_shape(self):
        out = error_response("timeout", "too slow", seq=9)
        assert out == {
            "ok": False,
            "error": "timeout",
            "detail": "too slow",
            "seq": 9,
        }

    def test_error_response_without_seq(self):
        assert "seq" not in error_response("malformed", "bad line")

    def test_shed_response_has_retry_after(self):
        out = shed_response(0.25)
        assert out["ok"] is False
        assert out["error"] == "overloaded"
        assert out["retry_after"] == 0.25

    def test_shed_response_clamps_negative(self):
        assert shed_response(-3.0)["retry_after"] == 0.0


class TestDecideAndAccount:
    def _cache(self):
        return build_cache("PullLRU", 64, alpha_f2r=1.0, chunk_bytes=K)

    def test_serve_and_hit_accounting(self):
        cache = self._cache()
        totals = new_totals()
        fields, last_t = decide_and_account(cache, totals, 1.0, 5, 0, K - 1, 0.0)
        assert fields["decision"] == "serve"
        assert fields["filled_chunks"] == 1
        # same chunk again: a hit, no fill
        fields, last_t = decide_and_account(cache, totals, 2.0, 5, 0, K - 1, last_t)
        assert fields["filled_chunks"] == 0
        assert totals["requests"] == 2
        assert totals["served"] == 2
        assert totals["hits"] == 1
        assert totals["filled_chunks"] == 1
        assert totals["requested_bytes"] == 2 * K

    def test_stale_timestamp_consumed_but_not_applied(self):
        cache = self._cache()
        totals = new_totals()
        _, last_t = decide_and_account(cache, totals, 10.0, 5, 0, K - 1, 0.0)
        occupancy = len(cache)
        fields, new_last_t = decide_and_account(
            cache, totals, 3.0, 6, 0, K - 1, last_t
        )
        assert fields["decision"] == "rejected"
        assert fields["error"] == "stale-timestamp"
        assert new_last_t == last_t  # the stream clock never goes back
        assert len(cache) == occupancy  # cache untouched
        assert totals["requests"] == 2
        assert totals["rejected_stale"] == 1

    def test_redirect_accounting(self):
        cache = build_cache("xLRU", 64, alpha_f2r=2.0, chunk_bytes=K)
        totals = new_totals()
        fields, _ = decide_and_account(cache, totals, 1.0, 5, 0, K - 1, 0.0)
        # first sight of a video under xLRU: not popular yet -> redirect
        assert fields["decision"] == "redirect"
        assert totals["redirected"] == 1
        assert totals["served"] == 0
