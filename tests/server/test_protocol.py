"""The wire format in isolation: framing, error taxonomy, stats
transport, and the server-side budget caps."""

import asyncio
import json

import pytest

from repro.core.translator import TranslationError
from repro.errors import (
    ConstraintSyntaxError,
    EvaluationError,
    LyricSyntaxError,
    QueryCancelled,
    ReproError,
    ResourceExhausted,
    SemanticError,
)
from repro.runtime import ExecutionGuard
from repro.runtime.context import ExecutionStats, PhaseRecord
from repro.server import protocol
from repro.server.service import BUDGET_FIELDS, ServerLimits
from repro.server.session import _decode_params


def read_from(data: bytes, prefix: bytes = b""):
    """Feed raw bytes through a StreamReader into read_frame."""
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_frame(reader, prefix)
    return asyncio.run(main())


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "query", "id": 7, "text": "SELECT X FROM D X",
                   "params": {"col": "réd"}}
        assert read_from(protocol.encode_frame(payload)) == payload

    def test_mode_detection_prefix_is_logically_prepended(self):
        frame = protocol.encode_frame({"op": "hello"})
        # The session reads one byte to detect framed mode, then hands
        # it back via ``prefix``.
        assert frame[0] == 0  # what makes the detection sound
        assert read_from(frame[1:], prefix=frame[:1]) == {"op": "hello"}

    def test_clean_eof_is_none(self):
        assert read_from(b"") is None

    def test_eof_mid_header_raises(self):
        with pytest.raises(protocol.ProtocolError):
            read_from(b"\x00\x00")

    def test_eof_mid_body_raises(self):
        frame = protocol.encode_frame({"op": "hello"})
        with pytest.raises(protocol.ProtocolError):
            read_from(frame[:-3])

    def test_oversized_length_rejected_before_allocation(self):
        header = (protocol.MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(protocol.ProtocolError):
            read_from(header)

    def test_undecodable_body_raises(self):
        body = b"not json"
        data = len(body).to_bytes(4, "big") + body
        with pytest.raises(protocol.ProtocolError):
            read_from(data)

    def test_non_object_payload_raises(self):
        body = json.dumps([1, 2]).encode()
        data = len(body).to_bytes(4, "big") + body
        with pytest.raises(protocol.ProtocolError):
            read_from(data)

    def test_encode_rejects_oversized_frame(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame({"blob": "x" * (protocol.MAX_FRAME + 1)})


class TestErrorTaxonomy:
    CASES = [
        (QueryCancelled("stop"), "cancelled"),
        (ResourceExhausted("over", budget="pivots", limit=1, spent=2),
         "resource"),
        (LyricSyntaxError("bad"), "syntax"),
        (ConstraintSyntaxError("bad cst"), "syntax"),
        (SemanticError("unknown class"), "semantic"),
        (TranslationError("outside the fragment"), "untranslatable"),
        (EvaluationError("unbound"), "evaluation"),
        (protocol.ProtocolError("garbage"), "bad_request"),
        (ReproError("other"), "error"),
        (RuntimeError("boom"), "internal"),
    ]

    def test_every_exception_maps_to_its_code(self):
        for exc, code in self.CASES:
            assert protocol.error_code(exc) == code, type(exc).__name__

    def test_cancelled_wins_over_resource(self):
        # QueryCancelled subclasses ResourceExhausted; the more
        # specific code must win.
        assert isinstance(QueryCancelled("x"), ResourceExhausted)
        assert protocol.error_code(QueryCancelled("x")) == "cancelled"


class TestStatsPayload:
    def test_payload_is_json_able_and_flattens_phases(self):
        stats = ExecutionStats()
        stats.pivots = 12
        stats.warnings.append("partial result: pivots")
        stats.phases.append(PhaseRecord("solve", 0.25, detail="3 boxes"))
        payload = protocol.stats_payload(stats)
        json.dumps(payload)  # must not raise
        assert payload["pivots"] == 12
        assert payload["warnings"] == ["partial result: pivots"]
        assert payload["phases"] == [
            {"name": "solve", "seconds": 0.25, "detail": "3 boxes"}]

    def test_payload_copies_lists(self):
        stats = ExecutionStats()
        payload = protocol.stats_payload(stats)
        payload["warnings"].append("mutated")
        assert stats.warnings == []


class TestServerLimits:
    def test_effective_budget_is_the_minimum(self):
        limits = ServerLimits(max_pivots=100, deadline=2.0)
        guard = limits.effective_guard(
            {"max_pivots": 500, "deadline": 0.5})
        assert guard.max_pivots == 100   # server cap wins
        assert guard.deadline == 0.5     # client ask wins

    def test_cap_alone_applies_to_silent_clients(self):
        guard = ServerLimits(max_branches=7).effective_guard(None)
        assert guard.max_branches == 7

    def test_uncapped_axis_passes_the_ask_through(self):
        guard = ServerLimits().effective_guard({"max_disjuncts": 9})
        assert guard.max_disjuncts == 9

    def test_always_a_real_guard(self):
        # Even with no budgets anywhere: the guard is the cancel
        # channel, and CANCEL must work on every query.
        guard = ServerLimits().effective_guard(None)
        assert isinstance(guard, ExecutionGuard)
        guard.cancel()
        assert guard.cancelled

    def test_unknown_field_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            ServerLimits().effective_guard({"max_rows": 10})

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            ServerLimits().effective_guard({"max_pivots": 0})

    def test_bad_policy_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            ServerLimits().effective_guard({"on_exhaustion": "explode"})

    def test_budget_key_identifies_effective_budgets(self):
        limits = ServerLimits(max_pivots=100)
        # Asking for more than the cap lands on the cap: same key.
        assert limits.budget_key({"max_pivots": 500}) \
            == limits.budget_key({"max_pivots": 100})
        assert limits.budget_key({"max_pivots": 50}) \
            != limits.budget_key({"max_pivots": 100})
        assert limits.budget_key({"on_exhaustion": "degrade"}) \
            != limits.budget_key(None)
        assert len(limits.budget_key(None)) == len(BUDGET_FIELDS) + 1


class TestParamDecoding:
    def test_scalars_coerce_like_the_in_process_api(self):
        from repro.model.oid import as_oid
        decoded = _decode_params({"col": "red", "px": 6})
        assert decoded == {"col": as_oid("red"), "px": as_oid(6)}

    def test_tagged_terms_round_trip(self):
        from repro.model.serialize import dump_oid, load_oid
        from repro.model.oid import as_oid
        term = dump_oid(as_oid("standard_desk"))
        decoded = _decode_params({"d": term})
        assert decoded == {"d": load_oid(term)}

    def test_a_clients_cst_is_still_canonicalised(self):
        # The client wrote it: nothing vouches that it is canonical.
        decoded = _decode_params(
            {"c": {"t": "cst", "v": "((x) | x <= 1 and x <= 2)"}})
        assert decoded["c"].cst.oid_text() == "((x) | x <= 1)"

    def test_none_stays_none(self):
        assert _decode_params(None) is None

    def test_non_object_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            _decode_params(["positional"])
