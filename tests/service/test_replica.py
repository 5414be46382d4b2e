"""Tests for repro.service.replica: versioning and the op model."""

import pytest

from repro.service import NULL_TIMESTAMP, Replica, Versioned
from repro.service.ops import (
    PING,
    ErrorReply,
    Join,
    JoinReply,
    PingReply,
    Read,
    ReadReply,
    Repair,
    Write,
    WriteReply,
)


@pytest.fixture
def replica():
    return Replica(3, name=(1, 1))


class TestVersioning:
    def test_fresh_key_reads_null_timestamp(self, replica):
        assert replica.handle(Read("x")) == ReadReply(3, None, NULL_TIMESTAMP)

    def test_write_then_read_round_trip(self, replica):
        ack = replica.handle(Write("x", [1, 2], (1, 0)))
        assert ack == WriteReply(3, True, (1, 0))
        assert replica.handle(Read("x")) == ReadReply(3, [1, 2], (1, 0))

    def test_stale_write_is_ignored(self, replica):
        replica.apply_write("x", "new", 5, 1)
        assert not replica.apply_write("x", "old", 4, 9)
        assert not replica.apply_write("x", "same-ts", 5, 1)
        assert replica.get("x").value == "new"
        assert replica.writes_ignored == 2

    def test_writer_id_breaks_counter_ties(self, replica):
        replica.apply_write("x", "low", 5, 1)
        assert replica.apply_write("x", "high", 5, 2)
        assert replica.get("x") == Versioned("high", 5, 2)

    def test_writes_are_idempotent_and_reorderable(self, replica):
        writes = [("a", 3, 0), ("b", 1, 0), ("c", 2, 1), ("a", 3, 0)]
        for value, counter, writer in writes:
            replica.apply_write("k", value, counter, writer)
        # Newest timestamp wins no matter the arrival order.
        assert replica.get("k") == Versioned("a", 3, 0)


class TestProtocol:
    def test_repair_tracked_separately(self, replica):
        assert replica.handle(Repair("x", 1, (2, 0))) == WriteReply(3, True, (2, 0))
        assert replica.repairs_applied == 1
        # A stale repair applies nothing and counts nothing; the reply
        # carries the version the replica keeps.
        assert replica.handle(Repair("x", 0, (1, 0))) == WriteReply(3, False, (2, 0))
        assert replica.repairs_applied == 1

    def test_ping(self, replica):
        assert replica.handle(PING) == PingReply(3)

    def test_join_records_the_lessee(self, replica):
        assert replica.handle(Join(7, 40)) == JoinReply(3, True, 40)
        assert replica.lessees == {7: 40}

    @pytest.mark.parametrize(
        "request_op",
        [
            {"op": "read", "key": "x"},  # no request type
            Read(""),
            Read(42),
            Write("", 1, (1, 0)),
            Join(7, -1),
        ],
        ids=repr,
    )
    def test_bad_requests_answer_instead_of_raising(self, replica, request_op):
        response = replica.handle(request_op)
        assert type(response) is ErrorReply
        assert response.replica == 3 and response.error
