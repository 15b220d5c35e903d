"""Unit tests for the switching bookkeeping (ports, pendings, WRR)."""

import pytest

from repro.core.buffer import CircularBuffer
from repro.core.ids import NodeId
from repro.core.switch import PendingForward, ReceiverPort, SwitchScheduler

A = NodeId("10.0.0.1", 7000)
B = NodeId("10.0.0.2", 7000)
C = NodeId("10.0.0.3", 7000)


def make_port(peer, weight=1, capacity=4):
    return ReceiverPort(peer=peer, buffer=CircularBuffer(capacity), weight=weight)


def test_rotation_covers_every_port_and_rotates():
    scheduler = SwitchScheduler()
    for peer in (A, B, C):
        scheduler.add_port(make_port(peer))
    first = [port.peer for port in scheduler.rotation()]
    second = [port.peer for port in scheduler.rotation()]
    assert set(first) == {A, B, C}
    assert first != second  # the starting port advances
    assert set(second) == {A, B, C}


def test_no_port_starves_across_rotations():
    scheduler = SwitchScheduler()
    for peer in (A, B, C):
        scheduler.add_port(make_port(peer))
    leaders = [scheduler.rotation()[0].peer for _ in range(6)]
    assert set(leaders) == {A, B, C}
    assert leaders[:3] == leaders[3:]  # deterministic cycle


def test_remove_port_keeps_cursor_consistent():
    scheduler = SwitchScheduler()
    for peer in (A, B, C):
        scheduler.add_port(make_port(peer))
    scheduler.rotation()
    scheduler.rotation()
    removed = scheduler.remove_port(A)
    assert removed is not None and removed.peer == A
    rotation = [port.peer for port in scheduler.rotation()]
    assert set(rotation) == {B, C}
    assert scheduler.remove_port(A) is None


def test_duplicate_port_rejected():
    scheduler = SwitchScheduler()
    scheduler.add_port(make_port(A))
    with pytest.raises(ValueError):
        scheduler.add_port(make_port(A))


def test_set_weight_validates_and_applies():
    scheduler = SwitchScheduler()
    scheduler.add_port(make_port(A))
    scheduler.set_weight(A, 5)
    assert scheduler.get_port(A).weight == 5
    with pytest.raises(ValueError):
        scheduler.set_weight(A, 0)
    with pytest.raises(KeyError):
        scheduler.set_weight(B, 2)


def test_credits_initialized_and_replenished():
    scheduler = SwitchScheduler()
    port = make_port(A, weight=3)
    scheduler.add_port(port)
    assert port.credit == 3
    port.credit = 0
    scheduler.replenish_credits()
    assert port.credit == 3


def test_blocked_port_semantics():
    port = make_port(A)
    assert not port.blocked
    port.pending.append(PendingForward(msg=object(), remaining=[B]))
    assert port.blocked
    port.pending[0].remaining.clear()
    assert not port.blocked
    port.prune_pending()
    assert port.pending == []


def test_discard_dest_clears_obligations_to_dead_nodes():
    port = make_port(A)
    port.pending.append(PendingForward(msg=object(), remaining=[B, C]))
    port.discard_dest(B)
    assert port.pending[0].remaining == [C]
    port.discard_dest(C)
    assert port.pending == []  # fully pruned
    assert not port.blocked


def test_has_work_reflects_buffer_and_pending():
    scheduler = SwitchScheduler()
    port = make_port(A)
    scheduler.add_port(port)
    assert not scheduler.has_work()
    port.buffer.put(object())
    assert scheduler.has_work()
    assert scheduler.total_buffered() == 1


# --- incremental work counters (O(1) has_work / total_buffered) -----------------


def test_total_buffered_tracks_put_get_and_clear():
    scheduler = SwitchScheduler()
    pa, pb = make_port(A), make_port(B)
    scheduler.add_port(pa)
    scheduler.add_port(pb)
    for _ in range(3):
        pa.buffer.put(object())
    pb.buffer.put(object())
    assert scheduler.total_buffered() == 4
    pa.buffer.get()
    assert scheduler.total_buffered() == 3
    pa.buffer.clear()
    assert scheduler.total_buffered() == 1
    pb.buffer.get()
    assert scheduler.total_buffered() == 0
    assert not scheduler.has_work()


def test_counters_adopt_prefilled_buffer_on_add():
    scheduler = SwitchScheduler()
    port = make_port(A)
    port.buffer.put(object())
    port.buffer.put(object())
    scheduler.add_port(port)
    assert scheduler.total_buffered() == 2
    assert scheduler.has_work()


def test_remove_port_releases_its_buffered_count():
    scheduler = SwitchScheduler()
    pa, pb = make_port(A), make_port(B)
    scheduler.add_port(pa)
    scheduler.add_port(pb)
    pa.buffer.put(object())
    pb.buffer.put(object())
    scheduler.remove_port(A)
    assert scheduler.total_buffered() == 1
    # The detached buffer no longer feeds the scheduler's counter.
    pa.buffer.get()
    assert scheduler.total_buffered() == 1
    scheduler.remove_port(B)
    assert scheduler.total_buffered() == 0
    assert not scheduler.has_work()


def test_has_work_tracks_pending_transitions():
    scheduler = SwitchScheduler()
    port = make_port(A)
    scheduler.add_port(port)
    assert not scheduler.has_work()
    port.add_pending(PendingForward(msg=object(), remaining=[B]))
    assert scheduler.has_work()
    assert scheduler.total_buffered() == 0  # pending is not buffered
    port.pending[0].remaining.clear()
    port.prune_pending()
    assert not scheduler.has_work()


def test_prune_resyncs_counters_after_direct_pending_append():
    scheduler = SwitchScheduler()
    port = make_port(A)
    scheduler.add_port(port)
    # Bypass add_pending (as legacy callers might); prune repairs the tally.
    port.pending.append(PendingForward(msg=object(), remaining=[B]))
    port.prune_pending()
    assert scheduler.has_work()
    port.pending[0].remaining.clear()
    port.prune_pending()
    assert not scheduler.has_work()


def test_completed_forward_owes_no_work():
    port = make_port(A)
    forward = PendingForward(msg=object(), remaining=[B])
    port.add_pending(forward)
    assert port.has_work()
    forward.remaining.clear()  # completed in place, not yet pruned
    assert not port.has_work()  # done forwards are pruning debt, not work


def test_add_port_ignores_done_forwards_in_pending_tally():
    scheduler = SwitchScheduler()
    port = make_port(A)
    port.pending.append(PendingForward(msg=object(), remaining=[]))
    scheduler.add_port(port)
    assert not scheduler.has_work()


def test_rotation_reuses_output_list_with_stable_contents():
    scheduler = SwitchScheduler()
    for peer in (A, B, C):
        scheduler.add_port(make_port(peer))
    first = scheduler.rotation()
    first_snapshot = [port.peer for port in first]
    second = scheduler.rotation()
    assert first is second  # one allocation per scheduler, not per pass
    assert [port.peer for port in second] != first_snapshot
    assert {port.peer for port in second} == {A, B, C}


def test_rotation_list_resizes_when_ports_change():
    scheduler = SwitchScheduler()
    scheduler.add_port(make_port(A))
    scheduler.add_port(make_port(B))
    assert len(scheduler.rotation()) == 2
    scheduler.add_port(make_port(C))
    assert {port.peer for port in scheduler.rotation()} == {A, B, C}
    scheduler.remove_port(B)
    assert {port.peer for port in scheduler.rotation()} == {A, C}


def test_remove_port_clears_stale_rotation_aliases():
    scheduler = SwitchScheduler()
    for peer in (A, B, C):
        scheduler.add_port(make_port(peer))
    held = scheduler.rotation()  # a caller wrongly holding the pass
    scheduler.remove_port(B)
    # The shared list was cleared: the removed port cannot leak through
    # a stale alias, and the next pass rebuilds from live ports only.
    assert all(port.peer != B for port in held)
    assert {port.peer for port in scheduler.rotation()} == {A, C}


def test_queue_snapshot_tracks_depth_and_bytes():
    scheduler = SwitchScheduler()
    port_a, port_b = make_port(A), make_port(B)
    scheduler.add_port(port_a)
    scheduler.add_port(port_b)
    port_a.buffer.put("x")
    port_a.note_bytes(100)
    port_a.buffer.put("y")
    port_a.note_bytes(50)
    port_b.buffer.put("z")
    port_b.note_bytes(7)
    assert scheduler.queue_snapshot() == {str(A): (2, 150), str(B): (1, 7)}
    assert scheduler.total_buffered() == 3
    assert scheduler.total_buffered_bytes() == 157
    port_a.buffer.get()
    port_a.note_bytes(-100)
    assert scheduler.queue_snapshot()[str(A)] == (1, 50)
    assert scheduler.total_buffered_bytes() == 57


def test_note_bytes_before_registration_folds_into_scheduler():
    port = make_port(A)
    port.buffer.put("x")
    port.note_bytes(64)  # no scheduler yet: charged on the port only
    assert port.buffered_bytes == 64
    scheduler = SwitchScheduler()
    scheduler.add_port(port)
    assert scheduler.total_buffered_bytes() == 64
    removed = scheduler.remove_port(A)
    assert removed is port
    assert scheduler.total_buffered_bytes() == 0
    # the removed port keeps its own gauge; the scheduler forgot it
    assert port.buffered_bytes == 64


def test_remove_port_refunds_buffered_bytes():
    scheduler = SwitchScheduler()
    port_a, port_b = make_port(A), make_port(B)
    scheduler.add_port(port_a)
    scheduler.add_port(port_b)
    port_a.note_bytes(30)
    port_b.note_bytes(12)
    scheduler.remove_port(A)
    assert scheduler.total_buffered_bytes() == 12
    assert scheduler.queue_snapshot() == {str(B): (0, 12)}
