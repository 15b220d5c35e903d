"""Stateful property test: the scheduler's O(1) counters are load-bearing.

The engine loop parks on ``SwitchScheduler.has_work()`` without running
a scanning pass first, and a sender wakes the engine only when
``pending_ports()`` is non-zero.  A counter that reads *low* is
therefore a lost wake-up: a port holding eligible work behind a parked
engine.  (Reading high costs one empty pass and is allowed — a forward
completed in place stays counted until it is pruned.)

The machine drives a scheduler through every mutation the core and the
backends perform — ports come and go with either kind of buffer (the
engines' ``BoundedQueue`` or a ``CircularBuffer`` ring), possibly
prefilled or already blocked;
buffers fill, drain and outlive their port; forwards are added, grow
while their message is still being processed, complete in place, are
retried, pruned, and lose dead destinations — and checks after every
step that

- ``has_work()`` is never false while any ``port.has_work()`` is true;
- ``total_buffered()`` equals the summed buffer lengths;
- ``pending_ports()`` equals the number of ports that are blocked or
  still carry completed forwards awaiting a prune — and after a prune
  of every port, exactly the number of blocked ports.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.buffer import BoundedQueue, CircularBuffer
from repro.core.ids import NodeId
from repro.core.switch import PendingForward, ReceiverPort, SwitchScheduler

PEERS = [NodeId("10.0.0.1", 7000 + i) for i in range(4)]
DESTS = [NodeId("10.0.1.1", 8000 + i) for i in range(3)]
CAPACITY = 3

indices = st.integers(min_value=0, max_value=7)
dest_lists = st.lists(st.sampled_from(DESTS), max_size=2, unique=True)


class RingAdapter(CircularBuffer):
    """``CircularBuffer`` under the queue surface the machine drives."""

    def put_nowait(self, item) -> bool:
        if self.is_full:
            return False
        self.put(item)
        return True

    get_nowait = CircularBuffer.get
    drain = CircularBuffer.clear


def new_buffer(kind: str):
    return RingAdapter(CAPACITY) if kind == "ring" else BoundedQueue(CAPACITY)


class SchedulerCounters(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.scheduler = SwitchScheduler()
        #: registered ports by peer
        self.ports: dict[NodeId, ReceiverPort] = {}
        #: model of the tally: ports that are blocked, or were when last
        #: pruned or extended (add_pending / prune_pending keep it)
        self.counted: dict[NodeId, bool] = {}
        #: buffers of removed ports: their mutations must reach nobody
        self.detached: list = []

    def pick(self, index: int) -> ReceiverPort:
        return list(self.ports.values())[index % len(self.ports)]

    # --- registry -------------------------------------------------------------------

    @precondition(lambda self: len(self.ports) < len(PEERS))
    @rule(
        kind=st.sampled_from(["ring", "queue"]),
        prefill=st.integers(0, CAPACITY),
        owed=st.none() | dest_lists,
    )
    def add_port(self, kind, prefill, owed):
        peer = next(p for p in PEERS if p not in self.ports)
        port = ReceiverPort(peer=peer, buffer=new_buffer(kind))
        for _ in range(prefill):
            port.buffer.put_nowait(object())
        if owed is not None:  # arrives carrying a (possibly completed) forward
            port.pending.append(PendingForward(object(), list(owed)))
        self.scheduler.add_port(port)
        self.ports[peer] = port
        self.counted[peer] = port.blocked

    @precondition(lambda self: self.ports)
    @rule(index=indices)
    def remove_port(self, index):
        port = self.pick(index)
        assert self.scheduler.remove_port(port.peer) is port
        del self.ports[port.peer]
        del self.counted[port.peer]
        self.detached.append(port.buffer)

    # --- buffers --------------------------------------------------------------------

    @precondition(lambda self: self.ports)
    @rule(index=indices)
    def put(self, index):
        self.pick(index).buffer.put_nowait(object())

    @precondition(lambda self: self.ports)
    @rule(index=indices, count=st.integers(1, CAPACITY + 1))
    def put_burst(self, index, count):
        buffer = self.pick(index).buffer
        burst = [object() for _ in range(count)]
        if isinstance(buffer, BoundedQueue):
            buffer.put_many_nowait(burst)
        else:
            for item in burst:
                buffer.put_nowait(item)

    @precondition(lambda self: self.ports)
    @rule(index=indices)
    def get(self, index):
        buffer = self.pick(index).buffer
        if not buffer.is_empty:
            buffer.get_nowait()

    @precondition(lambda self: self.ports)
    @rule(index=indices)
    def drain(self, index):
        self.pick(index).buffer.drain()

    @precondition(lambda self: self.detached)
    @rule(index=indices, fill=st.booleans())
    def touch_detached_buffer(self, index, fill):
        buffer = self.detached[index % len(self.detached)]
        if fill:
            buffer.put_nowait(object())
        else:
            buffer.drain()

    # --- pending forwards -----------------------------------------------------------

    @precondition(lambda self: self.ports)
    @rule(index=indices, remaining=dest_lists)
    def add_pending(self, index, remaining):
        port = self.pick(index)
        port.add_pending(PendingForward(object(), list(remaining)))
        if remaining:
            self.counted[port.peer] = True

    @precondition(lambda self: self.ports)
    @rule(index=indices, dest=st.sampled_from(DESTS))
    def defer_again_on_last_forward(self, index, dest):
        """``_defer_data``: the message being processed hits a second full queue."""
        port = self.pick(index)
        if port.pending and not port.pending[-1].done:
            port.pending[-1].remaining.append(dest)

    @precondition(lambda self: self.ports)
    @rule(index=indices, which=indices, keep=st.integers(0, 1))
    def complete_in_place(self, index, which, keep):
        """``_try_forward``: some (or all) destinations accepted the message."""
        port = self.pick(index)
        if port.pending:
            forward = port.pending[which % len(port.pending)]
            forward.remaining = forward.remaining[:keep]

    @precondition(lambda self: self.ports)
    @rule(index=indices, keep=st.integers(0, 1))
    def retry_then_prune(self, index, keep):
        """``_retry_pending``: try every forward of a port, then prune it."""
        port = self.pick(index)
        for forward in port.pending:
            forward.remaining = forward.remaining[:keep]
        port.prune_pending()
        self.pruned(port)

    @precondition(lambda self: self.ports)
    @rule(index=indices)
    def prune_pending(self, index):
        port = self.pick(index)
        port.prune_pending()
        self.pruned(port)

    @precondition(lambda self: self.ports)
    @rule(dest=st.sampled_from(DESTS))
    def discard_dest(self, dest):
        """``_drop_downstream``: a destination died; every port forgets it."""
        for port in self.ports.values():
            port.discard_dest(dest)
            self.pruned(port)

    @rule()
    def prune_everything(self):
        for port in self.ports.values():
            port.prune_pending()
            self.pruned(port)
        blocked = sum(1 for port in self.ports.values() if port.blocked)
        assert self.scheduler.pending_ports() == blocked

    def pruned(self, port: ReceiverPort) -> None:
        assert all(not forward.done for forward in port.pending)
        self.counted[port.peer] = port.blocked

    # --- the pass itself ------------------------------------------------------------

    @rule()
    def rotate(self):
        visited = [port.peer for port in self.scheduler.rotation()]
        assert sorted(visited) == sorted(self.ports)

    # --- invariants -----------------------------------------------------------------

    @invariant()
    def has_work_never_reads_low(self):
        if any(port.has_work() for port in self.ports.values()):
            assert self.scheduler.has_work()

    @invariant()
    def has_work_reads_high_only_on_pruning_debt(self):
        if self.scheduler.has_work():
            assert any(port.has_work() or port.pending for port in self.ports.values())

    @invariant()
    def buffered_total_is_exact(self):
        expected = sum(len(port.buffer) for port in self.ports.values())
        assert self.scheduler.total_buffered() == expected

    @invariant()
    def pending_tally_is_exact(self):
        assert self.scheduler.pending_ports() == sum(self.counted.values())
        for port in self.ports.values():
            assert self.counted[port.peer] or not port.blocked


SchedulerCounters.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestSchedulerCounters = SchedulerCounters.TestCase
