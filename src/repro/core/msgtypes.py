"""Message types used across the engine, the observer and algorithms.

The paper drives everything through typed application-layer messages: the
engine and the observer define a vocabulary of control types, and
algorithms add their own (sQuery, sAware, ...).  Types are 32-bit values
in the wire header; we reserve the low range for the engine/observer and
give algorithms a dedicated range so the two can never collide.
"""

from __future__ import annotations

from enum import IntEnum, unique


@unique
class MsgType(IntEnum):
    """Well-known message types.

    Values below :data:`ALGORITHM_TYPE_BASE` belong to the engine and the
    observer; algorithm-specific types (the ``s*`` family from the
    paper's case studies) live above it.
    """

    # --- engine / data plane -------------------------------------------------
    DATA = 1                 # application payload (the only type an algorithm must handle)
    HEARTBEAT = 2            # on-demand probe/echo: RTT measurement, and the
                             # reactive liveness probe a watchdog sends only
                             # AFTER inactivity raises suspicion (never a
                             # periodic heartbeat — the paper forbids those)

    # --- observer control plane ----------------------------------------------
    BOOT = 10                # node -> observer: bootstrap request
    BOOT_REPLY = 11          # observer -> node: random subset of alive nodes
    REQUEST = 12             # observer -> node: request a status update
    STATUS = 13              # node -> observer: buffers, QoS, neighbour lists
    TERMINATE = 14           # observer -> node: terminate the node gracefully
    SET_BANDWIDTH = 15       # observer -> node: update emulated bandwidth
    CONNECT = 16             # observer -> node: connect to a downstream node
    DISCONNECT = 17          # observer -> node: drop a downstream link
    TRACE = 18               # node -> observer: debugging / measurement trace record
    CONTROL = 19             # observer -> algorithm: generic command, two int params
    HELLO = 20               # first frame on a fresh TCP connection: sender identity
    PROXY = 21               # hub -> proxy (downward only): {dest} + raw inner frame
    FLOW_QUERY = 22          # client -> observer: stitched causal path for a trace id
    FLOW_REPLY = 23          # observer -> client: events, path and per-hop latencies
    SHM_ACK = 24             # acceptor -> dialer: verdict on a HELLO's offer of
                             # shared-memory ring channels (co-machine fast path)

    # --- engine -> algorithm notifications ------------------------------------
    BROKEN_SOURCE = 30       # an upstream application source has failed
    BROKEN_LINK = 31         # an adjacent link has been torn down
    UP_THROUGHPUT = 32       # periodic throughput measurement from an upstream
    DOWN_THROUGHPUT = 33     # periodic throughput measurement to a downstream
    NEW_UPSTREAM = 34        # a new incoming connection was accepted
    MEASURE_REPLY = 35       # reply to an on-demand bandwidth/latency probe
    TIMER = 36               # a timer the algorithm armed via set_timer fired

    # --- application deployment ------------------------------------------------
    S_DEPLOY = 40            # observer -> node: deploy an application source here
    S_TERMINATE = 41         # observer -> node: terminate an application source

    # --- algorithm library (tree construction case study) ----------------------
    S_JOIN = 50              # node -> tree: request to join a session
    S_QUERY = 51             # locate a node already in the tree
    S_QUERY_ACK = 52         # acknowledgement electing a parent
    S_ANNOUNCE = 53          # announces the source of a session
    S_STRESS = 54            # periodic node-stress exchange with neighbours
    S_LEAVE = 55             # leave a session

    # --- algorithm library (service federation case study) ---------------------
    S_ASSIGN = 60            # observer -> node: host a service instance
    S_AWARE = 61             # dissemination of a new service's existence
    S_FEDERATE = 62          # service requirement flowing source -> sink
    S_FEDERATE_ACK = 63      # path confirmation sink -> source

    # --- algorithm library (gossip) --------------------------------------------
    GOSSIP = 70              # probabilistically disseminated payload

    # --- algorithm library (backpressure routing) -------------------------------
    S_BACKLOG = 71           # per-commodity queue backlogs, node -> its upstreams
                             # (reverse of data flow: feeds queue differentials)

    # --- cluster control plane (supervisor <-> child channel) --------------------
    # The scale-out layer (repro.cluster) shards virtualized nodes across
    # OS processes.  Every supervised child keeps one persistent control
    # connection to its supervisor and speaks these verbs on it — a worker
    # to its placement controller, and a federated child controller to
    # the root, which is the same tier one level up: one frame family,
    # same correlated request/reply convention on the header ``seq``.
    W_REGISTER = 80          # child -> supervisor: first frame, identity (a child
                             # controller adds workers / capacity / weight)
    W_SPAWN = 81             # supervisor -> child: place + start one node
    W_SPAWNED = 82           # child -> supervisor: spawn outcome (node id / error)
    W_HEARTBEAT = 83         # child -> supervisor: liveness + process gauges
    W_STOP_NODE = 84         # supervisor -> child: gracefully stop one node
    W_NODE_INFO = 85         # supervisor -> child: request one node's state
    W_NODE_INFO_REPLY = 86   # child -> supervisor: node facts / generic ack
    W_SHUTDOWN = 87          # supervisor -> child: drain and exit cleanly
    W_AGG = 88               # aggregating proxy -> parent: subtree roll-up
                             # (status digest, metric deltas, sampled traces,
                             # member list) flushed once per interval instead
                             # of relaying every child frame individually

    # --- federation bootstrap (root <-> child controller) -----------------------
    # The two frames of the controller tier that have no process-tier
    # twin: a child controller boots a whole fleet after registering.
    C_WELCOME = 91           # root -> child: bootstrap facts (observer endpoint,
                             # pinned proxy port for a respawned child)
    C_EVENT = 99             # child -> root: unsolicited shard events (ready,
                             # node-down, node-replaced) keeping the root's
                             # placement map and observer view current


#: First type value available to user-defined algorithms.
ALGORITHM_TYPE_BASE = 1000


def is_engine_type(type_value: int) -> bool:
    """True if the engine itself (not the algorithm) owns this type."""
    return type_value in _ENGINE_OWNED


def type_name(type_value: int) -> str:
    """Human-readable name for a type value (used in traces and repr)."""
    try:
        return MsgType(type_value).name
    except ValueError:
        return f"user({type_value})"


_ENGINE_OWNED = frozenset(
    {
        MsgType.REQUEST,
        MsgType.TERMINATE,
        MsgType.SET_BANDWIDTH,
        MsgType.CONNECT,
        MsgType.DISCONNECT,
        MsgType.HEARTBEAT,
    }
)
