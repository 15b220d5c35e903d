"""Node and application identifiers.

The paper identifies an overlay node uniquely by its IP address and port
number (Section 2.2), and tags every message with the identifier of the
application it belongs to.  Both identifiers are small immutable value
objects that pack into the fixed-size message header.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import CodecError

_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

# Conversion caches.  An engine talks to a handful of distinct
# addresses but converts them once per packed/unpacked frame, which
# puts these functions on the per-message fast path; the caches turn a
# regex match (or string build) into one dict hit.  Bounded so a
# pathological address stream cannot grow them without limit.
_IP_INT_CACHE: dict[str, int] = {}
_INT_IP_CACHE: dict[int, str] = {}
_ID_CACHE_LIMIT = 16384


def ip_to_int(ip: str) -> int:
    """Convert a dotted-quad IPv4 string to its 32-bit integer form."""
    cached = _IP_INT_CACHE.get(ip)
    if cached is not None:
        return cached
    match = _IPV4_RE.match(ip)
    if match is None:
        raise CodecError(f"not a dotted-quad IPv4 address: {ip!r}")
    octets = [int(part) for part in match.groups()]
    if any(octet > 255 for octet in octets):
        raise CodecError(f"IPv4 octet out of range: {ip!r}")
    value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
    if len(_IP_INT_CACHE) < _ID_CACHE_LIMIT:
        _IP_INT_CACHE[ip] = value
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 string."""
    cached = _INT_IP_CACHE.get(value)
    if cached is not None:
        return cached
    if not 0 <= value <= 0xFFFFFFFF:
        raise CodecError(f"IPv4 integer out of range: {value}")
    ip = ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))
    if len(_INT_IP_CACHE) < _ID_CACHE_LIMIT:
        _INT_IP_CACHE[value] = ip
    return ip


@dataclass(frozen=True, slots=True, order=True)
class NodeId:
    """A node in the overlay: uniquely identified by IP address and port.

    The paper allows the port to be explicitly specified at start-up;
    otherwise the engine picks one.  ``NodeId`` is hashable and ordered so
    it can be used as a dictionary key and sorted deterministically.
    """

    ip: str
    port: int
    #: precomputed hash — NodeId keys every peer table, port rotation and
    #: upstream/downstream tracking set on the per-message switch path,
    #: so the dict machinery hashes each id several times per message
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ip_to_int(self.ip)  # validates the address
        if not 0 <= self.port <= 0xFFFFFFFF:
            raise CodecError(f"port out of range: {self.port}")
        object.__setattr__(self, "_hash", hash((self.ip, self.port)))

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"

    @classmethod
    def parse(cls, text: "str | NodeId") -> "NodeId":
        """Parse ``"ip:port"`` into a :class:`NodeId` (a NodeId passes through)."""
        if isinstance(text, NodeId):
            return text
        ip, sep, port = text.rpartition(":")
        if not sep or not port.isdigit():
            raise CodecError(f"not an ip:port node id: {text!r}")
        return cls(ip, int(port))


def _nodeid_hash(self: NodeId) -> int:
    return self._hash


# The frozen dataclass would regenerate hash((ip, port)) per call; the
# assignment swaps in the cached value (identical for equal ids, so dict
# semantics are unchanged).
NodeId.__hash__ = _nodeid_hash  # type: ignore[method-assign]


# The application identifier is a plain 32-bit integer in the header;
# an alias keeps signatures self-documenting.
AppId = int

#: Application id reserved for engine/observer control traffic.
CONTROL_APP: AppId = 0
