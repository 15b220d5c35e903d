"""Exception taxonomy for the iOverlay reproduction.

Every exception raised on purpose by this library derives from
:class:`IOverlayError`, so callers can catch library failures with a
single ``except`` clause while still letting programming errors
(``TypeError``, ``ValueError`` from user code, ...) propagate.
"""

from __future__ import annotations


class IOverlayError(Exception):
    """Base class for all errors raised by the iOverlay reproduction."""


class CodecError(IOverlayError):
    """A message could not be encoded to, or decoded from, wire bytes."""


class BufferClosedError(IOverlayError):
    """An operation was attempted on a closed buffer or queue."""


class LinkDownError(IOverlayError):
    """A send was attempted on a link that has failed or been torn down."""


class UnknownNodeError(IOverlayError):
    """A node id did not resolve to any live node."""


class SimulationError(IOverlayError):
    """The discrete-event kernel detected an inconsistent state."""


class ConfigurationError(IOverlayError):
    """Invalid engine, network, or experiment configuration."""


class DecodingError(IOverlayError):
    """A network-coding generation could not be decoded (rank deficient)."""


class FederationError(IOverlayError):
    """A service-federation session could not be completed."""


class ClusterError(IOverlayError):
    """A cluster control-plane operation (spawn, place, query) failed."""
