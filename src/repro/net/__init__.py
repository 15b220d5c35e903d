"""The live asyncio engine: real TCP sockets on localhost or wide-area."""

from repro.net.chaos import ChaosController
from repro.net.engine import AsyncioEngine, NetEngineConfig
from repro.net.observer_server import ObserverServer
from repro.net.proxy import ObserverProxy
from repro.net.resilience import (
    BackoffPolicy,
    LinkHealth,
    ObserverOutbox,
    ResilienceConfig,
)
from repro.net.virtual import VirtualHost

__all__ = [
    "AsyncioEngine",
    "BackoffPolicy",
    "ChaosController",
    "LinkHealth",
    "NetEngineConfig",
    "ObserverOutbox",
    "ObserverProxy",
    "ObserverServer",
    "ResilienceConfig",
    "VirtualHost",
]
