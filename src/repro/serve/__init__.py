"""`repro serve`: asyncio result daemon + blocking client (see submodules)."""

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ReproServer
from repro.serve.protocol import OPS, PROTOCOL_VERSION

__all__ = [
    "OPS",
    "PROTOCOL_VERSION",
    "ReproServer",
    "ServeClient",
    "ServeError",
]
