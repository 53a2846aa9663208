"""Client-side consistency machinery: session guarantees as a library."""

from .session import GUARANTEES, SessionClient, SessionState, SessionStats

__all__ = [
    "SessionClient",
    "SessionState",
    "SessionStats",
    "GUARANTEES",
]
