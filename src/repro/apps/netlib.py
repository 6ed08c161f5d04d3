"""A miniature network-game library (HawkNL analogue).

HawkNL 1.6b3 deadlocks when ``nlShutdown()`` is called concurrently with
``nlClose()``: shutdown takes the library-wide lock and then each socket's
lock while tearing sockets down, whereas closing a single socket takes the
socket's lock first and then the library lock to unregister it.  The paper
reports 10 yields per trial for this bug because the exploit closes
several sockets while a shutdown is in flight — the same pattern repeats
once per socket.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from .base import MiniApp


class NetSocket:
    """One open socket."""

    _ids = itertools.count(1)

    def __init__(self, library: "NetLibrary", group: str = "default"):
        self.socket_id = next(NetSocket._ids)
        self.group = group
        self.library = library
        self.lock = library.make_rlock(f"socket-{self.socket_id}")
        self.open = True
        self.sent: List[bytes] = []


class NetLibrary(MiniApp):
    """The library: global state lock plus per-socket locks."""

    def __init__(self, runtime=None, acquire_timeout: Optional[float] = None):
        super().__init__(runtime=runtime, acquire_timeout=acquire_timeout)
        self.global_lock = self.make_rlock("netlib-global")
        self.sockets: Dict[int, NetSocket] = {}
        self.initialized = True

    # -- normal operation ---------------------------------------------------------------------

    def nl_open(self, group: str = "default") -> NetSocket:
        """Open a socket and register it (global lock only)."""
        with self.holding(self.global_lock, "nl_open"):
            socket = NetSocket(self, group=group)
            self.sockets[socket.socket_id] = socket
            return socket

    def nl_write(self, socket: NetSocket, payload: bytes) -> int:
        """Send data on an open socket (socket lock only)."""
        with self.holding(socket.lock, "nl_write"):
            if not socket.open:
                return 0
            socket.sent.append(payload)
            return len(payload)

    # -- the deadlock-prone pair ---------------------------------------------------------------

    def nl_close(self, socket: NetSocket) -> bool:
        """Close one socket: locks the socket, then the library to unregister it."""
        with self.holding(socket.lock, "nl_close"):
            socket.open = False
            with self.holding(self.global_lock, "nl_close"):
                self.sockets.pop(socket.socket_id, None)
                return True

    def nl_shutdown(self) -> int:
        """Shut the library down: locks the library, then every socket."""
        with self.holding(self.global_lock, "nl_shutdown"):
            closed = 0
            for socket in list(self.sockets.values()):
                with self.holding(socket.lock, "nl_shutdown"):
                    socket.open = False
                    closed += 1
            self.sockets.clear()
            self.initialized = False
            return closed
