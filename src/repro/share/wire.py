"""JSON-lines framing shared by the socket transports and the file log.

One message (or log record) is one JSON object on one ``\\n``-terminated
line, keys sorted so equal messages are equal bytes.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional


def encode(message: Dict) -> str:
    """One message as its line, terminator included."""
    return json.dumps(message, sort_keys=True) + "\n"


def decode(line: str) -> Dict:
    """The message on ``line``; ``ValueError`` unless it is a JSON object."""
    try:
        message = json.loads(line)
    except RecursionError as exc:  # nested deeper than the parser recurses
        raise ValueError("JSON nested too deep") from exc
    if not isinstance(message, dict):
        raise ValueError("not a JSON object")
    return message


def items(value) -> list:
    """A decoded JSON list as it is; anything else as a one-item list.

    Nothing is dropped on the way: the receiving
    :class:`~repro.share.state.PoolState` rejects and counts what it
    cannot read.
    """
    return value if isinstance(value, list) else [value]


def send(sock: socket.socket, message: Dict) -> None:
    """Write one message to a connected socket."""
    sock.sendall(encode(message).encode("utf-8"))


def reader(sock: socket.socket):
    """A line reader over ``sock`` for :func:`recv` (or plain iteration).

    Undecodable bytes spoil their line (it fails :func:`decode`), not the
    connection.
    """
    return sock.makefile("r", encoding="utf-8", errors="replace", newline="\n")


def recv(lines) -> Optional[Dict]:
    """The next message from a :func:`reader`; None at end of stream."""
    line = lines.readline()
    return decode(line) if line else None


def no_delay(sock: socket.socket) -> socket.socket:
    """Set ``TCP_NODELAY`` on a TCP socket (any other is left alone); returns it.

    One small line per message, answered before the next is written: Nagle
    plus delayed ACK held a fresh connection's second write back for 40 ms.
    """
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.

    Shutdown comes first because ``close()`` alone leaves a thread that
    is blocked in ``accept()`` or ``readline()`` on the socket holding
    the kernel's open file description: a listener would keep its port,
    a reader would linger on the descriptor.  Shutdown wakes them.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
