"""Utility subpackage: clocks, atomics, file locking, slot helpers."""

from .clock import Clock, WallClock, VirtualClock

__all__ = [
    "Clock",
    "WallClock",
    "VirtualClock",
]
