"""Core of the Dimmunix reproduction.

This package implements the paper's primary contribution: deadlock
signatures, the persistent history, the resource allocation graph, cycle
and starvation detection, the avoidance engine, the asynchronous monitor,
and the matching-depth calibrator.
"""

from .avoidance import (AvoidanceEngine, Decision, RequestOutcome, MODE_FULL,
                        MODE_INSTRUMENTATION_ONLY)
from .cache import AvoidanceCache
from .calibration import Calibrator, find_lock_inversion
from .callstack import CallStack, Frame, EMPTY_STACK
from .config import DimmunixConfig, STRONG_IMMUNITY, WEAK_IMMUNITY
from .cycles import (DetectedCycle, detect_all, find_deadlock_cycles,
                     find_starvation, pick_starvation_victim)
from .dimmunix import Dimmunix
from .errors import (AvoidanceError, ConfigError, DimmunixError, HistoryError,
                     HistoryFormatError, InstrumentationError, MonitorError,
                     RAGError, RestartRequired, SignatureError, SimDeadlockError,
                     SimulationError)
from .events import (Event, EventType, acquired_event, allow_event, cancel_event,
                     release_event, request_event, yield_event)
from .history import History
from .monitor import MonitorCore, MonitorThread
from .rag import ResourceAllocationGraph, ResourceState, ThreadState
from .runtime_api import RuntimeCore, ThreadParker
from .sigindex import SignatureIndex
from .signature import DEADLOCK, EXCLUSIVE, SHARED, STARVATION, Signature
from .stats import EngineStats

__all__ = [
    "AvoidanceCache",
    "AvoidanceEngine",
    "AvoidanceError",
    "Calibrator",
    "CallStack",
    "ConfigError",
    "DEADLOCK",
    "Decision",
    "DetectedCycle",
    "Dimmunix",
    "DimmunixConfig",
    "DimmunixError",
    "EMPTY_STACK",
    "EXCLUSIVE",
    "EngineStats",
    "Event",
    "EventType",
    "Frame",
    "History",
    "HistoryError",
    "HistoryFormatError",
    "InstrumentationError",
    "MODE_FULL",
    "MODE_INSTRUMENTATION_ONLY",
    "MonitorCore",
    "MonitorError",
    "MonitorThread",
    "RAGError",
    "RequestOutcome",
    "ResourceAllocationGraph",
    "ResourceState",
    "RestartRequired",
    "RuntimeCore",
    "SHARED",
    "STARVATION",
    "STRONG_IMMUNITY",
    "Signature",
    "SignatureError",
    "SignatureIndex",
    "ThreadParker",
    "SimDeadlockError",
    "SimulationError",
    "ThreadState",
    "WEAK_IMMUNITY",
    "acquired_event",
    "allow_event",
    "cancel_event",
    "detect_all",
    "find_deadlock_cycles",
    "find_lock_inversion",
    "find_starvation",
    "pick_starvation_victim",
    "release_event",
    "request_event",
    "yield_event",
]
