"""Configuration for a Dimmunix instance.

The defaults follow the paper: monitor period tau = 100 ms, fixed call
stack matching depth of 4, weak immunity, calibration parameters NA = 20
and NT = 10^4, and a 200 ms bound on how long a thread may be kept
yielding before the avoidance is aborted (section 5.7).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict, replace
from typing import Optional, Sequence

from .errors import ConfigError

#: Immunity levels supported by Dimmunix (section 5.4 of the paper).
WEAK_IMMUNITY = "weak"
STRONG_IMMUNITY = "strong"

_VALID_IMMUNITY = (WEAK_IMMUNITY, STRONG_IMMUNITY)


@dataclass
class DimmunixConfig:
    """Tunable parameters of the deadlock-immunity runtime.

    Attributes
    ----------
    history_path:
        Where the persistent signature history is stored.  ``None`` keeps
        the history purely in memory (useful for tests and simulations).
    monitor_interval:
        The monitor wake-up period tau, in seconds.  The paper suggests
        100 ms for interactive programs.
    matching_depth:
        Default call-stack suffix length used when matching runtime stacks
        against signature stacks (the paper's default is 4).
    max_stack_depth:
        Maximum number of frames recorded per call stack.  This is also the
        maximum matching depth the calibrator may select.
    immunity:
        ``"weak"`` breaks induced starvation and continues; ``"strong"``
        invokes the restart hook whenever starvation is encountered.
    calibration_enabled:
        Enables the optional matching-depth calibration of section 5.5.
    calibration_na:
        NA — number of avoidances observed per candidate depth during
        calibration (paper default 20).
    calibration_nt:
        NT — number of avoidances after which a signature is recalibrated
        (paper default 10^4).
    yield_timeout:
        Upper bound, in seconds, on how long a thread may be parked by a
        single avoidance decision before the yield is aborted (the paper
        suggests 200 ms as an optional safety valve against
        starvation-induced loss of functionality, section 5.7).  ``None``
        (the default) disables the bound; induced starvation is then broken
        by the monitor instead.
    auto_disable_abort_threshold:
        Number of aborted yields after which a signature is automatically
        disabled as "too risky to avoid" (section 5.7).  ``None`` disables
        automatic disabling.
    detection_only:
        When True the engine never yields; deadlocks are still detected and
        their signatures saved.  Used for the "instrumented but ignore all
        yield decisions" configuration of section 7.1.1 and for overhead
        breakdown measurements.
    external_synchronization:
        Names of synchronization routines that Dimmunix is *not* aware of;
        requests whose innermost frame matches one of these names always
        receive GO (mirrors the configuration file mentioned in 5.7).
    fp_window:
        Number of lock operations logged per avoidance episode for the
        false-positive heuristic of the calibrator.
    event_ring_size:
        Each emitting thread's share of the monitor event queue's bound:
        the queue holds at most this many records per producing thread.
        When it fills (the monitor is stopped or badly behind), further
        events are dropped and counted rather than blocking the hot path.
    lazy_capture:
        When True (the default), the lock runtimes capture only the
        caller's top frame on the acquire path and defer the full stack
        walk until the signature index's top-frame filter hits or the
        event matters (YIELD, blocking, deadlock archival).  Histories and
        signatures are byte-identical to eager capture; disable only to
        debug the capture layer itself or to compare overheads.
    """

    history_path: Optional[str] = None
    monitor_interval: float = 0.1
    matching_depth: int = 4
    max_stack_depth: int = 10
    immunity: str = WEAK_IMMUNITY
    calibration_enabled: bool = False
    calibration_na: int = 20
    calibration_nt: int = 10_000
    yield_timeout: Optional[float] = None
    auto_disable_abort_threshold: Optional[int] = 32
    detection_only: bool = False
    external_synchronization: Sequence[str] = field(default_factory=tuple)
    fp_window: int = 64
    event_ring_size: int = 65536
    lazy_capture: bool = True

    def validate(self) -> "DimmunixConfig":
        """Check parameter ranges and return ``self`` for chaining."""
        if self.monitor_interval <= 0:
            raise ConfigError("monitor_interval must be positive")
        if self.matching_depth < 1:
            raise ConfigError("matching_depth must be >= 1")
        if self.max_stack_depth < self.matching_depth:
            raise ConfigError(
                "max_stack_depth must be >= matching_depth "
                f"({self.max_stack_depth} < {self.matching_depth})"
            )
        if self.immunity not in _VALID_IMMUNITY:
            raise ConfigError(
                f"immunity must be one of {_VALID_IMMUNITY}, got {self.immunity!r}"
            )
        if self.calibration_na < 1:
            raise ConfigError("calibration_na must be >= 1")
        if self.calibration_nt < 1:
            raise ConfigError("calibration_nt must be >= 1")
        if self.yield_timeout is not None and self.yield_timeout <= 0:
            raise ConfigError("yield_timeout must be positive or None")
        if (self.auto_disable_abort_threshold is not None
                and self.auto_disable_abort_threshold < 1):
            raise ConfigError("auto_disable_abort_threshold must be >= 1 or None")
        if self.fp_window < 1:
            raise ConfigError("fp_window must be >= 1")
        if self.event_ring_size < 1:
            raise ConfigError("event_ring_size must be >= 1")
        if self.history_path is not None:
            parent = os.path.dirname(os.path.abspath(self.history_path))
            if parent and not os.path.isdir(parent):
                raise ConfigError(
                    f"history_path parent directory does not exist: {parent}"
                )
        return self

    # -- convenience constructors -------------------------------------------------

    @classmethod
    def for_testing(cls, **overrides) -> "DimmunixConfig":
        """A configuration suited to fast unit tests.

        Uses a short monitor period, in-memory history and no yield timeout
        so tests exercise deterministic behaviour.
        """
        defaults = dict(
            history_path=None,
            monitor_interval=0.02,
            yield_timeout=None,
            auto_disable_abort_threshold=None,
        )
        defaults.update(overrides)
        return cls(**defaults).validate()

    @classmethod
    def strong(cls, **overrides) -> "DimmunixConfig":
        """A strong-immunity configuration (the paper's evaluation setting)."""
        overrides.setdefault("immunity", STRONG_IMMUNITY)
        return cls(**overrides).validate()

    def with_overrides(self, **overrides) -> "DimmunixConfig":
        """Return a copy of this configuration with the given fields changed."""
        return replace(self, **overrides).validate()

    def to_dict(self) -> dict:
        """Serialize to a plain dictionary (e.g. for experiment records)."""
        data = asdict(self)
        data["external_synchronization"] = list(self.external_synchronization)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DimmunixConfig":
        """Inverse of :meth:`to_dict`."""
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        if "external_synchronization" in known:
            known["external_synchronization"] = tuple(known["external_synchronization"])
        return cls(**known).validate()

    @property
    def strong_immunity(self) -> bool:
        """True when the configuration requests strong immunity."""
        return self.immunity == STRONG_IMMUNITY
