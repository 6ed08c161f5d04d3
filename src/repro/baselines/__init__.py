"""Baseline deadlock-avoidance approaches used in the paper's comparison.

Section 7.3 of the paper compares Dimmunix against the "gate lock"
approach of Nir-Buchbinder et al. [17] (serialize the code blocks involved
in an observed deadlock behind one gate lock), implemented here as a
scheduler backend so the very same workloads can be replayed under it.
A detection-only backend (deadlocks are recorded but never avoided) and
an Rx-style rollback/retry runner complete the comparison set.
"""

from .gatelock import GateLockBackend
from .detection import DetectionOnlyBackend
from .rx import RxRetryRunner, rx_retry

__all__ = [
    "DetectionOnlyBackend",
    "GateLockBackend",
    "RxRetryRunner",
    "rx_retry",
]
