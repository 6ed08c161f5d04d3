"""The skeleton the seven immune primitives inherit, checked once over all of them.

What does not depend on how a caller waits — runtime binding, engine id,
name, ``repr``, and what a release nobody paid for does — is one body in
``repro.instrument.skeleton``; each row below is one primitive in its
runtime.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.dimmunix import Dimmunix
from repro.core.errors import InstrumentationError
from repro.instrument import (AioLock, AioRWLock, AioSemaphore, AsyncioRuntime,
                              DimmunixBoundedSemaphore, DimmunixLock, DimmunixRLock,
                              DimmunixRWLock, DimmunixSemaphore, InstrumentationRuntime,
                              default_runtime)

#: class, kind, default-name prefix, the release to call, what an unpaid release raises.
PRIMITIVES = [
    (DimmunixLock, "threads", "lock", "release", InstrumentationError),
    (DimmunixRLock, "threads", "lock", "release", InstrumentationError),
    (DimmunixSemaphore, "threads", "sem", "release", None),
    (DimmunixBoundedSemaphore, "threads", "sem", "release", ValueError),
    (DimmunixRWLock, "threads", "rwlock", "release_read", InstrumentationError),
    (DimmunixRWLock, "threads", "rwlock", "release_write", InstrumentationError),
    (AioLock, "asyncio", "aiolock", "release", InstrumentationError),
    (AioSemaphore, "asyncio", "aiosem", "release", None),
    (AioRWLock, "asyncio", "aiorw", "release_read", InstrumentationError),
    (AioRWLock, "asyncio", "aiorw", "release_write", InstrumentationError),
]
RUNTIMES = {"threads": InstrumentationRuntime, "asyncio": AsyncioRuntime}


@pytest.mark.parametrize("cls, kind, prefix, release, raised", PRIMITIVES,
                         ids=[f"{row[0].__name__}.{row[3]}" for row in PRIMITIVES])
def test_identity_and_unpaid_release(config, cls, kind, prefix, release, raised):
    runtime = RUNTIMES[kind](Dimmunix(config=config))
    first, second = cls(runtime=runtime), cls(runtime=runtime, name="named")
    assert first._runtime is second._runtime is runtime
    assert first.lock_id != second.lock_id
    assert first.name == f"{prefix}-{first.lock_id}" and second.name == "named"
    assert repr(first).startswith(f"<{cls.__name__} {first.name} ")
    assert repr(second).startswith(f"<{cls.__name__} named ")
    # Without a runtime: the kind's process-wide default.
    assert cls()._runtime is default_runtime(kind)

    async def unpaid():
        getattr(first, release)()

    def call():
        return asyncio.run(unpaid()) if kind == "asyncio" else getattr(first, release)()

    if raised is None:
        call()  # a semaphore takes a permit nobody acquired, like the native ones
        assert first.permits_held() == 0
    else:
        with pytest.raises(raised):
            call()
    assert runtime.engine.stats.snapshot().get("releases", 0) == 0
