"""Miniature target applications.

The paper evaluates Dimmunix on MySQL, SQLite, HawkNL, the MySQL JDBC
driver, Limewire, ActiveMQ, JBoss, and the Java JDK.  Those systems are
not reproducible here, but Dimmunix only ever observes their lock/unlock
call flows — so each module in this package implements a small,
self-contained application whose locking structure reproduces the
reported bug exactly (same lock ordering mistake, same method pair, and
therefore the same deadlock cycle and signature shape).

Every threaded application accepts an
:class:`~repro.instrument.runtime.InstrumentationRuntime` so the same
code can run uninstrumented, detection-only, or fully immune, and the
simulator explores it over every interleaving through its overridden
lock factories (:mod:`repro.workloads.exploits`); the asyncio
applications (:mod:`repro.apps.aiobroker`) accept an
:class:`~repro.instrument.aio.AsyncioRuntime` the same way.
"""

from .base import AppLockTimeout, MiniApp
from .aiobroker import AioApp, AioBroker, AioQueue, AioSession, AioSubscription
from .minidb import CustomRecursiveLock, MiniDB
from .connpool import Connection, PreparedStatement, Statement
from .minibroker import Broker, PrefetchSubscription, Queue, Session
from .collections_sync import (BeanContext, CharArrayWriter, SyncHashtable,
                               SyncPrintWriter, SyncStringBuffer, SyncVector)
from .netlib import NetLibrary, NetSocket
from .taskqueue import Task, TaskQueue

__all__ = [
    "AioApp",
    "AioBroker",
    "AioQueue",
    "AioSession",
    "AioSubscription",
    "AppLockTimeout",
    "BeanContext",
    "Broker",
    "CharArrayWriter",
    "Connection",
    "CustomRecursiveLock",
    "MiniApp",
    "MiniDB",
    "NetLibrary",
    "NetSocket",
    "PrefetchSubscription",
    "PreparedStatement",
    "Queue",
    "Session",
    "Statement",
    "SyncHashtable",
    "SyncPrintWriter",
    "SyncStringBuffer",
    "SyncVector",
    "Task",
    "TaskQueue",
]
