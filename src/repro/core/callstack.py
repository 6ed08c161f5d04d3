"""Call-stack abstraction used by signatures and the avoidance engine.

A :class:`CallStack` is an immutable sequence of :class:`Frame` objects
ordered *innermost first*: ``frames[0]`` is the program location that
performed the lock operation, ``frames[1]`` is its caller, and so on.
Matching "at depth d" compares the ``d`` innermost frames, which is the
paper's notion of matching a suffix of the call flow that led to the lock
acquisition.

Stacks can be captured from the live Python interpreter (used by the real
thread instrumentation) or constructed explicitly from symbolic frame
descriptions (used by the deterministic simulator and by tests).
"""

from __future__ import annotations

import sys
from threading import get_ident as _get_ident
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

#: Path fragments whose frames are dropped when capturing live stacks
#: (matched by :func:`path_has_component`).  The instrumentation and engine
#: frames are implementation detail and must not appear in signatures,
#: otherwise the signatures would not be portable across library versions.
#: ``contextlib`` and the app helper layer are filtered for the same reason:
#: they sit between the lock call and the application code on every
#: acquisition, so keeping them would waste most of the matching depth on
#: frames that never differ.
_INTERNAL_FRAGMENTS = (
    "repro/core/",
    "repro/instrument/",
    "repro/util/",
    "repro/apps/base.py",
    "contextlib.py",
)


class Frame(NamedTuple):
    """One stack frame: function name, file name, and line number.

    A tuple, so hashing and equality run in C: a frame is a dict key on
    every request (the index's top-frame filter and bucket keys, the
    Allowed sets' call sites).
    """

    function: str
    filename: str
    lineno: int

    def label(self) -> str:
        """Human readable label, e.g. ``update (prog.py:3)``."""
        return f"{self.function} ({self.filename}:{self.lineno})"

    def encode(self) -> str:
        """Serialize to the compact ``function|filename|lineno`` form."""
        return f"{self.function}|{self.filename}|{self.lineno}"

    @classmethod
    def decode(cls, text: str) -> "Frame":
        """Parse a frame encoded by :meth:`encode`."""
        function, filename, lineno = text.rsplit("|", 2)
        return cls(function=function, filename=filename, lineno=int(lineno))

    @classmethod
    def symbolic(cls, label: str) -> "Frame":
        """Build a frame from a symbolic site label.

        Accepts ``"function"``, ``"function:lineno"`` or
        ``"function:filename:lineno"``.  Used by the simulator DSL and by
        tests to write stacks like ``["update:3", "main:1"]``.  Labels whose
        trailing component is not an integer (e.g. ``"update:s1"``) are kept
        verbatim as the function name.
        """
        parts = label.split(":")
        if len(parts) >= 2 and _is_int(parts[-1]):
            lineno = int(parts[-1])
            if len(parts) >= 3:
                return cls(function=":".join(parts[:-2]), filename=parts[-2],
                           lineno=lineno)
            return cls(function=parts[0], filename="<sim>", lineno=lineno)
        return cls(function=label, filename="<sim>", lineno=0)


class CallStack:
    """Immutable, hashable call stack (innermost frame first)."""

    __slots__ = ("_frames", "_hash")
    #: The published ``sites`` filter a deferred capture found its call site
    #: absent from (:meth:`capture_lazy`); eager stacks carry no verdict.
    absent_from: Optional[frozenset] = None

    def __init__(self, frames: Iterable[Frame]):
        self._frames: Tuple[Frame, ...] = tuple(frames)
        self._hash = hash(self._frames)

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def from_labels(cls, labels: Sequence[str]) -> "CallStack":
        """Build a stack from symbolic labels, innermost first."""
        return cls(Frame.symbolic(label) for label in labels)

    @classmethod
    def capture(cls, skip: int = 1, limit: int = 10,
                skip_internal: bool = True) -> "CallStack":
        """Capture the calling thread's current Python stack.

        Parameters
        ----------
        skip:
            Number of innermost frames to drop (the caller typically skips
            its own frame).
        limit:
            Maximum number of frames to record.
        skip_internal:
            Drop frames that belong to the Dimmunix implementation itself.
        """
        frames = []
        try:
            frame = sys._getframe(skip + 1)
        except ValueError:  # not enough frames
            frame = None
        while frame is not None and len(frames) < limit:
            code = frame.f_code
            filename = code.co_filename
            if skip_internal and _is_internal(filename):
                frame = frame.f_back
                continue
            frames.append(Frame(function=code.co_name,
                                filename=_shorten(filename),
                                lineno=frame.f_lineno))
            frame = frame.f_back
        return cls(frames)

    @classmethod
    def capture_cached(cls, skip: int = 1, limit: int = 10) -> "CallStack":
        """Capture the current stack eagerly: skip the internal frames, then :func:`_walk`.

        The ``lazy_capture=False`` path of both lock runtimes, and the
        reference the lazy captures are tested against.  Two captures from
        the same sequence of bytecode positions produce the same
        :class:`CallStack`, so the result is memoized under a key of
        ``(code object, f_lasti)`` pairs — identity of the code objects
        plus the exact call site inside each; on a hit only the raw frame
        walk (unavoidable — the key *is* the stack) remains.

        Semantics are identical to ``capture(skip, limit)`` with
        ``skip_internal=True`` (internality is per code object and cached
        too).  Cache growth is bounded: the oldest half is evicted past
        ``_CAPTURE_CACHE_LIMIT`` distinct call paths.
        """
        try:
            frame = sys._getframe(skip + 1)
        except ValueError:  # not enough frames
            return EMPTY_STACK
        while frame is not None and _internal_code[frame.f_code]:
            frame = frame.f_back
        if frame is None or limit < 1:
            return EMPTY_STACK
        return _walk(frame, frame.f_lasti, None, limit)

    @classmethod
    def capture_lazy(cls, skip: int = 1, limit: int = 10, stats=None,
                     sites: Optional[frozenset] = None) -> "CallStack":
        """Capture the caller's top application frame; walk on only where it pays.

        The hot path of both lock runtimes throws away almost every stack
        it captures: in the paper's 99.99% production case the request
        misses the signature index's top-frame filter and the engine
        decides GO without ever reading ``frames[1:]``.  This constructor
        therefore records just the innermost non-internal frame — one
        interned :class:`Frame` keyed by ``(code object, f_lasti)`` — and,
        handed the index's published ``sites``, probes the filter here,
        once, while the frame in hand is live by construction.  A named
        site is walked on at once (:func:`_walk`) and comes back as the
        memoized eager stack :meth:`capture_cached` returns for the path.
        Any other (every one, without ``sites``) becomes a
        :class:`LazyCallStack`: it keeps the live frame so the rest can be
        rebuilt *later*, on demand (:meth:`LazyCallStack.materialize`), and
        remembers in ``absent_from`` which filter object said no.

        No application frame on the stack gives the eager empty stack,
        mirroring :meth:`capture`.  ``stats``, when given, counts every
        capture taken here (``capture_deferred``) and every deep walk, here
        or later (``capture_materialized``): the deferral ratio.
        """
        try:
            frame = sys._getframe(skip + 1)
        except ValueError:  # not enough frames
            return EMPTY_STACK
        while frame is not None and _internal_code[frame.f_code]:
            frame = frame.f_back
        if frame is None:
            return EMPTY_STACK
        lasti = frame.f_lasti
        top_key = (frame.f_code, lasti)
        top = _top_frame_cache.get(top_key)
        if top is None:
            top = _frame_of(frame)
            _remember(_top_frame_cache, top_key, top)
        if stats is not None:
            stats.bump("capture_deferred")
        if sites is not None and top in sites:
            if stats is not None:
                stats.bump("capture_materialized")
            return _walk(frame, lasti, top, limit)
        return LazyCallStack(top, frame, lasti, _get_ident(), limit, stats, sites)

    # -- sequence protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CallStack(self._frames[index])
        return self._frames[index]

    def __bool__(self) -> bool:
        return bool(self._frames)

    def __eq__(self, other) -> bool:
        # Identity first: the engine threads the *same* stack object from
        # request through acquired to release, and the fast path must not
        # force a LazyCallStack to materialize just to compare it with
        # itself.
        if self is other:
            return True
        if not isinstance(other, CallStack):
            return NotImplemented
        return self._frames == other._frames

    def __lt__(self, other: "CallStack") -> bool:
        return self._frames < other._frames

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = " <- ".join(f.label() for f in self._frames)
        return f"CallStack[{inner}]"

    # -- matching -------------------------------------------------------------------

    @property
    def frames(self) -> Tuple[Frame, ...]:
        """The frames, innermost first."""
        return self._frames

    def top(self) -> Optional[Frame]:
        """The innermost frame, or ``None`` for an empty stack."""
        return self._frames[0] if self._frames else None

    def suffix(self, depth: int) -> "CallStack":
        """The ``depth`` innermost frames as a new stack."""
        if depth < 0:
            raise ValueError("depth must be non-negative")
        return CallStack(self._frames[:depth])

    def matches(self, other: "CallStack", depth: int) -> bool:
        """True if this stack and ``other`` agree on their ``depth`` innermost frames.

        If either stack is shorter than ``depth``, both must have the same
        length and agree on all their frames — a shorter stack cannot
        silently match a longer one at a depth it does not reach.

        The one exception is a *single-frame* stack: it matches any stack
        with the same innermost frame.  A one-frame stack is the shape of
        a degraded lazy capture — a hold whose acquiring frame returned
        before the stack was ever needed, leaving only the interned top
        frame (see :meth:`LazyCallStack.materialize`) — and it must keep
        matching the deep stacks the same position produces when it *is*
        materialized in time, or a signature archived from a degraded
        stack could never fire again.  The loosening is conservative:
        it can only turn a missed avoidance into a spurious yield, never
        the other way around.
        """
        mine = self._frames[:depth]
        theirs = other._frames[:depth]
        if mine == theirs:
            return True
        if len(self._frames) == 1 or len(other._frames) == 1:
            return mine[:1] == theirs[:1]
        return False

    # -- laziness hooks (no-ops on eager stacks) ---------------------------------

    def materialize(self) -> "CallStack":
        """Force the full frame tuple to exist; eager stacks already have it."""
        return self

    def discard_origin(self) -> None:
        """Drop any reference to the live frame this stack was captured from.

        Called by the engine when the owning hold/request is released or
        cancelled, so a deferred capture never pins interpreter frames
        beyond the window in which its deep stack could still be needed.
        No-op on eager stacks.
        """

    # -- serialization -----------------------------------------------------------------

    def encode(self) -> list:
        """Serialize to a JSON-friendly list of encoded frames."""
        return [frame.encode() for frame in self._frames]

    @classmethod
    def decode(cls, data: Sequence[str]) -> "CallStack":
        """Inverse of :meth:`encode`."""
        return cls(Frame.decode(text) for text in data)

    def labels(self) -> list:
        """Human readable frame labels, innermost first."""
        return [frame.label() for frame in self._frames]


class LazyCallStack(CallStack):
    """A call stack captured as one top frame plus a deferred deep walk.

    Built by :meth:`CallStack.capture_lazy` where no signature names the
    call site (a named one is walked at capture, its frame live for free).
    Until something reads ``frames`` (or any API that needs them), the
    object holds only the interned top :class:`Frame`, the captured
    ``f_lasti`` of the originating frame, a strong reference to that live
    frame object, the OS thread ident it was captured on, and the filter
    that did not name it (``absent_from``).  The first read triggers
    :meth:`materialize`, which rebuilds the exact frame tuple an eager
    ``capture_cached`` would have produced — provided the originating
    *invocation* is still on its thread's stack.

    A late reader has to prove that: it scans the owning thread's live frame
    chain for the origin frame object (in-thread via ``sys._getframe``, cross-
    thread via ``sys._current_frames``).  While the invocation is live,
    every parent frame is suspended at the very call instruction it was at
    when the capture happened, so walking ``f_back`` now is faithful to a
    walk then; the origin frame itself may have advanced, which is why its
    captured ``f_lasti``/``f_lineno`` are used instead of current values.
    If the invocation has returned (or an asyncio task's frames left the
    thread's stack on suspension), the walk falls back to the one-frame
    stack ``(top,)``.  The engine arranges for that fallback to be benign:
    every stack that can enter a signature — a blocked thread's request
    stack and held stacks, and a yielder's cause stacks — is materialized
    in-thread *before* the thread blocks or parks (see
    ``AvoidanceEngine.note_blocked`` and the YIELD branch of ``request``),
    so the fallback only ever appears where a shorter stack merely makes a
    match *fail* (a benign false negative, same contract as the top-frame
    miss filter's publication order).

    Hashing is by object identity (``object.__hash__``, in C) and never
    revisited by :meth:`materialize`: the engine's caches key holds and
    allowed-sets by the very object they inserted, and a hash that changed
    upon materialization would corrupt those dicts.  Content-equality
    (``__eq__``) still materializes and compares frames, so two equal
    stacks may hash differently across the lazy/eager representations —
    all cross-stack *matching* in the engine is content-based
    (fingerprints, ``matches``), never dict-lookup-based, so this is safe.
    """

    __slots__ = ("_top", "_origin", "_origin_lasti", "_origin_thread",
                 "_limit", "_stats")
    __hash__ = object.__hash__
    absent_from = CallStack._hash  # in the slot identity hashing leaves unused: a ninth is 16 B each

    def __init__(self, top: Frame, origin, lasti: int, thread_ident: int,
                 limit: int, stats=None, absent_from: Optional[frozenset] = None):
        # No super().__init__: the _frames slot stays unset until
        # materialize(); any read of it routes through __getattr__.
        self._top = top
        self._origin = origin
        self._origin_lasti = lasti
        self._origin_thread = thread_ident
        self._limit = limit
        self._stats = stats
        self.absent_from = absent_from

    def __getattr__(self, name):
        # Only ever fires for slot names that are still unset — i.e. for
        # ``_frames`` before materialization (CallStack methods read it
        # directly).  Everything else is a genuine miss.
        if name == "_frames":
            self.materialize()
            return object.__getattribute__(self, "_frames")
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}")

    def top(self) -> Optional[Frame]:
        """The innermost frame — available without materializing."""
        return self._top

    def __bool__(self) -> bool:
        # A lazy stack always has at least its top frame.
        return True

    def materialized(self) -> bool:
        """Whether the deep walk has already happened (no side effects)."""
        try:
            object.__getattribute__(self, "_frames")
            return True
        except AttributeError:
            return False

    def materialize(self) -> "CallStack":
        """Build the full frame tuple; idempotent, callable from any thread.

        Publication order (see docs/architecture.md, "The memory model"):
        the reader loads ``_origin`` *before* probing ``_frames``, and the
        writer stores ``_frames`` *before* clearing ``_origin``.  A second
        thread racing the first materializer therefore either sees the
        finished tuple, or recomputes from a still-valid origin and stores
        an identical tuple — never a post-discard fallback overwriting a
        completed deep walk.
        """
        origin = self._origin
        try:
            object.__getattribute__(self, "_frames")
            return self
        except AttributeError:
            pass
        self._frames = self._deep_frames(origin)
        self._origin = None
        if self._stats is not None:
            self._stats.bump("capture_materialized")
        return self

    def discard_origin(self) -> None:
        self._origin = None

    def _deep_frames(self, origin) -> Tuple[Frame, ...]:
        if origin is not None:
            # Liveness: off its capturing thread's stack, the parents' f_lasti are stale.
            if _get_ident() == self._origin_thread:
                probe = sys._getframe()
            else:
                probe = sys._current_frames().get(self._origin_thread)
            while probe is not None and probe is not origin:
                probe = probe.f_back
            if probe is not None:
                return _walk(origin, self._origin_lasti, self._top, self._limit).frames
        return (self._top,)


def _walk(origin, lasti: int, top: Optional[Frame], limit: int) -> CallStack:
    """The memoized eager stack of the call path through live application frame ``origin``.

    The one walk behind every deep capture — eager, at a named site, a
    lazy stack materializing later — so they share one memo entry and
    come out byte-identical.  ``origin`` stands at ``lasti`` with interned
    frame ``top`` (``None``: the capture's own caller, read here); up to
    ``limit`` application frames are taken.  Building the key reads only
    ``f_code``, ``f_lasti`` and ``f_back``: line numbers (a linear decode
    of the line table), names and short paths are paid on a miss alone.
    """
    key = [origin.f_code, lasti]
    parents = []
    collected = 1
    frame = origin.f_back
    while frame is not None and collected < limit:
        code = frame.f_code
        if not _internal_code[code]:
            key.append(code)
            key.append(frame.f_lasti)
            parents.append(frame)
            collected += 1
        frame = frame.f_back
    cache_key = tuple(key)
    hit = _capture_cache.get(cache_key)
    if hit is not None:
        return hit
    stack = CallStack([top or _frame_of(origin)] + [_frame_of(frame) for frame in parents])
    # A cross-thread materialization does not stop the thread it walks: memoize
    # only if its parents still stand where the key says the line numbers belong.
    if [frame.f_lasti for frame in parents] == key[3::2]:
        _remember(_capture_cache, cache_key, stack)
    return stack


def _frame_of(frame) -> Frame:
    code = frame.f_code
    return Frame(code.co_name, _short_name_of(code), frame.f_lineno)


EMPTY_STACK = CallStack(())

#: Per-call-site capture cache: key is a tuple of interleaved (code
#: object, f_lasti) for the non-internal frames — holding the code
#: objects themselves (not their ids) both keys by identity and prevents
#: id reuse after garbage collection.  Guarded by the GIL: dict get/set
#: are atomic, and a rare duplicate build on a race is harmless (the two
#: CallStacks are equal).
_capture_cache: dict = {}
_short_name_cache: dict = {}
#: Interned top frames for lazy capture, keyed by (code object, f_lasti).
#: f_lineno is a pure function of f_lasti, so the cached Frame is exact.
_top_frame_cache: dict = {}
_CAPTURE_CACHE_LIMIT = 8192


def _evict_half(cache: dict) -> None:
    """Evict the oldest half of a bounded cache in place.

    Python dicts iterate in insertion order, so dropping the first half
    sheds the entries least likely to be re-keyed by current call sites.
    Unlike the wholesale ``clear()`` this replaces, the working set
    survives the eviction: a capture-heavy workload crossing the limit no
    longer takes a periodic whole-cache cold restart and the latency
    spike that came with rebuilding every hot call path at once.  Cost is
    O(n) once per n/2 insertions — amortized constant per insert.
    """
    drop = len(cache) // 2
    if drop <= 0:
        cache.clear()
        return
    try:
        victims = []
        for key in cache:
            victims.append(key)
            if len(victims) >= drop:
                break
        for key in victims:
            cache.pop(key, None)
    except RuntimeError:
        # Concurrent insert during iteration (free-threaded builds):
        # fall back to the coarse but safe wholesale clear.
        cache.clear()


def _remember(cache: dict, key, value) -> None:
    """Insert into a bounded capture cache, shedding its oldest half first when full."""
    if len(cache) >= _CAPTURE_CACHE_LIMIT:
        _evict_half(cache)
    cache[key] = value


class _InternalCodeMemo(dict):
    """``code object -> is it implementation-internal``, filled on first ask.

    The stack walks subscript this once per frame.  A hit stays a
    plain C dict lookup; only a code object seen for the first time pays
    the filename match.  Bounded like the other capture caches, so
    dynamically generated code (exec, reloads) is not pinned forever.
    """

    def __missing__(self, code) -> bool:
        internal = _is_internal(code.co_filename)
        _remember(self, code, internal)
        return internal


_internal_code = _InternalCodeMemo()


def _short_name_of(code) -> str:
    """The shortened filename for a code object, memoized per code object."""
    short = _short_name_cache.get(code)
    if short is None:
        short = _shorten(code.co_filename)
        _remember(_short_name_cache, code, short)
    return short


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def path_has_component(filename: str, fragments: Tuple[str, ...]) -> bool:
    """Does ``filename`` hold one of ``fragments`` as whole path components?

    A ``dir/`` fragment matches wherever those directories appear, a
    ``file.py`` fragment only as the end of the path (an application
    directory may be *named* ``contextlib.py``); neither matches inside a
    longer name.  The one rule behind "whose frames are internal" (here)
    and "whose locks stay native" (:mod:`repro.instrument.patching`).
    """
    path = "/" + filename.replace("\\", "/")
    return any("/" + fragment in path if fragment[-1] == "/"
               else path.endswith("/" + fragment) for fragment in fragments)


def _is_internal(filename: str) -> bool:
    """Is this the file of a frame that captured stacks leave out?"""
    return path_has_component(filename, _INTERNAL_FRAGMENTS)


def _shorten(filename: str) -> str:
    """Keep only the trailing two path components of a file name.

    Full absolute paths would make signatures machine-specific; the paper
    similarly stores binary-relative byte offsets for the pthreads version
    and file:line pairs for Java.
    """
    normalized = filename.replace("\\", "/")
    parts = normalized.rsplit("/", 2)
    if len(parts) >= 2:
        return "/".join(parts[-2:])
    return normalized
