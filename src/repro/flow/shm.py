"""One fault-parallel shard-dispatch path: :func:`shard_map`.

Every sharded kernel caller (fault simulation, PODEM, BIST attribution,
fused multi-design runs) names its shared payloads and supplies one
worker; :func:`shard_map` does the rest.  A worker receives ``(refs,
start, end)`` and turns each ref back into its payload with
:func:`fetch`, whichever transport carried it.

Transports
----------

The transport decision lives here and nowhere else
(:func:`resolve_transport`, ``REPRO_SHARD_TRANSPORT``):

* ``shm`` (the default wherever shared memory works) publishes each
  payload into POSIX shared memory (:mod:`multiprocessing.shared_memory`)
  and ships only tiny references (name + shape + digest) through the
  pipe.  Arrays become zero-copy :class:`ShmHandle` views, everything
  else a digest-keyed :class:`ObjectRef` that a warm worker unpickles
  at most once per pool generation.
* ``pickle`` ships every payload inline in every shard's args -- the
  only path on hosts without ``/dev/shm``.  :func:`fetch` returns an
  inline value unchanged, so workers are transport-agnostic.

Lifecycle discipline
--------------------

* The **parent owns every segment**: :class:`PayloadPlane` creates
  segments and close()+unlink()s all of them when the dispatch ends
  (normal or exceptional), with a module-level ``atexit`` backstop.
  Workers never create segments, so a chaos-killed worker cannot leak
  one -- ``/dev/shm`` holds only ``repro_*`` entries for planes that are
  currently open.
* **Workers attach lazily** and keep attached segments in a bounded
  registry so numpy views stay backed while a task runs; evicted
  segments are closed (a still-exported view makes ``close`` raise
  ``BufferError``, in which case the entry is kept).  Pool workers
  share the parent's ``resource_tracker`` process, so their attach-time
  registrations collapse into the parent's create-time entry -- the
  parent's ``unlink()`` clears it exactly once, and a crashed tree
  still gets the segment reclaimed by the tracker (bpo-39959 is a
  spawn-separate-tracker problem this layout avoids).
* The resilience harness's in-process serial fallback works under both
  transports -- the parent can attach its own segments -- so results
  stay byte-identical no matter which path executed.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None

TRANSPORT_ENV = "REPRO_SHARD_TRANSPORT"

#: canonical transport names (no aliases).
_TRANSPORT_CHOICES: dict[str, tuple[str, ...]] = {"shm": (), "pickle": ()}

#: prefix of every segment this module creates -- the leak checks in the
#: chaos suite glob ``/dev/shm/repro_*``.
SEGMENT_PREFIX = "repro_"

#: entries each worker process keeps in its content-hash caches
#: (decoded payloads here, netlists in the kernel, structural analyses).
WORKER_CACHE_SIZE = 8

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL
_counter = itertools.count()


def payload_nbytes(obj: Any) -> int:
    """Bytes ``obj`` would cost through the process-pool pipe."""
    try:
        return len(pickle.dumps(obj, protocol=_PICKLE_PROTO))
    except Exception:
        return 0


# ---------------------------------------------------------------------------
# transport resolution

_SHM_PROBE: bool | None = None


def shm_available() -> bool:
    """True when a shared-memory segment can actually be created (cached
    probe -- sealed sandboxes and shm-less platforms return False)."""
    global _SHM_PROBE
    if _SHM_PROBE is None:
        if _shared_memory is None:
            _SHM_PROBE = False
        else:
            try:
                seg = _shared_memory.SharedMemory(create=True, size=16)
                seg.close()
                seg.unlink()
                _SHM_PROBE = True
            except Exception:
                _SHM_PROBE = False
    return _SHM_PROBE


def resolve_transport(transport: str | None = None) -> str:
    """Normalise the shard transport: explicit arg > env > auto.

    Auto picks ``shm`` when shared memory works here and falls back to
    ``pickle`` otherwise; an explicit ``shm`` request also degrades
    gracefully when the probe fails (the results are identical either
    way, only the dispatch cost differs).
    """
    from repro.knobs import env_choice, normalize_choice

    if transport is None:
        choice = os.environ.get(TRANSPORT_ENV, "").strip()
        if not choice:
            return "shm" if shm_available() else "pickle"
        transport = env_choice(TRANSPORT_ENV, "shm", _TRANSPORT_CHOICES)
    else:
        transport = normalize_choice(transport, "transport",
                                     _TRANSPORT_CHOICES)
    if transport == "shm" and not shm_available():
        return "pickle"
    return transport


# ---------------------------------------------------------------------------
# parent side: publishing

@dataclass(frozen=True)
class ShmHandle:
    """A reference to one published segment -- all a shard arg carries."""

    name: str
    nbytes: int
    shape: tuple[int, ...]   # () for raw byte payloads
    dtype: str               # "" for raw byte payloads


@dataclass(frozen=True)
class ObjectRef:
    """A pickled object published in shared memory, keyed by digest.

    Workers cache the unpickled object by ``digest``, so a warm worker
    decodes each distinct payload once per pool generation no matter how
    many shards or repeat calls reference it.
    """

    digest: str
    handle: ShmHandle


@dataclass(frozen=True)
class Pickled:
    """A :func:`shard_map` payload whose serialisation the caller has
    already memoised: ``blob`` (keyed by ``digest``) is published as-is
    under ``shm``, ``value`` ships inline under ``pickle``."""

    value: Any
    digest: str
    blob: bytes


_LIVE_PLANES: "set[PayloadPlane]" = set()
_ATEXIT_INSTALLED = False


def _atexit_close_planes() -> None:  # pragma: no cover - interpreter exit
    for plane in list(_LIVE_PLANES):
        plane.close()


class PayloadPlane:
    """All segments published for one sharded dispatch; parent-owned.

    Use as a context manager around ``run_sharded``: segments stay alive
    (and attachable, including by the in-process fallback) until every
    shard has finished, then are closed and unlinked even when a shard
    raises.
    """

    def __init__(self) -> None:
        self._segments: list[Any] = []
        self.total_bytes = 0
        self.closed = False
        global _ATEXIT_INSTALLED
        if not _ATEXIT_INSTALLED:
            atexit.register(_atexit_close_planes)
            _ATEXIT_INSTALLED = True
        _LIVE_PLANES.add(self)

    def _create(self, nbytes: int) -> Any:
        if _shared_memory is None:
            raise OSError("shared memory unsupported on this platform")
        name = (f"{SEGMENT_PREFIX}{os.getpid()}_{next(_counter)}"
                f"_{os.urandom(3).hex()}")
        seg = _shared_memory.SharedMemory(
            name=name, create=True, size=max(1, nbytes)
        )
        self._segments.append(seg)
        self.total_bytes += max(1, nbytes)
        return seg

    def publish_bytes(self, payload: bytes) -> ShmHandle:
        seg = self._create(len(payload))
        seg.buf[:len(payload)] = payload
        return ShmHandle(seg.name, len(payload), (), "")

    def publish_array(self, arr) -> ShmHandle:
        """Publish a C-contiguous numpy array; workers map it zero-copy."""
        import numpy as np

        arr = np.ascontiguousarray(arr)
        seg = self._create(arr.nbytes)
        if arr.nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
        return ShmHandle(seg.name, arr.nbytes, tuple(arr.shape),
                         arr.dtype.str)

    def publish_object(self, obj: Any, blob: bytes | None = None,
                       digest: str | None = None) -> ObjectRef:
        """Pickle ``obj`` into a segment; callers may pass a pre-pickled
        ``blob`` (and its ``digest``) to reuse a memoised serialisation."""
        if blob is None:
            blob = pickle.dumps(obj, protocol=_PICKLE_PROTO)
        if digest is None:
            digest = hashlib.sha256(blob).hexdigest()
        return ObjectRef(digest, self.publish_bytes(blob))

    def publish(self, value: Any) -> Any:
        """The ref :func:`fetch` resolves back to ``value``: arrays map
        zero-copy, :class:`Pickled` reuses its blob, ``None`` stays
        inline, anything else becomes an :class:`ObjectRef`."""
        import numpy as np

        if value is None:
            return None
        if isinstance(value, Pickled):
            return self.publish_object(None, blob=value.blob,
                                       digest=value.digest)
        if isinstance(value, np.ndarray):
            return self.publish_array(value)
        return self.publish_object(value)

    def close(self) -> None:
        """Close and unlink every published segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        _LIVE_PLANES.discard(self)
        for seg in self._segments:
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except Exception:
                pass
        self._segments.clear()

    def __enter__(self) -> "PayloadPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# worker side: attaching

#: attached segments, name -> SharedMemory, bounded LRU.  Entries must
#: outlive any numpy view handed out for them; eviction closes the
#: mapping, and a segment with a live exported view survives eviction
#: (``close`` raises ``BufferError`` and the entry is re-kept).
_ATTACHED: "OrderedDict[str, Any]" = OrderedDict()
_ATTACHED_LIMIT = 64

#: decoded object payloads, digest -> object, bounded by
#: :data:`WORKER_CACHE_SIZE`.
_OBJECTS: "OrderedDict[str, Any]" = OrderedDict()
_STATS = {"object_hits": 0, "object_misses": 0}
_LOCK = threading.Lock()


def _attach(name: str):
    seg = _ATTACHED.get(name)
    if seg is not None:
        _ATTACHED.move_to_end(name)
        return seg
    # Attaching registers the name with the resource tracker (CPython
    # registers unconditionally, bpo-39959) -- but parent and pool
    # workers share one tracker process whose cache is a *set* of
    # names, so a worker's registration collapses into the parent's
    # create-time entry.  No manual unregister: the parent's unlink()
    # removes the single entry, and if the whole tree dies first the
    # tracker unlinks the segment itself -- the crash backstop.
    seg = _shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = seg
    while len(_ATTACHED) > _ATTACHED_LIMIT:
        victim, vseg = _ATTACHED.popitem(last=False)
        try:
            vseg.close()
        except BufferError:
            _ATTACHED[victim] = vseg  # a view is still live; keep it
            _ATTACHED.move_to_end(victim, last=False)
            break
        except Exception:
            pass
    return seg


def attach_bytes(handle: ShmHandle) -> bytes:
    with _LOCK:
        seg = _attach(handle.name)
        return bytes(seg.buf[:handle.nbytes])


def attach_array(handle: ShmHandle):
    """A zero-copy numpy view over a published array segment.

    The view is only valid while the task that attached it runs; code
    must not stash it across tasks (eviction would invalidate it).
    """
    import numpy as np

    with _LOCK:
        seg = _attach(handle.name)
        return np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                          buffer=seg.buf)


def fetch_object(ref: ObjectRef) -> Any:
    """The unpickled payload behind ``ref``, cached by content digest."""
    with _LOCK:
        hit = _OBJECTS.get(ref.digest)
        if hit is not None:
            _OBJECTS.move_to_end(ref.digest)
            _STATS["object_hits"] += 1
            return hit
    blob = attach_bytes(ref.handle)
    obj = pickle.loads(blob)
    with _LOCK:
        _STATS["object_misses"] += 1
        _OBJECTS[ref.digest] = obj
        while len(_OBJECTS) > WORKER_CACHE_SIZE:
            _OBJECTS.popitem(last=False)
    return obj


def fetch(ref: Any) -> Any:
    """The payload behind one :func:`shard_map` ref, whichever transport
    carried it: an :class:`ObjectRef` (digest-cached unpickle), an array
    :class:`ShmHandle` (zero-copy view), or an inline value (itself)."""
    if isinstance(ref, ObjectRef):
        return fetch_object(ref)
    if isinstance(ref, ShmHandle):
        return attach_array(ref)
    return ref


def worker_cache_stats() -> dict[str, int]:
    """Per-process payload-cache counters (tests and ``/metrics``)."""
    with _LOCK:
        return dict(_STATS, objects=len(_OBJECTS),
                    attached=len(_ATTACHED))


# ---------------------------------------------------------------------------
# the dispatch helper

def _run_shard(args) -> Any:
    """Picklable trampoline: the shard's chaos checkpoint, then the
    caller's worker on its slice."""
    worker, label, index, refs, start, end = args
    from repro.flow import chaos

    chaos.checkpoint(f"{label}:{index}")
    return worker(refs, start, end)


def shard_map(
    worker: Callable[[Mapping[str, Any], int, int], Any],
    payloads: Mapping[str, Any],
    n_items: int,
    shards: int,
    min_per_shard: int,
    label: str,
) -> list[Any]:
    """Run ``worker(refs, start, end)`` over contiguous slices of
    ``n_items`` items across a process pool; results in shard order.

    The shard count is clamped so every shard gets at least
    ``min_per_shard`` items (callers decide beforehand whether sharding
    pays at all).  Each payload is published once on the resolved
    transport; ``refs`` maps the same names to what :func:`fetch`
    resolves.  ``worker`` must be picklable: a module-level function,
    or a :func:`functools.partial` of one binding small constants.

    Shard *i* passes the chaos checkpoint ``f"{label}:{i}"`` first.
    Crashed, killed or hung shards are retried and then run in-process
    (:func:`repro.flow.resilience.run_sharded`).  While a metrics
    collector is open, ``payload_bytes`` (plus ``shm_bytes`` under
    shm) and any ``shard_retries`` / ``shard_fallbacks`` /
    ``shard_pool_rebuilds`` / ``shard_errors`` land in the current
    stage's metrics.
    """
    from repro.flow.metrics import metrics_active, record_metric
    from repro.flow.resilience import run_sharded

    shards = max(1, min(shards, n_items // max(1, min_per_shard)))
    bounds = [round(i * n_items / shards) for i in range(shards + 1)]
    plane = PayloadPlane() if resolve_transport() == "shm" else None
    try:
        if plane is None:
            refs = {name: v.value if isinstance(v, Pickled) else v
                    for name, v in payloads.items()}
        else:
            refs = {name: plane.publish(v) for name, v in payloads.items()}
        args = [(worker, label, i, refs, bounds[i], bounds[i + 1])
                for i in range(shards)]
        # Sizing pickles only when someone will see the number.
        if metrics_active():
            record_metric("payload_bytes",
                          sum(payload_nbytes(a) for a in args))
            if plane is not None:
                record_metric("shm_bytes", plane.total_bytes)
        results, info = run_sharded(_run_shard, args, max_workers=shards,
                                    label=label)
    finally:
        if plane is not None:
            plane.close()
    info["shard_pool_rebuilds"] = info.pop("pool_rebuilds")
    for name in ("shard_retries", "shard_fallbacks", "shard_pool_rebuilds",
                 "shard_errors"):
        if info[name]:
            record_metric(name, info[name])
    return results
