"""Shared-memory result transport for worker-pool execution.

A :class:`~repro.sim.jobs.executor.JobExecutor` fan-out used to pickle every
:class:`~repro.sim.results.NetworkResult` -- layer objects and all -- through
the pool's result pipe.  Workers instead encode their chunk's results as one
columnar frame (:mod:`repro.sim.codec`), write it into one
:mod:`multiprocessing.shared_memory` block and send only the block's name and
size across the pipe.  The parent attaches, copies the frame out, closes and
unlinks the block, and decodes the frame -- bit-identical to the pickled
originals.

Where shared memory is unavailable (platform without ``/dev/shm``,
allocation failure) the payload carries the pickled results inline, so the
executor's behaviour is unchanged apart from speed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.sim import codec
from repro.sim.results import NetworkResult

__all__ = ["pack_results", "unpack_results"]


def _try_create_shm(num_bytes: int):
    """Create a shared-memory block, or ``None`` when unsupported.

    The creating process immediately unregisters the block from its
    ``resource_tracker``: ownership passes to the parent (which unlinks it
    after copying), and pool workers outlive many blocks, so letting the
    tracker hold every name would both leak bookkeeping and spew spurious
    "leaked shared_memory" warnings at shutdown.
    """
    try:
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(1, num_bytes))
    except Exception:
        return None
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return shm


def pack_results(results: Sequence[NetworkResult]) -> Dict[str, object]:
    """Pack ``results`` for the pool pipe: one frame in shared memory.

    Returns a plain-dict payload for :func:`unpack_results`.  Falls back to
    carrying the result objects inline when no shared-memory block can be
    created.
    """
    frame = codec.encode(results)
    shm = _try_create_shm(len(frame))
    if shm is None:
        return {"format": "pickle", "results": list(results)}
    shm.buf[:len(frame)] = frame
    shm.close()
    return {"format": "shm", "shm_name": shm.name, "size": len(frame)}


def unpack_results(
    payload: Dict[str, object],
) -> Tuple[List[NetworkResult], bool]:
    """Rebuild the results a worker packed; returns ``(results, used_shm)``.

    Attaches to the worker's block, copies the frame out, then closes and
    unlinks it -- the parent owns every block's lifetime (workers unregister
    at creation, see :func:`_try_create_shm`).
    """
    if payload["format"] == "pickle":
        return list(payload["results"]), False
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=payload["shm_name"])
    try:
        frame = bytes(shm.buf[:payload["size"]])
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
    return codec.decode(frame), True
