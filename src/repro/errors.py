"""Exception types shared across the library."""


class ReproError(Exception):
    """Base class for all library errors."""


class UnsupportedOperationError(ReproError):
    """The index does not support the requested operation.

    Raised e.g. when inserting into a read-only learned index (RMI,
    RadixSpline) or range-scanning a hash index (CCEH).
    """


class EmptyIndexError(ReproError):
    """The operation requires a non-empty index."""


class InvalidConfigurationError(ReproError):
    """An index or model was configured with invalid parameters."""


class InvalidKeysError(ReproError):
    """Keys an index cannot model or store: a NaN key, unsorted or
    duplicate fit keys, or a key outside uint64 where a key slot must
    hold it exactly."""


class WorkerDiedError(ReproError):
    """A shard worker process died mid-operation (parallel engine).

    Raised by :mod:`repro.concurrency.parallel` when a worker exits (or
    its pipe breaks) while the parent is waiting on a reply, so a killed
    worker surfaces as a descriptive error instead of a hung gather.

    Carries the postmortem context the parent had at death time:
    ``worker_id``, ``pid``, ``exitcode``, and ``flight`` — the dead
    worker's flight-recorder ring (last N commands, see
    :class:`repro.obs.health.HealthMonitor`) — plus the retry metadata
    of the supervision layer (:mod:`repro.concurrency.supervise`):
    ``restarts`` (recovery attempts spent on this worker) and
    ``restart_budget`` (attempts it was allowed).
    """

    def __init__(
        self,
        message: str,
        worker_id: int = None,
        pid: int = None,
        exitcode: int = None,
        flight: list = None,
        restarts: int = 0,
        restart_budget: int = 0,
    ):
        super().__init__(message)
        self.worker_id = worker_id
        self.pid = pid
        self.exitcode = exitcode
        self.flight = list(flight or [])
        self.restarts = restarts
        self.restart_budget = restart_budget


class ShardUnavailableError(ReproError):
    """A range partition is being served degraded (parallel engine).

    Raised under ``degraded="partial"`` when a worker exhausted its
    restart budget and an operation *requires* the lost shard: any
    write routed to it (dropping writes silently would corrupt the
    caller's view of its own data), or a bulk load while a shard is
    down.  Reads degrade instead: batched gets answer ``None`` for
    keys on the lost shard, scans skip its range, and every skipped
    operation increments the ``repro_shard_unavailable_total`` metric.
    """

    def __init__(self, message: str, worker_id: int = None, lost_ops: int = 0):
        super().__init__(message)
        self.worker_id = worker_id
        self.lost_ops = lost_ops


class DeviceError(ReproError):
    """Simulated persistent-memory device error (out of space, bad offset)."""


class CrashedError(ReproError):
    """The store is in a crashed state and must be recovered first."""
