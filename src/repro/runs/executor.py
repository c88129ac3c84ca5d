"""Process-per-task pool with watchdog timeouts and bounded retries.

:class:`concurrent.futures.ProcessPoolExecutor` cannot reap a *hung* worker
(``future.result(timeout=...)`` abandons the future but the process keeps
occupying its slot forever) and an externally killed worker breaks the whole
pool (``BrokenProcessPool`` fails every pending future).  This pool trades
worker reuse for per-task process isolation:

* every task runs in its own ``multiprocessing.Process`` with a dedicated
  pipe for the result;
* a **watchdog** kills any task that exceeds its wall-clock ``timeout`` and
  frees the slot immediately — one hung cell can never stall the pool;
* a worker that dies without reporting (SIGKILL, ``os._exit``, segfault) is
  detected via pipe EOF and surfaces as a ``crash`` outcome instead of
  poisoning other tasks;
* crashes and timeouts are retried up to ``retries`` times with exponential
  backoff plus deterministic jitter (seeded, so tests are reproducible);
  exceptions *raised inside* the task are deterministic failures and are
  never retried;
* the pool is a context manager whose exit terminates every live worker, so
  an exception (including ``KeyboardInterrupt``) in the parent leaves no
  orphan processes.  SIGINT and SIGTERM are deferred while a worker is
  started or torn down (:func:`repro.runs.interrupts.interrupts_deferred`):
  an interrupt handled between the fork and the bookkeeping would leave a
  worker the exit cannot find, and one handled inside multiprocessing's
  finalizer for a released worker is discarded by the interpreter
  ("Exception ignored in: <Finalize object>"), so the parent would keep
  waiting.

Simulation tasks dominate process start-up cost by orders of magnitude, so
the per-task fork is noise; in exchange every task is fully isolated.
"""

from __future__ import annotations

import multiprocessing
import random
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Optional

from repro.runs.interrupts import interrupts_deferred


class WorkerCrash(RuntimeError):
    """A worker process died without reporting a result."""


class WatchdogTimeout(RuntimeError):
    """A worker exceeded its wall-clock budget and was killed."""


def _child_main(connection, fn, args, kwargs) -> None:
    """Worker entry point: run the task, ship the outcome, exit."""
    # Forked inside interrupts_deferred (ProcessTaskPool._start): replace
    # the inherited recording handlers with the defaults.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        result = fn(*args, **kwargs)
        payload = ("ok", result)
    except BaseException:
        payload = ("error", traceback.format_exc())
    try:
        connection.send(payload)
    except Exception:
        # Unpicklable result/traceback: report what we can.
        try:
            connection.send(("error", "worker result could not be pickled"))
        except Exception:
            pass
    finally:
        try:
            connection.close()
        except Exception:
            pass


@dataclass
class TaskOutcome:
    """Terminal outcome of one submitted task (after any retries)."""

    tag: object
    ok: bool
    value: object = None
    error: str = ""
    kind: str = "ok"  #: "ok" | "error" | "crash" | "timeout"
    attempts: int = 1


@dataclass
class _Task:
    fn: object
    args: tuple
    kwargs: dict
    tag: object
    attempts: int = 0
    process: object = None
    connection: object = None
    deadline: Optional[float] = None
    not_before: float = 0.0  #: retry backoff gate (monotonic time)


@dataclass
class PoolStats:
    """Observable reliability counters (surfaced on the sweep report)."""

    timeouts: int = 0
    crashes: int = 0
    retries: int = 0

    def as_dict(self) -> dict:
        return {
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "retries": self.retries,
        }


class ProcessTaskPool:
    """Bounded pool running each task in a fresh, killable process.

    Args:
        max_workers: Concurrent worker processes.
        timeout: Per-task wall-clock watchdog in seconds (None = no limit).
        retries: Extra attempts for transient failures (crash/timeout).
        backoff: Base retry delay; attempt ``n`` waits
            ``min(cap, backoff * 2**(n-1)) * uniform(1, 2)`` seconds.
        backoff_cap: Upper bound on the un-jittered delay.
        seed: Jitter RNG seed (deterministic retry schedules in tests).
        poll_interval: Parent event-loop tick in seconds.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.25,
        backoff_cap: float = 30.0,
        seed: int = 0,
        poll_interval: float = 0.05,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.poll_interval = poll_interval
        self.stats = PoolStats()
        self._rng = random.Random(seed)
        self._queue = deque()
        self._running = []

    # -- submission ---------------------------------------------------------

    def submit(self, fn, *args, tag=None, **kwargs) -> None:
        """Queue a task; results arrive via :meth:`completed`."""
        self._queue.append(_Task(fn=fn, args=args, kwargs=kwargs, tag=tag))

    def pending(self) -> int:
        return len(self._queue) + len(self._running)

    # -- lifecycle ----------------------------------------------------------

    def _start(self, task: _Task) -> None:
        parent_end, child_end = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_child_main,
            args=(child_end, task.fn, task.args, task.kwargs),
            daemon=True,
        )
        with interrupts_deferred():
            process.start()
            child_end.close()
            task.process = process
            task.connection = parent_end
            task.attempts += 1
            task.deadline = (
                None if self.timeout is None
                else time.monotonic() + self.timeout
            )
            self._running.append(task)

    def _finish(self, task: _Task):
        """Join a worker that reported (or died) and release its pipe.

        Returns the worker's exit code (None if it never started).  The
        process object is released here, with signals deferred, so its
        finalizer never runs an interrupt handler.
        """
        exit_code = None
        with interrupts_deferred():
            if task.process is not None:
                task.process.join()
                exit_code = task.process.exitcode
            if task.connection is not None:
                try:
                    task.connection.close()
                except Exception:
                    pass
            task.process = None
            task.connection = None
        return exit_code

    def _kill(self, task: _Task) -> None:
        """Forcibly reap a worker (watchdog expiry or pool shutdown)."""
        # No local reference: _finish must release the last one.
        if task.process is not None and task.process.is_alive():
            task.process.terminate()
            task.process.join(0.5)
            if task.process.is_alive():
                task.process.kill()
        self._finish(task)

    def _retry_or_fail(self, task: _Task, kind: str, error: str):
        """Requeue a transiently failed task, or emit its terminal outcome."""
        if task.attempts <= self.retries:
            delay = min(self.backoff_cap, self.backoff * 2 ** (task.attempts - 1))
            delay *= 1.0 + self._rng.random()  # jitter in [1, 2)
            task.not_before = time.monotonic() + delay
            task.deadline = None
            self.stats.retries += 1
            self._queue.append(task)
            return None
        return TaskOutcome(
            tag=task.tag, ok=False, error=error, kind=kind, attempts=task.attempts
        )

    # -- event loop ---------------------------------------------------------

    def _launch_eligible(self) -> None:
        now = time.monotonic()
        scanned = 0
        limit = len(self._queue)
        while self._queue and len(self._running) < self.max_workers:
            if scanned >= limit:
                break
            task = self._queue.popleft()
            scanned += 1
            if task.not_before > now:
                self._queue.append(task)  # still backing off: rotate
                continue
            self._start(task)

    def completed(self):
        """Yield a :class:`TaskOutcome` per task until the pool drains.

        Tasks may be submitted while iterating (e.g. replays scheduled as
        their workload's prepare finishes).
        """
        while self._queue or self._running:
            self._launch_eligible()
            if not self._running:
                # Everything is waiting out a retry backoff.
                soonest = min(task.not_before for task in self._queue)
                time.sleep(max(0.0, soonest - time.monotonic()))
                continue
            connections = [task.connection for task in self._running]
            ready = _wait_connections(connections, timeout=self.poll_interval)
            now = time.monotonic()
            for task in list(self._running):
                if task.connection in ready:
                    self._running.remove(task)
                    try:
                        kind, payload = task.connection.recv()
                    except (EOFError, OSError):
                        exit_code = self._finish(task)
                        self.stats.crashes += 1
                        outcome = self._retry_or_fail(
                            task,
                            "crash",
                            f"{WorkerCrash.__name__}: worker process died "
                            f"without a result (exit code {exit_code})",
                        )
                        if outcome is not None:
                            yield outcome
                        continue
                    self._finish(task)
                    if kind == "ok":
                        yield TaskOutcome(
                            tag=task.tag, ok=True, value=payload,
                            attempts=task.attempts,
                        )
                    else:
                        # Deterministic in-task exception: never retried.
                        yield TaskOutcome(
                            tag=task.tag, ok=False, error=payload,
                            kind="error", attempts=task.attempts,
                        )
                elif task.deadline is not None and now >= task.deadline:
                    self._running.remove(task)
                    self._kill(task)
                    self.stats.timeouts += 1
                    outcome = self._retry_or_fail(
                        task,
                        "timeout",
                        f"{WatchdogTimeout.__name__}: worker exceeded the "
                        f"{self.timeout:g}s watchdog and was killed",
                    )
                    if outcome is not None:
                        yield outcome

    # -- shutdown -----------------------------------------------------------

    def shutdown(self) -> None:
        """Kill every live worker and drop queued tasks (no orphans)."""
        self._queue.clear()
        for task in list(self._running):
            self._kill(task)
        self._running.clear()

    def __enter__(self) -> "ProcessTaskPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
