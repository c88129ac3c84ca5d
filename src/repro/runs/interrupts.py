"""Deferring SIGINT and SIGTERM across short critical sections."""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager

INTERRUPTS = (signal.SIGINT, signal.SIGTERM)


@contextmanager
def interrupts_deferred():
    """Record SIGINT/SIGTERM while the block runs; handle them after it.

    Python runs a signal handler in the main thread at the next bytecode
    boundary, so a handler that raises can land between creating a
    resource and the code that owns its cleanup, or inside a finalizer or
    ``__del__``, where the interpreter discards the exception.  Inside the
    block the handlers only record the signal; on exit the previous
    handlers are restored and each recorded signal is raised again.
    Handlers run only in the main thread, so elsewhere this does nothing.
    A process forked inside the block inherits the recording handlers and
    must install its own.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    pending = []

    def record(signum, frame):
        pending.append(signum)

    previous = {signum: signal.signal(signum, record) for signum in INTERRUPTS}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for signum in pending:
            signal.raise_signal(signum)
