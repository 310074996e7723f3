"""Solver processes between sessions: parked ones and released ones.

A clean session end parks its live process here, and the next load on the
same command in this interpreter takes it over.  A launch or take-over on
another command releases the parked processes, and so does a blocking
:func:`_reap`, which runs at interpreter exit.  Releasing closes a
solver's input: one that has answered exits on its own, and it is waited
for at the next launch or at interpreter exit, or killed once its budget
runs out.  Only the interpreter that parked a solver takes it over or
releases it, so a child forked after a park leaves its parent's alone.
"""

from __future__ import annotations

import atexit
import os
import selectors
import subprocess
import threading
import time
from collections import deque
from typing import Optional


# Parked solvers, each as (os.getpid() of the interpreter that parked it,
# config, process, selector, unsent text: the last check's closing pop),
# and released solvers with their deadlines.  Worker threads end sessions,
# so one lock guards both lists.
_parked: list[tuple] = []
_exiting: list[tuple[subprocess.Popen, float]] = []
_lock = threading.Lock()


def _retire(proc: subprocess.Popen, selector: selectors.BaseSelector,
            deadline: Optional[float]) -> None:
    """Close a solver's pipes, and leave its exit to :func:`_reap` until
    ``deadline``; with no deadline, or one that has passed, kill and wait
    for it now."""
    try:
        proc.stdin.close()
    except OSError:
        pass
    finally:
        if deadline is None or time.monotonic() >= deadline:
            proc.kill()
            proc.wait()
        else:
            with _lock:
                _exiting.append((proc, deadline))
        proc.stdout.close()
        proc.stderr.close()
        selector.close()


def _park(config, proc: subprocess.Popen, selector: selectors.BaseSelector,
          unsent: deque) -> None:
    """Leave a live solver, its selector and its unsent text for the next
    load on ``config.command`` (``config`` is a ``backend.SolverConfig``)."""
    with _lock:
        _parked.append((os.getpid(), config, proc, selector, unsent))


def _unpark(command: Optional[tuple[str, ...]], take: bool) -> Optional[tuple]:
    """Release this interpreter's parked solvers of commands other than
    ``command``, each with its config's timeout to exit in, and with
    ``take`` hand over one of ``command``'s."""
    me = os.getpid()
    with _lock:
        mine = [p for p in _parked if p[0] == me]
        keep = [p for p in mine if p[1].command == command]
        taken = keep.pop() if take and keep else None
        _parked[:] = [p for p in _parked if p[0] != me] + keep
    for _, config, proc, selector, _ in mine:
        if config.command != command:
            _retire(proc, selector, time.monotonic() + config.timeout)
    return taken


def _reap(block: bool = True) -> None:
    """Wait for the released solvers to exit: with ``block`` each until its
    deadline, after releasing every parked one, else only those that have
    exited.  One whose deadline has passed is killed."""
    if block:
        _unpark(None, take=False)
    with _lock:
        entries = _exiting[:]
        _exiting.clear()
    running = []
    for proc, deadline in entries:
        remaining = deadline - time.monotonic()
        try:
            proc.wait(timeout=max(0.0, remaining) if block else 0)
        except subprocess.TimeoutExpired:
            if not block and remaining > 0:
                running.append((proc, deadline))
                continue
            proc.kill()
            proc.wait()
    with _lock:
        _exiting.extend(running)


atexit.register(_reap)
