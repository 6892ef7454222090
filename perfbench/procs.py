"""Stopping every process a run starts, and waiting for each to end.

A server under test starts processes of its own: fleet shards, and the
``multiprocessing`` resource tracker that spawning them launches.  An
in-process fleet (the traced ``fleet_batch`` run) starts the same under
this process.  Killing a server leaves its children to be reparented,
and a resource tracker outlives its owner for a moment after it exits.
So the benchmark makes itself a child subreaper: every orphan of the
tree it started becomes its own child, and :func:`stop_children`
kills and reaps all of them before the run exits.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, List, Sequence

#: ``prctl`` option that makes orphaned descendants the caller's children.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt the orphans of every process started from here (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _process_table() -> Dict[int, int]:
    """pid -> parent pid for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(entry)] = int(fields[1])
    return table


def descendants(root: int) -> List[int]:
    table = _process_table()
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in table.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def kill(pids: Sequence[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def reap(pids: Sequence[int], timeout: float) -> None:
    """Wait until each of ``pids`` has ended, reaping those that are ours."""
    pending = set(pids)
    deadline = time.monotonic() + timeout
    while pending and time.monotonic() < deadline:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                # Not (yet) our child: it is over once it no longer runs;
                # if it is adopted as a zombie, stop_children reaps it.
                done = 0 if alive(pid) else pid
            if done:
                pending.discard(pid)
        if pending:
            time.sleep(0.01)


def stop_children(timeout: float = 30.0) -> bool:
    """Kill every process under this one and reap them all.

    Returns whether none was left when it returned.  Processes spawned
    while it runs are caught on the next pass.
    """
    deadline = time.monotonic() + timeout
    while True:
        kill(descendants(os.getpid()))
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return True
            if pid == 0:
                break
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
