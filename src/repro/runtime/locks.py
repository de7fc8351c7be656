"""Locks that a fork never copies held.

The server's process executor forks its pool workers from an executor
thread while other threads keep running, and a forked child holds a
copy of every lock as it was at the fork — with no thread left to
release a copy that some other thread held.  A process-wide structure
that pool workers use too therefore takes its lock from
:func:`fork_safe_lock`.
"""

from __future__ import annotations

import os
import threading


def fork_safe_lock() -> threading.Lock:
    """A lock for a process-wide structure that workers use too: every
    fork first waits for it, so no child starts with a copy held by a
    thread that does not exist there.  The hooks stay registered for
    good — module-level locks only, and never fork while holding
    one.  A fork takes these locks in the reverse of the order they were
    made, so a lock taken while another is held must be made first:
    the global caches' locks are made when :mod:`repro.runtime` is
    imported, before any module that holds its own lock while it reads
    a cache.  Where the platform cannot fork it is a plain lock."""
    lock = threading.Lock()
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(before=lock.acquire,
                            after_in_parent=lock.release,
                            after_in_child=lock.release)
    return lock
