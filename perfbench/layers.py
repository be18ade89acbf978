"""Per-layer probes: wrappers the benchmark installs in the server
process it launched, around each layer's public entry points.

Nothing here edits the program's files. Methods are replaced on their
classes; module functions are replaced in every loaded ``repro``
module that holds them, because ``from … import`` copies a binding
that a module-level replacement alone would miss.

Span names (the ``must_fire`` vocabulary of :mod:`workloads`):

==========================  ===========================================
``server.decode``           ``framing.decode_request``
``server.encode``           ``framing.encode_response``
``server.handle``           ``ServerSession.handle``
``server.submit``           ``GroupCommitter.submit``
``query.fetch_plan``        ``planner.fetch_plan``
``query.execute``           ``planner.execute``
``core.population``         ``VirtualClass.population``
``core.note_event``         ``VirtualClass.note_event``
``engine.write``            ``Database.create`` / ``update`` / ``apply_batch``
``engine.extent``           ``Database.extent``
``storage.journal_write``   ``JournalWriter.write_batch``
``storage.checkpoint``      ``PagedDatabase.checkpoint``
``exec.scatter``            ``ShardExecutor.scatter``
==========================  ===========================================
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Callable, Dict, List

from measure import SpanClock, coordinator_us, shard_skew


def _replace_function(module, name: str, wrapper) -> int:
    """Point every loaded ``repro`` module's binding of
    ``module.name`` at ``wrapper``; returns how many were replaced."""
    original = getattr(module, name)
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                replaced += 1
    return replaced


class Probes:
    """Installs the wrappers and accumulates what they see."""

    def __init__(self):
        self.clock = SpanClock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counters: Dict[str, float] = {
            "plan_hits": 0,
            "plan_fetches": 0,
            "rows_returned": 0,
            "objects_scanned": 0,
            "scan_seconds": 0.0,
            "scatters": 0,
            "coordinator_us": 0.0,
            "worker_busy_us": 0.0,
            "shard_skew": 0.0,
        }
        self.installed: List[str] = []

    # -- helpers ---------------------------------------------------------

    def _add(self, **deltas) -> None:
        with self._lock:
            for key, value in deltas.items():
                self.counters[key] += value

    def _timed(self, name: str, fn: Callable, after=None,
               outermost: bool = False):
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and clock.depth(name):
                return fn(*args, **kwargs)
            frame = clock.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                clock.end(frame)
                raise
            duration = clock.end(frame)
            if after is not None:
                after(result, duration)
            return result

        return wrapper

    def _under_top_execute(self) -> bool:
        clock = self.clock
        return (
            clock.parent() == "query.execute"
            and clock.depth("query.execute") == 1
        )

    def _count_scanned(self, result, _duration) -> None:
        if self._under_top_execute():
            self._local.scanned = getattr(self._local, "scanned", 0) + len(
                result
            )

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from repro.core.virtual_classes import VirtualClass
        from repro.engine.database import Database
        from repro.exec.coordinator import ShardExecutor
        from repro.query import planner
        from repro.server.aio import framing
        from repro.server.server import GroupCommitter
        from repro.server.session import ServerSession
        from repro.storage.checkpoint import PagedDatabase
        from repro.storage.journal import JournalWriter

        def method(cls, attr, name, **kwargs):
            setattr(cls, attr,
                    self._timed(name, getattr(cls, attr), **kwargs))
            self.installed.append(f"{cls.__name__}.{attr} -> {name}")

        def function(module, attr, name, **kwargs):
            wrapper = self._timed(name, getattr(module, attr), **kwargs)
            if not _replace_function(module, attr, wrapper):
                raise RuntimeError(f"no binding of {name} found")
            self.installed.append(f"{module.__name__}.{attr} -> {name}")

        function(framing, "decode_request", "server.decode")
        function(framing, "encode_response", "server.encode")
        method(ServerSession, "handle", "server.handle")
        method(GroupCommitter, "submit", "server.submit")
        function(planner, "fetch_plan", "query.fetch_plan",
                 after=self._after_fetch)
        self._install_execute(planner)
        method(VirtualClass, "population", "core.population",
               after=self._count_scanned)
        method(VirtualClass, "note_event", "core.note_event")
        for attr in ("create", "update", "apply_batch"):
            method(Database, attr, "engine.write", outermost=True)
        method(Database, "extent", "engine.extent",
               after=self._count_scanned)
        method(JournalWriter, "write_batch", "storage.journal_write")
        method(PagedDatabase, "checkpoint", "storage.checkpoint")
        method(ShardExecutor, "scatter", "exec.scatter",
               after=self._after_scatter)

    def _after_fetch(self, result, _duration) -> None:
        _plan, hit, _cache = result
        self._add(plan_fetches=1, plan_hits=1 if hit else 0)

    def _after_scatter(self, outcome, duration) -> None:
        busy = [info.get("elapsed", 0.0) for info in outcome.shard_info]
        scanned = sum(info.get("scanned", 0) for info in outcome.shard_info)
        if self._under_top_execute():
            self._local.scanned = (
                getattr(self._local, "scanned", 0) + scanned
            )
        self._add(
            scatters=1,
            coordinator_us=coordinator_us(duration, busy),
            worker_busy_us=sum(busy) / max(1, len(busy)) * 1e6,
            shard_skew=shard_skew(busy),
        )

    def _install_execute(self, planner) -> None:
        clock = self.clock
        local = self._local
        original = planner.execute

        @functools.wraps(original)
        def execute(*args, **kwargs):
            top = clock.depth("query.execute") == 0
            if top:
                local.scanned = 0
            frame = clock.begin("query.execute")
            try:
                result = original(*args, **kwargs)
            except BaseException:
                clock.end(frame)
                raise
            duration = clock.end(frame)
            if top:
                scanned = local.scanned
                rows = len(result) if isinstance(result, list) else 1
                self._add(
                    rows_returned=rows,
                    objects_scanned=scanned,
                    scan_seconds=duration if scanned else 0.0,
                )
            return result

        if not _replace_function(planner, "execute", execute):
            raise RuntimeError("no binding of query.execute found")
        self.installed.append(f"{planner.__name__}.execute -> query.execute")

    # -- reporting -------------------------------------------------------

    def report(self) -> dict:
        with self._lock:
            counters = dict(self.counters)
        return {"spans": self.clock.totals(), "counters": counters}
