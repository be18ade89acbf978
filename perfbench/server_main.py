"""The server process: load one workload's records, serve them.

Run by ``run.py``, never by hand::

    python3 perfbench/server_main.py --workload NAME --seed N --dir DIR
        [--mode memory|create|open]

It builds the database from the generated records (or, for the paged
workload, opens the page file a ``--mode create`` run wrote), starts
an ``AsyncViewServer`` with the program's own tracing off, prints one
JSON line ``{"port": …, "phases": {…}}`` and then obeys JSON commands
on stdin, answering each with one JSON line:

- ``{"cmd": "trace"}`` installs the per-layer probes (:mod:`layers`);
- ``{"cmd": "report"}`` returns what the probes saw, plus the same-run
  plain-Python scan baseline and the shard executor's counters;
- ``{"cmd": "stop"}`` (or end of input) stops everything and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import workloads


def define_schema(db) -> None:
    db.define_class(
        "Person",
        attributes={
            "Name": "string",
            "Age": "integer",
            "Sex": "string",
            "Income": "integer",
            "City": "string",
            "Team": "integer",
            "Spouse": "Person",
        },
    )
    db.define_class("Meta", attributes={"Tag": "string"})


def load_records(db, records) -> None:
    """Create every record (oid ``i + 1`` for record ``i``), then the
    spouse links, then the single ``Meta`` object, in one batch.

    Empties ``records`` as it goes, so the generated records do not
    count in the server's peak memory on top of the database."""
    from repro.engine.oid import Oid

    spouses = []
    records.reverse()
    db.begin_batch()
    try:
        for i in range(len(records)):
            record = records.pop()
            spouse = record.pop("Spouse", None)
            db.create("Person", record)
            if spouse is not None:
                spouses.append((i, spouse))
        for i, spouse in spouses:
            db.update(Oid(db.name, i + 1), "Spouse", Oid(db.name, spouse + 1))
        db.create("Meta", {"Tag": "meta"})
    finally:
        db.end_batch()


def build(spec, records, directory: str, mode: str):
    """The served database, what must be closed at the end, and the
    seconds each set-up phase took. ``mode`` is ``memory`` or, for the
    paged workload, ``create`` (write the page file and exit) or
    ``open`` (open the existing page file; ``records`` is None)."""
    from repro.engine.database import Database

    closers = []
    phases = {}
    started = time.perf_counter()
    if spec.paged:
        import durability
        from repro.storage.checkpoint import PagedDatabase

        durability.install()
        path = os.path.join(directory, "staff.db")
        if mode == "create":

            def setup(db):
                define_schema(db)
                load_records(db, records)

            PagedDatabase(path, "Staff", setup,
                          pool_pages=workloads.POOL_PAGES,
                          sync_on_commit=True).close()
            return None, closers, {"create_s": time.perf_counter() - started}
        paged = PagedDatabase(
            path,
            "Staff",
            pool_pages=workloads.POOL_PAGES,
            resident_limit=spec.resident_limit,
            checkpoint_every=spec.checkpoint_every,
            sync_on_commit=True,
        )
        phases["open_s"] = time.perf_counter() - started
        closers.append(paged.close)
        db = paged.db
    else:
        db = Database("Staff")
        define_schema(db)
        load_records(db, records)
        phases["load_s"] = time.perf_counter() - started
    started = time.perf_counter()
    # Ordered: it answers both the point lookups and the name ranges.
    db.create_ordered_index("Person", "Name")
    phases["index_s"] = time.perf_counter() - started
    if spec.shards:
        from repro.exec import attach_executor

        started = time.perf_counter()
        executor = attach_executor(db, spec.shards)
        closers.insert(0, executor.close)
        # Spawn and bootstrap the shard workers now, so set-up time
        # includes the shard attach rather than the first request.
        db.query(
            "select the count((select P from P in Person where P.Age >= 0))"
            " from M in Meta"
        )
        phases["attach_s"] = time.perf_counter() - started
    return db, closers, phases


def python_us_per_object(spec, records) -> float:
    """Median µs per record of a plain-Python loop applying the
    workload's main scan predicate to the generated records."""
    predicate = workloads.python_predicate(spec)
    timings = []
    for _ in range(7):
        started = time.perf_counter()
        matched = 0
        for record in records:
            if predicate(record):
                matched += 1
        timings.append(time.perf_counter() - started)
    return statistics.median(timings) / len(records) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("memory", "create", "open"),
                        default="memory")
    args = parser.parse_args(argv)

    from repro.server import AsyncViewServer

    spec = workloads.WORKLOADS[args.workload]
    # ``open`` serves an existing page file: it needs no records.
    records = (
        None if args.mode == "open"
        else workloads.make_records(spec, args.seed)
    )
    db, closers, phases = build(spec, records, args.dir, args.mode)
    if db is None:
        print(json.dumps({"phases": phases}), flush=True)
        return 0
    server = AsyncViewServer([db], tracing=False)
    _host, port = server.start()
    print(json.dumps({"port": port, "phases": phases}), flush=True)

    probes = None
    fallbacks_at_trace = 0
    executor = getattr(db, "_shard_executor", None)
    try:
        for line in sys.stdin:
            command = json.loads(line).get("cmd")
            if command == "trace":
                import layers

                probes = layers.Probes()
                probes.install()
                if executor is not None:
                    fallbacks_at_trace = executor.stats.serial_fallbacks
                reply = {"installed": probes.installed}
            elif command == "report":
                reply = probes.report() if probes is not None else {}
                # The records depend on the seed alone: make them
                # again rather than keep them for the whole run.
                reply["python_us_per_object"] = python_us_per_object(
                    spec, workloads.make_records(spec, args.seed)
                )
                reply["serial_fallbacks"] = (
                    executor.stats.serial_fallbacks - fallbacks_at_trace
                    if executor is not None
                    else 0
                )
            elif command == "stop":
                break
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.stop()
        for close in closers:
            close()
    print(json.dumps({"stopped": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
