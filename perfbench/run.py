"""The view-server benchmark: one workload, one run, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run starts the program's ``AsyncViewServer`` (its own tracing off)
in a server process and drives it over RBP1 binary framing from one
load process per connection (:mod:`load_main`), each a closed loop with
one request in flight. Every reply is checked against a reference the
load process computes from the same seed.

``--trace 0`` measures the end-to-end metrics: set-up time (the median
of several complete set-ups), throughput, and per op type the median
and a fixed tail percentile of client-side latency, and the server's
peak RSS. ``--trace 1`` runs the mix untraced, then installs the
per-layer probes (:mod:`layers`) in the server process and runs it
again, and reports the per-layer metrics and the traced/untraced
throughput ratio. The paged workload ends every run with a crash:
``SIGKILL`` while writes are in flight, roll back unflushed bytes
(:mod:`durability`), reopen, and read every acknowledged write back.

Earlier lines of standard output carry a human-readable report; the
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DEADLINE_S = 170.0
CRASH_AFTER_S = 0.3


class Failure(Exception):
    """The run cannot produce a result."""


class Child:
    """A subprocess speaking JSON lines on stdin/stdout."""

    def __init__(self, argv, env, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            # Its own process group: a kill also reaches the processes
            # it forked (the shard workers).
            start_new_session=True,
        )
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def read(self) -> dict:
        timeout = max(0.1, self.deadline - time.monotonic())
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise Failure(f"{self.proc.args[1]} did not answer in time")
        if line is None:
            raise Failure(
                f"{os.path.basename(self.proc.args[1])} exited with"
                f" code {self.proc.wait()}"
            )
        return json.loads(line)

    def send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def ask(self, message: dict) -> dict:
        self.send(message)
        return self.read()

    def close(self, timeout: float = 10.0) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)

    def kill(self) -> None:
        """SIGKILL the process and everything in its group; wait until
        the whole group is gone."""
        group = self.proc.pid
        deadline = time.monotonic() + 10.0
        try:
            while time.monotonic() < deadline:
                os.killpg(group, signal.SIGKILL)
                self.proc.poll()  # reap the leader, or the group lingers
                time.sleep(0.01)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(timeout=5.0)


class Run:
    def __init__(self, spec, seed: int, root: str, deadline: float):
        self.spec = spec
        self.seed = seed
        self.deadline = deadline
        self.children = []
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
        self.pristine = os.path.join(self.workdir, "pristine")
        self.datadir = self.pristine
        os.makedirs(self.pristine, exist_ok=True)

    # -- processes ---------------------------------------------------------

    def child(self, script: str, *args) -> Child:
        argv = [sys.executable, os.path.join(HERE, script)]
        argv += [str(a) for a in args]
        child = Child(argv, self.env, self.deadline)
        self.children.append(child)
        return child

    def create_page_file(self) -> dict:
        """Write the paged workload's page file (not part of set-up
        time: a paged database already exists when a server starts)."""
        creator = self.child("server_main.py", *self._server_args("create"))
        phases = creator.read()["phases"]
        creator.close()
        return phases

    def _server_args(self, mode: str):
        return ["--workload", self.spec.name, "--seed", self.seed,
                "--dir", self.datadir, "--mode", mode]

    def start_server(self, number: int):
        """Start round ``number``'s server on a fresh copy of the data;
        return ``(child, port, seconds from spawn to the first answered
        ping, set-up phases)``."""
        from wire import wait_for_ping

        self.datadir = os.path.join(self.workdir, f"round{number}")
        shutil.copytree(self.pristine, self.datadir)
        return self.restart_server()

    def restart_server(self):
        """Start a server on the current round's data as it is."""
        from wire import wait_for_ping

        mode = "open" if self.spec.paged else "memory"
        started = time.monotonic()
        server = self.child("server_main.py", *self._server_args(mode))
        hello = server.read()
        wait_for_ping("127.0.0.1", hello["port"], self.deadline)
        seconds = time.monotonic() - started
        return server, hello["port"], seconds, hello["phases"]

    def stop_server(self, server: Child) -> None:
        server.send({"cmd": "stop"})
        server.close(timeout=30.0)

    def start_loaders(self, port: int, number: int):
        loaders = [
            self.child("load_main.py", "--workload", self.spec.name,
                       "--seed", self.seed, "--conn", conn, "--round",
                       number, "--port", port)
            for conn in range(self.spec.connections)
        ]
        for loader in loaders:
            if not loader.read().get("ready"):
                raise Failure("load process not ready")
        return loaders

    def window(self, loaders, seconds: float, stats: bool) -> dict:
        start = time.monotonic() + 0.1
        for loader in loaders:
            loader.send({"cmd": "window", "start": start,
                         "end": start + seconds, "stats": stats})
        parts = [loader.read() for loader in loaders]
        merged = {
            "latencies_ms": {},
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "problems": [q for p in parts for q in p["problems"]],
            "elapsed": max(p["last"] for p in parts) - start,
        }
        for part in parts:
            for op_type, values in part["latencies_ms"].items():
                merged["latencies_ms"].setdefault(op_type, []).extend(values)
        merged["completed"] = sum(
            len(v) for v in merged["latencies_ms"].values()
        )
        merged["throughput"] = merged["completed"] / merged["elapsed"]
        merged["user_bytes"] = sum(p["user_bytes"] for p in parts)
        if stats:
            merged["views"] = {}
            for part in parts:
                for key, value in part["views"].items():
                    merged["views"][key] = merged["views"].get(key, 0) + value
        return merged

    def cleanup(self) -> None:
        for child in self.children:
            child.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)
        parent = os.path.dirname(self.workdir)
        try:
            os.rmdir(parent)
        except OSError:
            pass

    # -- the paged workload's crash and durability check ---------------------

    def crash_and_verify(self, server: Child, loaders):
        import durability
        import workloads
        from wire import WireClient

        for loader in loaders:
            loader.send({"cmd": "crash"})
        time.sleep(CRASH_AFTER_S)
        server.kill()
        writes = [loader.read() for loader in loaders]
        path = os.path.join(self.datadir, "staff.db")
        discarded = durability.restore(path)
        restarted, port, restart_s, _phases = self.restart_server()
        records = workloads.make_records(self.spec, self.seed)
        # index -> the write in flight at the kill, which may or may not
        # have become durable (None: every write to it was acknowledged).
        expected = {}
        for part in writes:
            for index, attribute, value in part["acked"]:
                records[index][attribute] = value
                expected.setdefault(index, None)
            if part["pending"] is not None:
                index, attribute, value = part["pending"]
                expected[index] = (attribute, value)
        client = WireClient("127.0.0.1", port)
        lost = []
        try:
            for index, pending in sorted(expected.items()):
                record = records[index]
                line, want = workloads.lookup_query(record)
                allowed = [want]
                if pending is not None:
                    allowed.append(workloads.lookup_query(
                        dict(record, **{pending[0]: pending[1]}))[1])
                output = client.call("execute", line=line)["output"]
                got = workloads.reply_lines(output)
                if len(got) != 1 or got[0] not in allowed:
                    lost.append(f"{record['Name']}: got {got},"
                                f" want one of {allowed}")
        finally:
            client.close()
        disk = os.path.getsize(path) + os.path.getsize(path + ".journal")
        payload = sum(workloads.user_bytes(r) for r in records) + len("meta")
        self.stop_server(restarted)
        return {
            "checked": len(expected),
            "lost": lost,
            "restart_s": restart_s,
            "disk_bytes_per_user_byte": disk / payload,
            "discarded": discarded,
        }


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Failure("no VmHWM in /proc status")


def latency_metrics(spec, latencies: dict, report: dict) -> dict:
    from measure import MIN_BEYOND, beyond, percentile

    metrics = {}
    tails = {}
    for op_type in ("lookup", "scan", "write"):
        values = latencies.get(op_type, [])
        if not values:
            raise Failure(f"no successful {op_type} ops in the window")
        pct = spec.tails[op_type]
        metrics[f"{op_type}_p50_ms"] = statistics.median(values)
        metrics[f"{op_type}_tail_ms"] = percentile(values, pct)
        tails[op_type] = {
            "percentile": pct,
            "samples": len(values),
            "beyond": beyond(len(values), pct),
            "enough_beyond": beyond(len(values), pct) >= MIN_BEYOND,
        }
    report["tails"] = tails
    return metrics


def per_layer(probes, stats0, stats1, traced, untraced, open_s):
    """Per-layer metrics from the probes, the ``stats`` op deltas and the
    traced window; layers the workload does not reach read 0."""
    from repro.storage.pages import DEFAULT_PAGE_SIZE

    spans = probes["spans"]
    counters = probes["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def mean_us(name, key="total_s"):
        n = calls(name)
        return spans[name][key] / n * 1e6 if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def delta(*path):
        a, b = stats0, stats1
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    ops = traced["completed"]
    all_latencies = [v for vs in traced["latencies_ms"].values() for v in vs]
    client_us = statistics.fmean(all_latencies) * 1e3 if all_latencies else 0
    writes = len(traced["latencies_ms"].get("write", []))
    views = traced.get("views", {})
    scan_us = ratio(counters["scan_seconds"] * 1e6,
                    counters["objects_scanned"])
    storage = ("storage", "Staff")
    metrics = {
        "server.decode_us": mean_us("server.decode"),
        "server.encode_us": mean_us("server.encode"),
        "server.handle_self_us": mean_us("server.handle", "self_s"),
        "server.outside_handle_us": (
            client_us - mean_us("server.handle") if calls("server.handle")
            else 0.0
        ),
        "server.commit_wait_us": mean_us("server.submit", "self_s"),
        "server.group_batch_ops": ratio(
            delta("mvcc", "group_batched_ops"),
            delta("mvcc", "group_batches"),
        ),
        "query.plan_fetch_us": mean_us("query.fetch_plan"),
        "query.plan_cache_hit_ratio": ratio(
            counters["plan_hits"], counters["plan_fetches"]
        ),
        "query.execute_self_us": mean_us("query.execute", "self_s"),
        "query.scan_us_per_object": scan_us,
        "query.scan_x_python": ratio(scan_us,
                                     probes["python_us_per_object"]),
        "query.scanned_per_returned": ratio(
            counters["objects_scanned"], counters["rows_returned"]
        ),
        "core.population_us": mean_us("core.population"),
        "core.view_cache_hit_ratio": ratio(
            views.get("hits", 0),
            views.get("hits", 0) + views.get("misses", 0),
        ),
        "core.note_event_us": mean_us("core.note_event"),
        "core.full_recomputes_per_write": ratio(
            views.get("full_recomputes", 0), writes
        ),
        "engine.write_us": mean_us("engine.write"),
        "engine.extent_us": mean_us("engine.extent"),
        "storage.journal_write_us": mean_us("storage.journal_write"),
        "storage.checkpoint_ms": mean_us("storage.checkpoint") / 1e3,
        "storage.checkpoint_bytes_per_user_byte": ratio(
            delta(*storage, "checkpoint", "checkpoint_pages_total")
            * DEFAULT_PAGE_SIZE,
            traced.get("user_bytes", 0),
        ),
        "storage.buffer_hit_ratio": ratio(
            delta(*storage, "buffer", "hits"),
            delta(*storage, "buffer", "hits")
            + delta(*storage, "buffer", "misses"),
        ),
        "storage.faults_per_op": ratio(
            delta(*storage, "table", "faults"), ops
        ),
        "storage.faulted_objects_per_fault": ratio(
            delta(*storage, "table", "faulted_objects"),
            delta(*storage, "table", "faults"),
        ),
        "storage.evicted_objects_per_op": ratio(
            delta(*storage, "table", "evicted_objects"), ops
        ),
        "storage.open_s": open_s,
        "exec.scatter_us": mean_us("exec.scatter"),
        "exec.worker_busy_us": ratio(counters["worker_busy_us"],
                                     counters["scatters"]),
        "exec.coordinator_us": ratio(counters["coordinator_us"],
                                     counters["scatters"]),
        "exec.shard_skew": ratio(counters["shard_skew"],
                                 counters["scatters"]),
        "exec.serial_fallback_ratio": ratio(
            probes["serial_fallbacks"], calls("exec.scatter")
        ),
        "trace.throughput_ratio": ratio(
            traced["throughput"], untraced["throughput"]
        ),
    }
    return metrics


def metric_units(benchmark: dict, kind: str) -> dict:
    """``{name: unit}`` of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark[kind]}


def run(args, root: str, name: str, benchmark: dict) -> dict:
    import workloads
    from metrics_table import END_TO_END_EXTRA

    spec = workloads.WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    bench = Run(spec, args.seed, root, deadline)
    report = {
        "workload": spec.name,
        "why": next(w["why"] for w in benchmark["workloads"]
                    if w["name"] == name),
        "seed": args.seed,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version()},
        "people": spec.people,
        "connections": spec.connections,
        "flush_policy": spec.flush_policy(),
        "load": "closed loop, one request in flight per connection,"
                " one load process per connection",
    }
    if spec.paged:
        report["page_pool"] = workloads.POOL_PAGES
        report["resident_limit"] = spec.resident_limit
    if spec.shards:
        report["shards"] = spec.shards
    try:
        if spec.paged:
            report["page_file_create"] = bench.create_page_file()
        rounds = spec.rounds if args.trace == 0 else 1
        setups, windows, rss = [], [], 0.0
        crash = None
        for number in range(rounds):
            last = number == rounds - 1
            server, port, seconds, phases = bench.start_server(number)
            setups.append(seconds)
            loaders = bench.start_loaders(port, number)
            if args.trace == 0:
                windows.append(
                    bench.window(loaders, args.seconds / rounds, stats=False)
                )
            else:
                half = args.seconds / 2.0
                untraced = bench.window(loaders, half, stats=False)
                installed = server.ask({"cmd": "trace"})["installed"]
                from wire import WireClient

                control = WireClient("127.0.0.1", port)
                stats0 = control.call("stats")
                traced = bench.window(loaders, half, stats=True)
                stats1 = control.call("stats")
                control.close()
                probes = server.ask({"cmd": "report"})
                windows += [untraced, traced]
                report["probes_installed"] = installed
            rss = max(rss, vm_hwm_mb(server.proc.pid))
            if spec.paged and last:
                crash = bench.crash_and_verify(server, loaders)
            else:
                bench.stop_server(server)
            for loader in loaders:
                loader.close()
        report["setup_runs_s"] = setups
        report["setup_phases_s"] = phases
        attempted = sum(w["attempted"] for w in windows)
        failed = sum(w["failed"] for w in windows)
        problems = [p for w in windows for p in w["problems"]]
        if crash is not None:
            attempted += crash["checked"]
            failed += len(crash["lost"])
            problems += crash["lost"][:5]
            report["durability"] = {
                "acknowledged_objects_checked": crash["checked"],
                "lost": len(crash["lost"]),
                "discarded_unflushed": crash["discarded"],
            }
        correct = failed == 0
        extra = {"error_ratio": failed / attempted if attempted else 0.0}
        if crash is not None:
            extra["restart_s"] = crash["restart_s"]
            extra["disk_bytes_per_user_byte"] = crash[
                "disk_bytes_per_user_byte"
            ]
        if args.trace == 0:
            completed = sum(w["completed"] for w in windows)
            elapsed = sum(w["elapsed"] for w in windows)
            latencies = {
                op_type: [v for w in windows
                          for v in w["latencies_ms"].get(op_type, [])]
                for op_type in ("lookup", "scan", "write")
            }
            metrics = {"setup_s": statistics.median(setups),
                       "throughput_ops_s": completed / elapsed}
            metrics.update(latency_metrics(spec, latencies, report))
            metrics["server_rss_mb"] = rss
            units = metric_units(benchmark, "end_to_end")
        else:
            metrics = per_layer(probes, stats0, stats1, traced, untraced,
                                phases.get("open_s", 0.0))
            units = metric_units(benchmark, "per_layer")
            silent = [
                name for name in spec.must_fire
                if probes["spans"].get(name, {}).get("calls", 0) == 0
            ]
            report["entry_points_fired"] = {
                name: row["calls"] for name, row in probes["spans"].items()
            }
            report["tracing_overhead"] = {
                "untraced_throughput_ops_s": untraced["throughput"],
                "traced_throughput_ops_s": traced["throughput"],
                "ratio": metrics["trace.throughput_ratio"],
            }
            if silent:
                correct = False
                problems.append(f"wrapped entry points never fired: {silent}")
        report["ops"] = {"attempted": attempted, "failed": failed}
        report["problems"] = problems[:10]
        report["end_to_end_extra"] = {
            name: {"value": value, "unit": END_TO_END_EXTRA[name]}
            for name, value in extra.items()
        }
        return {
            "report": report,
            "result": {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            },
        }
    finally:
        bench.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout holding"
              " src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    import workloads

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    results = {}
    for name in names:
        try:
            outcome = run(args, root, name, benchmark)
        except Failure as error:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
            return 1
        print(json.dumps(outcome["report"], indent=1, sort_keys=True))
        results[name] = outcome["result"]
    # One workload: its result. ``all``: every result, by workload.
    print(json.dumps(results if args.workload == "all" else results[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
