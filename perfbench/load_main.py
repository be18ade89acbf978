"""One load-generator connection, in its own process.

Run by ``run.py``, never by hand::

    python3 perfbench/load_main.py --workload NAME --seed N --conn I
        --round R --port P

A closed loop: one request in flight, the next sent only after the
reply arrived and was checked against the reference model. The process
connects, defines its connection's views, warms every op kind up
(first plan compiles and view populations stay out of the timed
window), prints ``{"ready": true}`` and then obeys JSON commands on
stdin, one JSON line of results per command:

- ``{"cmd": "window", "start": T0, "end": T1, "stats": bool}`` runs the
  mix from ``T0`` to ``T1`` (``time.monotonic`` instants, shared by all
  processes on the host); with ``stats`` it also returns the deltas of
  its connection's view counters over the window;
- ``{"cmd": "crash"}`` sends updates until the server dies and returns
  every acknowledged write plus the one in flight;
- ``{"cmd": "exit"}`` closes the connection.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads
from wire import ReplyError, WireClient

WARMUP_PER_KIND = 3
VIEW_COUNTERS = ("hits", "misses", "delta_patches", "full_recomputes")


class Loader:
    def __init__(self, spec, seed: int, conn: int, number: int, port: int):
        self.spec = spec
        self.model = workloads.Model(spec, seed, conn, number)
        self.client = WireClient("127.0.0.1", port)
        self.views = set()
        # (index, attribute) -> last acknowledged value.
        self.acked = {}

    def setup(self) -> None:
        for line in self.spec.view_script(self.model.conn):
            output = self.client.call("execute", line=line)["output"]
            if output.startswith("error"):
                raise RuntimeError(f"{line!r} failed: {output}")
            if line.startswith("create view"):
                self.views.add(line.split()[2].rstrip(";"))
        for kind, _weight in self.spec.mix:
            for _ in range(WARMUP_PER_KIND):
                problem = self.issue(self.model.next_op([kind]))[1]
                if problem is not None:
                    raise RuntimeError(f"warm-up {kind}: {problem}")

    def issue(self, op):
        """Send ``op``, check its reply; returns ``(latency_s,
        problem)`` where ``problem`` is None for a correct reply."""
        request = dict(op.request)
        name = request.pop("op")
        started = time.perf_counter()
        try:
            result = self.client.call(name, **request)
        except ReplyError as error:
            return time.perf_counter() - started, f"error frame {error}"
        latency = time.perf_counter() - started
        if op.write is not None:
            self.model.apply(op, result)
            if op.write[0] != "create":
                index, attribute, value = op.write
                self.acked[(index, attribute)] = value
            return latency, None
        output = result.get("output", "") if isinstance(result, dict) else ""
        if output.startswith("error"):
            return latency, output[:200]
        lines = workloads.reply_lines(output)
        if lines != op.expect:
            return latency, (
                f"wrong answer to {op.request['line']!r}: got"
                f" {lines[:3]}… ({len(lines)}), want {op.expect[:3]}…"
                f" ({len(op.expect)})"
            )
        return latency, None

    def view_counters(self) -> dict:
        views = self.client.call("stats").get("views", {})
        totals = dict.fromkeys(VIEW_COUNTERS, 0)
        for name, snapshot in views.items():
            if name in self.views:
                for key in VIEW_COUNTERS:
                    totals[key] += snapshot.get(key, 0)
        return totals

    def window(self, start: float, end: float, stats: bool) -> dict:
        before = self.view_counters() if stats else None
        latencies = {op_type: [] for op_type in workloads.OP_TYPES}
        attempted = failed = user_bytes = 0
        problems = []
        time.sleep(max(0.0, start - time.monotonic()))
        first = time.monotonic()
        while time.monotonic() < end:
            op = self.model.next_op()
            attempted += 1
            latency, problem = self.issue(op)
            if problem is None:
                latencies[workloads.OP_TYPE[op.kind]].append(latency * 1e3)
                if op.write is not None:
                    user_bytes += workloads.write_bytes(op)
            else:
                failed += 1
                if len(problems) < 5:
                    problems.append(problem)
        last = time.monotonic()
        result = {
            "latencies_ms": latencies,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "user_bytes": user_bytes,
            "first": first,
            "last": last,
        }
        if stats:
            after = self.view_counters()
            result["views"] = {k: after[k] - before[k] for k in after}
        return result

    def crash(self) -> dict:
        """Updates until the connection dies (the server is killed)."""
        pending = None
        kinds = [k for k, _ in self.spec.mix
                 if workloads.OP_TYPE[k] == "write"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            op = self.model.next_op(kinds)
            pending = list(op.write)
            try:
                self.issue(op)
            except OSError:
                break
            pending = None
        return {
            "acked": [[i, a, v] for (i, a), v in self.acked.items()],
            "pending": pending,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--conn", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--port", type=int, required=True)
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    loader = Loader(spec, args.seed, args.conn, args.round, args.port)
    loader.setup()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "window":
            reply = loader.window(
                command["start"], command["end"], command["stats"]
            )
        elif command["cmd"] == "crash":
            reply = loader.crash()
        else:
            break
        print(json.dumps(reply), flush=True)
    loader.client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
