"""What ``BENCHMARK.json`` cannot hold about the metrics it names.

``BENCHMARK.json`` alone gives every metric's name, unit and direction
(``run.py`` reads them from there). This module adds, for each
per-layer metric, where it is measured and which end-to-end metric, on
which workload, it should move; and the end-to-end metrics that only
the report lines carry.
"""

from __future__ import annotations

# Reported on the report lines only, because not every workload has
# them (a metric in BENCHMARK.json must be measured on every workload):
# failures are 0 on correct code, and only the paged workload restarts
# and has a disk footprint.
END_TO_END_EXTRA = {
    "error_ratio": "fraction",
    "restart_s": "s",
    "disk_bytes_per_user_byte": "ratio",
}

# name: (measured at, target end-to-end metric (workloads))
PER_LAYER = {
    "server.decode_us": (
        "framing.decode_request",
        "throughput_ops_s (oltp_point)"),
    "server.encode_us": (
        "framing.encode_response",
        "throughput_ops_s (oltp_point)"),
    "server.handle_self_us": (
        "ServerSession.handle self time",
        "lookup_p50_ms (oltp_point)"),
    "server.outside_handle_us": (
        "mean client latency - mean ServerSession.handle time",
        "throughput_ops_s (oltp_point)"),
    "server.commit_wait_us": (
        "GroupCommitter.submit self time",
        "write_p50_ms (oltp_point, paged_skewed)"),
    "server.group_batch_ops": (
        "stats op mvcc block",
        "write_p50_ms (oltp_point, paged_skewed)"),
    "query.plan_fetch_us": (
        "planner.fetch_plan",
        "lookup_p50_ms (oltp_point)"),
    "query.plan_cache_hit_ratio": (
        "planner.fetch_plan verdicts",
        "lookup_p50_ms (oltp_point)"),
    "query.execute_self_us": (
        "planner.execute self time",
        "scan_p50_ms (view_scan)"),
    "query.scan_us_per_object": (
        "top-level planner.execute time / objects its extents held",
        "scan_p50_ms (view_scan, sharded_scan)"),
    "query.scan_x_python": (
        "scan_us_per_object / same-run plain-Python loop per record",
        "scan_p50_ms (view_scan, sharded_scan)"),
    "query.scanned_per_returned": (
        "objects scanned / rows returned",
        "lookup_p50_ms (view_scan)"),
    "core.population_us": (
        "VirtualClass.population",
        "scan_p50_ms (view_scan)"),
    "core.view_cache_hit_ratio": (
        "stats op views block",
        "scan_p50_ms (view_scan)"),
    "core.note_event_us": (
        "VirtualClass.note_event",
        "write_p50_ms (oltp_point), scan_tail_ms (view_scan)"),
    "core.full_recomputes_per_write": (
        "stats op views block / writes",
        "write_p50_ms (oltp_point), scan_tail_ms (view_scan)"),
    "engine.write_us": (
        "Database.create / update / apply_batch",
        "write_p50_ms (oltp_point)"),
    "engine.extent_us": (
        "Database.extent",
        "scan_p50_ms (view_scan)"),
    "storage.journal_write_us": (
        "JournalWriter.write_batch (includes fsync)",
        "write_p50_ms (paged_skewed)"),
    "storage.checkpoint_ms": (
        "PagedDatabase.checkpoint",
        "write_tail_ms (paged_skewed)"),
    "storage.checkpoint_bytes_per_user_byte": (
        "storage_stats() checkpoint pages / user bytes"
        " written", "disk_bytes_per_user_byte (paged_skewed)"),
    "storage.buffer_hit_ratio": (
        "storage_stats() buffer block",
        "lookup_p50_ms (paged_skewed)"),
    "storage.faults_per_op": (
        "storage_stats() table block",
        "lookup_p50_ms, lookup_tail_ms (paged_skewed)"),
    "storage.faulted_objects_per_fault": (
        "storage_stats() table block",
        "lookup_p50_ms, lookup_tail_ms (paged_skewed)"),
    "storage.evicted_objects_per_op": (
        "storage_stats() table block",
        "lookup_tail_ms (paged_skewed)"),
    "storage.open_s": (
        "PagedDatabase(...) construction",
        "setup_s, restart_s (paged_skewed)"),
    "exec.scatter_us": (
        "ShardExecutor.scatter",
        "scan_p50_ms (sharded_scan)"),
    "exec.worker_busy_us": (
        "per-shard busy time of each scatter",
        "scan_p50_ms (sharded_scan)"),
    "exec.coordinator_us": (
        "scatter wall - slowest worker busy, per scatter",
        "scan_p50_ms (sharded_scan)"),
    "exec.shard_skew": (
        "max / mean worker busy, per scatter",
        "scan_tail_ms (sharded_scan)"),
    "exec.serial_fallback_ratio": (
        "ShardStats serial_fallbacks / scatter calls",
        "scan_p50_ms (sharded_scan)"),
    "trace.throughput_ratio": (
        "traced / untraced throughput_ops_s",
        "tracing overhead (every workload)"),
}
