"""Unit tests for the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import struct
import sys
import threading
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import durability  # noqa: E402
import layers  # noqa: E402
import metrics_table  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    TAIL_LADDER,
    SpanClock,
    beyond,
    coordinator_us,
    percentile,
    shard_skew,
    tail_percentile,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- the tail-percentile rule ---------------------------------------------


def test_beyond_counts_samples_above_the_nearest_rank():
    assert beyond(1000, 99.0) == 10
    assert beyond(999, 99.0) == 9
    assert beyond(100, 90.0) == 10
    assert beyond(0, 50.0) == 0


def test_tail_percentile_is_highest_with_ten_beyond():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(50) == 80.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(20) == 50.0


def test_tail_percentile_falls_back_to_the_median():
    assert tail_percentile(5) == 50.0


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 99.0) == 5.0
    assert percentile([], 90.0) == 0.0
    assert percentile(list(range(101)), 90.0) == 90.0


def test_fixed_tails_are_ladder_percentiles_for_every_op_type():
    for spec in workloads.WORKLOADS.values():
        assert set(spec.tails) == set(workloads.OP_TYPES), spec.name
        for pct in spec.tails.values():
            assert pct in TAIL_LADDER
        issued = {workloads.OP_TYPE[kind] for kind, _ in spec.mix}
        assert issued == set(workloads.OP_TYPES), spec.name


def test_baseline_predicate_spans_one_name_range():
    spec = workloads.WORKLOADS["oltp_point"]
    assert spec.connections == 1
    records = workloads.make_records(spec, 3)
    predicate = workloads.python_predicate(spec)
    assert sum(1 for r in records if predicate(r)) == workloads.RANGE_WIDTH


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_the_children_it_covers():
    clock = FakeClock()
    spans = SpanClock(clock)
    parent = spans.begin("parent")
    clock.now = 2.0
    child = spans.begin("child")
    clock.now = 5.0
    grandchild = spans.begin("grandchild")
    clock.now = 5.5
    spans.end(grandchild)
    spans.end(child)
    clock.now = 6.0
    second = spans.begin("child")
    clock.now = 7.0
    spans.end(second)
    clock.now = 10.0
    spans.end(parent)
    totals = spans.totals()
    assert totals["parent"] == {"calls": 1, "total_s": 10.0, "self_s": 5.5}
    assert totals["child"] == {"calls": 2, "total_s": 4.5, "self_s": 4.0}
    assert totals["grandchild"]["self_s"] == 0.5


def test_spans_on_other_threads_are_not_children():
    spans = SpanClock()
    outer = spans.begin("outer")

    def other():
        frame = spans.begin("worker")
        spans.end(frame)

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    spans.end(outer)
    totals = spans.totals()
    assert totals["outer"]["self_s"] == totals["outer"]["total_s"]
    assert totals["worker"]["calls"] == 1


def test_depth_and_parent_track_the_open_spans():
    spans = SpanClock()
    assert spans.parent() == ""
    first = spans.begin("a")
    second = spans.begin("a")
    assert spans.depth("a") == 2
    assert spans.parent() == "a"
    spans.end(second)
    spans.end(first)
    assert spans.depth("a") == 0


# -- exec.coordinator_us -----------------------------------------------------


def test_coordinator_time_is_wall_minus_slowest_worker():
    assert abs(coordinator_us(0.010, [0.004, 0.007]) - 3000.0) < 1e-6


def test_coordinator_time_is_not_clamped():
    assert coordinator_us(0.001, [0.002]) < 0


def test_shard_skew():
    assert shard_skew([1.0, 1.0]) == 1.0
    assert abs(shard_skew([1.0, 3.0]) - 1.5) < 1e-9
    assert shard_skew([]) == 0.0


# -- probes ------------------------------------------------------------------


def test_module_functions_are_replaced_in_every_binding():
    def original():
        return 1

    home = types.ModuleType("repro_probe_home")
    home.fn = original
    importer = types.ModuleType("repro_probe_importer")
    importer.alias = original
    sys.modules[home.__name__] = home
    sys.modules[importer.__name__] = importer
    try:
        assert layers._replace_function(home, "fn", lambda: 2) == 2
        assert home.fn() == 2 and importer.alias() == 2
    finally:
        del sys.modules[home.__name__]
        del sys.modules[importer.__name__]


def test_outermost_wrapper_skips_nested_calls():
    probes = layers.Probes()

    def inner():
        return "x"

    wrapped_inner = probes._timed("engine.write", inner, outermost=True)

    def outer():
        return wrapped_inner()

    wrapped_outer = probes._timed("engine.write", outer, outermost=True)
    assert wrapped_outer() == "x"
    assert probes.clock.totals()["engine.write"]["calls"] == 1


# -- crash emulation -----------------------------------------------------------


def test_restore_keeps_only_flushed_bytes(tmp_path):
    page = 16
    path = str(tmp_path / "staff.db")
    with open(path, "wb") as f:
        f.write(b"A" * page + b"B" * page + b"C" * page)  # 3 pages
    sync = struct.Struct(">QI")
    image = struct.Struct(">QI")
    with open(path + ".shadow", "wb") as log:
        log.write(b"S" + sync.pack(1, page))
        log.write(b"P" + image.pack(0, page) + b"a" * page)
        log.write(b"S" + sync.pack(2, page))  # page 0 "A" and 1 durable
        log.write(b"P" + image.pack(1, page) + b"b" * page)
        log.write(b"P" + image.pack(1, page) + b"z" * page)  # later: ignored
    with open(path + ".journal", "wb") as journal:
        journal.write(b"0123456789")
    with open(path + ".journal.durable", "wb") as marks:
        marks.write(struct.pack(">Q", 4) + struct.pack(">Q", 7) + b"\x00")
    discarded = durability.restore(path)
    with open(path, "rb") as f:
        assert f.read() == b"A" * page + b"b" * page
    with open(path + ".journal", "rb") as f:
        assert f.read() == b"0123456"
    assert discarded == {"pages_restored": 1, "page_bytes_cut": page,
                         "journal_bytes_cut": 3}


# -- the reference model -----------------------------------------------------


def test_reply_lines_drop_the_count_line_and_sort():
    assert workloads.reply_lines("[A=2]\n[A=1]\n(2 result(s))") == [
        "[A=1]", "[A=2]"]
    assert workloads.reply_lines("(no results)") == []
    assert workloads.reply_lines("42") == ["42"]


def test_records_depend_only_on_the_seed():
    spec = workloads.WORKLOADS["view_scan"]
    assert workloads.make_records(spec, 3) == workloads.make_records(spec, 3)
    assert workloads.make_records(spec, 3) != workloads.make_records(spec, 4)
    records = workloads.make_records(spec, 3)
    for i, record in enumerate(records):
        spouse = record.get("Spouse")
        if spouse is not None:
            assert records[spouse]["Spouse"] == i
            assert spouse % spec.connections == i % spec.connections


def test_model_tracks_its_own_writes():
    spec = workloads.WORKLOADS["paged_skewed"]
    model = workloads.Model(spec, 5, 1)
    op = model.next_op(["update"])
    index, attribute, value = op.write
    assert index % spec.connections == 1
    model.apply(op, {"updated": op.request["oid"]})
    assert model.records[index][attribute] == value
    lookup = model._lookup_op(index)
    assert lookup.expect == [workloads._tuple_line(
        A=model.records[index]["Age"], C=model.records[index]["City"],
        N=model.records[index]["Name"])]


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_names_what_the_benchmark_has():
    with open(os.path.join(BENCH, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert [m["name"] for m in bench["per_layer"]] == list(
        metrics_table.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
