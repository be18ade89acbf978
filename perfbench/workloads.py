"""Workload definitions, input generation and the reference model.

Everything here is plain Python over plain records: the server process
loads the records into the program, and each load process uses the
same records to compute the answer every reply must carry. Both sides
derive the records from the run's ``--seed`` alone.

Each connection owns one *team*: record ``i`` belongs to team
``i % connections``. A connection reads and writes only its own team,
so its reference model is exact even while other connections write.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

CITIES = (
    "Paris", "London", "Rome", "Berlin", "Madrid",
    "Vienna", "Lisbon", "Dublin", "Oslo", "Athens",
)
SEXES = ("male", "female")
INCOME_MAX = 100_000
# Names per ``name_range`` scan (half of them in the caller's team when
# two connections share the records).
RANGE_WIDTH = 40
# Start of the name range the plain-Python scan baseline tests.
BASELINE_RANGE_START = 1000
# Page pool of the paged workload: ~1/20 of its page file.
POOL_PAGES = 64

# Which end-to-end op type each op kind reports under.
OP_TYPE = {
    "lookup": "lookup",
    "name_range": "scan",
    "adult_scan": "scan",
    "adult_count": "scan",
    "couple_scan": "scan",
    "base_scan": "scan",
    "base_count": "scan",
    "update": "write",
    "create": "write",
    "age_flip": "write",
}
OP_TYPES = ("lookup", "scan", "write")

VIEW_ADULT = (
    "create view V;",
    "import all classes from database Staff;",
    "class Adult includes (select P from Person where P.Age >= 18);",
    # Back to the base database: the view stays defined and maintained.
    ".use Staff",
)
VIEW_STACK = (
    "create view V;",
    "import all classes from database Staff;",
    "hide attribute Income in class Person;",
    "class Adult includes (select P from Person where P.Age >= 18);",
    "class Couple includes imaginary"
    " (select [Husband: H, Wife: H.Spouse] from H in Adult"
    " where H.Sex = 'male' and H.Spouse in Adult);",
)


@dataclass(frozen=True)
class Spec:
    """One workload: data, connections, traffic mix and what it must
    exercise."""

    name: str
    people: int
    connections: int
    mix: Tuple[Tuple[str, float], ...]
    # Per connection: the view script it runs before the timed window.
    views: Tuple[Tuple[str, ...], ...] = ()
    couples: bool = False
    paged: bool = False
    resident_limit: int = 0
    checkpoint_every: int = 0
    shards: int = 0
    # Zipf exponent of key choice; 0 picks keys uniformly.
    zipf_s: float = 0.0
    # A run measures this many rounds, each on a freshly started server
    # (so each has its own set-up and its own process layout), and
    # pools their samples; ``setup_s`` is the median over the rounds.
    rounds: int = 3
    # Tail percentile per op type, fixed so both commits report the
    # same one: at most measure.tail_percentile of 0.7 times the lowest
    # sample count seen over ten reference runs, so that a slower host
    # or a regression still leaves at least measure.MIN_BEYOND samples
    # beyond it. Where the samples beyond a higher percentile are
    # mostly host scheduling hiccups, whose number varies several-fold
    # from run to run, the tail is the highest percentile still inside
    # the dense part of the distribution.
    tails: Dict[str, float] = field(default_factory=dict)
    # Wrapped entry points the traced run must see fire.
    must_fire: Tuple[str, ...] = ()

    def view_script(self, conn: int) -> Tuple[str, ...]:
        return self.views[conn] if conn < len(self.views) else ()

    def flush_policy(self) -> str:
        if not self.paged:
            return "in-memory, no flush"
        return (
            "journal fsync on every commit (sync_on_commit=True),"
            f" checkpoint every {self.checkpoint_every} committed batches"
        )


_SERVER_CORE = (
    "server.decode",
    "server.encode",
    "server.handle",
    "server.submit",
    "query.fetch_plan",
    "query.execute",
    "engine.write",
)

WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="oltp_point",
            people=20_000,
            # One connection: with two, every cheap op that lands behind
            # the other connection's create (an index copy plus a gen-2
            # collection, 10-40 ms on the server's one interpreter lock)
            # moves the median and tail between modes from run to run.
            connections=1,
            mix=(
                ("lookup", 0.65),
                ("name_range", 0.05),
                ("update", 0.20),
                ("create", 0.10),
            ),
            views=(VIEW_ADULT,),
            # Lookups take ~1 ms; beyond their 95th percentile lie
            # mostly host hiccups (the p99 of ten 15 s runs spread 1.0
            # of its median, the p90 0.17).
            tails={"lookup": 90.0, "scan": 90.0, "write": 95.0},
            must_fire=_SERVER_CORE + ("core.note_event",),
        ),
        Spec(
            name="view_scan",
            people=2_000,
            connections=1,
            mix=(
                # Most scans are the residual scan of Adult, so the
                # scan median falls inside its latencies rather than
                # between those of two scan kinds.
                ("adult_scan", 0.45),
                ("adult_count", 0.10),
                ("couple_scan", 0.15),
                ("lookup", 0.25),
                ("age_flip", 0.05),
            ),
            views=(VIEW_STACK,),
            couples=True,
            tails={"lookup": 75.0, "scan": 90.0, "write": 50.0},
            must_fire=_SERVER_CORE
            + ("core.population", "core.note_event", "engine.extent"),
        ),
        Spec(
            name="paged_skewed",
            people=50_000,
            connections=2,
            mix=(
                ("lookup", 0.45),
                ("update", 0.45),
                ("name_range", 0.10),
            ),
            paged=True,
            resident_limit=2_000,
            checkpoint_every=64,
            zipf_s=0.99,
            # Ten 15 s runs spread 0.21 of their median at these,
            # 0.23-0.34 at lookup/write 95 and scan 90.
            tails={"lookup": 90.0, "scan": 80.0, "write": 90.0},
            must_fire=_SERVER_CORE
            + ("storage.journal_write", "storage.checkpoint"),
        ),
        Spec(
            name="sharded_scan",
            # 5k people: scans of ~60 ms leave ~180 of them a run, so
            # the scan tail can sit at the 90th percentile. At 10k
            # (~110 scans) it had to be the 80th, which fell on the
            # edge between scans that ship a write and scans that do
            # not, and ten runs spread 0.27 of their median there.
            people=5_000,
            connections=1,
            mix=(
                ("base_scan", 0.15),
                ("base_count", 0.15),
                ("lookup", 0.40),
                # The first scatter after a write ships the write to the
                # workers and costs ~20 ms more. At 30% writes the slow
                # share sits clear of both the median and the tails.
                ("update", 0.30),
            ),
            shards=2,
            tails={"lookup": 90.0, "scan": 90.0, "write": 90.0},
            must_fire=_SERVER_CORE + ("exec.scatter",),
        ),
    )
}


# ----------------------------------------------------------------------
# Records


def person_name(index: int) -> str:
    return f"P{index:06d}"


def make_records(spec: Spec, seed: int) -> List[dict]:
    """The workload's ``Person`` records; record ``i`` becomes oid
    ``Oid("Staff", i + 1)``. ``Spouse`` holds a record index (or is
    absent); couples never cross teams."""
    rng = random.Random(f"{spec.name}:{seed}")
    records = []
    for i in range(spec.people):
        records.append(
            {
                "Name": person_name(i),
                "Age": rng.randrange(0, 95),
                "Sex": SEXES[rng.randrange(2)],
                "Income": rng.randrange(INCOME_MAX),
                "City": CITIES[rng.randrange(len(CITIES))],
                "Team": i % spec.connections,
            }
        )
    if spec.couples:
        for team in range(spec.connections):
            members = range(team, spec.people, spec.connections)
            men = [i for i in members if records[i]["Sex"] == "male"]
            women = [i for i in members if records[i]["Sex"] == "female"]
            rng.shuffle(men)
            rng.shuffle(women)
            pairs = int(min(len(men), len(women)) * 0.6)
            for husband, wife in zip(men[:pairs], women[:pairs]):
                records[husband]["Spouse"] = wife
                records[wife]["Spouse"] = husband
    return records


def user_bytes(record: dict) -> int:
    """Payload bytes of one record as a user counts them: UTF-8 bytes of
    each string, 8 per number or reference."""
    total = 0
    for value in record.values():
        total += len(value.encode()) if isinstance(value, str) else 8
    return total


def write_bytes(op) -> int:
    """User payload bytes an acknowledged write carried."""
    if op.write[0] == "create":
        return user_bytes(op.write[1])
    return user_bytes({op.write[1]: op.write[2]})


def python_predicate(spec: Spec):
    """The predicate of the workload's main scan, as a plain-Python
    test over one record (the same-run baseline for the program's
    per-object scan cost)."""
    if spec.name == "view_scan":
        return lambda r: (
            r["Age"] >= 18 and r["Team"] == 0
            and r["City"] == "Rome" and r["Age"] >= 40
        )
    if spec.name == "sharded_scan":
        return lambda r: (
            r["City"] == "Rome" and r["Age"] >= 40 and r["Income"] < 20_000
        )
    low = person_name(BASELINE_RANGE_START)
    high = person_name(BASELINE_RANGE_START + RANGE_WIDTH)
    return lambda r: low <= r["Name"] < high and r["Team"] == 0


# ----------------------------------------------------------------------
# Reference model and request generation (one per connection)


def _tuple_line(**fields) -> str:
    parts = [f"{key}={fields[key]!r}" for key in sorted(fields)]
    return "[" + ", ".join(parts) + "]"


def lookup_query(record: dict) -> Tuple[str, str]:
    """The point lookup of ``record`` by name, and its one reply line."""
    line = (
        "select [A: P.Age, C: P.City, N: P.Name] from P in Person"
        f" where P.Name = '{record['Name']}'"
    )
    return line, _tuple_line(
        A=record["Age"], C=record["City"], N=record["Name"]
    )


def _zipf_table(size: int, s: float) -> List[float]:
    cumulative = []
    total = 0.0
    for rank in range(1, size + 1):
        total += 1.0 / rank ** s
        cumulative.append(total)
    return [value / total for value in cumulative]


class Op:
    """One request plus what its reply must say."""

    __slots__ = ("kind", "request", "expect", "write")

    def __init__(self, kind, request, expect=None, write=None):
        self.kind = kind
        self.request = request
        # Sorted reply lines for reads; None for writes.
        self.expect = expect
        # ``(index, attribute, value)`` for updates; ``("create",
        # record)`` for creates.
        self.write = write


class Model:
    """The records of one connection's team and the ops it issues."""

    def __init__(self, spec: Spec, seed: int, conn: int, number: int = 0):
        self.spec = spec
        self.conn = conn
        self.team = conn
        # Each round replays the same data with its own op stream.
        self.rng = random.Random(f"{spec.name}:{seed}:conn{conn}:{number}")
        records = make_records(spec, seed)
        self.records: Dict[int, dict] = {
            i: dict(records[i])
            for i in range(conn, len(records), spec.connections)
        }
        self.keys: List[int] = sorted(self.records)
        self.created = 0
        self._kinds = [kind for kind, _ in spec.mix]
        self._cum = []
        total = 0.0
        for _, weight in spec.mix:
            total += weight
            self._cum.append(total)
        self._total = total
        if spec.zipf_s:
            # Hot keys scattered over the key space, so skew does not
            # mean locality.
            self._zipf = _zipf_table(len(self.keys), spec.zipf_s)
            self._hot = list(self.keys)
            self.rng.shuffle(self._hot)

    # -- choosing ------------------------------------------------------

    def next_op(self, kinds: Optional[Sequence[str]] = None) -> Op:
        if kinds is None:
            roll = self.rng.random() * self._total
            kind = self._kinds[bisect.bisect_right(self._cum, roll)]
        else:
            kind = kinds[self.rng.randrange(len(kinds))]
        return getattr(self, "_op_" + kind)()

    def _pick(self) -> int:
        """A key of the loaded records (never a created one)."""
        if self.spec.zipf_s:
            rank = bisect.bisect_left(self._zipf, self.rng.random())
            return self._hot[min(rank, len(self._hot) - 1)]
        return self.keys[self.rng.randrange(len(self.keys))]

    def _adult(self, r: dict) -> bool:
        return r["Age"] >= 18

    # -- reads ---------------------------------------------------------

    def _lookup_op(self, index: int) -> Op:
        line, expect = lookup_query(self.records[index])
        return Op("lookup", {"op": "execute", "line": line}, [expect])

    def _op_lookup(self) -> Op:
        return self._lookup_op(self._pick())

    def _op_name_range(self) -> Op:
        # Uniform even under skew: the ranges stay cold, so each reads
        # one page chain or two, not sometimes none.
        start = self.rng.randrange(self.spec.people - RANGE_WIDTH)
        low = person_name(start)
        high = person_name(start + RANGE_WIDTH)
        line = (
            "select [A: P.Age, N: P.Name] from P in Person"
            f" where P.Name >= '{low}' and P.Name < '{high}'"
            f" and P.Team = {self.team}"
        )
        expect = sorted(
            _tuple_line(A=self.records[i]["Age"], N=self.records[i]["Name"])
            for i in range(start, start + RANGE_WIDTH)
            if i in self.records
        )
        return Op("name_range", {"op": "execute", "line": line}, expect)

    def _op_adult_scan(self) -> Op:
        city = CITIES[self.rng.randrange(len(CITIES))]
        age = self.rng.randrange(18, 80)
        line = (
            "select [A: A.Age, N: A.Name] from A in Adult"
            f" where A.Team = {self.team} and A.City = '{city}'"
            f" and A.Age >= {age}"
        )
        expect = sorted(
            _tuple_line(A=r["Age"], N=r["Name"])
            for r in self.records.values()
            if r["City"] == city and r["Age"] >= age
        )
        return Op("adult_scan", {"op": "execute", "line": line}, expect)

    def _op_adult_count(self) -> Op:
        sex = SEXES[self.rng.randrange(2)]
        line = (
            "select the count((select A from A in Adult"
            f" where A.Team = {self.team} and A.Sex = '{sex}'))"
            " from M in Meta"
        )
        count = sum(
            1 for r in self.records.values()
            if self._adult(r) and r["Sex"] == sex
        )
        return Op("adult_count", {"op": "execute", "line": line},
                  [str(count)])

    def _op_couple_scan(self) -> Op:
        city = CITIES[self.rng.randrange(len(CITIES))]
        line = (
            "select [H: C.Husband.Name, W: C.Wife.Name] from C in Couple"
            f" where C.Husband.Team = {self.team}"
            f" and C.Wife.City = '{city}'"
        )
        expect = []
        for r in self.records.values():
            spouse = r.get("Spouse")
            if r["Sex"] != "male" or spouse is None or not self._adult(r):
                continue
            wife = self.records[spouse]
            if self._adult(wife) and wife["City"] == city:
                expect.append(_tuple_line(H=r["Name"], W=wife["Name"]))
        return Op("couple_scan", {"op": "execute", "line": line},
                  sorted(expect))

    def _op_base_scan(self) -> Op:
        city = CITIES[self.rng.randrange(len(CITIES))]
        age = self.rng.randrange(18, 80)
        income = self.rng.randrange(10_000, 30_000)
        line = (
            "select [A: P.Age, N: P.Name] from P in Person"
            f" where P.City = '{city}' and P.Age >= {age}"
            f" and P.Income < {income}"
        )
        expect = sorted(
            _tuple_line(A=r["Age"], N=r["Name"])
            for r in self.records.values()
            if r["City"] == city and r["Age"] >= age
            and r["Income"] < income
        )
        return Op("base_scan", {"op": "execute", "line": line}, expect)

    def _op_base_count(self) -> Op:
        city = CITIES[self.rng.randrange(len(CITIES))]
        age = self.rng.randrange(18, 80)
        line = (
            "select the count((select P from P in Person"
            f" where P.City = '{city}' and P.Age >= {age})) from M in Meta"
        )
        count = sum(
            1 for r in self.records.values()
            if r["City"] == city and r["Age"] >= age
        )
        return Op("base_count", {"op": "execute", "line": line},
                  [str(count)])

    # -- writes --------------------------------------------------------

    def _update_op(self, kind: str, index: int, attribute: str,
                   value) -> Op:
        request = {
            "op": "update",
            "database": "Staff",
            "oid": {"$oid": ["Staff", index + 1]},
            "attribute": attribute,
            "value": value,
        }
        return Op(kind, request, write=(index, attribute, value))

    def _op_update(self) -> Op:
        index = self._pick()
        if self.rng.random() < 0.5:
            return self._update_op("update", index, "Age",
                                   self.rng.randrange(0, 95))
        city = CITIES[self.rng.randrange(len(CITIES))]
        return self._update_op("update", index, "City", city)

    def _op_age_flip(self) -> Op:
        """An Age update that moves the person in or out of Adult."""
        index = self._pick()
        if self._adult(self.records[index]):
            age = self.rng.randrange(3, 18)
        else:
            age = self.rng.randrange(18, 81)
        return self._update_op("age_flip", index, "Age", age)

    def _op_create(self) -> Op:
        self.created += 1
        record = {
            "Name": f"C{self.conn}_{self.created:06d}",
            "Age": self.rng.randrange(0, 95),
            "Sex": SEXES[self.rng.randrange(2)],
            "Income": self.rng.randrange(INCOME_MAX),
            "City": CITIES[self.rng.randrange(len(CITIES))],
            "Team": self.team,
        }
        request = {
            "op": "create",
            "database": "Staff",
            "class": "Person",
            "value": record,
        }
        return Op("create", request, write=("create", record))

    # -- applying acknowledged writes ----------------------------------

    def apply(self, op: Op, result) -> None:
        """Fold an acknowledged write into the model."""
        if op.write[0] == "create":
            index = result["oid"]["$oid"][1] - 1
            self.records[index] = dict(op.write[1])
            return
        index, attribute, value = op.write
        self.records[index][attribute] = value


def reply_lines(output: str) -> List[str]:
    """The result lines of an ``execute`` reply, sorted, without the
    trailing count line."""
    lines = output.split("\n")
    if lines and (
        lines[-1].endswith("result(s))") or lines[-1] == "(no results)"
    ):
        lines = lines[:-1]
    return sorted(line for line in lines if line)
