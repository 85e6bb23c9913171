"""The four seeded workloads, the systems they drive, and one run of each.

Load comes only from this process: one thread per client, each with its
own persistent ``http.client`` connection, in a closed loop (a client
sends its next request only after the previous reply has arrived).
Served workloads talk to a ``python -m repro.server --port 0`` subprocess
with default flags; ``engine-direct`` calls the engine in this process.
Every operation is recorded and checked against
:mod:`benchmarks.ledger.oracle` after the loop has stopped, so checking
takes no time inside the measured window.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import http.client
import itertools
import json
import os
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.engine.engine import Engine
from repro.logic.parser import parse
from repro.logic.signature import GRAPH
from repro.server import wire
from repro.server.service import DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE
from repro.structures.structure import Structure

from . import host, oracle
from .spans import Recorder, install
from .stats import percentile, self_times

ROOT = Path(__file__).resolve().parents[2]
TENANT = "ledger"
#: Closed-loop time before each measured window, discarded.
WARMUP_S = 3.0
#: Set-ups per plain run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Share of reads (and of engine-direct writes) checked row for row.
SAMPLE_RATE = 0.1
#: Engine-direct reads between two writes.
READS_PER_WRITE = 3
#: Answer-cache entries of the engine-direct write engine (see EngineSession);
#: small enough that the warm-up fills it with writes within WARMUP_S.
WRITER_CACHE = 32
#: Layers whose self time counts as the program's; ``op`` is the
#: engine-direct caller's own frame and is not.
PROGRAM_LAYERS = (
    "http.handler", "service", "wire.parse", "wire.digest", "wire.encode",
    "resilience", "engine", "engine.plan", "executor.tuple", "executor.columnar",
    "incremental.changed", "incremental.patch", "structures.update",
)  # fmt: skip


@dataclass
class Op:
    """One operation as the client saw it, with what its check needs."""

    kind: str  # "read" or "write"
    client: int
    key: str  # X-Trace-Id sent, or the span root of an in-process call
    start: float
    end: float
    ok: bool  # the system answered without an error
    query: str = ""
    total: int = -1  # answer rows the system reported
    rows: frozenset | tuple | None = None  # page or fingerprint of a sampled read
    answers: dict | None = None  # fingerprint per query of an engine-direct operation
    delta: tuple | None = None  # ("insert" | "delete", edge) of a write
    dirtied: tuple = ()  # queries_dirtied of a served write
    maintained: int = 0  # answers of maintained queries read after a write
    cpu: float = 0.0  # seconds the program's thread ran on a CPU for it
    slowdown: float = 1.0  # the host's, read around it (lockstep workloads)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def reference_seconds(self) -> float:
        """Its time at reference host speed (see :mod:`benchmarks.ledger.host`):
        the CPU part over the host's slowdown, the rest (waiting on timers,
        the network or the other client) as measured."""
        return self.seconds - self.cpu + self.cpu / self.slowdown


@dataclass
class Window:
    """The operations of one closed-loop window and the time they took."""

    ops: list[Op]
    elapsed: float  # wall seconds until the last client stopped, less readings
    client_seconds: float  # summed over clients
    waited: float  # seconds clients spent waiting for each other, summed

    @property
    def throughput(self) -> float:
        return len(self.ops) / self.elapsed

    @property
    def reference_throughput(self) -> float:
        """Throughput with each operation taking its reference time."""
        measured = sum(op.seconds for op in self.ops)
        return self.throughput * measured / sum(op.reference_seconds for op in self.ops)


def closed_loop(steps: list, seconds: float, lockstep: bool, min_rounds: int = 0) -> Window:
    """Run each client's step repeatedly, one thread per client, for at
    least ``seconds`` and ``min_rounds`` steps.

    ``lockstep`` starts every client's step together.  Where operations
    differ widely in cost, free-running clients drift in phase, so how
    often one client's expensive operation overlaps the other's cheap
    ones changes from run to run and moves the read percentiles by more
    than their bounds; in lockstep the seeded schedule fixes the overlap.
    Between rounds, with no operation running, lockstep also reads the
    host's speed (:func:`benchmarks.ledger.host.reading`), and gives each
    operation the mean of the readings before and after its round as its
    ``slowdown``.  The readings' time is left out of ``elapsed``.
    """
    outs: list[list[Op]] = [[] for _ in steps]
    round_ends: list[list[int]] = [[] for _ in steps]  # len(outs[i]) after each round
    ends = [0.0] * len(steps)
    rounds = [0] * len(steps)
    waited = [0.0] * len(steps)
    readings: list[float] = []
    reading_seconds = [0.0]
    errors: list[BaseException] = []
    start = time.perf_counter()
    stop = start + seconds
    go = [True]

    def keep_going(index: int) -> bool:
        return time.perf_counter() < stop or rounds[index] < min_rounds

    def decide() -> None:  # runs before every round, and once after the last
        go[0] = keep_going(0)
        began = time.perf_counter()
        readings.append(host.reading())
        reading_seconds[0] += time.perf_counter() - began

    barrier = threading.Barrier(len(steps), action=decide) if lockstep else None

    def drive(index: int) -> None:
        try:
            while True:
                if barrier is None:
                    running = keep_going(index)
                else:
                    arrived = time.perf_counter()
                    barrier.wait()
                    waited[index] += time.perf_counter() - arrived
                    running = go[0]
                if not running:
                    break
                steps[index](outs[index])
                round_ends[index].append(len(outs[index]))
                rounds[index] += 1
        except threading.BrokenBarrierError:
            pass  # another client failed; its error is re-raised below
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)
            if barrier is not None:
                barrier.abort()
        finally:
            ends[index] = time.perf_counter()

    threads = [threading.Thread(target=drive, args=(i,), daemon=True) for i in range(len(steps))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    if lockstep:
        for out, offsets in zip(outs, round_ends, strict=True):
            for r, (first, last) in enumerate(zip([0, *offsets], offsets)):
                for op in out[first:last]:
                    op.slowdown = (readings[r] + readings[r + 1]) / 2
    return Window(
        [op for out in outs for op in out],
        max(ends) - start - reading_seconds[0],
        sum(end - start for end in ends),
        sum(waited),
    )


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def first_page(rows: frozenset) -> frozenset:
    """The rows of page 0 in the server's canonical (``repr``) order."""
    return frozenset(sorted(rows, key=repr)[:DEFAULT_PAGE_SIZE])


def fingerprint(rows: frozenset, sampled: bool) -> tuple[int, int | None]:
    """An in-process answer set, kept as its size and, when sampled, its hash.

    Keeping the sets would hold superseded answers alive, so the
    process's peak memory would grow with the number of writes run.
    """
    return len(rows), hash(rows) if sampled else None


def read_ok(op: Op, expected: frozenset) -> bool:
    """Whether a served read reported the right count and, if sampled,
    the expected first page."""
    if not op.ok or op.total != len(expected):
        return False
    return op.rows is None or op.rows == first_page(expected)


def answers_ok(op: Op, expected: dict[str, frozenset]) -> bool:
    """Whether an engine-direct operation's answers have the expected
    sizes, and, where sampled, the expected rows."""
    return op.ok and all(
        op.answers[name] == fingerprint(rows, op.answers[name][1] is not None)
        for name, rows in expected.items()
    )


# -- systems -----------------------------------------------------------------


class Server:
    """A ``repro.server`` subprocess and one persistent connection per client.

    ``traced`` starts it through :mod:`benchmarks.ledger.launcher`, which
    records spans and prints them on its stdout when the server stops.
    """

    def __init__(self, clients: int, traced: bool) -> None:
        self.connections: list[http.client.HTTPConnection] = []
        self.keys = [itertools.count() for _ in range(clients)]
        self.traced = traced
        module = "benchmarks.ledger.launcher" if traced else "repro.server"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self.process = subprocess.Popen(
            [sys.executable, "-m", module, "--port", "0"],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            port = self._port()
            self.connections = [
                http.client.HTTPConnection("127.0.0.1", port, timeout=120) for _ in range(clients)
            ]
            self.handlers = [self._connect(connection) for connection in self.connections]
        except BaseException:
            self.close()
            raise
        self.steps: list = []
        self.primed: dict = {}
        self.warmup_rounds = 0

    def _port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"repro.server did not start (first line {line!r})")
        return int(line.rsplit(":", 1)[1])

    def _connect(self, connection: http.client.HTTPConnection) -> str:
        """Open ``connection``; return the id of the server thread serving it.

        ``ThreadingHTTPServer`` serves each connection on a thread of its
        own, started when it accepts the connection, so connections are
        opened one at a time and each is matched to the thread it started.
        """
        tasks = f"/proc/{self.process.pid}/task"
        before = set(os.listdir(tasks))
        connection.connect()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            started = set(os.listdir(tasks)) - before
            if len(started) == 1:
                return started.pop()
            if started:
                raise RuntimeError(f"repro.server started {len(started)} threads for one connection")
            time.sleep(0.001)
        raise RuntimeError("repro.server started no thread for a new connection")

    def _cpu(self, client: int) -> float:
        """Seconds the thread serving ``client`` has run on a CPU; 0 once
        it has ended (a failed connection is served by a new thread)."""
        try:
            with open(f"/proc/{self.process.pid}/task/{self.handlers[client]}/schedstat") as stat:
                return int(stat.read().split()[0]) / 1e9
        except FileNotFoundError:
            return 0.0

    def key(self, client: int) -> str:
        return f"{client:02x}{next(self.keys[client]):010x}"

    def post(
        self, client: int, path: str, body: dict, key: str | None = None
    ) -> tuple[int, dict | None, float, float, float]:
        """POST JSON; return (status, payload, start, end, cpu) with status
        0 when the connection failed, and ``cpu`` the seconds the server
        thread ran for it.  Decoding happens after ``end``."""
        headers = {"Content-Type": "application/json"}
        if key is not None:
            headers["X-Trace-Id"] = key
        data = json.dumps(body).encode()
        connection = self.connections[client]
        cpu = self._cpu(client)
        start = time.perf_counter()
        try:
            connection.request("POST", path, data, headers)
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            return 0, None, start, time.perf_counter(), 0.0
        end = time.perf_counter()
        cpu = max(0.0, self._cpu(client) - cpu)
        return response.status, json.loads(raw), start, end, cpu

    def call(self, client: int, path: str, body: dict) -> dict:
        """A set-up request, which must succeed."""
        status, payload, _, _, _ = self.post(client, path, body)
        if status != 200:
            raise RuntimeError(f"set-up request {path} failed with {status}: {payload}")
        return payload

    def read_all(self, client: int, body: dict) -> frozenset:
        payload = self.call(client, "/v1/answers", {**body, "page_size": MAX_PAGE_SIZE})
        if payload["has_more"]:
            raise RuntimeError(f"set-up read over {MAX_PAGE_SIZE} rows: {body}")
        return wire.answers_from_wire(payload["rows"])

    def read(self, client: int, body: dict, query: str, keep: bool) -> Op:
        key = self.key(client)
        status, payload, start, end, cpu = self.post(client, "/v1/answers", body, key)
        op = Op("read", client, key, start, end, status == 200, query=query, cpu=cpu)
        if op.ok:
            op.total = payload["total_rows"]
            if keep:
                op.rows = wire.answers_from_wire(payload["rows"])
        return op

    def counters(self) -> dict:
        self.connections[0].request("GET", "/metrics")
        metrics = json.loads(self.connections[0].getresponse().read())
        caches = metrics["caches"]
        return {
            "answer_hits": caches["answer"]["hits"],
            "answer_lookups": caches["answer"]["lookups"],
            "plan_hits": caches["plan"]["hits"],
            "plan_lookups": caches["plan"]["lookups"],
            "patched": metrics["engine"]["answers_patched"],
            "degradations": sum(t["degradations"] for t in metrics["tenants"].values()),
        }

    def rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def close(self) -> dict | None:
        """Stop the server and wait for it; return its spans when traced."""
        for connection in self.connections:
            connection.close()
        if self.process.poll() is None:
            self.process.terminate()
        try:
            out, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, _ = self.process.communicate()
        lines = out.splitlines()
        return json.loads(lines[-1]) if self.traced and lines else None


class EngineSession:
    """The engine-direct system, in process: a read engine per caller over
    the random graph, and one write engine over the callers' grids.

    Reads and writes use different engines because every write leaves
    entries for superseded grid contents in the answer cache, and
    ``Engine.invalidate`` scans that whole cache: on one engine, a zoo
    read would time the scan more than the executor.  The write engine's
    answer cache only ever holds superseded contents, which a step never
    reads again (maintenance patches from the engine's answer index, not
    from that cache), so it is kept small: at the default 1024 entries
    it held ~190 MB of dead answer sets, and full collections scanning
    them took a tenth of the run, in pauses of up to 160 ms.
    """

    def __init__(self, workload: EngineDirect, traced: bool) -> None:
        zoo = {name: parse(text) for name, text in workload.texts.items()}
        maintained = {name: parse(text) for name, text in oracle.GRID_QUERIES.items()}
        order = list(zoo)
        workload.rng("order").shuffle(order)
        self.recorder: Recorder | None = None
        self.writer = Engine(answer_cache_size=WRITER_CACHE)
        self.engines = [self.writer]
        self.primed: dict = {}
        self.steps = [
            self._caller(workload, client, zoo, maintained, order)
            for client in range(workload.clients)
        ]
        # Warm up until every answer-cache entry of the write engine comes
        # from a write: from then on its size, and the process's memory,
        # no longer depend on how many writes the run has made.
        writes = self.writer.answer_cache.capacity // (len(maintained) * workload.clients) + 1
        self.warmup_rounds = (READS_PER_WRITE + 1) * writes
        # Installed last, so a failed set-up leaves nothing wrapped.
        if traced:
            self.recorder = Recorder()
            self._uninstall = install(self.recorder)

    def _caller(self, workload: EngineDirect, client: int, zoo: dict, maintained: dict, order: list):
        reader, writer = Engine(), self.writer
        self.engines.append(reader)
        edges, extras = workload.grids[client]
        graph = Structure(GRAPH, workload.graph_nodes, {"E": workload.graph_edges})
        grid = Structure(GRAPH, workload.grid_nodes, {"E": edges})
        for name, formula in zoo.items():
            self.primed["graph", client, name] = reader.answers(graph, formula)
        for name, formula in maintained.items():
            self.primed["grid", client, name] = writer.answers(grid, formula)

        sample, writes = workload.rng("sample", client), workload.rng("writes", client)
        shadow, queue = set(edges), collections.deque(extras)
        keys = itertools.count()
        turns = itertools.cycle(["read"] * READS_PER_WRITE + ["write"])
        inserting = True

        def read():
            reader.invalidate(graph)
            return {name: reader.answers(graph, zoo[name]) for name in order}

        def call(kind: str, work) -> tuple[Op, object]:
            key = f"{client:02x}{next(keys):010x}"
            root = contextlib.nullcontext() if self.recorder is None else self.recorder.root(key, "op")
            with root:
                cpu = time.thread_time()
                start = time.perf_counter()
                try:
                    result, ok = work(), True
                except Exception:  # noqa: BLE001 — a failed call is a failed op
                    result, ok = None, False
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
            return Op(kind, client, key, start, end, ok, cpu=cpu), result

        def step(out: list[Op]) -> None:
            """One operation: the next of three reads, then a write."""
            nonlocal inserting
            if next(turns) == "read":
                op, answers = call("read", read)
                if op.ok:
                    keep = sample.random() < SAMPLE_RATE
                    op.answers = {name: fingerprint(rows, keep) for name, rows in answers.items()}
                out.append(op)
                return
            if inserting:
                delta = ("insert", oracle.new_edge(workload.grid_nodes, shadow, writes))
            else:
                delta = ("delete", queue[0])

            def write():
                (grid.insert if delta[0] == "insert" else grid.delete)("E", delta[1])
                return {name: writer.answers(grid, f) for name, f in maintained.items()}

            op, answers = call("write", write)
            op.delta, op.maintained = delta, len(maintained)
            if op.ok:
                keep = sample.random() < SAMPLE_RATE
                op.answers = {name: fingerprint(rows, keep) for name, rows in answers.items()}
                inserting = not inserting
                if delta[0] == "insert":
                    shadow.add(delta[1])
                    queue.append(delta[1])
                else:
                    shadow.discard(delta[1])
                    queue.popleft()
            out.append(op)

        return step

    def counters(self) -> dict:
        def total(cache: str, field: str) -> int:
            return sum(getattr(engine, cache).snapshot()[field] for engine in self.engines)

        return {
            "answer_hits": total("answer_cache", "hits"),
            "answer_lookups": total("answer_cache", "lookups"),
            "plan_hits": total("plan_cache", "hits"),
            "plan_lookups": total("plan_cache", "lookups"),
            "patched": sum(engine.stats.answers_patched for engine in self.engines),
            "degradations": 0,
        }

    def rss_mb(self) -> float:
        return vm_hwm_mb()

    def close(self) -> dict | None:
        if self.recorder is None:
            return None
        self._uninstall()
        return self.recorder.dump()


# -- workloads ---------------------------------------------------------------


class Workload:
    """One seeded traffic mix: its inputs, set-up, client steps and checks."""

    name = ""
    clients = 1
    served = True
    #: Whether clients start each step together (see :func:`closed_loop`).
    lockstep = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, *purpose: object) -> random.Random:
        return random.Random("/".join(str(part) for part in (self.seed, self.name, *purpose)))

    def open(self, traced: bool):
        """Start the system and make it ready; timed as ``setup_s``."""
        raise NotImplementedError

    def check_setup(self, session) -> int:
        """Number of set-up answer sets that differ from the expected ones."""
        raise NotImplementedError

    def verify(self, ops: list[Op]) -> tuple[int, dict]:
        """Failed operations among ``ops`` (in client order) and write stats."""
        raise NotImplementedError


class ZooReads(Workload):
    """``served-prepared`` and ``served-adhoc``: the zoo corpus, read again
    and again by two clients in one seeded order, the second client half
    a cycle behind the first.

    Ad-hoc reads run in lockstep, so the expensive ``out-dominated``
    always runs beside the same cheap query and never beside itself: two
    copies at once contend for the server's GIL, and p95 then timed that
    contention, at 470-630 ms where one copy alone took 245-265 ms.
    Prepared reads all cost the same and run free: in lockstep, a client
    that waits for the other idles long enough for the kernel to stop
    delaying its ACKs, and whether one connection flips to 2 ms reads
    for a whole run then decides p50.
    """

    clients = 2

    def __init__(self, seed: int, name: str, nodes: int, prepared: bool) -> None:
        super().__init__(seed)
        self.name, self.prepared, self.lockstep = name, prepared, not prepared
        self.nodes = list(range(nodes))
        self.edges = oracle.random_edges(nodes, 0.1, seed)
        self.payload = wire.structure_to_dict(Structure(GRAPH, self.nodes, {"E": self.edges}))
        self.texts = oracle.zoo_texts()
        self.expected = oracle.expected(list(self.texts), self.nodes, self.edges)

    def open(self, traced: bool) -> Server:
        server = Server(self.clients, traced)
        try:
            structure_id = server.call(
                0, "/v1/structures", {"tenant": TENANT, "structure": self.payload}
            )["structure_id"]
            bodies = {}
            for name, text in self.texts.items():
                body = {"tenant": TENANT, "structure_id": structure_id}
                if self.prepared:
                    server.call(0, "/v1/queries", {**body, "name": name, "formula": text})
                    bodies[name] = {**body, "query": name}
                else:
                    bodies[name] = {**body, "formula": text}
                server.primed[name] = server.read_all(0, bodies[name])
            server.steps = [self._reader(server, c, bodies) for c in range(self.clients)]
        except BaseException:
            server.close()
            raise
        return server

    def _reader(self, server: Server, client: int, bodies: dict):
        names = list(bodies)
        self.rng("order").shuffle(names)
        behind = client * len(names) // self.clients
        order = itertools.cycle(names[behind:] + names[:behind])
        sample = self.rng("sample", client)

        def step(out: list[Op]) -> None:
            name = next(order)
            out.append(server.read(client, bodies[name], name, sample.random() < SAMPLE_RATE))

        return step

    def check_setup(self, session: Server) -> int:
        return sum(session.primed[name] != self.expected[name] for name in self.texts)

    def verify(self, ops: list[Op]) -> tuple[int, dict]:
        return sum(not read_ok(op, self.expected[op.query]) for op in ops), {}


class ServedUpdates(Workload):
    """Each client is a tenant owning an n=1024 grid with three prepared
    queries; it writes one tuple, then reads all three on the new id."""

    name = "served-updates"
    clients = 2
    lockstep = True
    side = 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        grids = [oracle.grid(self.side, self.side, self.rng("grid", c)) for c in range(self.clients)]
        self.nodes = grids[0][0]
        self.grids = [(edges, extras) for _, edges, extras in grids]
        self.payloads = [
            wire.structure_to_dict(Structure(GRAPH, self.nodes, {"E": edges}))
            for edges, _ in self.grids
        ]
        self.initial = [
            oracle.expected(list(oracle.GRID_QUERIES), self.nodes, edges)
            for edges, _ in self.grids
        ]

    def open(self, traced: bool) -> Server:
        server = Server(self.clients, traced)
        try:
            for client, payload in enumerate(self.payloads):
                tenant = f"tenant-{client}"
                structure_id = server.call(
                    client, "/v1/structures", {"tenant": tenant, "structure": payload}
                )["structure_id"]
                for name, text in oracle.GRID_QUERIES.items():
                    body = {"tenant": tenant, "structure_id": structure_id}
                    server.call(client, "/v1/queries", {**body, "name": name, "formula": text})
                    server.primed[client, name] = server.read_all(client, {**body, "query": name})
                server.steps.append(self._writer(server, client, tenant, structure_id))
        except BaseException:
            server.close()
            raise
        return server

    def _writer(self, server: Server, client: int, tenant: str, structure_id: str):
        edges, extras = self.grids[client]
        shadow, queue = set(edges), collections.deque(extras)
        writes, sample = self.rng("writes", client), self.rng("sample", client)
        inserting = True

        def step(out: list[Op]) -> None:
            nonlocal structure_id, inserting
            if inserting:
                delta = ("insert", oracle.new_edge(self.nodes, shadow, writes))
            else:
                delta = ("delete", queue[0])
            update = {
                "op": delta[0],
                "relation": "E",
                "row": [wire.encode_element(value) for value in delta[1]],
            }
            key = server.key(client)
            status, payload, start, end, cpu = server.post(
                client,
                f"/v1/structures/{structure_id}/updates",
                {"tenant": tenant, "updates": [update]},
                key,
            )
            op = Op("write", client, key, start, end, status == 200, delta=delta, cpu=cpu)
            if op.ok:
                structure_id = payload["structure_id"]
                op.dirtied = tuple(payload["queries_dirtied"])
                inserting = not inserting
                if delta[0] == "insert":
                    shadow.add(delta[1])
                    queue.append(delta[1])
                else:
                    shadow.discard(delta[1])
                    queue.popleft()
            out.append(op)
            for name in oracle.GRID_QUERIES:
                body = {"tenant": tenant, "structure_id": structure_id, "query": name}
                read = server.read(client, body, name, sample.random() < SAMPLE_RATE)
                read.maintained = 1
                out.append(read)

        return step

    def check_setup(self, session: Server) -> int:
        return sum(
            rows != self.initial[client][name] for (client, name), rows in session.primed.items()
        )

    def verify(self, ops: list[Op]) -> tuple[int, dict]:
        """Replay each client's writes on a shadow edge set: every read must
        match the shadow, and every query whose answers changed must be in
        the write's ``queries_dirtied``."""
        names = list(oracle.GRID_QUERIES)
        failed = changed_total = dirtied_total = writes = 0
        for client, (edges, _) in enumerate(self.grids):
            shadow, current = oracle.Shadow(self.nodes, edges), self.initial[client]
            for op in (op for op in ops if op.client == client):
                if op.kind == "read":
                    failed += not read_ok(op, current[op.query])
                    continue
                if not op.ok:
                    failed += 1
                    continue
                shadow.apply(*op.delta)
                after = shadow.answers(names)
                changed = {name for name in names if after[name] != current[name]}
                failed += not changed <= set(op.dirtied)
                current = after
                writes += 1
                changed_total += len(changed)
                dirtied_total += len(op.dirtied)
        return failed, {
            "dirtied_per_write": dirtied_total / writes if writes else 0.0,
            "dirtied_precision": changed_total / dirtied_total if dirtied_total else 0.0,
        }


class EngineDirect(Workload):
    """Direct engine calls, no server: one caller doing three reads of
    the whole zoo that always execute, then one write to an n=4096 grid
    and the three maintained queries.

    A read is the whole zoo, not one query: the zoo's costs span three
    orders of magnitude, so the median of single-query reads fell on a
    0.2 ms query, and moved by a third between sets of seeded runs.
    """

    name = "engine-direct"
    served = False
    side = 64
    #: With one caller, lockstep only marks where each operation starts
    #: and ends, which is where the host's speed is read.
    lockstep = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph_nodes = list(range(120))
        self.graph_edges = oracle.random_edges(120, 0.05, seed)
        self.texts = oracle.zoo_texts()
        self.expected = oracle.expected(list(self.texts), self.graph_nodes, self.graph_edges)
        grids = [oracle.grid(self.side, self.side, self.rng("grid", c)) for c in range(self.clients)]
        self.grid_nodes = grids[0][0]
        self.grids = [(edges, extras) for _, edges, extras in grids]
        self.initial = [
            oracle.expected(list(oracle.GRID_QUERIES), self.grid_nodes, edges)
            for edges, _ in self.grids
        ]

    def open(self, traced: bool) -> EngineSession:
        return EngineSession(self, traced)

    def check_setup(self, session: EngineSession) -> int:
        expected = {}
        for client in range(self.clients):
            expected |= {("graph", client, name): rows for name, rows in self.expected.items()}
            expected |= {("grid", client, name): rows for name, rows in self.initial[client].items()}
        return sum(session.primed[key] != rows for key, rows in expected.items())

    def verify(self, ops: list[Op]) -> tuple[int, dict]:
        """Replay each write on a shadow: every read's zoo answers and every
        write's maintained answers must have the expected sizes, and
        sampled ones the expected rows."""
        names = list(oracle.GRID_QUERIES)
        failed = 0
        for client, (edges, _) in enumerate(self.grids):
            shadow = oracle.Shadow(self.grid_nodes, edges)
            for op in (op for op in ops if op.client == client):
                if op.kind == "read":
                    failed += not answers_ok(op, self.expected)
                    continue
                if not op.ok:
                    failed += 1
                    continue
                shadow.apply(*op.delta)
                failed += not answers_ok(op, shadow.answers(names))
        return failed, {}


WORKLOADS = {
    "served-prepared": lambda seed: ZooReads(seed, "served-prepared", 60, prepared=True),
    "served-adhoc": lambda seed: ZooReads(seed, "served-adhoc", 40, prepared=False),
    "served-updates": ServedUpdates,
    "engine-direct": EngineDirect,
}


# -- one run -------------------------------------------------------------------


@dataclass
class Phase:
    """One set-up, warm-up and measured window on a fresh system."""

    window: Window
    ops: list[Op]  # warm-up and measured operations, for the checks
    setup_checks: int
    setup_failures: int
    rss_mb: float
    before: dict  # counters at the start of the window
    after: dict
    dump: dict | None  # spans, when traced
    setups: list[float]  # seconds per set-up
    setup_slowdowns: list[float]  # the host's slowdown around each


def run_phase(workload: Workload, seconds: float, traced: bool, repeats: int) -> Phase:
    """Set up ``repeats`` times keeping the last system, warm up, measure.

    Each set-up starts after a full collection, so it is not timed
    collecting the garbage the previous one left, and sits between two
    readings of the host's speed.
    """
    setups: list[float] = []
    slowdowns: list[float] = []
    session = None
    for _ in range(repeats):
        if session is not None:
            session.close()
            session = None
        gc.collect()
        before = host.reading()
        start = time.perf_counter()
        session = workload.open(traced)
        setups.append(time.perf_counter() - start)
        slowdowns.append((before + host.reading()) / 2)
    try:
        setup_failures = workload.check_setup(session)
        warm = closed_loop(session.steps, WARMUP_S, workload.lockstep, session.warmup_rounds)
        before = session.counters()
        window = closed_loop(session.steps, seconds, workload.lockstep)
        after = session.counters()
        rss = session.rss_mb()
    finally:
        dump = session.close()
    return Phase(
        window, warm.ops + window.ops, len(session.primed), setup_failures,
        rss, before, after, dump, setups, slowdowns,
    )  # fmt: skip


def run(name: str, seed: int, seconds: float, trace: bool, spans_out: Path | None = None) -> dict:
    """One run of one workload: the result object plus printable notes.

    A plain run reports the end-to-end metrics.  A traced run measures
    half the time on a plain system and half on a traced one, and reports
    the per-layer metrics, with the ratio of the two throughputs as
    ``trace.overhead``; ``spans_out`` receives each measured operation's
    client interval next to the spans recorded for it.
    """
    workload = WORKLOADS[name](seed)
    wrong = oracle.check_against_reference(seed)
    if trace:
        phases = [
            run_phase(workload, seconds / 2, traced=False, repeats=1),
            run_phase(workload, seconds / 2, traced=True, repeats=1),
        ]
    else:
        phases = [run_phase(workload, seconds, traced=False, repeats=SETUP_REPEATS)]
    attempted = len(oracle.zoo_texts()) + len(oracle.GRID_QUERIES)
    failed = len(wrong)
    for phase in phases:
        phase_failed, info = workload.verify(phase.ops)
        attempted += phase.setup_checks + len(phase.ops)
        failed += phase.setup_failures + phase_failed
    if trace:
        metrics = per_layer(workload, phases[0], phases[1], info)
        if spans_out is not None:
            recorded = phases[1].dump["spans"]
            spans_out.write_text(json.dumps({
                op.key: {"kind": op.kind, "client": [op.start, op.end], "spans": recorded.get(op.key)}
                for op in phases[1].window.ops
            }))  # fmt: skip
    else:
        metrics = end_to_end(workload, phases[0])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes(workload, phases[-1], wrong),
    }


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(workload: Workload, phase: Phase) -> dict:
    """The end-to-end metrics of a plain phase.

    Times are at reference host speed (see :mod:`benchmarks.ledger.host`):
    each operation's CPU part over the slowdown read around it (in
    lockstep workloads), and, in process, each set-up over the slowdown
    read around it.
    """
    reads = [op.reference_seconds for op in phase.window.ops if op.kind == "read"]
    p50, _ = percentile(reads, 50)
    p95, _ = percentile(reads, 95)
    setups = phase.setups
    if not workload.served:
        setups = [s / slow for s, slow in zip(setups, phase.setup_slowdowns, strict=True)]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "read_p50_ms": (_ms(p50), "ms"),
        "read_p95_ms": (_ms(p95), "ms"),
        "throughput_ops": (phase.window.reference_throughput, "ops/s"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
    }


def per_layer(workload: Workload, plain: Phase, traced: Phase, info: dict) -> dict:
    """Per-layer metrics of the traced window.

    A layer's ``.share`` is its self time over the summed latency of the
    window's operations, so the shares add up to ``layer.coverage``;
    ``trace.op_ms`` is that latency per operation.  Time a client spends
    outside its operations, other than waiting for the other client in
    lockstep, is the load generator's own: ``loadgen.client_ms``.
    """
    ops = traced.window.ops
    spans, rebuilds = traced.dump["spans"], traced.dump["rebuilds"]
    totals: dict[str, float] = collections.Counter()
    runs = collections.Counter()
    transport, joined = 0.0, []
    for op in ops:
        trace = spans.get(op.key)
        if trace is None:
            continue
        joined.append(op.key)
        if workload.served:
            transport += op.seconds - (trace[0][2] - trace[0][1])
        totals.update(self_times([tuple(span) for span in trace]))
        runs.update(span[0] for span in trace)
    busy = sum(op.seconds for op in ops)
    writes = sum(op.kind == "write" for op in ops)
    maintained = sum(op.maintained for op in ops)
    executions = runs["executor.tuple"] + runs["executor.columnar"]
    rebuilt = 0
    if joined:
        rebuilt = max(rebuilds[k][1] for k in joined) - min(rebuilds[k][0] for k in joined)
    delta = {key: traced.after[key] - traced.before[key] for key in traced.before}

    def share(seconds: float) -> tuple[float, str]:
        return seconds / busy, "ratio"

    def rate(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    attributed = transport + sum(totals[layer] for layer in PROGRAM_LAYERS)
    metrics = {
        "http.transport.share": share(transport),
        **{f"{layer}.share": share(totals[layer]) for layer in PROGRAM_LAYERS},
        "engine.self_ms": (_ms(totals["engine"] / len(ops)), "ms"),
        "engine.answer_cache.hit_rate": (
            rate(delta["answer_hits"], delta["answer_lookups"]),
            "ratio",
        ),
        "engine.plan_cache.hit_rate": (rate(delta["plan_hits"], delta["plan_lookups"]), "ratio"),
        "executor.columnar_run_share": (rate(runs["executor.columnar"], executions), "ratio"),
        "columnar.codec_rebuilds": (rate(rebuilt, writes), "count"),
        "incremental.patch_rate": (rate(delta["patched"], maintained), "ratio"),
        "incremental.dirtied_precision": (info.get("dirtied_precision", 0.0), "ratio"),
        "service.dirtied_per_write": (info.get("dirtied_per_write", 0.0), "count"),
        "resilience.degradations": (1000.0 * delta["degradations"] / len(ops), "1/kop"),
        "loadgen.client_ms": (
            _ms((traced.window.client_seconds - traced.window.waited - busy) / len(ops)),
            "ms",
        ),
        "layer.coverage": share(attributed),
        "trace.overhead": (
            traced.window.reference_throughput / plain.window.reference_throughput,
            "ratio",
        ),
        "trace.op_ms": (_ms(busy / len(ops)), "ms"),
    }
    return metrics


def notes(workload: Workload, phase: Phase, wrong: list[str]) -> list[str]:
    """Human-readable context for the printed table: samples, writes, the
    host's speed, errors.  Times here are as measured, not corrected."""
    window = phase.window
    lines = [f"operations {len(window.ops)} in {window.elapsed:.3f} s"]
    for kind in ("read", "write"):
        seconds = [op.seconds for op in window.ops if op.kind == kind]
        if seconds:
            p50, _ = percentile(seconds, 50)
            p95, used = percentile(seconds, 95)
            lines.append(
                f"{kind}s {len(seconds)}: p50 {_ms(p50):.3f} ms, "
                f"p{used:.0f} {_ms(p95):.3f} ms"
            )
    setups = " ".join(f"{s:.3f}" for s in phase.setups)
    slowdowns = " ".join(f"{s:.3f}" for s in phase.setup_slowdowns)
    lines.append(f"set-ups {setups} s at host slowdown {slowdowns}")
    cpu = sum(op.cpu for op in window.ops) / sum(op.seconds for op in window.ops)
    lines.append(f"program CPU over operation time {cpu:.3f}")
    if workload.lockstep:
        slowdowns = [op.slowdown for op in window.ops]
        lines.append(
            f"host slowdown around operations: median {statistics.median(slowdowns):.4f}, "
            f"range {min(slowdowns):.4f}-{max(slowdowns):.4f}"
        )
    if wrong:
        lines.append(f"answer comprehensions disagreeing with the reference: {wrong}")
    return lines
