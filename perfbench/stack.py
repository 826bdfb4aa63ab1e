"""Deployment, inputs and the closed loop of the datapath benchmark.

Everything here goes through the program's public constructors:
``create_channel``, ``HostEngine``, ``DpuEngine``, ``OffloadedXrpcServer``
and ``XrpcChannel``.  The benchmark defines its own service on top of
``repro.workloads.WORKLOAD_PROTO``, so what the host computes can be
checked against a result computed apart from the program (NumPy sums,
Python string transforms, the echoed request itself).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import calibrate

BENCH_PROTO_SUFFIX = """
// Two-field answer of the x512 Ints workload.
message IntSum {
  uint64 sum = 1;
  uint32 count = 2;
}

service PerfBench {
  rpc EchoSmall (Small) returns (Small);
  rpc SumInts (IntArray) returns (IntSum);
  rpc UpperChars (CharArray) returns (CharArray);
}
"""

SERVICE = "bench.PerfBench"


def compile_bench_schema():
    """Compile the workload messages plus the benchmark's own service."""
    from repro.proto import compile_schema
    from repro.workloads import WORKLOAD_PROTO

    return compile_schema(WORKLOAD_PROTO + BENCH_PROTO_SUFFIX)


def _no_tick() -> None:
    pass


class PerfServicer:
    """The host's business logic.  Every method reads its request through
    the zero-copy ``CppMessageView`` the DPU built."""

    def __init__(self, schema) -> None:
        self._small = schema["bench.Small"]
        self._int_sum = schema["bench.IntSum"]
        self._chars = schema["bench.CharArray"]
        #: called before each request; the timed run sets it to its
        #: clock's tick, so that the reference kernel also runs inside
        #: long passes of the loop
        self.tick = _no_tick

    def EchoSmall(self, request, context):
        self.tick()
        return self._small(id=request.id, flags=request.flags,
                           payload=request.payload, ok=request.ok)

    def SumInts(self, request, context):
        self.tick()
        values = request.values
        return self._int_sum(sum=sum(values), count=len(values))

    def UpperChars(self, request, context):
        self.tick()
        return self._chars(data=request.data.upper())


# ---------------------------------------------------------------------------
# Workloads and their inputs
# ---------------------------------------------------------------------------


def paper_window() -> int:
    """Outstanding calls of the closed loop: the paper's concurrency per
    connection (Table I; ``ProtocolConfig.concurrency``, 1024)."""
    from repro.core import ProtocolConfig

    return ProtocolConfig().concurrency


@dataclass(frozen=True)
class Shape:
    """One traffic shape: which RPC, with what inputs, measured how."""

    name: str
    method: str          # unqualified RPC name in the PerfBench service
    pool: int            # distinct requests built per seed, cycled in order
    count_calls: int     # completions counted in each counting pass
    trace_calls: int     # completions per untraced or traced segment
    setups: int          # set-ups timed per run (median reported)


SHAPES = {
    "small_rpc": Shape("small_rpc", "EchoSmall", pool=256, count_calls=2048,
                       trace_calls=2048, setups=21),
    "ints_sum": Shape("ints_sum", "SumInts", pool=64, count_calls=1024,
                      trace_calls=1024, setups=21),
    "chars_echo": Shape("chars_echo", "UpperChars", pool=64, count_calls=1024,
                        trace_calls=1024, setups=21),
}


@dataclass
class Inputs:
    """Requests and the expected answer to each, built before any timing."""

    requests: list
    #: checks(i, response) -> bool, computed apart from the program
    check: Callable[[int, object], bool]
    response_cls: type
    request_bytes: int


def build_inputs(shape: Shape, schema, seed: int, pool: int | None = None) -> Inputs:
    """Seeded inputs for ``shape``: the same seed gives the same requests.
    The skewed varint lengths and the 8000-char ASCII strings are those of
    the paper's x512 Ints and x8000 Chars (``repro.workloads``)."""
    from repro.proto import serialize
    from repro.workloads import WorkloadFactory

    factory = WorkloadFactory(seed=seed, schema=schema)
    n = pool or shape.pool
    if shape.method == "EchoSmall":
        requests = [factory.small() for _ in range(n)]
        expected = [(r.id, r.flags, r.payload, r.ok) for r in requests]

        def check(i, rsp):
            return (rsp.id, rsp.flags, rsp.payload, rsp.ok) == expected[i]

        response_cls = schema["bench.Small"]
    elif shape.method == "SumInts":
        cls = schema["bench.IntArray"]
        elements = [factory.int_elements(512) for _ in range(n)]
        requests = [cls(values=[int(v) for v in e]) for e in elements]
        expected = [(int(np.sum(e, dtype=np.uint64)), int(e.size)) for e in elements]

        def check(i, rsp):
            return (rsp.sum, rsp.count) == expected[i]

        response_cls = schema["bench.IntSum"]
    elif shape.method == "UpperChars":
        cls = schema["bench.CharArray"]
        texts = [factory.char_data(8000) for _ in range(n)]
        requests = [cls(data=t) for t in texts]
        expected = [t.upper() for t in texts]

        def check(i, rsp):
            return rsp.data == expected[i]

        response_cls = schema["bench.CharArray"]
    else:  # pragma: no cover - SHAPES names only the three methods above
        raise ValueError(f"unknown method {shape.method!r}")
    size = sum(len(serialize(r)) for r in requests) // n
    return Inputs(requests, check, response_cls, size)


# ---------------------------------------------------------------------------
# The deployment
# ---------------------------------------------------------------------------


class InprocStack:
    """The offloaded datapath in one process on the ``inproc`` fabric:
    xRPC client -> DPU front end -> arena decode -> block protocol ->
    fabric -> host engine and view -> response path."""

    def __init__(self, schema, servicer=None) -> None:
        from repro.core import create_channel
        from repro.offload.engine import DpuEngine, HostEngine
        from repro.xrpc import (
            Network,
            OffloadedXrpcServer,
            XrpcChannel,
            register_offloaded_servicer,
        )

        service = schema.service(SERVICE)
        self.rdma = create_channel(transport="inproc")
        try:
            self.host = HostEngine(self.rdma, schema)
            register_offloaded_servicer(self.host, service,
                                        servicer or PerfServicer(schema))
            self.dpu = DpuEngine(self.rdma)
            self.host.send_bootstrap()
            self.dpu.receive_bootstrap()
            self.net = Network()
            self.front = OffloadedXrpcServer(self.net, "dpu:50051", self.dpu, service)
            self.channel = XrpcChannel(self.net, "dpu:50051", "perfbench")
        except BaseException:
            self.rdma.close()
            raise
        self.method_prefix = f"/{SERVICE}/"

    def pump(self) -> None:
        """One pass of the server side: DPU front end, then host."""
        self.front.progress()
        self.host.progress()

    def counters(self) -> dict:
        """Cumulative per-layer counters, read between measured spans."""
        c, s = self.rdma.client.stats, self.rdma.server.stats
        return {
            "fabric_bytes": self.rdma.fabric.total_bytes,
            "fabric_ops": self.rdma.fabric.total_operations,
            "blocks": c.blocks_sent + s.blocks_sent,
            "messages": c.requests_sent + s.responses_sent,
        }

    def close(self) -> None:
        self.channel.close()
        self.rdma.close()


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


#: passes without a completion after which the loop gives up
MAX_IDLE_PASSES = 200_000


class CallFailed(RuntimeError):
    """Calls stopped completing."""


@dataclass
class Span:
    """What one measured stretch of the closed loop saw."""

    completed: int = 0
    failed: int = 0
    wrong: int = 0
    #: issue and completion clock readings of the calls completed in the
    #: span (compact, so that memory does not grow much with the number
    #: of calls measured)
    issued: array = field(default_factory=lambda: array("q"))
    done: array = field(default_factory=lambda: array("q"))
    #: (wall reading, cpu reading, completed calls) at the start of the
    #: span and at the end of each batch
    marks: list = field(default_factory=list)
    #: the clock's calibrated stretches, when the span was calibrated
    stretches: list = field(default_factory=list)


class ClosedLoop:
    """One connection with ``window`` calls outstanding: a completion
    lets the next call go out, like the paper's fixed-concurrency client.
    Requests cycle through the pre-built input pool in order.

    The window stays full between :meth:`run` calls, so consecutive spans
    measure the steady state; :meth:`drain` waits for the calls in flight.
    The in-process datapath is deterministic: which calls go out, complete
    and are counted depends on the inputs only, never on timing."""

    def __init__(self, stack, inputs: Inputs, method: str, window: int) -> None:
        self.stack = stack
        self.inputs = inputs
        self.path = stack.method_prefix + method
        self.window = window
        self.next_input = 0
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self.wrong = 0
        #: optional wrapper for the completion callback, so that the
        #: measuring passes can keep the benchmark's own answer checks
        #: apart from the program's work
        self.wrap_done = None
        #: the loop's clock, which leaves out the reference kernel's runs
        self.clock = calibrate.ScaledClock()
        self._span: Span | None = None

    def _issue(self) -> None:
        i = self.next_input
        self.next_input = (i + 1) % len(self.inputs.requests)
        check = self.inputs.check
        now, tick = self.clock.now, self.clock.tick
        t0 = now()

        def done(response, status):
            t1 = now()
            self.completed += 1
            ok = status == 0
            right = ok and check(i, response)
            if not ok:
                self.failed += 1
            elif not right:
                self.wrong += 1
            span = self._span
            if span is not None:
                span.completed += 1
                if not ok:
                    span.failed += 1
                elif not right:
                    span.wrong += 1
                span.issued.append(t0)
                span.done.append(t1)
            tick()

        if self.wrap_done is not None:
            done = self.wrap_done(done)
        self.issued += 1
        self.stack.channel.call(self.path, self.inputs.requests[i],
                                self.inputs.response_cls, done)

    def _pass(self, idle: int, refill: bool = True) -> int:
        """Refill the window, then one pass of the server side and the
        client; returns the passes since the last completion."""
        while refill and self.issued - self.completed < self.window:
            self._issue()
        self.stack.pump()
        if self.stack.channel.poll():
            return 0
        if idle >= MAX_IDLE_PASSES:
            raise CallFailed(f"no progress after {idle} passes "
                             f"({self.issued - self.completed} calls outstanding)")
        return idle + 1

    def run(self, calls: int | None = None, seconds: float | None = None,
            batch: int = 0, calibrated: bool = False) -> Span:
        """Keep the window full until ``calls`` more calls completed or,
        with ``seconds``, until that much wall time passed (whole batches
        of at least ``batch`` completions).  Calls stay in flight
        afterwards.

        With ``calibrated``, the loop's clock runs the reference kernel
        (``calibrate.py``) at the start, then at most every
        ``calibrate.EVERY_NS`` between passes and inside them (from the
        completion callbacks and the servicer), and at the end.  The
        kernel's runs count neither in batch times nor in latencies."""
        span = self._span = Span()
        goal = None if calls is None else self.completed + calls
        deadline = None if seconds is None else time.perf_counter_ns() + int(seconds * 1e9)
        clock = self.clock
        if calibrated:
            clock.start()
        span.marks.append((clock.now(), clock.cpu_now(), self.completed))
        batch_goal = self.completed + batch if batch else None
        idle = 0
        try:
            while True:
                idle = self._pass(idle)
                clock.tick()
                if goal is not None and self.completed >= goal:
                    return span
                if batch_goal is not None and self.completed >= batch_goal:
                    span.marks.append((clock.now(), clock.cpu_now(), self.completed))
                    if deadline is not None and time.perf_counter_ns() >= deadline:
                        return span
                    batch_goal = self.completed + batch
        finally:
            if calibrated:
                clock.stop()
                span.stretches = clock.stretches
            self._span = None

    def drain(self) -> None:
        """Issue nothing more and wait until every call has completed."""
        idle = 0
        while self.issued > self.completed:
            idle = self._pass(idle, refill=False)
