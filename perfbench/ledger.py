"""Per-layer measurement from outside the program: a counting pass and a
traced pass.

* The counting pass counts interpreter calls with ``sys.setprofile`` and
  files each under the ``repro`` package whose code it ran.  The
  in-process datapath is deterministic, so two counts over the same
  inputs on fresh deployments must agree exactly.
* The traced pass wraps each layer's public entry points, on the objects
  of one deployment, with ``perf_counter_ns`` spans kept in memory.  A
  layer's self time is its spans' duration minus the part their child
  spans cover; whatever the layers do not cover (the closed loop itself)
  is reported as unattributed, so the ledger always sums to wall time.

Nothing in the program is edited: wrappers are set as attributes of the
deployment's own objects, which are discarded after the pass, and, for
the host's response encoder, of the ``repro.offload.engine`` module
during traced rounds only.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: repro packages whose interpreter calls are reported one by one
PY_CALL_PACKAGES = ("xrpc", "offload", "core", "rdma", "memory", "proto",
                    "runtime", "abi")

#: layers of the traced pass, in datapath order
LAYERS = (
    "xrpc.call",       # client encode and framing
    "xrpc.frontend",   # DPU front end: frame decode, lanes, response reframe
    "offload.decode",  # arena estimate_size + deserialize
    "offload.dpu",     # DpuEngine.call minus decode (incl. block enqueue)
    "core.client",     # DpuEngine.progress minus fabric and front end
    "rdma.fabric",     # fabric transmit / step
    "core.server",     # HostEngine.progress minus handler, encode, fabric
    "offload.view",    # servicer: view reads plus business logic
    "proto.encode",    # host response encode (sizing + emit)
    "xrpc.poll",       # client response frame decode and parse
)


# ---------------------------------------------------------------------------
# Counting pass
# ---------------------------------------------------------------------------


class CallCounter:
    """Counts Python-level calls per ``repro`` package while installed."""

    def __init__(self, repro_root: str) -> None:
        self._prefix = os.path.join(os.path.abspath(repro_root), "")
        self._package_of: dict[str, str | None] = {}
        self.counts: Counter = Counter()
        #: ``AddressSpace.region_of`` calls (one per translated access)
        self.region_lookups = 0
        self._profile = None

    def _classify(self, filename: str) -> str | None:
        if not filename.startswith(self._prefix):
            return None
        rest = filename[len(self._prefix):]
        head, sep, _ = rest.partition(os.sep)
        return head if sep else "top"

    def pause(self) -> None:
        """Stop counting until :meth:`resume` (for the benchmark's own
        reads of program objects)."""
        sys.setprofile(None)

    def resume(self) -> None:
        if self._profile is not None:
            sys.setprofile(self._profile)

    def excluding(self, fn):
        """``fn`` run with counting paused."""
        pause, resume = self.pause, self.resume

        def uncounted(*args, **kwargs):
            pause()
            try:
                return fn(*args, **kwargs)
            finally:
                resume()

        return uncounted

    def __enter__(self) -> "CallCounter":
        package_of = self._package_of
        counts = self.counts
        classify = self._classify

        def profile(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            fn = code.co_filename
            try:
                pkg = package_of[fn]
            except KeyError:
                pkg = package_of[fn] = classify(fn)
            if pkg is not None:
                counts[pkg] += 1
                if pkg == "memory" and code.co_name == "region_of":
                    self.region_lookups += 1

        self._profile = profile
        sys.setprofile(profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        self._profile = None


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------


class SpanLedger:
    """In-memory spans with self-time accounting.

    Each span is ``(name, start_ns, end_ns, parent_index, call_id)``;
    ``parent_index`` is -1 for spans the closed loop opened itself."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()
        self._open: list[list] = []  # [start, child_ns, index] per open span

    def reset(self) -> None:
        self.spans.clear()
        self.self_ns.clear()

    def wrap(self, name: str, fn, call_id_from_result: bool = False):
        """``fn`` timed as a span called ``name``."""
        opened = self._open
        spans = self.spans
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            parent = opened[-1][2] if opened else -1
            frame = [0, 0, len(spans)]
            spans.append(None)
            opened.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                dur = end - start
                self_ns[name] += dur - frame[1]
                if opened:
                    opened[-1][1] += dur
            call_id = result if call_id_from_result else None
            spans[frame[2]] = (name, start, end, parent, call_id)
            return result

        return span

    def trace_events(self, origin_ns: int) -> dict:
        """The spans as a Perfetto ``trace_event`` document."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "ts": 0,
             "args": {"name": "perfbench"}},
        ]
        for index, (name, start, end, parent, call_id) in sorted(
            enumerate(self.spans), key=lambda item: item[1][1]
        ):
            args = {"span": index, "parent": parent}
            if call_id is not None:
                args["call_id"] = call_id
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": (start - origin_ns) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def instrument(stack, ledger: SpanLedger) -> None:
    """Wrap the layer entry points on the objects of an in-process
    deployment.  The servicer must already be wrapped (its methods are
    bound when the deployment registers it), and the host's response
    encoder is wrapped apart, by :func:`traced_encoder`."""
    wrap = ledger.wrap
    dpu, front, host = stack.dpu, stack.front, stack.host
    fabric, channel = stack.rdma.fabric, stack.channel

    # Client side of the closed loop.
    channel.call = wrap("xrpc.call", channel.call, call_id_from_result=True)
    channel.poll = wrap("xrpc.poll", channel.poll)
    # DPU: front end pass, offload call (its response continuation is
    # front-end reframing), arena decode, block protocol progress.
    front.progress = wrap("xrpc.frontend", front.progress)
    dpu_call = dpu.call

    def call(method_id, payload, on_response, *args, **kwargs):
        return dpu_call(method_id, payload, wrap("xrpc.frontend", on_response),
                        *args, **kwargs)

    dpu.call = wrap("offload.dpu", call)
    dpu.progress = wrap("core.client", dpu.progress)
    deserializer = dpu.deserializer
    deserializer.estimate_size = wrap("offload.decode", deserializer.estimate_size)
    deserializer.deserialize = wrap("offload.decode", deserializer.deserialize)
    # Fabric, both directions, and the host's engine pass.
    fabric.transmit = wrap("rdma.fabric", fabric.transmit)
    fabric.step = wrap("rdma.fabric", fabric.step)
    host.progress = wrap("core.server", host.progress)


@contextmanager
def traced_encoder(ledger: SpanLedger):
    """Time the host's response encode (sizing, then the in-block emit)
    as ``proto.encode``.  ``HostEngine`` looks the encoder up in its
    module on every response, so it is swapped there for the duration."""
    import repro.offload.engine as engine_module

    emit_writer = engine_module.emit_writer

    def traced_emit_writer(msg, mode=None):
        size, writer = emit_writer(msg, mode)
        return size, ledger.wrap("proto.encode", writer)

    engine_module.emit_writer = ledger.wrap("proto.encode", traced_emit_writer)
    try:
        yield
    finally:
        engine_module.emit_writer = emit_writer


def wrap_servicer(servicer, ledger: SpanLedger, methods) -> None:
    """Time the business logic (view reads included) as ``offload.view``."""
    for name in methods:
        setattr(servicer, name, ledger.wrap("offload.view", getattr(servicer, name)))


def self_time_table(self_ns: dict, wall_ns: int, calls: int,
                    scale: float = 1.0) -> dict:
    """Per-layer self time in µs per completed call, times ``scale``, plus
    what the layers leave unattributed (the closed loop, the benchmark's
    answer checks and the span bookkeeping)."""
    per_call = scale / 1000.0 / calls
    table = {layer: self_ns.get(layer, 0) * per_call for layer in LAYERS}
    attributed = sum(self_ns.get(layer, 0) for layer in LAYERS)
    table["ledger.unattributed"] = (wall_ns - attributed) * per_call
    return table
