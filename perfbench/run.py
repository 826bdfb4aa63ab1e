#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the offloaded RPC datapath.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload small_rpc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload
    python3 perfbench/run.py --selftest                       # minimal sizes

Every workload is a closed loop with the paper's 1024 calls outstanding
(``--window`` sets another count).  ``--trace 0`` times it with program
tracing off and prints the end-to-end metrics; ``--trace 1`` runs the
counting and traced passes and prints the per-layer metrics.  Every line before the last is for
people; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when an answer is
wrong, a call fails or never completes, the two counting passes disagree, the
per-layer ledger does not add up to wall time, or a run leaves a child
process or shared-memory segment behind.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate as C

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: the end-to-end metrics, with their units, printed with ``--trace 0``
END_TO_END = (
    ("rps", "1/s"), ("p50_us", "us"), ("p99_us", "us"), ("cpu_us_per_req", "us"),
    ("py_calls_per_req", "count"), ("wire_bytes_per_req", "B"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
#: seconds of steady-state closed loop before the timed region
WARM_SECONDS = 1.0
#: least consecutive completions per latency chunk, so that 10 latencies
#: lie beyond the p99 of each chunk
TAIL_CHUNK = 1000
#: share of the traced pass's wall time the layers may leave unattributed
MAX_UNATTRIBUTED = 0.10


class BenchFailure(RuntimeError):
    """A check of the benchmark failed; no result is printed."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise BenchFailure(what)


def import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchFailure(f"no program source at {os.path.relpath(SRC)}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(SRC, "")):
        raise BenchFailure(f"repro imported from {repro.__file__}, not {SRC}")
    return os.path.dirname(os.path.abspath(repro.__file__))


# ---------------------------------------------------------------------------
# Set-up, teardown and leak checks
# ---------------------------------------------------------------------------


def check_teardown() -> None:
    """No child process and no shared-memory segment may outlive a run."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass  # no child at all
    else:
        raise BenchFailure("a child process outlived its run")
    if "multiprocessing.shared_memory" in sys.modules:
        # Only the shm transport creates segments; their names embed the
        # creator's pid (``repro.memory.shm.segment_name``).
        leaked = glob.glob(f"/dev/shm/repro-*-{os.getpid()}-*")
        if leaked:
            raise BenchFailure(f"shared-memory segments left behind: {leaked}")


def dispose(stack) -> None:
    """Close a deployment and free its buffers now, so that the peak
    resident size does not depend on when the cyclic collector runs."""
    stack.close()
    gc.collect()


def _first_call(S, shape, seed: int):
    """Set a deployment up and make its first call.  Returns the set-up
    time in ns (input building excluded) and the open deployment."""
    t0 = time.perf_counter_ns()
    schema = S.compile_bench_schema()
    stack = S.InprocStack(schema)
    t1 = time.perf_counter_ns()
    first = S.build_inputs(shape, schema, seed, pool=1)  # not set-up work
    t2 = time.perf_counter_ns()
    try:
        loop = S.ClosedLoop(stack, first, shape.method, window=1)
        loop.run(calls=1)
    except BaseException:
        dispose(stack)
        raise
    t3 = time.perf_counter_ns()
    if loop.completed != 1 or loop.failed or loop.wrong:
        dispose(stack)
        raise BenchFailure("the first call after set-up failed")
    return (t1 - t0) + (t3 - t2), stack, schema


def _setup_in_child(S, shape, seed: int) -> int:
    """One set-up in a forked child, which starts from this process's
    state every time; returns its set-up time in ns."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: measure, report, tear down, leave
        code = 1
        try:
            os.close(read_end)
            ns, stack, _ = _first_call(S, shape, seed)
            os.write(write_end, ns.to_bytes(8, "little"))
            dispose(stack)
            code = 0
        except BaseException as exc:
            print(f"perfbench: set-up child: {type(exc).__name__}: {exc}",
                  file=sys.stderr, flush=True)
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if len(data) != 8 or os.waitstatus_to_exitcode(status) != 0:
        raise BenchFailure("a set-up in a child process failed")
    return int.from_bytes(data, "little")


def timed_setups(S, shape, seed: int, times: int):
    """Time ``times`` set-ups, each from nothing to the first successful
    call: schema compile, channel, bootstrap and codec compile.  Each runs
    in a forked child, so each finds the same memory allocator state; in
    one process, freed channel buffers make every other set-up reuse warm
    pages and run four times faster.  Imports are paid once, untimed,
    first.  Returns the set-up times in s and a compiled schema."""
    _, stack, schema = _first_call(S, shape, seed)
    dispose(stack)
    setups = [_setup_in_child(S, shape, seed) / 1e9 for _ in range(times)]
    check_teardown()
    return setups, schema


def fill(loop) -> None:
    """Complete one window of calls: the codec caches, the block allocator
    and the batching reach their steady state."""
    loop.run(calls=max(loop.window, len(loop.inputs.requests)))


# ---------------------------------------------------------------------------
# Counting pass
# ---------------------------------------------------------------------------


def counting_pass(S, L, shape, schema, inputs, repro_root: str, window: int) -> dict:
    """Count interpreter calls and layer work over ``shape.count_calls``
    completions of a fresh deployment in its steady state: whole periods
    of the closed loop, whose passes repeat with a period of one window
    of completions.  The loop is deterministic, so the same inputs give
    the same counts.  The benchmark's answer checks and its samples of
    program state are not counted.  The pass ends with calls in flight,
    and its deployment is discarded."""
    stack = S.InprocStack(schema)
    try:
        loop = S.ClosedLoop(stack, inputs, shape.method, window)
        counter = L.CallCounter(repro_root)
        loop.wrap_done = counter.excluding
        fill(loop)
        front, host, client = stack.front, stack.host, stack.rdma.client
        passes = forwarded = inflight = 0

        def sampled_pump():
            nonlocal passes, forwarded, inflight
            forwarded += front.progress()
            host.progress()
            passes += 1
            counter.pause()
            inflight += client.outstanding
            counter.resume()

        stack.pump = sampled_pump
        before = stack.counters()
        with counter:
            span = loop.run(calls=shape.count_calls)
        after = stack.counters()
        if loop.failed or loop.wrong:
            raise BenchFailure(f"counting pass: {loop.failed} failed, "
                               f"{loop.wrong} wrong answers")
    finally:
        dispose(stack)
    done = span.completed
    delta = {k: after[k] - before[k] for k in after}
    out = {f"py_calls.{p}": counter.counts.get(p, 0) / done for p in L.PY_CALL_PACKAGES}
    out["py_calls_total"] = sum(counter.counts.values()) / done
    out["memory.lookups_per_req"] = counter.region_lookups / done
    out["wire_bytes_per_req"] = delta["fabric_bytes"] / done
    out["rdma.ops_per_req"] = delta["fabric_ops"] / done
    out["core.blocks_per_req"] = delta["blocks"] / done
    out["core.msgs_per_block"] = delta["messages"] / delta["blocks"]
    out["xrpc.queue_depth"] = forwarded / passes
    out["core.inflight"] = inflight / passes
    return out


def counting_passes(S, L, shape, schema, inputs, repro_root: str, window: int) -> dict:
    """Two counting passes on fresh deployments; every count must repeat
    exactly."""
    first = counting_pass(S, L, shape, schema, inputs, repro_root, window)
    second = counting_pass(S, L, shape, schema, inputs, repro_root, window)
    differing = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    if differing:
        raise BenchFailure(f"counting passes disagree: {differing}")
    return first


# ---------------------------------------------------------------------------
# Timed run (--trace 0)
# ---------------------------------------------------------------------------


def run_timed(S, L, shape, seed: int, seconds: float, repro_root: str,
              window: int):
    """Set-ups, a counting pass, then the closed loop for ``seconds`` with
    program tracing off and the reference kernel between passes.  Rates
    are sampled over batches of one window of completions, which are
    whole periods of the loop's steady state.  The peak resident size is
    read after the counting pass: one deployment with its window full,
    whose calls run in the same order in every run, so that neither
    timing nor the timed run's own records move it."""
    setups, schema = timed_setups(S, shape, seed, shape.setups)
    inputs = S.build_inputs(shape, schema, seed)
    counts = counting_pass(S, L, shape, schema, inputs, repro_root, window)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    servicer = S.PerfServicer(schema)
    stack = S.InprocStack(schema, servicer)
    try:
        loop = S.ClosedLoop(stack, inputs, shape.method, window)
        servicer.tick = loop.clock.tick
        fill(loop)
        loop.run(seconds=min(WARM_SECONDS, seconds), batch=window)
        span = loop.run(seconds=seconds, batch=window, calibrated=True)
        loop.drain()
    finally:
        dispose(stack)
    check_teardown()

    wall_at, cpu_at = C.mapper(span.stretches, 0), C.mapper(span.stretches, 1)
    rates, raw_rates, cpu_per_req = [], [], []
    for (w0, c0, n0), (w1, c1, n1) in zip(span.marks, span.marks[1:]):
        rates.append((n1 - n0) / ((wall_at(w1) - wall_at(w0)) / 1e9))
        raw_rates.append((n1 - n0) / ((w1 - w0) / 1e9))
        cpu_per_req.append((cpu_at(c1) - cpu_at(c0)) / 1e3 / (n1 - n0))
    latencies = [wall_at(d) - wall_at(i) for i, d in zip(span.issued, span.done)]
    chunk = max(window, TAIL_CHUNK)
    chunks = [statistics.quantiles(latencies[i:i + chunk], n=100)
              for i in range(0, len(latencies) - chunk + 1, chunk)]
    if not chunks:  # a run too short for one whole chunk
        chunks = [statistics.quantiles(latencies, n=100)]
    raw_cuts = statistics.quantiles([d - i for i, d in zip(span.issued, span.done)], n=100)
    metrics = {
        "rps": statistics.median(rates),
        "p50_us": statistics.median(c[49] for c in chunks) / 1e3,
        "p99_us": statistics.median(c[98] for c in chunks) / 1e3,
        "cpu_us_per_req": statistics.median(cpu_per_req),
        "py_calls_per_req": counts["py_calls_total"],
        "wire_bytes_per_req": counts["wire_bytes_per_req"],
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setups),
    }
    scales = [scale for _, _, scale in span.stretches]
    (w0, _, n0), (w1, _, n1) = span.marks[0], span.marks[-1]
    total_rate = (n1 - n0) / ((wall_at(w1) - wall_at(w0)) / 1e9)
    print(f"# {shape.name}: window {window}, {len(inputs.requests)} distinct "
          f"requests of {inputs.request_bytes} B, seed {seed}")
    print(f"# machine speed: {len(scales)} stretches, reference kernel scale median "
          f"{statistics.median(scales):.3f} (min {min(scales):.3f}, max {max(scales):.3f}); "
          f"times below are scaled to a {C.REFERENCE_NS / 1e6:g} ms kernel")
    print(f"# raw, unscaled: rps {statistics.median(raw_rates):.1f} 1/s, "
          f"p50 {raw_cuts[49] / 1e3:.1f} us, p99 {raw_cuts[98] / 1e3:.1f} us; "
          f"set-up is not scaled (page faults, not Python, dominate it): "
          f"{[round(x * 1e3, 1) for x in setups]} ms")
    q1, _, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    print(f"# {len(rates)} batches of {window}+ calls: rps q1 {q1:.1f} q3 {q3:.1f} "
          f"min {min(rates):.1f} max {max(rates):.1f}, over the whole run {total_rate:.1f}; "
          f"{len(latencies)} latencies; p50 and p99 are medians over {len(chunks)} "
          f"chunks of {chunk} consecutive completions")
    print(f"# counting pass: {counts['core.msgs_per_block']:.2f} messages per block, "
          f"{counts['rdma.ops_per_req']:.4f} fabric ops and "
          f"{counts['memory.lookups_per_req']:.2f} region lookups per call")
    return loop, metrics


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


def run_traced(S, L, shape, seed: int, seconds: float, repro_root: str,
               window: int):
    """Alternate untraced and traced segments of the same steady-state
    closed loop, on two deployments, for ``seconds``; report the median
    per-layer self time per call."""
    from repro.obs.perfetto import validate_trace_events, write_trace

    schema = S.compile_bench_schema()
    inputs = S.build_inputs(shape, schema, seed)
    counts = counting_passes(S, L, shape, schema, inputs, repro_root, window)

    ledger = L.SpanLedger()
    servicer = S.PerfServicer(schema)
    L.wrap_servicer(servicer, ledger, ("EchoSmall", "SumInts", "UpperChars"))
    plain = S.InprocStack(schema)
    traced = None
    try:
        traced = S.InprocStack(schema, servicer)
        L.instrument(traced, ledger)
        loops = {"plain": S.ClosedLoop(plain, inputs, shape.method, window),
                 "traced": S.ClosedLoop(traced, inputs, shape.method, window)}
        loops["traced"].wrap_done = lambda fn: ledger.wrap("bench.check", fn)
        for loop in loops.values():
            fill(loop)

        tables, walls = [], {"plain": [], "traced": []}
        deadline = time.perf_counter() + seconds
        kernel = C.kernel_ns()
        while not tables or time.perf_counter() < deadline:
            for name, loop in loops.items():
                ledger.reset()
                encoder = (L.traced_encoder(ledger) if name == "traced"
                           else contextlib.nullcontext())
                with encoder:
                    t0 = time.perf_counter_ns()
                    span = loop.run(calls=shape.trace_calls)
                    wall = time.perf_counter_ns() - t0
                after = C.kernel_ns()
                scale = C.REFERENCE_NS / ((kernel + after) / 2)
                kernel = after
                walls[name].append(wall * scale / 1e3 / span.completed)
                if name == "traced":
                    tables.append(L.self_time_table(ledger.self_ns, wall,
                                                    span.completed, scale))
                    origin = t0
        doc = ledger.trace_events(origin)  # the last traced segment's spans
        problems = validate_trace_events(doc)
        if problems:
            raise BenchFailure(f"trace file invalid: {problems[:3]}")
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"{shape.name}-seed{seed}.trace.json")
        write_trace(trace_path, doc)
        ledger.reset()
        for loop in loops.values():
            loop.drain()
    finally:
        dispose(plain)
        if traced is not None:
            dispose(traced)
    check_teardown()

    med = {k: statistics.median(t[k] for t in tables)
           for k in (*L.LAYERS, "ledger.unattributed")}
    wall_traced = statistics.median(walls["traced"])
    wall_plain = statistics.median(walls["plain"])
    print(f"# {shape.name}: window {window}, {len(tables)} traced segments of "
          f"{shape.trace_calls} calls, seed {seed}; spans of the last segment in "
          f"{os.path.relpath(trace_path, ROOT)}")
    print(f"# wall per call: untraced {wall_plain:.1f} us, traced {wall_traced:.1f} us "
          f"(tracing overhead {100 * (wall_traced / wall_plain - 1):.1f}%)")
    print(f"# {'layer':<22}{'self us/call':>14}{'share':>9}")
    for k, v in med.items():
        print(f"# {k:<22}{v:>14.2f}{100 * v / wall_traced:>8.1f}%")
    if med["ledger.unattributed"] > MAX_UNATTRIBUTED * wall_traced:
        raise BenchFailure("per-layer self times leave more than a tenth of the "
                           "traced wall time unattributed")

    metrics = {f"{k}_us": v for k, v in med.items()}
    metrics.update({k: v for k, v in counts.items()
                    if k not in ("py_calls_total", "wire_bytes_per_req")})
    units = {k: ("us" if k.endswith("_us") else "count") for k in metrics}
    attempted = sum(loop.issued for loop in loops.values())
    failed = sum(loop.failed for loop in loops.values())
    wrong = sum(loop.wrong for loop in loops.values())
    return attempted, failed, wrong, metrics, units


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import ledger as L
    import stack as S

    shape = S.SHAPES[args.workload]
    repro_root = import_program()
    window = args.window or S.paper_window()
    if args.trace:
        attempted, failed, wrong, metrics, units = run_traced(
            S, L, shape, args.seed, args.seconds, repro_root, window)
    else:
        loop, metrics = run_timed(S, L, shape, args.seed, args.seconds,
                                  repro_root, window)
        attempted, failed, wrong = loop.issued, loop.failed, loop.wrong
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"attempted {attempted} failed {failed} wrong {wrong}")
    # A call answered with a non-OK status is as much a fault of the
    # datapath as a wrong answer: every workload must run without one.
    correct = wrong == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import stack as S

    status = 0
    for name in S.SHAPES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"## {name} --trace {trace}", flush=True)
            rc = subprocess.run(cmd, cwd=ROOT).returncode
            if rc:
                print(f"## {name} --trace {trace} exited {rc}")
                status = 1
    return status


def selftest(args) -> int:
    """Each workload at minimal size: answers, accounting, counting-pass
    agreement, a closing ledger and a clean teardown.  No timing is
    asserted, so a drifted constructor or call signature fails here."""
    import ledger as L
    import stack as S

    repro_root = import_program()
    for name, full in S.SHAPES.items():
        shape = S.Shape(name, full.method, pool=4, count_calls=8, trace_calls=8,
                        setups=1)
        loop, metrics = run_timed(S, L, shape, args.seed, 0.05, repro_root, window=4)
        require(loop.issued == loop.completed > 0, f"{name}: calls left in flight")
        require(not (loop.failed or loop.wrong), f"{name}: failed or wrong calls")
        require(all(v > 0 for v in metrics.values()), f"{name}: a zero metric {metrics}")
        attempted, failed, wrong, per_layer, _ = run_traced(
            S, L, shape, args.seed, 0.0, repro_root, window=4)
        require(attempted > 0 and not (failed or wrong), f"{name}: traced pass failed")
        require(all(per_layer[f"py_calls.{p}"] > 0 for p in ("xrpc", "core", "memory")),
                f"{name}: no interpreter calls counted")
        print(f"selftest {name}: ok ({loop.completed} calls, "
              f"{metrics['py_calls_per_req']:.1f} py calls/req)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="small_rpc")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--window", type=int, default=0,
                        help="outstanding calls (default: the paper's concurrency, 1024)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    from stack import CallFailed

    try:
        if args.selftest:
            return selftest(args)
        if args.workload == "all":
            return run_all(args)
        import stack as S

        if args.workload not in S.SHAPES:
            parser.error(f"unknown workload {args.workload!r}; pick from "
                         f"{', '.join(S.SHAPES)} or all")
        return run_one(args)
    except (BenchFailure, CallFailed) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
