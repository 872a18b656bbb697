"""The repository's benchmark: closed-loop workloads over the IDL compiler
and the ORB, end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload unary_giop --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each run prints readable lines and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run measures the same window untraced, then again with every layer
wrapped, and reports the per-layer metrics.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from service import usage, use_source_tree

HERE = Path(__file__).resolve().parent
#: Where traced runs write their spans (inside the checkout).
OUT = HERE.parent / ".perfbench_out"

#: Set-ups before the timed window and again after it; ``setup_s`` is
#: the median of all of them and the one the window runs on.  The
#: host's speed moves by a fifth from one second to the next, so
#: set-ups taken in one burst all see the same phase.
SETUPS_EACH_SIDE = 4
#: Closed-loop warm-up before each timed window.
WARMUP_S = 1.0
#: Length of the traced window, as a share of ``--seconds``.
TRACED_SHARE = 0.3
#: Round trips of the floor ping-pong.
FLOOR_ROUNDS = 3000


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def frame_cache_counts():
    from repro.wire.bufferplan import wire_buffer_stats

    stats = wire_buffer_stats()["frame_cache"]
    return stats["hits"], stats["hits"] + stats["misses"]


def measure(workload, seconds):
    """Warm up, then one timed window with CPU and cache accounting."""
    workload.loop(WARMUP_S)
    server = workload.server
    client_before = usage()
    server_before = server.ask("usage") if server else None
    cache_before = frame_cache_counts()
    window = workload.loop(seconds)
    cache_after = frame_cache_counts()
    client_after = usage()
    server_after = server.ask("usage") if server else None
    window.extra["client_cpu_s"] = (client_after["cpu_s"]
                                    - client_before["cpu_s"]
                                    - window.check_cpu_s)
    window.extra["client_ctx"] = (client_after["ctx_switches"]
                                  - client_before["ctx_switches"])
    window.extra["client_rss_mb"] = client_after["maxrss_kb"] / 1024
    window.extra["cache"] = (cache_after[0] - cache_before[0],
                             cache_after[1] - cache_before[1])
    if server is not None:
        window.extra["server_cpu_s"] = (server_after["cpu_s"]
                                        - server_before["cpu_s"])
        window.extra["server_ctx"] = (server_after["ctx_switches"]
                                      - server_before["ctx_switches"])
        window.extra["server_rss_mb"] = server_after["maxrss_kb"] / 1024
    else:
        window.extra.update(server_cpu_s=0.0, server_ctx=0,
                            server_rss_mb=0.0)
    return window


def rate(window):
    """Verified calls per second over the whole window, the wall time
    the benchmark spent checking outputs taken out."""
    return window.calls / (window.elapsed_s - window.check_s)


def end_to_end(window, setup_s):
    calls = window.calls
    extra = window.extra
    cpu = extra["client_cpu_s"] + extra["server_cpu_s"]
    return {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (rate(window), "1/s"),
        "latency_p50_us": (percentile(window.latencies, 0.50) * 1e6, "us"),
        "latency_p90_us": (percentile(window.latencies, 0.90) * 1e6, "us"),
        "cpu_us_per_call": (cpu / calls * 1e6, "us"),
        "rss_mb": (extra["client_rss_mb"] + extra["server_rss_mb"], "MiB"),
    }


def split_cpus():
    """Pin this process to one CPU and return the CPUs for servers.

    Client and server then never compete for a CPU, as on two hosts,
    and the scheduler cannot move them onto one CPU mid-run (on a
    two-CPU host that placement alone swings the RPC rates by 50%).
    With a single CPU both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus
    os.sched_setaffinity(0, cpus[:1])
    return cpus[1:]


def floor_pingpong_us(request_bytes, reply_bytes, cpus):
    """Median bare TCP round trip between two processes, same frames."""
    import socket

    from workloads import ServerProcess

    server = ServerProcess("floor", cpus=cpus)
    try:
        with socket.create_connection((server.hello["host"],
                                       server.hello["port"])) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(request_bytes.to_bytes(4, "big")
                         + reply_bytes.to_bytes(4, "big"))
            request = bytes(request_bytes)
            buffer = bytearray(reply_bytes)
            view = memoryview(buffer)
            samples = []
            for _ in range(FLOOR_ROUNDS):
                sent = perf_counter()
                sock.sendall(request)
                got = 0
                while got < reply_bytes:
                    count = sock.recv_into(view[got:])
                    if not count:
                        raise RuntimeError("floor server hung up")
                    got += count
                samples.append(perf_counter() - sent)
    finally:
        server.close()
    return statistics.median(samples) * 1e6


#: Span names whose self time is work done for a call (``*.wait`` spans
#: are blocking and belong to the floor and the other side).
CLIENT_SELF = ("client.stub", "client.orb", "client.connection",
               "client.communicator", "client.aio", "client.wire.emit",
               "client.wire.parse", "client.transport.send")
SERVER_SELF = ("server.wire.parse", "server.orb", "server.skeleton",
               "server.servant", "server.wire.emit", "server.transport.send")


#: The span summary of a process with nothing traced.
IDLE = {"self_s": {}, "counters": {}}


def per_layer(untraced, traced, client=IDLE, server=IDLE, floor_us=None):
    """The per-layer metrics of the ORB, from the untraced window and
    the traced one; without a floor (``compile_idl``) they read 0."""
    calls = traced.calls

    def per_call_us(summary, name):
        # Work is thread CPU time; waiting (``*.wait``) is wall time.
        clock = "self_s" if name.endswith(".wait") else "self_cpu_s"
        return summary.get(clock, {}).get(name, 0.0) / calls * 1e6

    def count(summary, name):
        return summary["counters"].get(name, 0) / calls

    extra = untraced.extra
    metrics = {}
    for name in ("stub", "orb", "connection", "communicator", "aio"):
        metrics[f"client.{name}.self_us"] = (
            per_call_us(client, f"client.{name}"), "us")
    metrics.update({
        "client.wire.emit_us": (per_call_us(client, "client.wire.emit"), "us"),
        "client.wire.parse_us": (
            per_call_us(client, "client.wire.parse"), "us"),
        "client.transport.send_us": (
            per_call_us(client, "client.transport.send"), "us"),
        "client.transport.sends": (count(client, "sends"), "count"),
        "client.transport.wait_us": (
            per_call_us(client, "client.transport.wait"), "us"),
        "client.transport.recvs": (count(client, "recvs"), "count"),
        "client.ctx_switches": (extra["client_ctx"] / untraced.calls,
                                "count"),
        "client.cpu_us_per_call": (
            extra["client_cpu_s"] / untraced.calls * 1e6, "us"),
        "client.rss_mb": (extra["client_rss_mb"], "MiB"),
        "server.wire.parse_us": (
            per_call_us(server, "server.wire.parse"), "us"),
        "server.queue_wait_us": (
            server["counters"].get("queue_wait_s", 0.0) / calls * 1e6, "us"),
        "server.orb.self_us": (per_call_us(server, "server.orb"), "us"),
        "server.skeleton.self_us": (
            per_call_us(server, "server.skeleton"), "us"),
        "server.servant_us": (per_call_us(server, "server.servant"), "us"),
        "server.wire.emit_us": (per_call_us(server, "server.wire.emit"), "us"),
        "server.transport.send_us": (
            per_call_us(server, "server.transport.send"), "us"),
        "server.transport.sends": (count(server, "sends"), "count"),
        "server.replies_per_send": (
            server["counters"].get("replies", 0)
            / max(1, server["counters"].get("sends", 0)), "count"),
        "server.ctx_switches": (extra["server_ctx"] / untraced.calls,
                                "count"),
        "server.cpu_us_per_call": (
            extra["server_cpu_s"] / untraced.calls * 1e6, "us"),
        "server.rss_mb": (extra["server_rss_mb"], "MiB"),
        "wire.bytes": (count(client, "send_bytes")
                       + count(server, "send_bytes"), "bytes"),
        "wire.copied_bytes": (count(client, "copied_bytes")
                              + count(server, "copied_bytes"), "bytes"),
        "wire.frame_cache_hit_ratio": (
            extra["cache"][0] / extra["cache"][1] if extra["cache"][1]
            else 0.0, "ratio"),
    })
    self_us = (sum(per_call_us(client, name) for name in CLIENT_SELF)
               + sum(per_call_us(server, name) for name in SERVER_SELF))
    p50_us = percentile(untraced.latencies, 0.50) * 1e6
    # Self times are means per call, so they add up to the mean latency;
    # the median of a skewed latency mix is no sum of means.
    mean_us = statistics.fmean(untraced.latencies) * 1e6
    residual_us = 0.0 if floor_us is None else mean_us - floor_us - self_us
    metrics.update({
        "floor.pingpong_us": (floor_us or 0.0, "us"),
        "self_sum_us": (self_us, "us"),
        "residual_us": (residual_us, "us"),
        "untraced.latency_mean_us": (mean_us, "us"),
        "untraced.latency_p50_us": (p50_us, "us"),
        "untraced.latency_p99_us": (
            percentile(untraced.latencies, 0.99) * 1e6, "us"),
        "untraced.latency_samples": (len(untraced.latencies), "count"),
        "untraced.calls_per_s": (rate(untraced), "1/s"),
        "traced.calls_per_s": (rate(traced), "1/s"),
    })
    return metrics


def compile_layers(window=None, template_s=0.0):
    """The compile stage metrics, per 1000 IDL lines compiled through
    all five packs; without a compile window (RPC workloads) they read 0.
    """
    from workloads import COMPILE_STAGES, PACKS

    if window is None:
        return {**{f"compile.{stage}_ms": (0.0, "ms")
                   for stage in COMPILE_STAGES},
                "compile.template_compile_ms": (0.0, "ms"),
                "compile.generated_kb": (0.0, "KiB"),
                "compile.idl_lines_per_s": (0.0, "lines/s")}
    extra = window.extra
    kilo_lines = extra["lines"] / len(PACKS) / 1000
    metrics = {f"compile.{stage}_ms": (
        extra["stages_s"][stage] / kilo_lines * 1e3, "ms")
        for stage in COMPILE_STAGES}
    metrics["compile.template_compile_ms"] = (template_s * 1e3, "ms")
    metrics["compile.generated_kb"] = (
        extra["generated_bytes"] / 1024 / kilo_lines, "KiB")
    metrics["compile.idl_lines_per_s"] = (
        kilo_lines * 1000 / (window.elapsed_s - window.check_s), "lines/s")
    return metrics


def run_workload(name, seed, seconds, trace, server_cpus=None):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, server_cpus)
    times, template_times = [], []
    started = perf_counter()

    def set_up():
        begun = perf_counter()
        workload.start()
        times.append(perf_counter() - begun)
        if name == "compile_idl":
            template_times.append(workload.template_compile_s)

    try:
        for _ in range(SETUPS_EACH_SIDE):
            set_up()
            workload.stop()
        set_up()
        untraced = measure(workload, seconds)
        workload.stop()
        for _ in range(SETUPS_EACH_SIDE):
            set_up()
            workload.stop()
    finally:
        workload.stop()
    setup_s = statistics.median(times)
    windows = [untraced]
    if not trace:
        metrics = end_to_end(untraced, setup_s)
    elif workload.name == "compile_idl":
        # Pipeline.run times its own stages; nothing needs wrapping.
        metrics = per_layer(untraced, untraced)
        metrics.update(compile_layers(untraced,
                                      statistics.median(template_times)))
    else:
        from tracer import Tracer

        tracer = Tracer()
        try:
            workload.start(tracer)
            workload.loop(WARMUP_S)
            workload.server.ask("trace on")
            tracer.enabled = True
            traced = workload.loop(seconds * TRACED_SHARE)
            tracer.enabled = False
            workload.server.ask("trace off")
            OUT.mkdir(exist_ok=True)
            server_summary = workload.server.ask(
                f"summary {OUT / (name + '.server.spans')}")
        finally:
            tracer.enabled = False
            workload.stop()
        tracer.write(OUT / f"{name}.client.spans")
        client_summary = tracer.summary()
        windows.append(traced)
        calls = traced.calls
        request_bytes = round(client_summary["counters"].get("send_bytes", 0)
                              / max(1, client_summary["counters"].get(
                                  "sends", 0)))
        reply_bytes = round(server_summary["counters"].get("send_bytes", 0)
                            / max(1, server_summary["counters"].get(
                                "sends", 0)))
        floor_us = floor_pingpong_us(max(1, request_bytes),
                                     max(1, reply_bytes), server_cpus)
        metrics = per_layer(untraced, traced, client_summary,
                            server_summary, floor_us)
        metrics.update(compile_layers())
        _print_reconciliation(name, metrics, calls)
    errors = [error for window in windows for error in window.errors]
    failed = sum(window.failed for window in windows)
    # A failed call also lands in errors; a wrong reply only there.
    wrong = len(errors) - failed
    for error in errors[:5]:
        print(f"{name}: {error}")
    print(f"{name}: {sum(w.attempted for w in windows)} attempted, "
          f"{failed} failed, {wrong} wrong, run took "
          f"{perf_counter() - started:.1f} s")
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit}")
    return {
        "correct": wrong == 0,
        "attempted": sum(window.attempted for window in windows),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def _print_reconciliation(name, metrics, calls):
    value = {metric: entry[0] for metric, entry in metrics.items()}
    print(f"{name}: reconciliation of the untraced mean latency: "
          f"floor {value['floor.pingpong_us']:.1f} + self "
          f"{value['self_sum_us']:.1f} + residual "
          f"{value['residual_us']:.1f} = "
          f"{value['untraced.latency_mean_us']:.1f} us "
          f"(latency_p50_us {value['untraced.latency_p50_us']:.1f} us)")
    print(f"{name}: tracing overhead: {value['traced.calls_per_s']:.1f} "
          f"calls/s traced against {value['untraced.calls_per_s']:.1f} "
          f"untraced ({calls} traced calls)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    from workloads import WORKLOADS

    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            # One process per workload, so peak RSS is the workload's own.
            output = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            lines = output.strip().splitlines()
            print("\n".join(lines[:-1]))
            results[name] = json.loads(lines[-1])
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, result in results.items()
                        for metric, value in result["metrics"].items()},
        }))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          split_cpus())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
