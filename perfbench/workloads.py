"""The three closed-loop workloads, client side.

Each workload object has the same life cycle, driven by ``run.py``:

- ``start(tracer=None)`` is the set-up the ``setup_s`` metric times:
  it spawns the server child, generates the stubs, connects and makes
  the first verified call (or, for ``compile_idl``, builds fresh
  mapping packs and makes the first verified compile);
- ``loop(seconds)`` runs the closed loop and returns a :class:`Window`;
- ``stop()`` tears everything down.

Checking replies is the benchmark's own work: its wall time and the CPU
time of the checking thread are measured and left out of the metrics.
"""

import asyncio
import hashlib
import json
import os
import select
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import checks
import inputs
from service import generate_service

HERE = Path(__file__).resolve().parent

#: The mapping packs ``compile_idl`` compiles every unit through.
PACKS = ("heidi_cpp", "corba_cpp", "java_rmi", "tcl_orb", "python_rmi")
#: The ``Pipeline.run`` stages reported per 1000 IDL lines.
COMPILE_STAGES = ("lint", "parse", "build_est", "emit_est_program",
                  "generate")
#: IDL files in the seeded corpus.
CORPUS_UNITS = 120
#: ``unary_giop`` requests prepared per seed (cycled in order).
UNARY_REQUESTS = 1024
#: ``aio_giop_mixed``: calls kept in flight, share that block, and the
#: length of the seeded blocking plan (one round).  The in-flight count
#: and the share are synthetic values chosen so that the executor path
#: and queueing behind a blocked call both show; no measured traffic
#: stands behind them.  With one blocking call in every ten and seven
#: calls queued behind it, about four short calls in five wait for one
#: sleep and the rest for none, and none waits for two: the p50 and the
#: p90 both fall inside the group that waited for one sleep, away from
#: the steps on either side of it.
AIO_INFLIGHT = 8
AIO_BLOCKING_SHARE = 0.1
AIO_ROUND = 1000


@dataclass
class Window:
    """What one timed closed-loop window produced."""

    elapsed_s: float = 0.0
    calls: int = 0
    attempted: int = 0
    failed: int = 0
    #: Seconds per latency sample (see each workload for the population).
    latencies: list = field(default_factory=list)
    #: The benchmark's own checking, left out of rate and CPU: the wall
    #: and the CPU seconds it took.
    check_s: float = 0.0
    check_cpu_s: float = 0.0
    errors: list = field(default_factory=list)
    #: Workload-specific extras (compile stage times, cache counters).
    extra: dict = field(default_factory=dict)

    def completed(self, latency=None):
        self.calls += 1
        if latency is not None:
            self.latencies.append(latency)


class ServerProcess:
    """A server child over stdin/stdout pipes; see ``server.py``."""

    #: Seconds to wait for any answer from the child.
    TIMEOUT_S = 120

    def __init__(self, workload, trace=0, cpus=None):
        self._buffer = b""
        command = [sys.executable, str(HERE / "server.py"),
                   "--workload", workload, "--trace", str(trace)]
        if cpus:
            command += ["--cpus", ",".join(map(str, sorted(cpus)))]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        try:
            self.hello = self._read()
        except BaseException:
            self.close()
            raise

    def _read(self):
        deadline = perf_counter() + self.TIMEOUT_S
        stdout = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise TimeoutError("server child did not answer")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                chunk = os.read(stdout, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"server child exited ({self.proc.poll()})")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


class _Checker:
    """Times the benchmark's own checking so it can be left out."""

    def __init__(self, window):
        self.window = window

    def __enter__(self):
        self._wall = perf_counter()
        self._cpu = thread_time()
        return self

    def __exit__(self, *exc):
        self.window.check_cpu_s += thread_time() - self._cpu
        self.window.check_s += perf_counter() - self._wall


class _RpcWorkload:
    name = ""
    kind = "blocking"

    def __init__(self, seed, server_cpus=None):
        self.seed = seed
        self.server_cpus = server_cpus
        self.server = None
        self.client = None

    def start(self, tracer=None):
        self.server = ServerProcess(self.name, trace=int(tracer is not None),
                                    cpus=self.server_cpus)
        namespace = generate_service()
        if tracer is not None:
            from layers import install_client

            stubs = [namespace[n] for n in namespace if n.endswith("_stub")]
            install_client(tracer, self.kind, stubs)
        self._connect(namespace)

    def stop(self):
        try:
            if self.client is not None:
                self._disconnect()
        finally:
            self.client = None
            if self.server is not None:
                self.server.close()
                self.server = None

    def _disconnect(self):
        self.client.stop()


class UnaryGiop(_RpcWorkload):
    """One thread, blocking stub calls on one exclusive GIOP connection.

    Each call sends a sequence of structs whose length is drawn from a
    seeded log-uniform distribution; the reply is checked item by item
    against the transform computed here.  Latency: one sample per call.
    """

    name = "unary_giop"

    def __init__(self, seed, server_cpus=None):
        super().__init__(seed, server_cpus)
        self.plan = inputs.make_unary_requests(seed, UNARY_REQUESTS)
        self.requests = None

    def _request(self, index):
        items, salt = self.plan[index]
        return [self.item_class(id=i, weight=w, label=s)
                for i, w, s in items], salt

    def _connect(self, namespace):
        from repro.heidirmi import Orb

        self.item_class = namespace["Bench_Item"]
        self.client = Orb(transport="tcp", protocol="giop")
        self.stub = self.client.resolve(self.server.hello["ref"])
        items, salt = self._request(0)
        error = checks.check_transform(
            items, salt, self.stub.transform(items, salt))
        if error:
            raise RuntimeError(f"first call wrong: {error}")

    def loop(self, seconds):
        if self.requests is None:  # built once, outside any timing
            self.requests = [self._request(index)
                             for index in range(len(self.plan))]
        window = Window()
        transform, requests = self.stub.transform, self.requests
        count = len(requests)
        index = 0
        start = perf_counter()
        end = start + seconds
        while True:
            items, salt = requests[index % count]
            index += 1
            window.attempted += 1
            sent = perf_counter()
            try:
                result = transform(items, salt)
            except Exception as exc:  # a failed call is counted, not fatal
                window.failed += 1
                window.errors.append(repr(exc))
                if window.failed > 100:
                    break
                continue
            done = perf_counter()
            window.completed(done - sent)
            with _Checker(window):
                error = checks.check_transform(items, salt, result)
                if error:
                    window.errors.append(error)
            if done >= end:
                break
        window.elapsed_s = perf_counter() - start
        return window


class AioGiopMixed(_RpcWorkload):
    """A single-threaded coroutine client keeps a fixed number of GIOP
    calls in flight against ``AioOrbServer``.  A seeded share of them
    block in the servant; each carries a unique token.  Latency: one
    sample per short (non-blocking) call."""

    name = "aio_giop_mixed"
    kind = "aio"

    def __init__(self, seed, server_cpus=None):
        super().__init__(seed, server_cpus)
        self.plan = inputs.make_blocking_plan(seed, AIO_ROUND,
                                              AIO_BLOCKING_SHARE, AIO_INFLIGHT)
        self.loop_ = None

    def _connect(self, namespace):
        from repro.heidirmi.protocol import get_protocol
        from repro.wire.aio import AioClientConnection

        self.protocol = get_protocol("giop")
        self.target = self.server.hello["ref"]
        self.loop_ = asyncio.new_event_loop()
        self.client = self.loop_.run_until_complete(AioClientConnection.open(
            self.protocol, self.server.hello["host"],
            self.server.hello["port"]))
        value = self.loop_.run_until_complete(self._call("first", False))
        if value != "first":
            raise RuntimeError("first call wrong")

    def _disconnect(self):
        try:
            self.loop_.run_until_complete(self.client.close())
        finally:
            self.loop_.close()

    async def _call(self, token, block):
        from repro.heidirmi.call import Call

        call = Call(self.target, "work",
                    marshaller=self.protocol.new_marshaller())
        call.put_string(token)
        call.put_boolean(block)
        reply = await self.client.invoke(call)
        if not reply.is_ok:
            raise RuntimeError(f"call {token} failed: {reply.repo_id}")
        return reply.get_string()

    def loop(self, seconds):
        return self.loop_.run_until_complete(self._loop(seconds))

    async def _loop(self, seconds):
        window = Window()
        plan, rounds = self.plan, len(self.plan)
        next_index = 0
        start = perf_counter()
        end = start + seconds

        async def caller():
            nonlocal next_index
            while perf_counter() < end:
                index = next_index
                next_index += 1
                block = plan[index % rounds]
                token = f"a{index}"
                window.attempted += 1
                sent = perf_counter()
                try:
                    value = await self._call(token, block)
                except Exception as exc:  # counted, not fatal
                    window.failed += 1
                    window.errors.append(repr(exc))
                    if window.failed > 100:
                        return
                    continue
                done = perf_counter()
                window.completed(None if block else done - sent)
                with _Checker(window):
                    error = checks.check_tokens([token], [value])
                    if error:
                        window.errors.append(error)

        await asyncio.gather(*(caller() for _ in range(AIO_INFLIGHT)))
        window.elapsed_s = perf_counter() - start
        return window


class CompileIdl:
    """Compiles the seeded IDL corpus through all five mapping packs,
    lint on, one unit after another.  One call is one ``Pipeline.run``
    of one unit through one pack; latency is one sample per call."""

    name = "compile_idl"
    server = None

    def __init__(self, seed, server_cpus=None):
        self.corpus = inputs.make_corpus(seed, CORPUS_UNITS)
        self.template_compile_s = None
        #: (unit, pack) -> digest of a checked output
        self._digests = {}

    def start(self):
        from repro.compiler.pipeline import Pipeline
        from repro.mappings.registry import get_pack

        # Fresh pack instances: each compiles its templates again.
        self.pipelines = {name: Pipeline(get_pack(name), lint=True)
                          for name in PACKS}
        source, shape = inputs.make_setup_unit()
        results = {name: pipeline.run(source, filename=shape.filename)
                   for name, pipeline in self.pipelines.items()}
        self.template_compile_s = sum(
            result.timings["compile_template"] for result in results.values())
        error = self._check(shape, results)
        if error:
            raise RuntimeError(f"first compile wrong: {error}")

    def stop(self):
        self.pipelines = None

    def _check(self, shape, results):
        """Full checks of one unit's five outputs."""
        python = results["python_rmi"]
        (module_source,) = python.files.values()
        error = checks.check_python_rmi(module_source, shape)
        for name, result in results.items():
            if error is None and name != "python_rmi":
                error = checks.check_names(result.files, shape, name)
        if error is None:
            rebuilt = self.pipelines["python_rmi"].load_est_program(
                python.est_program)
            error = checks.check_est_roundtrip(python.est, rebuilt, shape)
        return error

    def loop(self, seconds):
        window = Window()
        stages = dict.fromkeys(COMPILE_STAGES, 0.0)
        lines = generated = 0
        units = len(self.corpus)
        unit = 0
        start = perf_counter()
        end = start + seconds
        while True:
            source, shape = self.corpus[unit % units]
            results = {}
            for name, pipeline in self.pipelines.items():
                window.attempted += 1
                sent = perf_counter()
                try:
                    result = pipeline.run(source, filename=shape.filename)
                except Exception as exc:  # counted, not fatal
                    window.failed += 1
                    window.errors.append(f"{shape.filename}: {exc!r}")
                    continue
                done = perf_counter()
                window.completed(done - sent)
                results[name] = result
                lines += shape.lines
                for stage in stages:
                    stages[stage] += result.timings[stage]
            with _Checker(window):
                for name, result in results.items():
                    generated += sum(len(text) for text in result.files.values())
                error = self._check_repeat(unit % units, results)
                if error:
                    window.errors.append(error)
            unit += 1
            if perf_counter() >= end:
                break
        window.elapsed_s = perf_counter() - start
        window.extra = {"stages_s": stages, "lines": lines,
                        "generated_bytes": generated}
        return window

    def _check_repeat(self, unit, results):
        if len(results) != len(PACKS):
            return None  # the failure is already counted
        if (unit, PACKS[0]) not in self._digests:
            for name, result in results.items():
                self._digests[unit, name] = _digest(result.files)
            return self._check(self.corpus[unit][1], results)
        for name, result in results.items():
            if _digest(result.files) != self._digests[unit, name]:
                return f"unit {unit}: {name} output differs between compiles"
        return None


def _digest(files):
    hasher = hashlib.blake2b(digest_size=16)
    for path in sorted(files):
        hasher.update(path.encode())
        hasher.update(b"\0")
        hasher.update(files[path].encode())
        hasher.update(b"\0")
    return hasher.digest()


WORKLOADS = {workload.name: workload for workload in
             (CompileIdl, UnaryGiop, AioGiopMixed)}
