"""The benchmark's own tests: every output check rejects a wrong answer.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import asyncio
import json
import time
from pathlib import Path

import pytest

from service import use_source_tree

use_source_tree()

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from service import StoreImpl, generate_service  # noqa: E402
from tracer import Tracer, wrap, wrap_coroutine  # noqa: E402
from workloads import PACKS, WORKLOADS, AioGiopMixed  # noqa: E402

from repro.compiler.pipeline import Pipeline  # noqa: E402
from repro.heidirmi import Orb  # noqa: E402
from repro.lint.diagnostics import Severity  # noqa: E402
from repro.mappings.registry import get_pack  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pipelines():
    return {name: Pipeline(get_pack(name), lint=True) for name in PACKS}


def compile_all(pipelines, source, shape):
    return {name: pipeline.run(source, filename=shape.filename)
            for name, pipeline in pipelines.items()}


def full_check(pipelines, source, shape, results):
    python = results["python_rmi"]
    (module,) = python.files.values()
    errors = [checks.check_python_rmi(module, shape)]
    errors += [checks.check_names(result.files, shape, name)
               for name, result in results.items()]
    rebuilt = pipelines["python_rmi"].load_est_program(python.est_program)
    errors.append(checks.check_est_roundtrip(python.est, rebuilt, shape))
    return [error for error in errors if error]


# -- inputs --------------------------------------------------------------------


def test_inputs_follow_the_seed():
    assert ([s for s, _ in inputs.make_corpus(7, 3)]
            == [s for s, _ in inputs.make_corpus(7, 3)])
    assert inputs.make_corpus(7, 1)[0][0] != inputs.make_corpus(8, 1)[0][0]
    assert inputs.make_unary_requests(7, 64) == inputs.make_unary_requests(7, 64)
    assert inputs.make_unary_requests(7, 64) != inputs.make_unary_requests(8, 64)
    plan = inputs.make_blocking_plan(7, 1000, 0.1, 8)
    assert sum(plan) == 100 and plan != inputs.make_blocking_plan(8, 1000, 0.1, 8)
    assert all(sum(plan[start:start + 10]) == 1 for start in range(0, 1000, 10))
    places = [index for index, block in enumerate(plan) if block]
    assert min(b - a for a, b in zip(places, places[1:])) >= 8


def test_corpus_compiles_lint_clean_and_passes_checks(pipelines):
    for source, shape in inputs.make_corpus(11, 6):
        results = compile_all(pipelines, source, shape)
        for result in results.values():
            assert not [d for d in result.lint_diagnostics
                        if Severity.at_least(d.severity, Severity.WARNING)]
        assert full_check(pipelines, source, shape, results) == []


# -- compile checks reject wrong output -----------------------------------------


def test_dropped_operation_is_caught(pipelines):
    source, shape = inputs.make_corpus(12, 1)[0]
    interface = next(iter(shape.interfaces))
    operation = next(iter(shape.interfaces[interface]))
    dropped = "\n".join(line for line in source.splitlines()
                        if f" {operation}(" not in line)
    results = compile_all(pipelines, dropped, shape)
    (module,) = results["python_rmi"].files.values()
    assert "missing" in checks.check_python_rmi(module, shape)


def test_wrong_arity_and_missing_interface_are_caught(pipelines):
    source, shape = inputs.make_corpus(13, 1)[0]
    results = compile_all(pipelines, source, shape)
    (module,) = results["python_rmi"].files.values()
    interface, operations = next(
        (i, ops) for i, ops in shape.interfaces.items() if ops)
    operation = next(iter(operations))
    arity, defaults = operations[operation]
    operations[operation] = (arity + 1, defaults)
    assert "parameters" in checks.check_python_rmi(module, shape)
    operations[operation] = (arity, defaults)
    files = {path: text.replace(interface, "Renamed")
             for path, text in results["java_rmi"].files.items()}
    assert "never names" in checks.check_names(files, shape, "java_rmi")


def test_changed_est_program_is_caught(pipelines):
    source, shape = inputs.make_corpus(14, 1)[0]
    python = pipelines["python_rmi"].run(source, filename=shape.filename)
    loader = pipelines["python_rmi"].load_est_program
    rebuilt = loader(python.est_program)
    assert checks.check_est_roundtrip(python.est, rebuilt, shape) is None
    struct = shape.structs[0]
    changed = loader(python.est_program.replace(f"'{struct}'", "'Other'"))
    assert "different EST" in checks.check_est_roundtrip(
        python.est, changed, shape)


# -- RPC checks reject wrong replies --------------------------------------------


@pytest.fixture(scope="module")
def namespace():
    return generate_service()


def serve(servant):
    server = Orb(transport="tcp", protocol="giop").start()
    client = Orb(transport="tcp", protocol="giop")
    stub = client.resolve(server.register(servant).stringify())
    return server, client, stub


def test_corrupting_servant_is_caught(namespace):
    item = namespace["Bench_Item"]

    class Corrupting(StoreImpl):
        def transform(self, items, salt):
            result = super().transform(items, salt)
            result[-1].label += "!"
            return result

    requests = inputs.make_unary_requests(15, 8)
    for servant, wrong in ((StoreImpl(item), False),
                           (Corrupting(item), True)):
        server, client, stub = serve(servant)
        try:
            for items, salt in requests:
                sent = [item(id=i, weight=w, label=s) for i, w, s in items]
                error = checks.check_transform(
                    sent, salt, stub.transform(sent, salt))
                assert (error is not None) == wrong
        finally:
            client.stop()
            server.stop()


def test_swapped_reply_is_caught():
    tokens = [f"t{index}" for index in range(8)]

    async def in_flight(workload):
        return await asyncio.gather(
            *(workload._call(token, False) for token in tokens))

    workload = AioGiopMixed(16)
    workload.start()
    try:
        values = workload.loop_.run_until_complete(in_flight(workload))
    finally:
        workload.stop()
    assert checks.check_tokens(tokens, values) is None
    values[2], values[5] = values[5], values[2]
    assert "answered call" in checks.check_tokens(tokens, values)
    assert checks.check_tokens(tokens, values[:-1]) is not None


# -- tracing ---------------------------------------------------------------------


def burn(seconds):
    """Spend *seconds* of this thread's CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


class _Layers:
    def outer(self):
        burn(0.002)
        return self.inner()

    def inner(self):
        burn(0.006)
        return "done"

    async def step(self):
        burn(0.002)
        await asyncio.sleep(0.02)
        burn(0.002)
        return "stepped"


def test_self_time_subtracts_child_spans(tmp_path):
    tracer = Tracer()
    wrap(_Layers, "outer", "outer", tracer)
    wrap(_Layers, "inner", "inner", tracer)
    wrap_coroutine(_Layers, "step", "step", tracer)
    layers = _Layers()
    tracer.enabled = True
    assert layers.outer() == "done"
    started = time.perf_counter()
    assert asyncio.run(layers.step()) == "stepped"
    elapsed = time.perf_counter() - started
    tracer.enabled = False
    summary = tracer.summary()
    cpu = summary["self_cpu_s"]
    assert 0.006 <= cpu["inner"] < 0.012
    assert 0.002 <= cpu["outer"] < cpu["inner"]
    # The coroutine's suspended 20 ms are no part of its self time.
    assert cpu["step"] >= 0.004
    assert summary["self_s"]["step"] < elapsed - 0.015
    assert summary["spans"] == {"outer": 1, "inner": 1, "step": 2}
    tracer.write(tmp_path / "spans")
    header = (tmp_path / "spans").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["names"] == ["outer", "inner", "step"]


# -- the result line ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported(workload, trace, capsys):
    result = run.run_workload(workload, 5, 0.3, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
