"""In-memory span recording around the program's public functions.

Nothing under ``src/`` is edited: :func:`wrap` replaces a class or
module attribute with a wrapper that opens a span on entry and closes it
on exit.  Each thread records into its own column arrays (name, start,
end, parent), so recording takes no lock; the columns are merged and
written out once, when the run ends.

A layer's *self time* is the total duration of its spans minus the part
covered by their child spans.  Each span records both clocks: wall time
(``perf_counter``) and the thread's CPU time (``thread_time``).  Self CPU
time is the work a layer did; it leaves out the time its thread waited
for a lock, an event or the GIL inside the span.  Counters (bytes,
sends, queue waits) sit beside the spans in the same recorders.
"""

import collections
import functools
import json
import threading
import types
from array import array
from pathlib import Path
from time import perf_counter, thread_time


class _ThreadRecorder:
    __slots__ = ("thread", "names", "starts", "ends", "cpu_starts",
                 "cpu_ends", "parents", "stack", "counters")

    def __init__(self, thread):
        self.thread = thread
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.cpu_starts = array("d")
        self.cpu_ends = array("d")
        self.parents = array("q")
        self.stack = []
        self.counters = collections.Counter()


class Tracer:
    """Span and counter recorder; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self._names = []
        self._name_index = {}
        self._local = threading.local()
        self._recorders = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        with self._lock:
            index = self._name_index.get(name)
            if index is None:
                index = self._name_index[name] = len(self._names)
                self._names.append(name)
            return index

    def recorder(self):
        recorder = getattr(self._local, "recorder", None)
        if recorder is None:
            recorder = _ThreadRecorder(threading.current_thread().name)
            self._local.recorder = recorder
            with self._lock:
                self._recorders.append(recorder)
        return recorder

    def begin(self, name_id):
        recorder = self.recorder()
        stack = recorder.stack
        index = len(recorder.starts)
        recorder.names.append(name_id)
        recorder.parents.append(stack[-1] if stack else -1)
        recorder.ends.append(0.0)
        recorder.cpu_ends.append(0.0)
        stack.append(index)
        recorder.cpu_starts.append(thread_time())
        recorder.starts.append(perf_counter())
        return recorder, index

    @staticmethod
    def end(recorder, index):
        recorder.ends[index] = perf_counter()
        recorder.cpu_ends[index] = thread_time()
        recorder.stack.pop()

    def add(self, counter, value=1):
        if self.enabled:
            self.recorder().counters[counter] += value

    # -- results -----------------------------------------------------------

    def summary(self):
        """Self times and counters, summed over every thread.

        ``{"self_s": {name: wall s}, "self_cpu_s": {name: CPU s},
        "spans": {name: n}, "counters": {name: total}}``
        """
        self_s = collections.Counter()
        self_cpu_s = collections.Counter()
        spans = collections.Counter()
        counters = collections.Counter()
        with self._lock:
            recorders = list(self._recorders)
        names = list(self._names)
        for recorder in recorders:
            ends, cpu_ends = recorder.ends, recorder.cpu_ends
            count = min(len(recorder.starts), len(recorder.cpu_starts))
            wall = [0.0] * count
            cpu = [0.0] * count
            child_wall = [0.0] * count
            child_cpu = [0.0] * count
            for index in range(count):
                if cpu_ends[index] == 0.0:
                    continue  # still open when recording stopped
                wall[index] = ends[index] - recorder.starts[index]
                cpu[index] = cpu_ends[index] - recorder.cpu_starts[index]
                parent = recorder.parents[index]
                if parent >= 0:
                    child_wall[parent] += wall[index]
                    child_cpu[parent] += cpu[index]
            for index in range(count):
                if cpu_ends[index] != 0.0:
                    name = names[recorder.names[index]]
                    self_s[name] += wall[index] - child_wall[index]
                    self_cpu_s[name] += cpu[index] - child_cpu[index]
                    spans[name] += 1
            counters.update(recorder.counters)
        return {"self_s": dict(self_s), "self_cpu_s": dict(self_cpu_s),
                "spans": dict(spans), "counters": dict(counters)}

    def write(self, path):
        """Write every span and counter out, for offline inspection.

        The file starts with one JSON line: the span names and, per
        thread, its name, span count and counters.  Then, per thread in
        that order, the raw native-endian columns follow back to back:
        name ids (uint16); wall starts and ends (float64,
        ``perf_counter`` seconds); CPU starts and ends (float64,
        ``thread_time`` seconds); parent indexes (int64, -1 for a root).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            recorders = list(self._recorders)
        header = {"names": self._names, "threads": [
            {"thread": recorder.thread, "spans": len(recorder.starts),
             "counters": dict(recorder.counters)}
            for recorder in recorders]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for recorder in recorders:
                count = len(recorder.starts)
                for column in (recorder.names, recorder.starts,
                               recorder.ends, recorder.cpu_starts,
                               recorder.cpu_ends, recorder.parents):
                    column[:count].tofile(out)


def wrap(owner, attribute, name, tracer, before=None, after=None):
    """Replace ``owner.attribute`` with a span-recording wrapper.

    While the tracer is enabled, ``before(tracer, args)`` runs ahead of
    the call and ``after(tracer, args, result)`` once it returned; they
    bump counters.
    """
    original = getattr(owner, attribute)
    name_id = tracer.name_id(name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        recorder, index = tracer.begin(name_id)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(recorder, index)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(owner, attribute, wrapper)


def wrap_coroutine(owner, attribute, name, tracer):
    """Like :func:`wrap` for an ``async def``: one span per resumption.

    A coroutine's wall-clock span would include the time it sat
    suspended while other tasks ran, so each step (one ``send`` or
    ``throw`` into the coroutine) is its own span instead.
    """
    original = getattr(owner, attribute)
    name_id = tracer.name_id(name)

    @types.coroutine
    def stepped(coroutine):
        value, error = None, None
        while True:
            recorder, index = (tracer.begin(name_id) if tracer.enabled
                               else (None, None))
            try:
                if error is None:
                    yielded = coroutine.send(value)
                else:
                    yielded = coroutine.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if recorder is not None:
                    tracer.end(recorder, index)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        return await stepped(original(*args, **kwargs))

    setattr(owner, attribute, wrapper)
