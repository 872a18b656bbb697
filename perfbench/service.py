"""The IDL, servants and reference results shared by both processes.

The RPC workloads call one module of two interfaces.  Both the
benchmark process and the server child generate their stubs and
skeletons from ``SERVICE_IDL`` through the ``python_rmi`` pack, exactly
as an application would.  The expected result of every call is computed
here in plain Python from the request, apart from the ORB.
"""

import resource
import sys
import time
from pathlib import Path

#: The repository's ``src`` directory, relative to this file.
SRC = Path(__file__).resolve().parent.parent / "src"

SERVICE_IDL = """\
module Bench {
  struct Item { long id; double weight; string label; };
  typedef sequence<Item> ItemSeq;
  interface Store {
    ItemSeq transform(in ItemSeq items, in long salt);
  };
  interface Mixed {
    string work(in string token, in boolean block);
  };
};
"""

#: How long a blocking ``Mixed.work`` call sleeps in the servant,
#: standing in for device or database I/O.  Long enough that it
#: outweighs the CPU of the calls queued behind a blocked call, whose
#: latency then follows the sleep more than the speed of the host.
BLOCK_SECONDS = 0.030


def use_source_tree():
    """Import ``repro`` from the checkout's ``src``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def usage():
    """This process's CPU seconds, peak RSS and context switches so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": own.ru_utime + own.ru_stime,
            "maxrss_kb": own.ru_maxrss,
            "ctx_switches": own.ru_nvcsw + own.ru_nivcsw}


def generate_service():
    """Generate and load the python_rmi mapping of ``SERVICE_IDL``.

    A fresh pack instance compiles its templates, so every call pays the
    whole stub-generation cost an application start pays.
    """
    from repro.idl import parse
    from repro.mappings.python_rmi import PythonRmiPack, generate_module

    return generate_module(parse(SERVICE_IDL, filename="Bench.idl"),
                           pack=PythonRmiPack())


def expected_item(item, salt):
    """The reference ``Store.transform`` result for one item tuple."""
    ident, weight, label = item
    return (ident ^ salt, -weight, label[::-1])


class StoreImpl:
    _hd_type_id_ = "IDL:Bench/Store:1.0"

    def __init__(self, item_class):
        self._item = item_class

    def transform(self, items, salt):
        make = self._item
        return [make(id=item.id ^ salt, weight=-item.weight,
                     label=item.label[::-1]) for item in items]


class MixedImpl:
    _hd_type_id_ = "IDL:Bench/Mixed:1.0"

    def work(self, token, block):
        if block:
            time.sleep(BLOCK_SECONDS)
        return token
