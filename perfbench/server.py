"""The server child of an RPC workload (or of the floor ping-pong).

Run by ``run.py``, never by hand::

    python3 perfbench/server.py --workload unary_giop --trace 0

It serves the workload's object over TCP loopback, prints one JSON line
with the object reference and address, then answers one-line commands
on stdin, each with one JSON line on stdout:

- ``usage``: its own CPU seconds, peak RSS and context switches;
- ``trace on`` / ``trace off``: start or stop recording spans;
- ``summary <path>``: write the spans to *path*, reply with self times
  and counters;
- ``quit`` (or end of input): stop serving and exit.
"""

import argparse
import json
import os
import socket
import sys

from service import (MixedImpl, StoreImpl, generate_service, usage,
                     use_source_tree)

#: workload -> (protocol, servant class, server kind)
SERVERS = {
    "unary_giop": ("giop", StoreImpl, "blocking"),
    "aio_giop_mixed": ("giop", MixedImpl, "aio"),
}


def reply(message):
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def serve(workload, trace):
    from repro.heidirmi import Orb

    protocol, servant_class, kind = SERVERS[workload]
    namespace = generate_service()
    tracer = None
    if trace:
        from layers import install_server
        from tracer import Tracer

        tracer = Tracer()
        install_server(tracer, kind, (servant_class,))
    servant = (servant_class(namespace["Bench_Item"])
               if servant_class is StoreImpl else servant_class())
    aio_server = None
    if kind == "aio":
        from repro.wire.aio import AioOrbServer

        # The Orb only holds the object table; AioOrbServer serves it.
        orb = Orb(transport="inproc", protocol=protocol).start()
        reference = orb.register(servant)
        aio_server = AioOrbServer(orb)
        host, port = aio_server.start()
    else:
        orb = Orb(transport="tcp", protocol=protocol).start()
        reference = orb.register(servant)
        host, port = orb.address
    reply({"ref": reference.stringify(), "host": host, "port": port})
    try:
        for line in sys.stdin:
            command = line.split()
            if not command or command[0] == "quit":
                break
            if command[0] == "usage":
                reply(usage())
            elif command[0] == "trace" and tracer is not None:
                tracer.enabled = command[1] == "on"
                reply({"ok": True})
            elif command[0] == "summary" and tracer is not None:
                tracer.write(command[1])
                reply(tracer.summary())
            else:
                reply({"error": f"unknown command {line.strip()!r}"})
    finally:
        if aio_server is not None:
            aio_server.stop()
        orb.stop()


def serve_floor():
    """Bare TCP ping-pong: per round trip, read the request frame and
    answer with the reply frame; sizes come in the first 8 bytes."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(60)  # never outlive a parent that did not connect
    reply({"host": "127.0.0.1", "port": listener.getsockname()[1]})
    connection, _ = listener.accept()
    listener.close()
    connection.settimeout(None)
    with connection:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        header = _recv_exact(connection, 8)
        request_size = int.from_bytes(header[:4], "big")
        answer = bytes(int.from_bytes(header[4:], "big"))
        while _recv_exact(connection, request_size) is not None:
            connection.sendall(answer)


def _recv_exact(connection, size):
    buffer = bytearray(size)
    view = memoryview(buffer)
    got = 0
    while got < size:
        count = connection.recv_into(view[got:])
        if not count:
            return None
        got += count
    return buffer


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SERVERS) + ["floor"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--cpus", help="comma-separated CPUs to run on")
    args = parser.parse_args()
    if args.cpus:
        # Before any thread starts, so every server thread inherits it.
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    use_source_tree()
    if args.workload == "floor":
        serve_floor()
    else:
        serve(args.workload, args.trace)


if __name__ == "__main__":
    main()
