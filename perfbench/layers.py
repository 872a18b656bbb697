"""Which public functions of the program each traced layer wraps.

Span names are ``<side>.<layer>``; the per-layer metrics in ``run.py``
are built from them.  The blocking stack (``unary_giop``) and
the coroutine stack (``aio_giop_mixed``) reach
the wire and transport through different functions, so each has its own
list; both feed the same span names.
"""

from time import perf_counter

from tracer import wrap, wrap_coroutine


def _count_send(tracer, args):
    data = args[-1]
    copied = getattr(data, "copied_bytes", None)
    tracer.add("sends")
    tracer.add("send_bytes", len(data))
    tracer.add("copied_bytes", len(data) if copied is None else copied)


def _count_fill(tracer, args, result):
    tracer.add("recvs")


def _count_reply(tracer, args, result):
    tracer.add("replies")


def install_client(tracer, kind, stub_classes=()):
    """Wrap the client-side layers of the benchmark process."""
    from repro.heidirmi.communicator import ObjectCommunicator
    from repro.heidirmi.connection import ConnectionCache
    from repro.heidirmi.orb import Orb

    for stub in stub_classes:
        for attribute, value in list(vars(stub).items()):
            if callable(value) and not attribute.startswith("_"):
                wrap(stub, attribute, "client.stub", tracer)
    if kind == "aio":
        from repro.wire import aio
        from repro.wire.giop import GiopWire

        wrap_coroutine(aio.AioClientConnection, "invoke", "client.aio",
                       tracer)
        wrap(GiopWire, "emit_request", "client.wire.emit", tracer)
        wrap(GiopWire, "next_event", "client.wire.parse", tracer)
        wrap(GiopWire, "receive_data", "client.wire.parse", tracer)
        wrap(aio, "_write_frame", "client.transport.send", tracer,
             before=_count_send)
        return
    from repro.giop.iiop import GiopProtocol
    from repro.heidirmi.transport import Channel

    wrap(Orb, "invoke", "client.orb", tracer)
    wrap(ConnectionCache, "acquire", "client.connection", tracer)
    wrap(ConnectionCache, "release", "client.connection", tracer)
    wrap(ObjectCommunicator, "invoke", "client.communicator", tracer)
    wrap(GiopProtocol, "send_request", "client.wire.emit", tracer)
    wrap(GiopProtocol, "recv_reply", "client.wire.parse", tracer)
    wrap(Channel, "send", "client.transport.send", tracer,
         before=_count_send)
    wrap(Channel, "_fill", "client.transport.wait", tracer,
         after=_count_fill)
    wrap(Channel, "wait_readable", "client.transport.wait", tracer)


def install_server(tracer, kind, servant_classes=()):
    """Wrap the server-side layers of the server child process."""
    from repro.heidirmi.orb import Orb
    from repro.heidirmi.skeleton import HdSkel

    # Requests parsed but not yet dispatched, by ``id(call)``: the
    # queue wait is dispatch start minus parse end.
    parsed_at = {}

    def note_parsed(tracer, args, call):
        parsed_at[id(call)] = perf_counter()

    def note_parsed_event(tracer, args, event):
        call = getattr(event, "call", None)
        if call is not None:
            parsed_at[id(call)] = perf_counter()

    def queue_wait(tracer, args):
        parsed = parsed_at.pop(id(args[1]), None)
        if parsed is not None:
            tracer.add("queue_wait_s", perf_counter() - parsed)

    wrap(Orb, "_handle_request", "server.orb", tracer, before=queue_wait)
    wrap(HdSkel, "dispatch", "server.skeleton", tracer)
    for servant in servant_classes:
        for attribute, value in list(vars(servant).items()):
            if callable(value) and not attribute.startswith("_"):
                wrap(servant, attribute, "server.servant", tracer)
    if kind == "aio":
        from repro.wire import aio
        from repro.wire.giop import GiopWire

        wrap(GiopWire, "next_event", "server.wire.parse", tracer,
             after=note_parsed_event)
        wrap(GiopWire, "receive_data", "server.wire.parse", tracer)
        wrap(GiopWire, "emit_reply", "server.wire.emit", tracer,
             after=_count_reply)
        wrap(aio, "_write_frame", "server.transport.send", tracer,
             before=_count_send)
        return
    from repro.giop.iiop import GiopProtocol
    from repro.heidirmi.transport import Channel

    wrap(GiopProtocol, "recv_request", "server.wire.parse", tracer,
         after=note_parsed)
    wrap(GiopProtocol, "send_reply", "server.wire.emit", tracer,
         after=_count_reply)
    wrap(Channel, "send", "server.transport.send", tracer,
         before=_count_send)
    wrap(Channel, "_fill", "server.transport.wait", tracer,
         after=_count_fill)
