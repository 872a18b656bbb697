"""Output checks, each made apart from the program under test.

A check returns ``None`` when the output is right and a one-line reason
when it is wrong.  The references are the generator's own record of
what it drew (:class:`inputs.UnitShape`) or a result computed here from
the request, never a stored copy of an earlier run's output.
"""

import inspect
import re

from service import expected_item


def check_python_rmi(source, shape):
    """Execute a generated ``python_rmi`` module and look for every
    interface, operation (with its arity and defaults), base interface,
    struct, enum and union the generator drew."""
    namespace = {"__name__": "perfbench_generated"}
    try:
        exec(compile(source, shape.filename, "exec"), namespace)
    except Exception as exc:  # any failure to load is a wrong output
        return f"{shape.filename}: generated module fails to run: {exc!r}"
    prefix = shape.module + "_"
    for name in shape.structs + shape.enums + shape.unions:
        if not isinstance(namespace.get(prefix + name), type):
            return f"{shape.filename}: no class for {name}"
    for interface, operations in shape.interfaces.items():
        stub = namespace.get(f"{prefix}{interface}_stub")
        skeleton = namespace.get(f"{prefix}{interface}_skel")
        if not isinstance(stub, type) or not isinstance(skeleton, type):
            return f"{shape.filename}: no stub or skeleton for {interface}"
        base = shape.bases[interface]
        if base is not None and not issubclass(
                stub, namespace.get(f"{prefix}{base}_stub", ())):
            return f"{shape.filename}: {interface} stub does not derive {base}"
        for operation, (arity, defaults) in operations.items():
            method = stub.__dict__.get(operation)
            if method is None:
                return f"{shape.filename}: {interface}.{operation} missing"
            params = list(inspect.signature(method).parameters.values())[1:]
            if len(params) != arity:
                return (f"{shape.filename}: {interface}.{operation} takes "
                        f"{len(params)} parameters, IDL has {arity}")
            defaulted = sum(p.default is not p.empty for p in params)
            if defaulted != defaults:
                return (f"{shape.filename}: {interface}.{operation} has "
                        f"{defaulted} defaults, IDL has {defaults}")
        for attribute in shape.attributes[interface]:
            if f"get_{attribute}" not in stub.__dict__:
                return f"{shape.filename}: {interface}.{attribute} missing"
    return None


def check_names(files, shape, pack):
    """Every drawn interface is named in a pack's generated files."""
    text = "\n".join(files.values())
    for interface in shape.interfaces:
        if not re.search(rf"\b{re.escape(interface)}\b", text):
            return f"{shape.filename}: {pack} output never names {interface}"
    return None


def est_signature(node):
    """A nested tuple of an EST's names, kinds, properties and children."""
    props = tuple(sorted(
        (key, est_signature(value) if hasattr(value, "groups")
         else repr(value))
        for key, value in node.props.items()))
    groups = tuple(sorted(
        (key, tuple(est_signature(child) for child in children))
        for key, children in node.groups.items()))
    return (node.name, node.kind, props, groups)


def check_est_roundtrip(est, rebuilt, shape):
    """The EST program rebuilds an EST equal to the original, and both
    hold every interface the generator drew."""
    names = {node.name for node in est.walk()}
    missing = [name for name in shape.interfaces if name not in names]
    if missing:
        return f"{shape.filename}: EST lacks interface {missing[0]}"
    if est_signature(rebuilt) != est_signature(est):
        return f"{shape.filename}: EST program rebuilds a different EST"
    return None


def check_transform(request, salt, reply):
    """A ``Store.transform`` reply against the result computed here."""
    if len(reply) != len(request):
        return f"transform returned {len(reply)} items for {len(request)}"
    for sent, got in zip(request, reply):
        if (got.id, got.weight, got.label) != expected_item(
                (sent.id, sent.weight, sent.label), salt):
            return f"transform item {sent!r} came back as {got!r}"
    return None


def check_tokens(tokens, replies):
    """Each call's reply carries that call's own unique token."""
    if len(replies) != len(tokens):
        return f"{len(replies)} replies for {len(tokens)} calls"
    for token, reply in zip(tokens, replies):
        if reply != token:
            return f"reply {reply!r} answered call {token!r}"
    return None
