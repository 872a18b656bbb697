"""Seeded input generators: the program under test sees only their output.

Every generator builds its ``random.Random`` from the ``--seed`` the
benchmark was given, so the same seed always yields the same inputs.
Alongside each IDL unit the generator returns what it *drew* (the
``UnitShape``), which the output checks compare against; the shape is
built here, never read back from the compiler.
"""

import random
from dataclasses import dataclass, field

PRIMITIVES = ("long", "short", "unsigned long", "double", "float",
              "boolean", "string", "octet")


@dataclass
class UnitShape:
    """What one generated IDL unit declares, as drawn by the generator."""

    filename: str
    module: str
    #: interface name -> {operation name: (parameters, defaulted ones)}
    interfaces: dict = field(default_factory=dict)
    #: interface name -> base interface name (or None)
    bases: dict = field(default_factory=dict)
    #: interface name -> [attribute names]
    attributes: dict = field(default_factory=dict)
    structs: list = field(default_factory=list)
    enums: list = field(default_factory=list)
    unions: list = field(default_factory=list)
    lines: int = 0


def _ident(rng, prefix):
    return prefix + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                            for _ in range(rng.randint(3, 7)))


def make_idl_unit(rng, index):
    """One IDL file: a module with enums, structs, a union, a sequence
    typedef and an inheritance chain of interfaces whose operations use
    default parameters, ``incopy`` structs and attributes.

    Only features that every built-in pack compiles lint-clean are
    drawn; the draw varies counts, names, member types and signatures.
    """
    module = f"M{index}{_ident(rng, '')}"
    shape = UnitShape(filename=f"{module}.idl", module=module)
    out = [f"module {module} {{"]

    enum_members = {}
    for e in range(rng.randint(1, 2)):
        name = f"Kind{e}"
        members = [f"{name}_{m}" for m in range(rng.randint(2, 5))]
        enum_members[name] = members
        shape.enums.append(name)
        out.append(f"  enum {name} {{ {', '.join(members)} }};")

    struct_names = []
    for s in range(rng.randint(2, 4)):
        name = f"Rec{s}"
        fields = []
        for f in range(rng.randint(2, 5)):
            choice = rng.random()
            if choice < 0.2 and enum_members:
                ftype = rng.choice(sorted(enum_members))
            elif choice < 0.3 and struct_names:
                ftype = rng.choice(struct_names)
            else:
                ftype = rng.choice(PRIMITIVES)
            fields.append(f"{ftype} f{f}")
        out.append(f"  struct {name} {{ {'; '.join(fields)}; }};")
        struct_names.append(name)
        shape.structs.append(name)

    union_name = "Choice"
    out.append(
        f"  union {union_name} switch (long) {{ case 1: long a; "
        f"case 2: string b; default: double c; }};"
    )
    shape.unions.append(union_name)

    seq_of = rng.choice(struct_names)
    seq_name = f"{seq_of}Seq"
    out.append(f"  typedef sequence<{seq_of}> {seq_name};")

    value_types = (list(PRIMITIVES) + struct_names + sorted(enum_members)
                   + [seq_name, union_name])
    previous = None
    for i in range(rng.randint(2, 4)):
        name = f"Svc{i}{_ident(rng, '')}"
        ops = {}
        attrs = []
        body = []
        # Every unit uses the sequence and the union at least once, so
        # the typedef is referenced (lint IDL012) and every pack maps it.
        forced = [seq_name, union_name] if i == 0 else []
        for o in range(rng.randint(2, 6)):
            op = f"op{o}{_ident(rng, '_')}"
            nparams = rng.randint(0, 4)
            params = []
            defaults = 0
            for p in range(nparams):
                ptype = forced.pop() if forced else rng.choice(value_types)
                direction = "in"
                if ptype in struct_names and rng.random() < 0.5:
                    direction = "incopy"
                params.append(f"{direction} {ptype} p{p}")
            if nparams and rng.random() < 0.5:
                # A trailing default parameter (HeidiRMI extension).
                ptype = rng.choice(("long", "boolean") + tuple(
                    sorted(enum_members)))
                if ptype == "long":
                    default = str(rng.randint(0, 99))
                elif ptype == "boolean":
                    default = rng.choice(("TRUE", "FALSE"))
                else:
                    default = f"{module}::{rng.choice(enum_members[ptype])}"
                params.append(f"in {ptype} d{nparams} = {default}")
                defaults = 1
            ret = rng.choice(("void",) + tuple(value_types))
            body.append(f"    {ret} {op}({', '.join(params)});")
            ops[op] = (len(params), defaults)
        for a in range(rng.randint(0, 2)):
            attr = f"attr{i}_{a}"
            qualifier = rng.choice(("readonly attribute", "attribute"))
            body.append(f"    {qualifier} {rng.choice(value_types)} {attr};")
            attrs.append(attr)
        header = f"  interface {name}"
        if previous is not None and rng.random() < 0.7:
            header += f" : {previous}"
            shape.bases[name] = previous
        else:
            shape.bases[name] = None
        out.append(header + " {")
        out.extend(body)
        out.append("  };")
        shape.interfaces[name] = ops
        shape.attributes[name] = attrs
        previous = name
    out.append("};")
    text = "\n".join(out) + "\n"
    shape.lines = len(out)
    return text, shape


def make_corpus(seed, units):
    """*units* seeded IDL files as ``[(source, UnitShape)]``."""
    rng = random.Random(f"idl-corpus:{seed}")
    return [make_idl_unit(rng, index) for index in range(units)]


def make_setup_unit():
    """The IDL file ``compile_idl`` set-up compiles, as ``(source,
    UnitShape)``.

    It is drawn from a constant seed, not from ``--seed``, so ``setup_s``
    does the same work on every run: the first file of a seeded corpus
    ran from 21 to 40 lines, and set-up from 116 to 178 ms with it.
    """
    return make_idl_unit(random.Random("idl-setup"), 0)


def make_unary_requests(seed, count, hot=64, hot_every=4):
    """*count* ``Store.transform`` requests as ``(items, salt)``, where
    each item is an ``(id, weight, label)`` tuple.

    Lengths are log-uniform over 1..255, drawn stratified (one from each
    of the equal slices of the distribution, in seeded order) so the mix
    of short and long requests is the same from seed to seed while the
    order and the values change.  Every *hot_every*-th request repeats
    one of *hot* short requests byte for byte; the rest never repeat
    within a round.  The GIOP frame cache can serve only the repeats.

    The lengths, the repeat share and the hot set are synthetic values
    chosen so that marshalling, the frame cache's hit and miss paths and
    both small and large frames are all exercised; no measured traffic
    stands behind them.
    """
    rng = random.Random(f"unary:{seed}")
    lengths = [int(2 ** (8 * (index + rng.random()) / count))
               for index in range(count)]
    rng.shuffle(lengths)

    def request(length):
        items = [(rng.randint(-2 ** 31, 2 ** 31 - 1),
                  rng.uniform(-1e6, 1e6),
                  "".join(rng.choice("abcdefghij")
                          for _ in range(rng.randint(0, 12))))
                 for _ in range(length)]
        return items, rng.randint(0, 2 ** 31 - 1)

    hot_requests = [request(rng.randint(1, 4)) for _ in range(hot)]
    return [hot_requests[(index // hot_every) % hot]
            if index % hot_every == 0 else request(length)
            for index, length in enumerate(lengths)]


def make_blocking_plan(seed, count, share, min_gap):
    """Which of *count* ``aio_giop_mixed`` calls block in the servant.

    One call in every stretch of ``round(1 / share)``, at a seeded place
    in it, so every round of *count* calls does the same amount of
    blocking; consecutive blocking calls are at least *min_gap* calls
    apart, so with no more than *min_gap* calls in flight no short call
    queues behind two of them.
    """
    rng = random.Random(f"aio-blocking:{seed}")
    stride = round(1 / share)
    blocking = {start + rng.randrange(stride - min_gap + 1)
                for start in range(0, count, stride)}
    return [index in blocking for index in range(count)]
