"""Span tracer that wraps shatrv's entry points from outside the package.

Each wrapped call records one span (name, start, end, parent) in flat
in-memory arrays; nothing is written until the traced call returns.  A
span's self time is its duration minus the time its child spans cover,
and a layer's time is the sum of the self times of its spans.

The trace fails loudly instead of reporting a zero: a missing entry point
raises TraceError at install, and an entry point that got no calls raises
it at check().  A refactor that moves work out of a wrapped function (for
example decoding out of Machine.decode) therefore breaks the trace rather
than showing a fake win, and the benchmark must follow the move.

Machine.run spans are attributed to a strategy from outside: the traced
generate_kernel records which strategy produced which code bytes, and the
traced load_program looks up the bytes it is given.
"""

import array
import importlib
import inspect
import json
import sys
import time

# (layer, module, attribute path) of every wrapped entry point.  Decoding
# spans cover Machine._build as well as Machine.decode, because fetching
# and building the executor closure are the rest of the translation work
# a translation cache would remove.
ENTRY_POINTS = (
    ("cli", "shatrv.cli", "main"),
    ("cavp.parse", "shatrv.cavp", "parse_rsp"),
    ("bench.run", "shatrv.bench", "run_benchmark"),
    ("bench.report", "shatrv.bench", "emit_report"),
    ("kernels.generate", "shatrv.kernels", "generate_kernel"),
    ("asm.assemble", "shatrv.asm", "assemble"),
    ("emulator.machine", "shatrv.emulator", "Machine.__init__"),
    ("emulator.machine", "shatrv.shatr", "attach"),
    ("emulator.machine", "shatrv.emulator", "Machine.load_program"),
    ("emulator.decode", "shatrv.emulator", "Machine._build"),
    ("emulator.decode", "shatrv.emulator", "Machine.decode"),
    ("emulator.run", "shatrv.emulator", "Machine.run"),
    ("keccak.round", "shatrv.keccak", "keccak_round"),
    ("shatr.csr", "shatrv.shatr", "KeccakRoundUnit.csr_access"),
)
_RUN = "shatrv.emulator:Machine.run"


class TraceError(Exception):
    """The trace cannot attribute time honestly."""


def _resolve(module, path):
    try:
        owner = importlib.import_module(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        fn = inspect.getattr_static(owner, parts[-1])
    except (ImportError, AttributeError) as e:
        raise TraceError(f"entry point {module}:{path} is missing: {e}") from None
    if not callable(fn):
        raise TraceError(f"entry point {module}:{path} is not a function")
    return owner, parts[-1], fn


class Tracer:
    def __init__(self):
        self.names = []              # span name table
        self.layer_of = {}           # span name -> layer
        self.span_name = array.array("I")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.report_bytes = 0
        self._ids = {}
        self._stack = []
        self._undo = []
        self._kernel_strategy = {}
        self._strategy = None

    # -- wrapping ----------------------------------------------------------

    def _name_id(self, name, layer):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of[name] = layer
        return i

    def install(self):
        """Wrap every entry point, wherever shatrv holds a reference to it."""
        resolved = [(layer, f"{module}:{path}", *_resolve(module, path))
                    for layer, module, path in ENTRY_POINTS]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "shatrv" or n.startswith("shatrv.")]
        for layer, name, owner, attr, fn in resolved:
            if name != _RUN:
                self._name_id(name, layer)
            wrapper = self._wrap(name, fn)
            self._replace(owner, attr, fn, wrapper)
            if inspect.ismodule(owner):
                for mod in modules:
                    if mod is not owner and vars(mod).get(attr) is fn:
                        self._replace(mod, attr, fn, wrapper)
        return self

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        after = self._hooks(name, fn)
        fixed = None if name == _RUN else self._ids[name]

        def traced(*args, **kwargs):
            idx = len(start)
            if fixed is None:
                if self._strategy is None:
                    raise TraceError("Machine.run without a traced load_program")
                span_name.append(self._name_id(
                    f"{name}@{self._strategy}", f"emulator.run.{self._strategy}"))
                self._strategy = None
            else:
                span_name.append(fixed)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _hooks(self, name, fn):
        """Bookkeeping run after a call returns, outside its span."""
        if name == "shatrv.kernels:generate_kernel":
            sig = inspect.signature(fn)
            def after(args, kwargs, result):
                strategy = sig.bind(*args, **kwargs).arguments["strategy"]
                self._kernel_strategy[result.code] = strategy
            return after
        if name == "shatrv.emulator:Machine.load_program":
            def after(args, kwargs, result):
                image = args[1] if len(args) > 1 else kwargs["image"]
                code = bytes(image) if isinstance(image, (bytes, bytearray)) else image.code
                strategy = self._kernel_strategy.get(code)
                if strategy is None:
                    raise TraceError("load_program got code that no traced "
                                     "generate_kernel call produced")
                self._strategy = strategy
            return after
        if name == "shatrv.bench:emit_report":
            def after(args, kwargs, result):
                self.report_bytes += len(result.encode())
            return after
        return None

    # -- results -----------------------------------------------------------

    def calls(self):
        """Calls per entry point (Machine.run summed over strategies)."""
        per_id = [0] * len(self.names)
        for i in self.span_name:
            per_id[i] += 1
        out = {f"{m}:{p}": 0 for _, m, p in ENTRY_POINTS}
        for name, n in zip(self.names, per_id):
            out[name.split("@")[0]] += n
        return out

    def check(self):
        """Raise TraceError unless every entry point was called."""
        idle = sorted(name for name, n in self.calls().items() if not n)
        if idle:
            raise TraceError("entry points got no calls: " + ", ".join(idle))

    def layer_self_times(self):
        return layer_self_times(self.names, self.layer_of, self.span_name,
                                self.parent, self.start, self.end)

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "layer_of": self.layer_of,
                  "count": len(self.start),
                  "arrays": [["span_name", "I"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(f)


def layer_self_times(names, layer_of, span_name, parent, start, end):
    """Sum of span self times per layer."""
    self_time = [e - s for s, e in zip(start, end)]
    for p, s, e in zip(parent, start, end):
        if p >= 0:
            self_time[p] -= e - s
    per_name = [0.0] * len(names)
    for i, t in zip(span_name, self_time):
        per_name[i] += t
    layers = {}
    for name, t in zip(names, per_name):
        layer = layer_of[name]
        layers[layer] = layers.get(layer, 0.0) + t
    return layers


def load_spans(path):
    """Read a file written by Tracer.write back into its header and arrays."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for field, code in header["arrays"]:
            a = array.array(code)
            a.fromfile(f, header["count"])
            arrays[field] = a
    return header, arrays
