"""Outside-in spans around rootshare's public entry points.

The benchmark traces the program from its own files: `Tracer.install()`
swaps each traced entry point for a timing shim and `Tracer.uninstall()`
puts the originals back. The package binds most of these names with
`from .ring import ...`, so a shim installed only in the defining module
would miss every call made through another module's binding. `install()`
therefore replaces the name in every loaded `rootshare` module whose
binding is the original function.

Each span records its id, parent, call id, party, name, start, end, the
thread CPU it used, the change in its endpoint's `stats()`, an item count
(elements, dealer items) and the voluntary context switches of its thread
(each one is a block on a lock, the GIL or a queue). Spans stay in memory
until the run ends.
"""

import functools
import inspect
import itertools
import resource
import sys
import threading
import time

# (defining module, function, span name, argument whose length is the
# span's item count)
FUNCTIONS = (
    ("rootshare.ring", "beaver_mul_batch", "ring.beaver_mul", "x_values"),
    ("rootshare.ring", "matmul_shared", "ring.matmul", None),
    ("rootshare.rsqrt", "rsqrt_shared_batch", "rsqrt", "values"),
    ("rootshare.rsqrt", "bits_to_value_batch", "rsqrt.bits_to_value",
     "o_values"),
    ("rootshare.rsqrt", "newton_shared_batch", "rsqrt.newton", "x_values"),
    ("rootshare.flood", "flood_reshare_batch", "flood.reshare", "values"),
    ("rootshare.nonlinear", "softmax_star_shared", "nonlinear.softmax",
     "row_values"),
    ("rootshare.nonlinear", "layernorm_shared", "nonlinear.layernorm",
     "row_values"),
    ("rootshare.nonlinear", "smu_shared_batch", "nonlinear.smu", "values"),
)

# (defining module, class, method, span name)
METHODS = (
    ("rootshare.transport", "Endpoint", "send_frame", "transport.send"),
    ("rootshare.transport", "Endpoint", "recv_frame", "transport.recv"),
    ("rootshare.ring", "TripleStream", "take", "ring.dealer"),
    ("rootshare.ring", "TripleStream", "take_zeros", "ring.dealer"),
    ("rootshare.ring", "TripleStream", "take_matrix", "ring.dealer"),
)

FIELDS = ("id", "parent", "call", "party", "name", "start", "end", "cpu_s",
          "bytes", "frames", "rounds", "items", "switches")
ID, PARENT, CALL, PARTY, NAME, START, END, CPU, BYTES, FRAMES, ROUNDS, \
    ITEMS, SWITCHES = range(len(FIELDS))


class Tracer:
    """Collects spans from shims installed around rootshare entry points."""

    def __init__(self):
        self.spans = []
        self.call_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def _record(self, name, party, endpoint, items, fn, args, kwargs):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        if endpoint is None:
            endpoint = getattr(local, "endpoint", None)
        else:
            local.endpoint = endpoint
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        before = endpoint.stats() if endpoint is not None else None
        stack.append(span_id)
        switches0 = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            switches = (resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
                        - switches0)
            stack.pop()
            if before is None:
                delta = (0, 0, 0)
            else:
                after = endpoint.stats()
                delta = (after.bytes_sent - before.bytes_sent,
                         after.frames - before.frames,
                         after.rounds - before.rounds)
            self.spans.append((span_id, parent, self.call_id, party, name,
                               start, end, cpu) + delta + (items, switches))

    def _function_shim(self, fn, name, items_arg):
        params = list(inspect.signature(fn).parameters)
        channel_pos = params.index("channel")
        items_pos = params.index(items_arg) if items_arg else None
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            party = args[0] if args else kwargs["party"]
            channel = (args[channel_pos] if len(args) > channel_pos
                       else kwargs.get("channel"))
            items = 1
            if items_pos is not None:
                items = len(args[items_pos] if len(args) > items_pos
                            else kwargs[items_arg])
            return tracer._record(name, party, channel, items, fn, args,
                                  kwargs)

        return shim

    def _method_shim(self, fn, name, method):
        tracer = self

        @functools.wraps(fn)
        def shim(obj, *args, **kwargs):
            if method in ("send_frame", "recv_frame"):
                endpoint, items = obj, 1
            elif method == "take_matrix":
                endpoint, items = None, 1
            else:
                endpoint = None
                items = args[0] if args else kwargs["count"]
            return tracer._record(name, obj.party, endpoint, items, fn,
                                  (obj,) + args, kwargs)

        return shim

    def _run_pair_shim(self, run_pair):
        tracer = self

        def party_fn(fn, party):
            def run(endpoint):
                return tracer._record("party", party, endpoint, 1, fn,
                                      (endpoint,), {})

            return run

        @functools.wraps(run_pair)
        def shim(client_fn, server_fn, *args, **kwargs):
            return run_pair(party_fn(client_fn, "client"),
                            party_fn(server_fn, "server"), *args, **kwargs)

        return shim

    def install(self):
        """Replace every traced name in every loaded rootshare module."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        shims = {}
        for module_name, attr, name, items_arg in FUNCTIONS:
            fn = getattr(sys.modules[module_name], attr)
            shims[id(fn)] = (fn, self._function_shim(fn, name, items_arg))
        run_pair = sys.modules["rootshare.transport"].run_pair
        shims[id(run_pair)] = (run_pair, self._run_pair_shim(run_pair))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rootshare" or key.startswith("rootshare.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, shim = shims.get(id(value), (None, None))
                if original is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, shim)
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            fn = vars(cls)[method]
            self._restore.append((cls, method, fn))
            setattr(cls, method, self._method_shim(fn, name, method))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Span duration minus the time its direct children cover.

    Children run on their parent's thread and nest strictly, so their
    intervals inside the parent are disjoint and can simply be summed.
    """
    child_time = {}
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] = (child_time.get(span[PARENT], 0.0)
                                        + span[END] - span[START])
    return {span[ID]: span[END] - span[START] - child_time.get(span[ID], 0.0)
            for span in spans}


def layer_totals(spans, party):
    """Per-layer sums for one party over the given spans."""
    own = [s for s in spans if s[PARTY] == party]
    self_s = self_times(own)
    out = {}

    def named(name):
        return [s for s in own if s[NAME] == name]

    def wall(group):
        return sum(s[END] - s[START] for s in group)

    def total(group, field):
        return sum(s[field] for s in group)

    send, recv = named("transport.send"), named("transport.recv")
    out["transport.send.calls"] = len(send)
    out["transport.send.s"] = wall(send)
    out["transport.recv.wait_s"] = wall(recv)
    out["transport.bytes"] = total(send, BYTES)
    out["transport.frames"] = total(send, FRAMES)
    # The in-process round counter also advances on receive (peer stamps),
    # so rounds are summed over both transport entry points.
    out["transport.rounds"] = total(send, ROUNDS) + total(recv, ROUNDS)

    dealer = named("ring.dealer")
    out["ring.dealer.s"] = wall(dealer)
    out["ring.dealer.items"] = total(dealer, ITEMS)
    out["ring.dealer.ctx_switches"] = total(dealer, SWITCHES)
    beaver = named("ring.beaver_mul")
    out["ring.beaver_mul.calls"] = len(beaver)
    out["ring.beaver_mul.elements"] = total(beaver, ITEMS)
    out["ring.beaver_mul.self_s"] = sum(self_s[s[ID]] for s in beaver)
    matmul = named("ring.matmul")
    out["ring.matmul.calls"] = len(matmul)
    out["ring.matmul.self_s"] = sum(self_s[s[ID]] for s in matmul)

    rsqrt = named("rsqrt")
    out["rsqrt.elements"] = total(rsqrt, ITEMS)
    out["rsqrt.seed.self_s"] = sum(self_s[s[ID]] for s in rsqrt)
    for stage in ("bits_to_value", "newton"):
        group = named("rsqrt." + stage)
        out[f"rsqrt.{stage}.s"] = wall(group)
        out[f"rsqrt.{stage}.rounds"] = total(group, ROUNDS)

    reshare = named("flood.reshare")
    out["flood.reshare.calls"] = len(reshare)
    out["flood.reshare.s"] = wall(reshare)

    for layer in ("softmax", "layernorm", "smu"):
        group = named("nonlinear." + layer)
        out[f"nonlinear.{layer}.calls"] = len(group)
        out[f"nonlinear.{layer}.s"] = wall(group)
        out[f"nonlinear.{layer}.rounds"] = total(group, ROUNDS)

    party_spans = named("party")
    out["party.s"] = wall(party_spans)
    out["party.cpu_s"] = total(party_spans, CPU)
    out["party.ctx_switches"] = total(party_spans, SWITCHES)
    return out
