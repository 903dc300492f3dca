"""Call tracing for the traced benchmark run, done entirely from outside `recat`.

Inside `with tracer:` every public function of the traced modules, and every
public method of their public classes, is replaced by a wrapper; leaving the
block puts the originals back, so untraced passes run the unmodified library.

* A call that enters a module from a different module (or from the harness)
  opens a span: name, start, end and parent.  Calls that stay inside one
  module only bump the function's call counter, so a module's self time is
  the time its spans cover minus the time their child spans cover.
* `tnorm.conj` and `tnorm.imp` are too fine to span; they are counted, and
  every 64th operand triple is kept for the ns/op probe.
* Constructors, dunder methods and properties are not wrapped: their time
  belongs to the caller.  So are the scalar shims `EnrichedCategory.conj`,
  `.imp` and `.leq1`, whose work is the tnorm call they forward to.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

#: modules whose public calls open spans, in report order
SPANNED = ("values", "poset", "cat", "presheaf", "classify", "balls", "laws", "gen", "cli")
SCALAR_SHIMS = {"EnrichedCategory.conj", "EnrichedCategory.imp", "EnrichedCategory.leq1"}
#: the one private helper wrapped, to count coweight-family builds
COWEIGHT_FAMILY = "_coweight_family"
SAMPLE_STRIDE = 64
SAMPLE_CAP = 20_000
SPAN_CAP = 200_000
ROOT = "bench"


class Tracer:
    """Wrappers, counters and spans for one traced pass at a time."""

    def __init__(self, R):
        self.R = R
        self.names = []
        self._fid = {}
        self.reset()
        self._patches = self._plan()

    # -- state of one pass ---------------------------------------------------

    def reset(self):
        self.calls = Counter()  # qualified name -> every call, same-module ones too
        self.layer_calls = Counter()  # module -> calls entering it (spans)
        self.self_ns = Counter()  # module -> self time
        self.enum_candidates = 0
        self.enum_kept = 0
        self.parse_ns = 0
        self.scalar_calls = Counter()  # "conj" / "imp"
        self.operands = []
        self.spans = []
        self.dropped_spans = 0
        self._next_sid = 1
        self._stack = [[ROOT, 0, 0]]  # [module, span id, ns covered by children]

    def counters(self):
        """The counts that must repeat exactly for a fixed seed."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "layer_calls": dict(sorted(self.layer_calls.items())),
            "enum_candidates": self.enum_candidates,
            "enum_kept": self.enum_kept,
            "scalar_calls": dict(sorted(self.scalar_calls.items())),
        }

    def _name_id(self, name):
        if name not in self._fid:
            self._fid[name] = len(self.names)
            self.names.append(name)
        return self._fid[name]

    def item_runner(self, fn, workload):
        """`fn` wrapped so that each call opens a harness-level span `<workload>.item`."""
        return self._spanning(fn, workload, "item")

    # -- wrappers ------------------------------------------------------------

    def _spanning(self, fn, module, qualname):
        key = f"{module}.{qualname}"
        fid = self._name_id(key)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            stack = tracer._stack
            parent = stack[-1]
            if parent[0] == module:
                return fn(*args, **kwargs)
            sid = tracer._next_sid
            tracer._next_sid = sid + 1
            frame = [module, sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.self_ns[module] += dur - frame[2]
                parent[2] += dur
                tracer.layer_calls[module] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, fid, parent[1], t0, t1))
                else:
                    tracer.dropped_spans += 1

        return traced

    def _scalar(self, fn, op):
        tracer = self

        def counted(t, x, y):
            n = tracer.scalar_calls[op] + 1
            tracer.scalar_calls[op] = n
            if not n % SAMPLE_STRIDE and len(tracer.operands) < SAMPLE_CAP:
                tracer.operands.append((op, t, x, y))
            return fn(t, x, y)

        return counted

    def _enumerating(self, fn):
        tracer = self

        def counted(X, *args, **kwargs):
            out = fn(X, *args, **kwargs)
            tracer.enum_candidates += len(X.grid.points) ** X.n
            tracer.enum_kept += len(out)
            return out

        return counted

    def _counting(self, fn, key):
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _timing_parse(self, fn):
        tracer = self
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.parse_ns += clock() - t0

        return timed

    def _timed_parser(self, build_parser):
        timing = self._timing_parse

        def build(*args, **kwargs):
            parser = timing(build_parser)(*args, **kwargs)
            parser.parse_args = timing(parser.parse_args)
            return parser

        return build

    # -- swapping wrappers in and out -----------------------------------------

    def _plan(self):
        """Every (owner, attribute, original, wrapper) the traced pass swaps in."""
        R = self.R
        patches = []
        replace = {}  # original function -> wrapper, applied in every namespace
        replace[R.tnorm.conj] = self._scalar(R.tnorm.conj, "conj")
        replace[R.tnorm.imp] = self._scalar(R.tnorm.imp, "imp")
        for module in SPANNED:
            mod = getattr(R, module)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    inner = obj
                    if module == "presheaf" and name in ("enumerate_weights", "enumerate_coweights"):
                        inner = self._enumerating(obj)
                    if module == "cli" and name in ("load_category", "load_weight"):
                        inner = self._timing_parse(obj)
                    if module == "cli" and name == "build_parser":
                        inner = self._timed_parser(obj)
                    replace[obj] = self._spanning(inner, module, name)
                elif inspect.isclass(obj):
                    patches.extend(self._method_patches(obj, module))
        family = getattr(R.classify, COWEIGHT_FAMILY)
        replace[family] = self._counting(family, f"classify.{COWEIGHT_FAMILY}")
        for mod in _recat_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    patches.append((mod, name, obj, replace[obj]))
        return patches

    def _method_patches(self, cls, module):
        for name, attr in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if name.startswith("_") or qual in SCALAR_SHIMS:
                continue
            if inspect.isfunction(attr):
                yield cls, name, attr, self._spanning(attr, module, qual)
            elif isinstance(attr, staticmethod):
                yield cls, name, attr, staticmethod(self._spanning(attr.__func__, module, qual))

    def __enter__(self):
        """Swap the wrappers in; the `with` block is one traced pass."""
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        return False


def _recat_modules():
    return [m for name, m in list(sys.modules.items()) if name == "recat" or name.startswith("recat.")]


def probe_ns_per_op(R, operands, min_seconds=0.2):
    """(exact, float) ns per public conj/imp call on a sampled operand mix.

    When the sample holds no float calls, the exact operands are replayed as
    floats, so both figures always describe the same workload.
    """
    ops = {"conj": R.tnorm.conj, "imp": R.tnorm.imp}
    exact = [(ops[op], t, x, y) for op, t, x, y in operands if not isinstance(x, float)]
    floats = [(ops[op], t, x, y) for op, t, x, y in operands if isinstance(x, float)]
    if not floats:
        floats = [(fn, t, float(x), float(y)) for fn, t, x, y in exact]
    return _replay(exact, min_seconds), _replay(floats, min_seconds)


def _replay(ops, min_seconds):
    """Median ns per call over repeated replays of the operand list."""
    if not ops:
        return 0.0
    rounds = []
    spent = 0.0
    while spent < min_seconds or len(rounds) < 3:
        t0 = time.perf_counter_ns()
        for fn, t, x, y in ops:
            fn(t, x, y)
        dt = time.perf_counter_ns() - t0
        rounds.append(dt / len(ops))
        spent += dt / 1e9
    rounds.sort()
    return rounds[len(rounds) // 2]
