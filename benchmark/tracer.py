"""Out-of-tree tracer for the nocsim benchmark.

Nothing inside ``src/nocsim`` is instrumented.  Instead the tracer
wraps public functions from the outside: for each traced function it
rebinds *every* attribute of every loaded ``nocsim`` module that is
bound to the same function object.  That matters because modules
import each other's functions by name (``simkernel`` and ``shmu`` do
``from .mapsched import asap_schedule, run_heuristic``, and
``nocsim/__init__`` re-exports them), so patching one name would let
calls through the other names escape.  Methods are patched on their
class.

Spans (name, start, end, parent, instance) are kept in memory and
written out at the end; a span's self time is its duration minus the
durations of its direct children.  High-frequency methods (route
lookups, health-map serialization, cache stores, route-provider
builds) are counted, not spanned, so their time stays in the caller's
self time.
"""

import functools
import statistics
import sys
import time
import weakref

# (module, function) pairs that get a span per call.  The module is
# the layer the span's self time is charged to.
SPANNED = (
    ("scenario", "load_scenario"),
    ("scenario", "parse_scenario"),
    ("graphs", "build_mesh"),
    ("graphs", "random_task_graph"),
    ("graphs", "build_task_graph"),
    ("graphs", "cluster_tasks"),
    ("routing", "build_routing_graph"),
    ("routing", "is_deadlock_free"),
    ("health", "shm_tag"),
    ("reachability", "build_region_tables"),
    ("reachability", "should_drop"),
    ("mapsched", "run_heuristic"),
    ("mapsched", "asap_schedule"),
    ("shmu", "map_and_store"),
    ("shmu", "map_and_deploy"),
)
SPANNED_METHODS = (("simkernel", "Kernel", "run"),)

LAYERS = ("scenario", "graphs", "routing", "health", "reachability",
          "mapsched", "shmu", "simkernel")


class Tracer:
    """Installs wrappers on the loaded nocsim modules, records spans
    and counters, and removes the wrappers again on uninstall()."""

    def __init__(self):
        self.spans = []                     # [name, start, end, parent, instance, error]
        self.instance = None
        self.counts = {"route.calls": 0, "route.hits": 0,
                       "route_provider.builds": 0, "mpm.evictions": 0,
                       "serialize.calls": 0, "evaluations": 0}
        self._stack = []
        self._undo = []

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.instance, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _run_heuristic(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["evaluations"] += result.evaluations
            return result

        return wrapper

    def _route(self, fn):
        counts = self.counts
        seen = weakref.WeakKeyDictionary()  # provider -> {(src, dst)}

        @functools.wraps(fn)
        def wrapper(provider, src, dst):
            keys = seen.get(provider)
            if keys is None:
                keys = seen[provider] = set()
            counts["route.calls"] += 1
            if (src, dst) in keys:
                counts["route.hits"] += 1
            else:
                keys.add((src, dst))
            return fn(provider, src, dst)

        return wrapper

    def _routes_for(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(msu, rg):
            counts["route_provider.builds"] += 1
            return fn(msu, rg)

        return wrapper

    def _store(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(mpm, entry):
            if (len(mpm) >= mpm.capacity
                    and mpm.lookup(entry.tag, entry.full_config) is None):
                counts["mpm.evictions"] += 1
            return fn(mpm, entry)

        return wrapper

    def _serialize(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(shm):
            counts["serialize.calls"] += 1
            return fn(shm)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "nocsim" or n.startswith("nocsim.")]
        pkg = sys.modules["nocsim"]

        def rebind(orig, new):
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, new)

        for modname, fname in SPANNED:
            orig = getattr(getattr(pkg, modname), fname)
            new = self._spanned(f"{modname}.{fname}", orig)
            if fname == "run_heuristic":
                new = self._run_heuristic(new)
            rebind(orig, new)

        def patch(modname, cls, meth, new):
            klass = getattr(getattr(pkg, modname), cls)
            orig = klass.__dict__[meth]
            self._undo.append((klass, meth, orig))
            setattr(klass, meth, new(orig))

        for modname, cls, meth in SPANNED_METHODS:
            patch(modname, cls, meth,
                  lambda fn, n=f"{modname}.{cls}.{meth}": self._spanned(n, fn))
        patch("mapsched", "RouteProvider", "route", self._route)
        patch("shmu", "Msu", "routes_for", self._routes_for)
        patch("shmu", "MpmMemory", "store", self._store)
        patch("health", "SystemHealthMap", "serialize", self._serialize)
        return self

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def reset_counts(self):
        for key in self.counts:
            self.counts[key] = 0

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Self time per span: duration minus direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, prefix):
        """Per span name, over spans whose instance starts with
        `prefix`: calls, self seconds, outer seconds (duration of calls
        not nested in a span of the same layer), durations, and error
        counts by exception name."""
        own = self.self_times()
        out = {}
        for i, s in enumerate(self.spans):
            if not s[4].startswith(prefix):
                continue
            d = out.setdefault(s[0], {"calls": 0, "self_s": 0.0,
                                      "outer_s": 0.0, "durations": [],
                                      "errors": {}})
            dur = s[2] - s[1]
            d["calls"] += 1
            d["self_s"] += own[i]
            d["durations"].append(dur)
            if s[5] is not None:
                d["errors"][s[5]] = d["errors"].get(s[5], 0) + 1
            parent = self.spans[s[3]][0] if s[3] >= 0 else ""
            if parent.split(".")[0] != s[0].split(".")[0]:
                d["outer_s"] += dur
        return out

    def layer_self(self, prefix):
        """Self seconds per layer over spans of the given instances."""
        own = self.self_times()
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            if s[4].startswith(prefix):
                out[s[0].split(".")[0]] += own[i]
        return out

    def write(self, path):
        """Spans as text, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index name start_s end_s parent instance error\n")
            for i, (name, start, end, parent, inst, err) in enumerate(self.spans):
                fh.write(f"{i} {name} {start - t0:.9f} {end - t0:.9f} "
                         f"{parent} {inst} {err or '-'}\n")


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles; the only
    value when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
