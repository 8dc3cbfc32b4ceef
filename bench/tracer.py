"""Per-layer tracing of schurtrails from outside the package.

Tracer.install wraps each traced public function at every binding site:
every attribute of a loaded module (the benchmark's own included) that is the
original function is replaced, because identities and schur import
determinant, minor, schur_poly, enumerate_families, build_graph, recolour and
trail_at_terminal by name.  Polynomial.__mul__/__rmul__ and __add__/__radd__ are wrapped on the
class.  Monomial.__mul__ runs millions of times per batch and stays unwrapped:
its time is part of the polynomial product that calls it.

Every wrapped call updates counters (calls, self seconds and layer-specific
work counts); only the coarse boundaries listed with span=True also record a
span, kept in memory and written when the run ends.  Self time is a call's
duration minus the time its wrapped children took.  Generators are timed per
item, around each next().
"""

from __future__ import annotations

import functools
import sys
import threading
import time

perf = time.perf_counter


def _mul_pairs(args, kwargs):
    a, b = args[0], args[1]
    other = getattr(b, "coeffs", None)
    return len(a.coeffs) * (len(other) if other is not None else 1)


def _steps(result):
    return len(result.steps)


def _flipped(args, kwargs):
    return sum(len(t.steps) for t in args[1])


class Target:
    """A traced function: where it lives, the counter it feeds, and what it counts."""

    def __init__(self, module, attr, name, span=False, generator=False, items=None,
                 pre_count=None, post_count=(), by_dim=False, cls=None):
        self.module = module
        self.attr = attr
        self.name = name
        self.span = span
        self.generator = generator
        self.items = items  # counter fed by each yielded item
        self.pre_count = pre_count  # (counter, fn(args, kwargs) -> int)
        self.post_count = post_count  # ((counter, fn(result) -> int), ...)
        self.by_dim = by_dim
        self.cls = cls  # class owning a wrapped method


TARGETS = (
    Target("schurtrails.polyring", "determinant", "polyring.determinant", span=True, by_dim=True),
    Target("schurtrails.polyring", "minor", "polyring.minor", span=True),
    Target("schurtrails.polyring", "complete_homogeneous", "polyring.complete_homogeneous"),
    Target("schurtrails.polyring", ("__mul__", "__rmul__"), "polyring.mul", cls="Polynomial",
           pre_count=("polyring.mul.term_pairs", _mul_pairs)),
    Target("schurtrails.polyring", ("__add__", "__radd__"), "polyring.add", cls="Polynomial"),
    Target("schurtrails.schur", "enumerate_ssyt", "schur.enumerate_ssyt", generator=True,
           items="schur.enumerate_ssyt.tableaux"),
    Target("schurtrails.schur", "enumerate_families", "schur.enumerate_families", generator=True,
           items="schur.enumerate_families.families"),
    Target("schurtrails.schur", "schur_poly", "schur.schur_poly", span=True),
    Target("schurtrails.schur", "path_weight", "schur.path_weight"),
    Target("schurtrails.identities", "schur_of", "identities.schur_of"),
    Target("schurtrails.identities", "verify_general", "identities.verify", span=True),
    Target("schurtrails.identities", "verify_kirillov", "identities.verify", span=True),
    Target("schurtrails.identities", "verify_dodgson", "identities.verify", span=True),
    Target("schurtrails.identities", "verify_pluecker", "identities.verify", span=True),
    Target("schurtrails.identities", "verify_ciucu", "identities.verify", span=True),
    Target("schurtrails.identities", "verify_kleber", "identities.verify", span=True),
    Target("schurtrails.identities", "bijection_audit", "identities.audit", span=True,
           post_count=(("identities.audit.objects", lambda rep: rep.objects),)),
    Target("schurtrails.identities", "explore_orbit", "identities.orbit", span=True,
           post_count=(("identities.orbit.patterns", lambda res: len(res.counts0) + len(res.counts1)),
                       ("identities.orbit.objects", lambda res: res.O0_size + res.O1_size))),
    Target("schurtrails.trails", "build_graph", "trails.build_graph"),
    Target("schurtrails.trails", "trail_at_terminal", "trails.trail_at_terminal",
           post_count=(("trails.trail_at_terminal.steps", _steps),)),
    Target("schurtrails.trails", "trace_trail", "trails.trace_trail"),
    Target("schurtrails.trails", "terminal_points", "trails.terminal_points"),
    Target("schurtrails.trails", "recolour", "trails.recolour", pre_count=("trails.recolour.flipped", _flipped)),
    Target("schurtrails.trails", "all_trails", "trails.all_trails", span=True),
    Target("schurtrails.trails", "terminal_matching", "trails.terminal_matching", span=True),
    Target("schurtrails.trails", "count_noncrossing_matchings", "trails.count_noncrossing_matchings", span=True),
    Target("schurtrails.partitions", "corner_encoding", "partitions"),
    Target("schurtrails.partitions", "apply_nested", "partitions"),
    Target("schurtrails.partitions", "apply_omega", "partitions"),
    Target("schurtrails.partitions", "partition_from_corners", "partitions"),
    Target("schurtrails.partitions", "partition_from_set", "partitions"),
    Target("schurtrails.svg", "render_svg", "svg.render_svg", span=True,
           post_count=(("svg.render_svg.bytes", len),)),
)


class Tracer:
    """Counters and spans for one traced stretch of a run.

    Each thread keeps its own stack of open calls, because the CLI sweep runs
    verifiers on a thread pool; counters and spans are shared and updated
    under a lock.
    """

    def __init__(self):
        self.calls = {}  # boundary name -> calls
        self.self_s = {}  # boundary name -> self seconds
        self.counts = {}  # work counters (term pairs, tableaux, ...)
        self.spans = []  # dicts: id, parent, check, name, start, end
        self._local = threading.local()  # .stack: open frames [name, start, child s, span id, had child]
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)
        self._check = None  # span id of the open check
        self._label = None

    # -------------------------------------------------------------- frames

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def count_call(self, name):
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1

    def _enter(self, name, span):
        span_id = None
        if span:
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
        self._stack().append([name, perf(), 0.0, span_id, False])

    def _exit(self):
        """Close the innermost call: (duration, self time, whether it made traced calls)."""
        now = perf()
        stack = self._stack()
        name, start, child, span_id, had_child = stack.pop()
        duration = now - start
        own = duration - child
        if stack:
            stack[-1][2] += duration
            stack[-1][4] = True
        with self._lock:
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if span_id is not None:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                self.spans[span_id] = {
                    "id": span_id, "parent": parent, "check": self._check,
                    "name": name, "start": start, "end": now,
                }
        return duration, own, had_child

    def begin_check(self, label):
        """Open the root span of one check; every span under it carries its id."""
        self._check = len(self.spans)
        self._label = label
        self._enter("check", True)

    def end_check(self):
        duration, _, _ = self._exit()
        self.spans[self._check]["label"] = self._label
        self.count("check.duration_s", duration)
        self._check = None

    def count_schur_cache(self):
        """Add the Schur cache's hits and misses since it was last cleared (or created)."""
        info = sys.modules["schurtrails.identities"]._schur_cached.cache_info()
        self.count("identities.schur_of.hits", info.hits)
        self.count("identities.schur_of.misses", info.misses)

    # -------------------------------------------------------------- wrappers

    def _wrap(self, fn, target):
        tracer = self
        name = target.name
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        if target.generator:
            def drive(inner):
                while True:
                    tracer._enter(name, False)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.count(target.items)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.count_call(name)
                return drive(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count_call(name)
            if target.pre_count is not None:
                tracer.count(target.pre_count[0], target.pre_count[1](args, kwargs))
            tracer._enter(name, target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration, own, had_child = tracer._exit()
            for counter, measure in target.post_count:
                tracer.count(counter, measure(result))
            if target.by_dim:
                tracer.count("%s.self_s.d%d" % (name, args[0].n_rows), own)
                tracer.count("%s.inclusive_s" % name, duration)
            if name == "identities.schur_of" and had_child:
                # a miss: the cache computed the factor through schur_poly
                tracer.count("identities.schur_of.miss_s", duration)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding site: each loaded module attribute that is the original."""
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for target in TARGETS:
            home = sys.modules[target.module]
            if target.cls is not None:
                owner = getattr(home, target.cls)
                original = owner.__dict__[target.attr[0]]
                wrapped = self._wrap(original, target)
                for attr in target.attr:
                    self._patches.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapped)
                continue
            original = getattr(home, target.attr)
            wrapped = self._wrap(original, target)
            for module in modules:
                table = getattr(module, "__dict__", None)
                if not isinstance(table, dict):
                    continue
                for attr, value in list(table.items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -------------------------------------------------------------- export

    def snapshot(self):
        """Counters as one JSON-ready dict, for merging across processes."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}

    def merge(self, snap):
        for key, table in (("calls", self.calls), ("self_s", self.self_s), ("counts", self.counts)):
            for name, value in snap[key].items():
                table[name] = table.get(name, 0) + value
