"""In-memory span tracing of dyk3, installed from outside the package.

Wrappers are bound at every place the program looks a callable up: a class
attribute for methods, and every dyk3 module global that holds the function
for plain functions (``find_roots`` is imported by name into ``sscan`` and
``surface``; ``fibre_key`` is looked up in ``kodaira``'s globals).  A
callable wrapped for spans records (name, start, end, parent, item) per
call; a hot callable is wrapped for a call count only, because a span per
call would cost more than the call.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# Targets that stand for several callables, timed under one span name:
# every fixture loader, and every public model constructor.  They measure
# set-up, so only their calls outside the benchmark's items are counted
# (verify_kummer_match, for one, builds models inside an item).
GROUPS = {
    "fixtures.load": lambda mod: [n for n in vars(mod)
                                  if n.startswith("load_")],
    "models.build": lambda mod: [n for n, v in vars(mod).items()
                                 if callable(v) and not n.startswith("_")
                                 and getattr(v, "__module__", "") == mod.__name__],
}
STATS = ("calls", "total_s", "self_s")


def split_metric(name):
    """'tate.EllipticSurface.local_type.self_s' -> ('tate.EllipticSurface.local_type', 'self_s')."""
    target, _, stat = name.rpartition(".")
    return (target, stat) if stat in STATS else (None, None)


class Tracer:
    """Spans in parallel arrays, indexed in call (entry) order."""

    def __init__(self, metric_names):
        self.want_spans = set()
        self.want_counts = set()
        for name in metric_names:
            target, stat = split_metric(name)
            if target is None:
                continue
            if stat == "calls":
                self.want_counts.add(target)
            else:
                self.want_spans.add(target)
        self.want_counts -= self.want_spans
        self.names = []
        self._ids = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_item = array("i")
        self.s_nested = array("b")   # an enclosing span has the same name
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack = [-1]
        self._depth = []
        self.item = -1
        self.counts = {}
        self._undo = []

    # -- recording ------------------------------------------------------------
    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.s_start)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1])
        self.s_item.append(self.item)
        self.s_nested.append(self._depth[nid] > 0)
        self.s_end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.s_start.append(perf_counter())
        return idx

    def close(self, idx):
        self.s_end[idx] = perf_counter()
        self._stack.pop()
        self._depth[self.s_name[idx]] -= 1

    def _span_wrapper(self, fn, name):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _count_wrapper(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------
    def install(self):
        """Wrap every target whose module the workload imported."""
        for target in sorted(self.want_spans | self.want_counts):
            modname, *path = target.split(".")
            mod = sys.modules.get("dyk3." + modname)
            if mod is None:
                continue
            if target in GROUPS:
                for attr in GROUPS[target](mod):
                    self._wrap_function(mod, attr, target)
            elif len(path) == 1:
                self._wrap_function(mod, path[0], target)
            else:
                self._wrap_method(getattr(mod, path[0]), path[1], target)

    def _make(self, fn, target):
        if target in self.want_spans:
            return self._span_wrapper(fn, target)
        return self._count_wrapper(fn, target)

    def _wrap_function(self, mod, attr, target):
        orig = getattr(mod, attr)
        wrapped = self._make(orig, target)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "dyk3" or name.startswith("dyk3.")):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, orig))

    def _wrap_method(self, cls, attr, target):
        raw = cls.__dict__[attr]
        setattr(cls, attr, self._make(raw, target))
        self._undo.append((cls, attr, raw))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- aggregation ------------------------------------------------------------
    def aggregate(self):
        """{name: {"calls", "total_s", "self_s"}} over all recorded spans.

        total_s counts only outermost spans of a name, so recursion is not
        counted twice; self_s is the span time not covered by child spans.
        A group target counts only its spans outside any item.
        """
        n = len(self.s_start)
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            name = self.names[self.s_name[i]]
            if name in GROUPS and self.s_item[i] >= 0:
                continue
            agg = out[name]
            agg["calls"] += 1
            if not self.s_nested[i]:
                agg["total_s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
        for name, cell in self.counts.items():
            out[name] = {"calls": cell[0], "total_s": 0.0, "self_s": 0.0}
        return out

    def top_level_time(self, root):
        """Summed time of the spans whose parent is a span named root."""
        rid = self._ids.get(root)
        total = 0.0
        for i in range(len(self.s_start)):
            p = self.s_parent[i]
            if p >= 0 and self.s_name[p] == rid:
                total += self.s_end[i] - self.s_start[i]
        return total

    def write(self, path):
        """Spans as gzipped CSV: name, start, end, parent index, item index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            names = self.names
            for i in range(len(self.s_start)):
                fh.write(f"{names[self.s_name[i]]},{self.s_start[i]:.9f},"
                         f"{self.s_end[i]:.9f},{self.s_parent[i]},"
                         f"{self.s_item[i]}\n")
