"""Spans around freeclt's layer boundaries, recorded from outside the library.

`Tracer.install` replaces each traced function at every name it is bound to
in the package's modules -- the names its callers look up at call time, such
as both `freeclt.flow.flow_v` and `freeclt.pipeline.flow_v` -- with a
wrapper, and `uninstall` puts the originals back.

Two kinds of wrapper:

* a span records (id, name, start, end, parent id, operation id) in memory;
  its self time is its duration minus the union of its children's
  intervals, so children running in worker threads are not counted twice;
* a leaf, for calls made thousands of times per power (Cauchy transforms,
  flow-kernel sums), only adds its duration, call count and work count to
  per-name totals and to its parent's covered time.
"""

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class _Frame:
    __slots__ = ("sid", "name", "start", "leaf_s", "children")

    def __init__(self, sid: int, name: str, start: float):
        self.sid = sid
        self.name = name
        self.start = start
        self.leaf_s = 0.0      # leaf time, always in this frame's own thread
        self.children: List[tuple] = []   # (start, end) of child spans


def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "work", "worst", "worker_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0.0          # points (or points x nodes) handed over
        self.worst = 0.0         # largest figure a post hook reported
        self.worker_s = 0.0      # duration of spans opened in pool threads


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.stats: Dict[str, Stat] = defaultdict(Stat)
        self.op_id = -1
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[_Frame] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()   # pool threads update shared stats
        self._saved: List[tuple] = []
        self._leaves: List[str] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: List[_Frame]) -> Optional[_Frame]:
        if stack:
            return stack[-1]
        # a pool thread's outermost span belongs to the span that is open
        # in the main thread, which is waiting on the pool
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def span(self, name: Callable, fn: Callable,
             post: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; name(args, kwargs) gives the span name."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            frame = _Frame(next(tracer._ids), name(args, kwargs), _clock())
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame.start
                covered = frame.leaf_s + _union_length(frame.children)
                with tracer._lock:
                    st = tracer.stats[frame.name]
                    st.calls += 1
                    st.total_s += dur
                    st.self_s += dur - covered
                    if stack is not tracer._main_stack and not stack:
                        st.worker_s += dur
                    if post is not None and result is not None:
                        post(st, args, result)
                if parent is not None:
                    parent.children.append((frame.start, end))
                tracer.spans.append((frame.sid, frame.name, frame.start, end,
                                     None if parent is None else parent.sid,
                                     tracer.op_id))

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn: Callable, work: Callable) -> Callable:
        """Wrap a hot call in a counter; work(args) sizes one call."""
        tracer = self
        st = self.stats[name]
        self._leaves.append(name)
        main_stack = self._main_stack
        main_id = self._main.ident
        get_ident = threading.get_ident
        lock = self._lock

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                stack = main_stack if get_ident() == main_id \
                    else tracer._stack()
                parent = stack[-1] if stack else tracer._parent(stack)
                with lock:
                    st.calls += 1
                    st.total_s += dur
                    st.work += work(args)
                    if parent is not None:
                        parent.leaf_s += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def _replace(self, modules, original: Callable, wrapper: Callable) -> None:
        """Bind wrapper wherever a module binds original."""
        bound = False
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    bound = True
        if not bound:
            raise RuntimeError(f"{original.__qualname__}: no binding to trace")

    def install(self, freeclt) -> None:
        import numpy as np
        from freeclt import cli, flow, functionals, measures, pipeline, \
            transforms

        mods = (freeclt, measures, transforms, flow, pipeline, functionals,
                cli)
        fixed = lambda label: (lambda args, kwargs: label)

        def lp_name(args, kwargs):
            p = kwargs.get("p", args[1] if len(args) > 1 else None)
            return f"functionals.lp_{float(p):.1f}"

        def neville(st, _args, result):
            st.worst = max(st.worst, float(np.max(result.error)))

        def v_points(st, args, _result):
            st.work += np.size(args[1])

        spans = [
            (measures.build_table, "measures.build_table", None),
            (transforms.find_support_interval, "transforms.support_scan", None),
            (transforms.stieltjes_invert, "transforms.invert", neville),
            (transforms.companion_measure, "transforms.companion", None),
            (flow.flow_region, "flow.region", None),
            (flow.flow_curve, "flow.curve", None),
            (flow.flow_v, "flow.v", v_points),
            (flow.region_integral, "flow.moments", None),
            (pipeline.clt_density_flow, "pipeline.flow", None),
            (pipeline.clt_density_subordination, "pipeline.sub", None),
            (functionals.sup_distance, "functionals.sup", None),
            (functionals.free_entropy, "functionals.chi", None),
            (functionals.free_fisher, "functionals.phi", None),
            (functionals._report_row, "functionals.row", None),
            (functionals.report_row, "functionals.report_row", None),
            (functionals.convergence_report, "functionals.report", None),
            (cli.main, "cli.main", None),
        ]
        for fn, label, post in spans:
            self._replace(mods, fn, self.span(fixed(label), fn, post))
        self._replace(mods, functionals.lp_distance,
                      self.span(lp_name, functionals.lp_distance))

        points = lambda args: np.size(args[1])
        for fn in (transforms.cauchy, transforms.cauchy_derivative):
            self._replace(mods, fn, self.leaf("transforms.cauchy", fn, points))

        kernel_work = lambda args: np.size(args[1]) * args[0].nodes.size
        cls = flow.FlowKernel
        for meth in ("integral_I", "integral_J", "second_moments"):
            fn = vars(cls)[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self.leaf("flow.kernel", fn, kernel_work))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def overhead_s(self, repeats: int = 20000) -> float:
        """What the wrappers added to the traced calls: the number of spans
        and leaf calls times the cost of one wrapper, timed on a no-op."""
        probe = Tracer()
        noop = lambda *args: None
        arg = (None, [0.0] * 4)
        span = probe.span(lambda args, kwargs: "noop", noop)
        leaf = probe.leaf("noop", noop, lambda args: len(args[1]))

        def per_call(fn) -> float:
            start = _clock()
            for _ in range(repeats):
                fn(*arg)
            return (_clock() - start) / repeats

        base = per_call(noop)
        leaf_calls = sum(self.stats[name].calls for name in set(self._leaves))
        return (len(self.spans) * (per_call(span) - base)
                + leaf_calls * (per_call(leaf) - base))

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")
