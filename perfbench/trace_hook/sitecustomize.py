"""Span recorder for traced benchmark runs.

Python imports ``sitecustomize`` at start-up from the first directory on its
path that holds one, so a traced run puts this directory ahead of ``src`` on
PYTHONPATH and sets PERFBENCH_TRACE_DIR. Every interpreter started that way,
worker processes included, wraps the public entry points of each adjfas
layer, keeps one span per call in memory and writes its spans to
``<PERFBENCH_TRACE_DIR>/spans-<pid>.json`` when it exits. Untraced runs leave
this directory off the path, so they run the program untouched.

A span is [name, start, end, parent, search, count]: ``parent`` indexes the
enclosing span of the same thread (-1 at the root), ``search`` is the
replicate number inside ``adjfas benchmark`` (-1 elsewhere), and ``count``
is the work the call did where that is countable (rows loaded, subset
hypothesis-arms scored).
"""

import os

TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

# (module, attribute, span name); attribute "Class.method" patches a method
TARGETS = [
    ("adjfas.cli", "main", "cli.main"),
    ("adjfas.cli", "_write_json", "cli.report"),
    ("adjfas.score", "FasResult.to_dict", "cli.report"),
    ("adjfas.sim", "write_benchmark_csv", "cli.report"),
    ("adjfas.sim", "write_benchmark_summary", "cli.report"),
    ("adjfas.data", "load_observational", "data.load"),
    ("adjfas.data", "load_experiment", "data.load"),
    ("adjfas.score", "candidate_pool", "score.pool"),
    ("adjfas.score", "score_hypotheses", "score.score"),
    ("adjfas.bayesnet", "learn_structure", "bayesnet.learn"),
    ("adjfas.bayesnet", "fit_posterior", "bayesnet.fit"),
    ("adjfas.selection", "build_selection_bn", "selection.solve"),
    ("adjfas.sim", "generate_world", "sim.world"),
    ("adjfas.sim", "sample_datasets", "sim.sample"),
    ("adjfas.sim", "_run_replicate", "sim.replicate"),
    ("adjfas.graph", "satisfies_adjustment_criterion", "graph.validity"),
]
# The VWS baseline is a block inside the replicate, not a function: its span
# opens when vws_baseline is called and closes when the adjusted estimate
# returns (or with the replicate, if the block raised).
VWS_OPEN = ("adjfas.sim", "vws_baseline")
VWS_CLOSE = ("adjfas.sim", "_adjusted_from_instantiation")


def _count(name, result):
    if name == "data.load" and hasattr(result, "n"):
        return int(result.n)
    if name == "score.score":
        return sum(len(r.arm_scores) for h, r in result.items() if not h.is_not_exists)
    return 0


def _install(trace_dir):
    import atexit
    import functools
    import json
    import sys
    import threading
    import time

    import adjfas  # noqa: F401  (loads every layer module)
    import adjfas.cli  # noqa: F401

    clock = time.perf_counter
    spans = []
    local = threading.local()
    lock = threading.Lock()

    def stack():
        if not hasattr(local, "stack"):
            local.stack, local.search = [], -1
        return local.stack

    def open_span(name):
        st = stack()
        with lock:
            spans.append([name, clock(), None, st[-1] if st else -1, local.search, 0])
            idx = len(spans) - 1
        st.append(idx)
        return idx

    def close_to(depth):
        st, now = stack(), clock()
        while len(st) > depth:
            spans[st.pop()][2] = now

    def wrap(fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stack()
            depth = len(st)
            outer_search = local.search
            if name == "sim.replicate":
                local.search = args[0]
            idx = open_span(name)
            try:
                result = fn(*args, **kwargs)
                spans[idx][5] = _count(name, result)
                return result
            finally:
                close_to(depth)
                local.search = outer_search
        return traced

    def wrap_vws_open(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_span("sim.vws")
            return fn(*args, **kwargs)
        return traced

    def wrap_vws_close(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                st = stack()
                for depth in range(len(st) - 1, -1, -1):
                    if spans[st[depth]][0] == "sim.vws":
                        close_to(depth)
                        break
        return traced

    def patch(modname, attr, make):
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(mod, attr)
        replacement = make(original)
        # rebind every module-level reference, since modules import by name
        for name, m in list(sys.modules.items()):
            if name == "adjfas" or name.startswith("adjfas."):
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, replacement)

    for modname, attr, name in TARGETS:
        patch(modname, attr, lambda fn, name=name: wrap(fn, name))
    patch(*VWS_OPEN, wrap_vws_open)
    patch(*VWS_CLOSE, wrap_vws_close)

    def dump():
        with lock:
            now = clock()
            rows = [s[:2] + [now if s[2] is None else s[2]] + s[3:] for s in spans]
        path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f)

    atexit.register(dump)


if TRACE_DIR:
    _install(TRACE_DIR)
