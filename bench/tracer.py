"""Span tracing of qlab from outside the package.

``Tracer.install()`` replaces every public function of the layer modules
(``qlab.streams`` ... ``qlab.cli``) in every qlab namespace that holds it, so
``qlab.models.sample_quenched_paths`` and the name imported into
``qlab.experiments`` both record.  Public methods are wrapped on their
class, as are the few constructors the metrics need (stream inits, model
validation, sample sorting), and ``qlab.experiments.ProcessPoolExecutor``
is replaced by a subclass that times each pool from start to shutdown.

A span is (name, start, end, parent, run id); the run id is the index of
the ``cli.run`` call that caused it, or -1 during set-up.  Spans stay in
memory until ``write``.  After AGGREGATE_AFTER calls of one name under one
parent, further calls fold into a single record that keeps the call count
and the summed duration.  Self time is a span's duration minus the
durations of its child spans.  Pool worker processes are not traced: the
pool initializer switches the inherited tracer off.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("streams", "models", "projections", "paths", "markov_ops", "stats",
          "experiments", "cli")
AGGREGATE_AFTER = 10_000

# constructors that do measurable work, and the span each one records
CONSTRUCTORS = {
    ("streams", "RandomStream", "__init__"): "streams.stream_init",
    ("models", "LinearModel", "__post_init__"): "models.load",
    ("models", "MarkovFunctionalModel", "__post_init__"): "models.load",
    ("stats", "EmpiricalSample", "__post_init__"): "stats.empirical_sample",
}

_ACTIVE = []   # the installed tracer, so pool workers can switch it off


def _detach_worker():
    for tracer in _ACTIVE:
        tracer.active = False


def _count_draws(tracer, name, args, kwargs, result):
    tracer.add(f"{name}.draws", result.size)


def _count_path_outputs(tracer, name, args, kwargs, result):
    kind = "markov_transitions" if _is_markov(args, kwargs) else "fir_outputs"
    tracer.add(f"models.{kind}", result.values.size)


def _count_grid_values(tracer, name, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tracer.add("paths.of_grid.values", getattr(grid, "size", 0))


def _is_markov(args, kwargs) -> bool:
    model = args[0] if args else kwargs.get("model")
    return hasattr(model, "transition")


def _model_kind(args, kwargs) -> str:
    return "markov" if _is_markov(args, kwargs) else "linear"


# span name -> (label of the call, counter hook on its result)
HOOKS = {
    "streams.uniform_open": (None, _count_draws),
    "streams.normal": (None, _count_draws),
    "streams.integers": (None, _count_draws),
    "models.sample_quenched_paths": (_model_kind, _count_path_outputs),
    "paths.of_grid": (None, _count_grid_values),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.active = True
        self.run_id = -1
        self.counters = {}
        self._names, self._ids = [], {}
        self._name, self._run = array("i"), array("i")
        self._parent, self._count = array("q"), array("q")
        self._start, self._end, self._dur = array("d"), array("d"), array("d")
        self._stack, self._t0 = [-1], []
        self._calls_under, self._aggregate = {}, {}

    # --- recording ---------------------------------------------------------

    def add(self, counter: str, amount: int = 1):
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    def enter(self, name: str):
        t = time.perf_counter()
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        parent = self._stack[-1]
        key = (parent, nid)
        calls = self._calls_under[key] = self._calls_under.get(key, 0) + 1
        idx = self._aggregate.get(key) if calls > AGGREGATE_AFTER else None
        if idx is None:
            idx = len(self._name)
            self._name.append(nid)
            self._run.append(self.run_id)
            self._parent.append(parent)
            self._count.append(0)
            self._start.append(t)
            self._end.append(t)
            self._dur.append(0.0)
            if calls > AGGREGATE_AFTER:
                self._aggregate[key] = idx
        self._stack.append(idx)
        self._t0.append(t)

    def exit(self):
        t = time.perf_counter()
        idx = self._stack.pop()
        self._end[idx] = t
        self._count[idx] += 1
        self._dur[idx] += t - self._t0.pop()

    def span(self, fn, name: str):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        label, hook = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name if label is None else f"{name}:{label(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer, name, args, kwargs, result)
            return result

        return traced

    # --- installation ------------------------------------------------------

    def install(self):
        """Wrap the public names of every qlab layer module."""
        import qlab
        modules = {layer: importlib.import_module(f"qlab.{layer}")
                   for layer in LAYERS}
        namespaces = [qlab, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.span(obj, f"{layer}.{attr}")
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        self._install_pool(modules["experiments"])
        _ACTIVE.append(self)

    def _install_class(self, layer: str, cls):
        for attr, member in list(vars(cls).items()):
            special = CONSTRUCTORS.get((layer, cls.__name__, attr))
            if special is not None:
                setattr(cls, attr, self.span(member, special))
            elif inspect.isfunction(member) and not attr.startswith("_"):
                setattr(cls, attr, self.span(member, f"{layer}.{attr}"))

    def _install_pool(self, experiments):
        tracer = self
        base = getattr(experiments, "ProcessPoolExecutor", None)
        if base is not None:
            class TracedPool(base):
                def __init__(self, *args, **kwargs):
                    if tracer.active and "initializer" not in kwargs:
                        kwargs["initializer"] = _detach_worker
                    self._traced = tracer.active
                    if self._traced:
                        tracer.add("experiments.pool_starts")
                        tracer.enter("experiments.pool")
                    try:
                        super().__init__(*args, **kwargs)
                    except BaseException:
                        if self._traced:
                            self._traced = False
                            tracer.exit()
                        raise

                def submit(self, *args, **kwargs):
                    if self._traced:
                        tracer.add("experiments.pool_tasks")
                    return super().submit(*args, **kwargs)

                def shutdown(self, *args, **kwargs):
                    try:
                        super().shutdown(*args, **kwargs)
                    finally:
                        if self._traced:
                            self._traced = False
                            tracer.exit()

            experiments.ProcessPoolExecutor = TracedPool
        mapper = getattr(experiments, "_map_ordered", None)
        if mapper is not None:
            @functools.wraps(mapper)
            def counted(fn, tasks, *args, **kwargs):
                if tracer.active:
                    tracer.add("experiments.blocks", len(tasks))
                return mapper(fn, tasks, *args, **kwargs)

            experiments._map_ordered = counted

    # --- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per run id and span name: calls, inclusive and self seconds."""
        n = len(self._name)
        child = [0.0] * n
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                child[parent] += self._dur[i]
        runs = {}
        for i in range(n):
            per_name = runs.setdefault(str(self._run[i]), {})
            entry = per_name.setdefault(self._names[self._name[i]], [0, 0.0, 0.0])
            entry[0] += self._count[i]
            entry[1] += self._dur[i]
            entry[2] += self._dur[i] - child[i]
        return {"runs": {run: {name: {"calls": c, "incl_s": incl, "self_s": own}
                               for name, (c, incl, own) in names.items()}
                         for run, names in runs.items()},
                "records": n,
                "min_self_s": min((self._dur[i] - child[i] for i in range(n)),
                                  default=0.0)}

    def write(self, path: str):
        """Write every span record as CSV."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run,count,dur\n")
            for i in range(len(self._name)):
                fh.write(f"{self._names[self._name[i]]},{self._start[i]!r},"
                         f"{self._end[i]!r},{self._parent[i]},{self._run[i]},"
                         f"{self._count[i]},{self._dur[i]!r}\n")
