"""Span tracing of repelflow's layers, installed from outside the package.

``Tracer.install`` replaces each public function of a layer (the names in
its module's ``__all__``; ``run`` for the CLI, which has no ``__all__``)
by a wrapper that records a span, and it does so by object identity: every
module-global binding across ``repelflow.*`` that *is* the function gets
the wrapper.  That catches aliases such as ``diagnostics._l1_profiles``
and the names other modules import, so calls between layers are traced
as well as calls from the benchmark.  The potentials layer is traced at
the class level (``RadialPotential.value/slope/laplacian``), where the
solvers spend their time in it.  ``geometry`` has no public function on a
hot path and is left untraced.

Spans are kept in memory as ``[name, start, end, parent]`` lists and only
written out by ``dump`` when the run ends.  Nothing here runs unless a
tracer is installed, so untraced runs execute the package unmodified.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("particles", "attraction", "lagrangian", "diagnostics", "density",
          "steady", "potentials")
CLI_PUBLIC = ("run",)
POTENTIAL_METHODS = ("value", "slope", "laplacian")


def _pair_evals(call, result):
    n = call.arguments["cloud"].n
    return {"pair_evals": n * n}


def _kernel_evals(call, result):
    # .get with the function's defaults: a changed signature gives a wrong
    # count, never a failed operation; no angle rule counts 0 nodes
    args = call.arguments
    n_s = args.get("n_s", 1025)
    passes = n_s + (2 * n_s - 1 if args.get("_refine_check", True) else 0)
    theta_nodes = getattr(sys.modules["repelflow.attraction"], "_THETA_NODES", 0)
    return {"kernel_evals": len(args.get("r", ())) * passes * theta_nodes}


def _stage_budget(call, result):
    return {"rk_stages_accepted": call.arguments["config"].rk_order}


def _iterations(call, result):
    return {"attraction_iterations": result[1].iteration}


# work counts computed from the arguments and result of a traced call
NOTES = {
    "particles.velocity_field": _pair_evals,
    "attraction.spherical_mean_convolve": _kernel_evals,
    "lagrangian.step": _stage_budget,
    "attraction.solve_attraction_steady": _iterations,
}


class Tracer:
    """Records one span per call of a traced repelflow function."""

    def __init__(self):
        self.spans = []
        self.work = {}
        self._stack = []
        self._patches = []

    def wrap(self, name, func):
        spans, stack, work = self.spans, self._stack, self.work
        clock = time.perf_counter
        note = NOTES.get(name)
        signature = inspect.signature(func) if note else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                for key, n in note(call, result).items():
                    work[key] = work.get(key, 0) + n
            return result
        return traced

    def install(self):
        """Patch every repelflow binding of every traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS + ("cli",):
            module = importlib.import_module(f"repelflow.{layer}")
            names = CLI_PUBLIC if layer == "cli" else module.__all__
            for attr in names:
                func = getattr(module, attr)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    wrappers[id(func)] = (func, self.wrap(f"{layer}.{attr}", func))
        for modname, module in list(sys.modules.items()):
            if modname != "repelflow" and not modname.startswith("repelflow."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        potential = importlib.import_module("repelflow.potentials").RadialPotential
        for attr in POTENTIAL_METHODS:
            method = potential.__dict__[attr]
            self._patches.append((potential, attr, method))
            setattr(potential, attr, self.wrap("potentials.eval", method))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self):
        """(owner, attribute) pairs currently patched, for inspection."""
        return [(owner, attr) for owner, attr, _ in self._patches]

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names, "work": self.work,
                       "spans": [[index[s[0]], s[1], s[2], s[3]]
                                 for s in self.spans]}, fh)


class SpanStats:
    """Per-name totals derived from a span list.

    ``seconds`` counts each name's outermost spans only, so a name nested
    in itself (``laplacian`` calling ``slope``) is not counted twice;
    ``self_seconds`` subtracts the time covered by direct child spans.
    """

    def __init__(self, spans):
        self.spans = spans
        self.calls, self.seconds, self.self_seconds = {}, {}, {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_seconds[name] = (self.self_seconds.get(name, 0.0)
                                       + dur - child_time[i])
            if not self.inside(i, name):
                self.seconds[name] = self.seconds.get(name, 0.0) + dur

    def inside(self, i, name):
        """True if span i has an ancestor span called ``name``."""
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def count_inside(self, name, ancestor):
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == name and self.inside(i, ancestor))
