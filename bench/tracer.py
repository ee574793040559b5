"""Per-layer tracing of barmc from outside the package.

The engine has no tracing of its own, so this module patches it in
place: every public function and method of a layer module is replaced
by a wrapper, and every module namespace that imported the original by
name (``from .linalg import solve``) is rebound to the wrapper.  Nothing
under ``src/`` changes.

Two instruments, installed in separate processes:

* ``Spans`` times layers.  A layer's self time is the time during which
  it is the innermost layer entered; a call from a layer into itself
  does not open a new span, so nested same-layer calls count once.
  Time spent outside every layer span goes to ``other``, so the self
  times add up to the traced wall exactly.  Work counters (eliminations,
  residual tuples, HomSet builds, ...) ride on the same wrappers.
* ``Counts`` counts the elementwise primitives (Scalar arithmetic,
  ``Field.__call__`` and the sparse vector helpers of ``linalg``).
  They run millions of times per job; timing them with spans would
  charge the wrapper cost to every layer that calls them, so they are
  left unwrapped in the span pass and their cost stays with the caller.
"""

import functools
import importlib
import inspect
import sys
from time import perf_counter

# scalars is counted by Counts only
SPAN_LAYERS = ("linalg", "ainfinity", "bar", "mc", "twisting", "transfer",
               "artin")
OTHER = "other"

# Scalar arithmetic dunders; __radd__ and __rmul__ are aliases of
# __add__ and __mul__ in the class body and need their own wrappers.
SCALAR_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
              "inverse")
VECTOR_OPS = ("vec_add", "vec_scale", "vec_neg", "vec_sub", "vec_eq",
              "vec_is_zero", "vec_clean")

# Layer counters: dotted name inside barmc -> hook(counters, args, result).
# install() fails when a name no longer resolves, so a refactor cannot
# silently turn a counter into a zero.
HOOKS = {
    "linalg.Elimination.__init__": lambda c, a, r: c.add(
        ("linalg.eliminations", 1),
        ("linalg.rows_eliminated", a[1].nrows),
        ("linalg.cells_eliminated", a[1].nrows * a[1].ncols)),
    "linalg.Subspace.__init__": lambda c, a, r: c.add(
        ("linalg.subspace_builds", 1)),
    "linalg.SpanSolver.coordinates": lambda c, a, r: c.add(
        ("linalg.span_queries", 1)),
    "linalg.Subspace.reduce": lambda c, a, r: c.add(
        ("linalg.span_queries", 1)),
    "ainfinity.stasheff_residual": lambda c, a, r: c.add(
        ("ainfinity.residual_tuples", 1)),
    "ainfinity.morphism_residual": lambda c, a, r: c.add(
        ("ainfinity.residual_tuples", 1)),
    "ainfinity.b_residual": lambda c, a, r: c.add(
        ("ainfinity.residual_tuples", 1)),
    "ainfinity.AInfAlgebra.eval_m_vectors": lambda c, a, r: c.add(
        ("ainfinity.evals", 1)),
    "ainfinity.tensor_with_dg": lambda c, a, r: c.add(
        ("ainfinity.tensor_builds", 1),
        ("ainfinity.tensor_entries",
         sum(len(t) for t in r.m.entries.values()))),
    "bar.DualTruncation.__init__": lambda c, a, r: c.add(
        ("bar.duals_built", 1), ("bar.dual_dim", a[0].space.dim())),
    "mc.DeformationSetup.__init__": lambda c, a, r: c.add(("mc.setups", 1)),
    "mc.DeformationSetup.mc_residual": lambda c, a, r: c.add(
        ("mc.candidates", 1)),
    "mc.DeformationSetup.enumerate_mc": lambda c, a, r: c.add(
        ("mc.elements", len(r))),
    "mc.DeformationSetup.category_op": lambda c, a, r: c.add(
        ("mc.category_ops", 1)),
    "mc.HomSet.__init__": lambda c, a, r: c.add(("mc.homsets", 1)),
    "twisting.algebra_maps": lambda c, a, r: c.add(
        ("twisting.algebra_maps", len(r))),
    "twisting.induced_map": lambda c, a, r: c.add(
        ("twisting.induced_maps", 1)),
    "transfer.build_splitting": lambda c, a, r: c.add(
        ("transfer.splittings", 1)),
    "artin.quotient_by_power": lambda c, a, r: c.add(
        ("artin.quotients", 1)),
}
SPAN_COUNTERS = (
    "linalg.eliminations", "linalg.rows_eliminated", "linalg.cells_eliminated",
    "linalg.subspace_builds", "linalg.span_queries",
    "ainfinity.residual_tuples", "ainfinity.evals", "ainfinity.tensor_builds",
    "ainfinity.tensor_entries", "bar.duals_built", "bar.dual_dim",
    "mc.setups", "mc.candidates", "mc.elements", "mc.category_ops",
    "mc.homsets", "twisting.algebra_maps", "twisting.induced_maps",
    "transfer.splittings", "artin.quotients")
COUNT_COUNTERS = ("scalars.ops", "scalars.coercions", "linalg.vector_ops")


class Counters(dict):
    def add(self, *pairs):
        for name, amount in pairs:
            self[name] = self.get(name, 0) + amount


def layer_module(layer):
    return importlib.import_module("barmc." + layer)


def resolve(dotted):
    """(owner, attribute name) for 'module.func' or 'module.Class.method'."""
    parts = dotted.split(".")
    owner = layer_module(parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    if parts[-1] not in vars(owner):
        raise AttributeError("barmc.%s does not exist" % dotted)
    return owner, parts[-1]


def public_callables(module):
    """(owner, name, raw attribute) for each public function and method.

    Methods are taken from the class __dict__, so an alias such as
    ``__radd__ = __add__`` is listed under each of its names.  Dunder
    methods count as public; single-underscore names do not.
    """
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and not attr.startswith("__"):
                    continue
                if isinstance(raw, (staticmethod, classmethod, property)) \
                        or inspect.isfunction(raw):
                    out.append((obj, attr, raw))
    return out


def _rewrap(raw, wrap):
    """Apply wrap to the function inside a method-like attribute."""
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, property):
        return property(wrap(raw.fget) if raw.fget else None,
                        wrap(raw.fset) if raw.fset else None,
                        wrap(raw.fdel) if raw.fdel else None, raw.__doc__)
    return wrap(raw)


class _Patcher:
    """Replaces attributes and rebinds every by-name import of them."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.saved = []
        self.replaced = {}

    def replace(self, owner, name, new):
        raw = vars(owner)[name]
        self.saved.append((owner, name, raw))
        setattr(owner, name, new)
        if inspect.isfunction(raw):
            self.replaced[raw] = new

    def rebind_imports(self):
        """Point every ``from .x import f`` binding at f's wrapper."""
        for module in namespaces(self.extra_modules):
            for name, value in list(vars(module).items()):
                new = self.replaced.get(value) if inspect.isfunction(value) else None
                if new is not None:
                    self.saved.append((module, name, value))
                    setattr(module, name, new)

    def restore(self):
        for owner, name, raw in reversed(self.saved):
            setattr(owner, name, raw)
        self.saved.clear()
        self.replaced.clear()


def namespaces(extra_modules=()):
    """The barmc modules plus any caller modules that import from them."""
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "barmc" or n.startswith("barmc."))]
    return mods + [m for m in extra_modules if m not in mods]


class Spans:
    """Layer self times, layer entries and work counters."""

    def __init__(self, extra_modules=()):
        self.patcher = _Patcher(extra_modules)
        self.counters = Counters()
        self.self_s = dict.fromkeys(SPAN_LAYERS + (OTHER,), 0.0)
        self.entries = dict.fromkeys(SPAN_LAYERS, 0)
        self.layer = OTHER
        self.mark = None
        self.wall_s = None

    def install(self):
        hooked = {}
        for dotted in HOOKS:
            owner, name = resolve(dotted)
            hooked[(owner, name)] = HOOKS[dotted]
        for layer in SPAN_LAYERS:
            module = layer_module(layer)
            for owner, name, raw in public_callables(module):
                if module.__name__ == "barmc.linalg" and name in VECTOR_OPS:
                    continue
                hook = hooked.pop((owner, name), None)
                new = _rewrap(raw, lambda fn, hook=hook, layer=layer:
                              self._span(layer, self._hooked(fn, hook)))
                self.patcher.replace(owner, name, new)
        if hooked:
            raise AttributeError("counter hooks on non-public names: %r"
                                 % sorted(n for _, n in hooked))
        self.patcher.rebind_imports()

    def restore(self):
        self.patcher.restore()

    def _hooked(self, fn, hook):
        if hook is None:
            return fn
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counters, args, result)
            return result
        return counted

    def _span(self, layer, fn):
        state = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outer = state.layer
            if outer == layer:
                return fn(*args, **kwargs)
            now = perf_counter()
            state.self_s[outer] += now - state.mark
            state.layer = layer
            state.mark = now
            state.entries[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                state.self_s[layer] += now - state.mark
                state.layer = outer
                state.mark = now
        return span

    def start(self):
        self.mark = self.t0 = perf_counter()

    def stop(self):
        now = perf_counter()
        self.self_s[self.layer] += now - self.mark
        self.wall_s = now - self.t0

    def metrics(self):
        out = {"%s.self_s" % k: v for k, v in self.self_s.items()}
        out["linalg.calls"] = self.entries["linalg"]
        for name in SPAN_COUNTERS:
            out[name] = self.counters.get(name, 0)
        cand = out["mc.candidates"]
        out["mc.hit_ratio"] = out["mc.elements"] / cand if cand else 0.0
        out["trace.wall_s"] = self.wall_s
        return out


class Counts:
    """Call counts of the elementwise primitives, without timing."""

    def __init__(self, extra_modules=()):
        self.patcher = _Patcher(extra_modules)
        self.counters = Counters()

    def install(self):
        scalars = layer_module("scalars")
        linalg = layer_module("linalg")
        targets = [(scalars.Scalar, n, "scalars.ops") for n in SCALAR_OPS]
        targets.append((scalars.Field, "__call__", "scalars.coercions"))
        targets += [(linalg, n, "linalg.vector_ops") for n in VECTOR_OPS]
        for owner, name, counter in targets:
            if name not in vars(owner):
                raise AttributeError("%s.%s does not exist"
                                     % (owner.__name__, name))
            self.patcher.replace(owner, name,
                                 self._counted(vars(owner)[name], counter))
        self.patcher.rebind_imports()

    def restore(self):
        self.patcher.restore()

    def _counted(self, fn, counter):
        counters = self.counters
        counters[counter] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def metrics(self):
        return {name: self.counters.get(name, 0) for name in COUNT_COUNTERS}
