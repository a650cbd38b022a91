"""Outside-in tracer for the engine's layers.

``Tracer.install()`` replaces every public function and method of the layer
modules (plus the operator dunders of their public classes) with a wrapper,
at every place the package holds a reference to it: the defining module,
each module that imported the name by value, and the package root.
``Tracer.remove()`` puts every original back and checks that no wrapper is
left anywhere.

Each wrapper counts calls and measures inclusive time (outermost call only,
so recursion is not counted twice) and self time (its own duration minus
that of wrapped callees).  The self times of all layers thus partition the
time spent inside wrapped calls.  Operand sizes are read from raw fields
(``GenSeries._raw``, ``FieldTower.stages``, ``KeyPolyChain.entries``,
``PuiseuxState.emitted``) so counting triggers no lazy work in the engine.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

from workloads import LAYERS

PACKAGE = "genpuiseux"

# Operator methods worth a span: they are where one layer calls into another.
_DUNDERS = frozenset((
    "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__",
    "__truediv__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    "__hash__", "__len__"))

# Metric -> the wrapped callables it sums, as "layer:qualname".
_CALLS = {
    "groups.compare": ("groups:GroupDescriptor.compare",),
    "groups.add": ("groups:GroupElement.__add__",),
    "series.mul": ("series:GenSeries.__mul__",),
    "series.eval_poly": ("series:eval_poly",),
    "coeff.mul": ("coeff:CoeffElem.__mul__", "coeff:WittElem.__mul__"),
    "coeff.factor_poly": ("coeff:factor_poly",),
    "coeff.solve_in_closure": ("coeff:solve_in_closure",),
    "keypoly.extend_chain": ("keypoly:extend_chain",),
    "keypoly.truncated_val": ("keypoly:truncated_val",),
    "keypoly.valpoly_eval": ("keypoly:ValPoly.eval",),
    "keypoly.derivative_min_check": ("keypoly:derivative_min_check",),
    "embed.step": ("embed:step",),
    "embed.residual_equation": ("embed:residual_equation",),
    "embed.limit_step": ("embed:limit_step",),
    "truncalg.product_truncation": ("truncalg:product_truncation",),
    "truncalg.multi_product_truncation": ("truncalg:multi_product_truncation",),
    "truncalg.taylor_form": ("truncalg:taylor_form",),
    "truncalg.integral_dependence": ("truncalg:integral_dependence",),
    "cli.parse": ("cli:parse_problem", "cli:build_ring", "cli:build_valpoly"),
    "cli.format": ("series:GenSeries.to_text", "keypoly:KeyPolyChain.report"),
}
_OBSERVED = ("series:GenSeries.__mul__", "keypoly:KeyPolyChain.appended",
             "coeff:FieldTower.adjoin", "embed:expand")

# The per-layer metrics, in report order: name -> unit.
PER_LAYER = {
    "groups.compare.calls": "count", "groups.compare.self_s": "s",
    "groups.add.calls": "count", "groups.self_s": "s",
    "series.mul.calls": "count", "series.mul.term_products": "count",
    "series.mul.out_terms": "count", "series.mul.useful_ratio": "ratio",
    "series.mul.max_out_terms": "count", "series.mul.self_s": "s",
    "series.eval_poly.calls": "count", "series.eval_poly.s": "s",
    "series.self_s": "s",
    "coeff.mul.calls": "count", "coeff.self_s": "s",
    "coeff.factor_poly.calls": "count", "coeff.factor_poly.s": "s",
    "coeff.solve_in_closure.calls": "count", "coeff.solve_in_closure.s": "s",
    "coeff.tower_height.max": "count",
    "keypoly.extend_chain.calls": "count", "keypoly.extend_chain.s": "s",
    "keypoly.truncated_val.calls": "count", "keypoly.truncated_val.s": "s",
    "keypoly.valpoly_eval.calls": "count", "keypoly.valpoly_eval.s": "s",
    "keypoly.derivative_min_check.calls": "count",
    "keypoly.derivative_min_check.s": "s",
    "keypoly.chain_len.max": "count", "keypoly.self_s": "s",
    "embed.step.calls": "count", "embed.step.self_s": "s",
    "embed.residual_equation.s": "s", "embed.limit_step.calls": "count",
    "embed.steps_per_term": "ratio", "embed.self_s": "s",
    "truncalg.product_truncation.calls": "count",
    "truncalg.product_truncation.s": "s",
    "truncalg.multi_product_truncation.calls": "count",
    "truncalg.multi_product_truncation.s": "s",
    "truncalg.taylor_form.calls": "count", "truncalg.taylor_form.s": "s",
    "truncalg.integral_dependence.calls": "count",
    "truncalg.integral_dependence.s": "s", "truncalg.self_s": "s",
    "cli.parse.s": "s", "cli.format.s": "s", "cli.self_s": "s",
    "trace.pass_s": "s", "trace.overhead_s": "s",
}


class _Stat:
    __slots__ = ("layer", "calls", "incl", "self_s", "depth")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps the layers of the engine on ``install()`` and unwraps on ``remove()``."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                        for name in LAYERS}
        self.stats = {}          # "layer:qualname" -> _Stat
        self._stack = [0.0]      # child-time accumulators; [0] is the root
        self._patches = []       # (owner, attribute, original)
        self.reset()

    # -- counters ---------------------------------------------------------------

    def reset(self):
        for st in self.stats.values():
            st.calls, st.incl, st.self_s = 0, 0.0, 0.0
        self.term_products = 0
        self.out_terms = 0
        self.max_out_terms = 0
        self.max_chain_len = 0
        self.max_tower_height = 0
        self.terms_emitted = 0

    def _observe(self, key, args, result):
        if key == "series:GenSeries.__mul__":
            other = args[1]
            if hasattr(other, "_raw"):  # an integer factor is a scaling
                self.term_products += len(args[0]._raw) * len(other._raw)
                n = len(result._raw)
                self.out_terms += n
                self.max_out_terms = max(self.max_out_terms, n)
        elif key == "keypoly:KeyPolyChain.appended":
            self.max_chain_len = max(self.max_chain_len, len(result.entries))
        elif key == "coeff:FieldTower.adjoin":
            self.max_tower_height = max(self.max_tower_height, len(result.stages))
        elif key == "embed:expand":
            self.terms_emitted += len(result.state.emitted)

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, fn, key):
        st = self.stats.setdefault(key, _Stat(key.split(":", 1)[0]))
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe if key in _OBSERVED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                st.self_s += dt - child
                st.depth -= 1
                if st.depth == 0:
                    st.incl += dt
            if observe is not None:
                observe(key, args, result)
            return result

        wrapper._bench_original = fn
        return wrapper

    def _targets(self):
        """(owner, attribute, original, key) for every callable to wrap."""
        out = []
        for layer, mod in self.modules.items():
            path = mod.__file__

            def own(fn):
                return inspect.isfunction(fn) and fn.__code__.co_filename == path

            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if own(obj):
                    out.append((mod, name, obj, f"{layer}:{obj.__qualname__}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr not in _DUNDERS:
                            continue
                        fn = member
                        if isinstance(member, (classmethod, staticmethod)):
                            fn = member.__func__
                        elif isinstance(member, property):
                            fn = member.fget
                        if own(fn):
                            out.append((obj, attr, member,
                                        f"{layer}:{fn.__qualname__}"))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, member, key in self._targets():
            if isinstance(member, (classmethod, staticmethod)):
                w = type(member)(self._wrap(member.__func__, key))
            elif isinstance(member, property):
                w = property(self._wrap(member.fget, key), member.fset,
                             member.fdel, member.__doc__)
            else:
                w = wrappers.get(id(member))
                if w is None:
                    w = wrappers[id(member)] = self._wrap(member, key)
            self._patch(owner, attr, member, w)
        # by-value imports: every other module name bound to a wrapped function
        originals = {id(w._bench_original): w for w in wrappers.values()}
        for mod in self._all_modules():
            for name, obj in list(vars(mod).items()):
                w = originals.get(id(obj))
                if w is not None and getattr(mod, name) is not w:
                    self._patch(mod, name, obj, w)
        required = {k for keys in _CALLS.values() for k in keys} | set(_OBSERVED)
        missing = sorted(required - set(self.stats))
        if missing:
            self.remove()
            raise RuntimeError(f"traced callables not found: {missing}")

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _all_modules(self):
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg]
        for name in dir(pkg):
            obj = getattr(pkg, name)
            if inspect.ismodule(obj) and obj.__name__.startswith(PACKAGE + "."):
                mods.append(obj)
        return mods

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = self.leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers left behind: {left}")

    def leftover_wrappers(self):
        """Names in the package that still hold a wrapper."""
        left = []

        def wrapped(obj):
            if isinstance(obj, (classmethod, staticmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            return hasattr(obj, "_bench_original")

        for mod in self._all_modules():
            for name, obj in vars(mod).items():
                if wrapped(obj):
                    left.append(f"{mod.__name__}.{name}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    left += [f"{mod.__name__}.{name}.{a}"
                             for a, m in vars(obj).items() if wrapped(m)]
        return left

    # -- results ---------------------------------------------------------------------

    def counts(self):
        """Every count the tracer keeps; two passes over the same ops agree."""
        out = {k: st.calls for k, st in sorted(self.stats.items())}
        out.update(term_products=self.term_products, out_terms=self.out_terms,
                   max_out_terms=self.max_out_terms,
                   max_chain_len=self.max_chain_len,
                   max_tower_height=self.max_tower_height,
                   terms_emitted=self.terms_emitted)
        return out

    def layer_calls(self):
        out = dict.fromkeys(LAYERS, 0)
        for st in self.stats.values():
            out[st.layer] += st.calls
        return out

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for st in self.stats.values():
            out[st.layer] += st.self_s
        return out

    def metrics(self):
        """The per-layer metrics of the counters since the last reset."""
        s = self.stats
        m = {}
        for name, keys in _CALLS.items():
            m[f"{name}.calls"] = sum(s[k].calls for k in keys)
            m[f"{name}.s"] = sum(s[k].incl for k in keys)
            m[f"{name}.self_s"] = sum(s[k].self_s for k in keys)
        for layer, t in self.layer_self().items():
            m[f"{layer}.self_s"] = t
        m["series.mul.term_products"] = self.term_products
        m["series.mul.out_terms"] = self.out_terms
        m["series.mul.useful_ratio"] = (self.out_terms / self.term_products
                                        if self.term_products else 0.0)
        m["series.mul.max_out_terms"] = self.max_out_terms
        m["coeff.tower_height.max"] = self.max_tower_height
        m["keypoly.chain_len.max"] = self.max_chain_len
        m["embed.steps_per_term"] = (m["embed.step.calls"] / self.terms_emitted
                                     if self.terms_emitted else 0.0)
        return m
