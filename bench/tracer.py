"""Outside-in tracer for the traced benchmark run.

The tracer times gradsol from outside: it replaces public functions with
wrappers at their module boundary and keeps, per wrapped name, the call
count, the total time and the self time (total minus the time of traced
callees).  Nothing inside ``src/`` is edited.

Three kinds of wrapper keep the overhead in proportion to the call rate:

* *spanned* functions (the per-layer API: ``run_suite``, ``curvature_pack``,
  ``prop32_report`` ...) push a frame for self time and record a span
  ``(span_id, parent_span_id, request_id, name, start, end)`` in memory;
* *framed* closures (metric and potential closures, expression closures)
  push a frame but record no span, since they run up to ~10^5 times a pass;
* *leaf* kernels (``jet_einsum``, ``mul_arrays``) are timed without a
  frame: they call nothing traced, so their whole time is self time and is
  charged to the caller's child time.

Modules such as ``verify``, ``cli`` and ``gradsol/__init__`` import functions
by name, so a wrapper is bound to *every* ``gradsol.*`` module attribute that
holds the original, and :meth:`Tracer.uninstall` puts every one of them back.
"""

import dataclasses
import functools
import importlib
import sys
import time

clock = time.perf_counter

# (module, attribute, metric name) of the spanned layer functions
SPANNED = [
    ("gradsol.cli", "main", "cli.main"),
    ("gradsol.verify", "run_suite", "verify.run_suite"),
    ("gradsol.verify", "thm52_status", "verify.thm52_status"),
    ("gradsol.solitons", "validate_instance", "solitons.validate_instance"),
    ("gradsol.solitons", "sample_points", "solitons.sample_points"),
    ("gradsol.tensors", "metric_at_point", "tensors.metric_at_point"),
    ("gradsol.tensors", "_invert_metric_jets", "tensors.invert_metric"),
    ("gradsol.tensors", "tensor_norm_sq", "tensors.tensor_norm_sq"),
    ("gradsol.tensors", "raise_lower", "tensors.raise_lower"),
    ("gradsol.curvature", "curvature_pack", "curvature.curvature_pack"),
    ("gradsol.curvature", "covariant_derivative", "curvature.covariant_derivative"),
    ("gradsol.conformal", "weyl", "conformal.weyl"),
    ("gradsol.conformal", "cotton", "conformal.cotton"),
    ("gradsol.conformal", "bach", "conformal.bach"),
    ("gradsol.conformal", "d_tensor", "conformal.d_tensor"),
    ("gradsol.conformal", "cotton_weyl_divergence_residual", "conformal.residuals"),
    ("gradsol.conformal", "d_decomposition_residual", "conformal.residuals"),
    ("gradsol.conformal", "d_cotton_contraction_residual", "conformal.residuals"),
    ("gradsol.conformal", "bach_via_d_residual", "conformal.residuals"),
    ("gradsol.conformal", "div_bach_residual", "conformal.residuals"),
    ("gradsol.levelset", "level_points", "levelset.level_points"),
    ("gradsol.levelset", "prop32_report", "levelset.prop32_report"),
    ("gradsol.levelset", "adapted_frame", "levelset.adapted_frame"),
    ("gradsol.levelset", "second_fundamental_form", "levelset.second_fundamental_form"),
]

SAMPLE_POINTS = "solitons.sample_points"
LEVEL_POINTS = "levelset.level_points"


def gradsol_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gradsol" or name.startswith("gradsol."))]


class Tracer:
    """Wraps gradsol functions and accumulates per-name counts and times.

    ``stats[name]`` is ``[calls, total_s, self_s]``; ``counters`` holds the
    waste-ratio inputs; ``spans`` holds the spans of spanned functions and
    of requests.
    """

    def __init__(self):
        self.stats = {}
        self.counters = dict.fromkeys(
            ("gathered_bytes", "metric_points", "metric_repeats",
             "sample_accepted", "sample_candidates", "level_points",
             "level_f_evals"), 0)
        self.spans = []
        self.stack = []
        self.request_id = None
        self._next_id = 0
        self._seen_points = set()
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def framed(self, name, fn, span=False, after=None, on_enter=None):
        """Wrapper that keeps a self-time frame, and a span if asked."""
        st = self._stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if on_enter is not None:
                on_enter(parent)
            if span:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[2] if parent else None
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if span:
                    self.spans.append((sid, parent[2] if parent else None,
                                       self.request_id, name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def leaf(self, name, fn, after=None):
        """Wrapper for a kernel that calls nothing traced: time, no frame."""
        st = self._stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt
                if stack:
                    stack[-1][1] += dt
                if after is not None:
                    after(args, dt)

        return functools.wraps(fn)(wrapper)

    # -- hooks that measure waste where the work happens ------------------

    def _after_einsum(self, args, dt):
        space, _, a, b = args[:4]
        st = self._stat(f"jets.jet_einsum.o{space.order}")
        st[0] += 1
        st[1] += dt
        st[2] += dt
        components = a.size // a.shape[-1] + b.size // b.shape[-1]
        self.counters["gathered_bytes"] += components * len(space.mul_left) * 8

    def _after_metric(self, args, _result):
        point = args[1]
        key = (args[2], tuple(float(x) for x in point))
        self.counters["metric_points"] += 1
        if key in self._seen_points:
            self.counters["metric_repeats"] += 1
        else:
            self._seen_points.add(key)

    def _after_sample(self, _args, result):
        self.counters["sample_accepted"] += len(result)

    def _after_level(self, _args, result):
        self.counters["level_points"] += len(result)

    def _enter_potential(self, parent):
        if parent is not None and parent[0] == LEVEL_POINTS:
            self.counters["level_f_evals"] += 1

    def _counting_excluded(self, fn):
        stack = self.stack
        counters = self.counters

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == SAMPLE_POINTS:
                counters["sample_candidates"] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _instrumenting(self, fn, restore):
        """Wrap a function returning instances so their closures are timed."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.instrument_instances(result, restore=restore)
            return result

        return functools.wraps(fn)(wrapper)

    def _compiling(self, fn):
        """Wrap ``compile_expression`` so the closures it returns are timed."""

        def wrapper(*args, **kwargs):
            return self.framed("exprs.eval", fn(*args, **kwargs))

        return functools.wraps(fn)(wrapper)

    # -- installation -----------------------------------------------------

    def instrument_instances(self, instances, restore=True):
        """Time the metric and potential closures of catalog instances.

        ``restore`` records the originals for :meth:`uninstall`; instances
        built inside a request are discarded with it and need no restore.
        """
        for inst in instances:
            for attr, name, hook in (
                ("metric_fn", "solitons.metric_closure", None),
                ("potential_fn", "solitons.potential_closure", self._enter_potential),
            ):
                orig = getattr(inst, attr)
                if restore:
                    self._restore.append((inst, attr, orig))
                setattr(inst, attr, self.framed(name, orig, on_enter=hook))

    def install(self):
        """Bind wrappers to every gradsol.* attribute holding a traced function."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replace = {}

        def add(module, attr, make):
            orig = getattr(importlib.import_module(module), attr)
            if id(orig) not in replace:
                replace[id(orig)] = (orig, make(orig))

        for module, attr, name in SPANNED:
            after = {"tensors.metric_at_point": self._after_metric,
                     SAMPLE_POINTS: self._after_sample,
                     LEVEL_POINTS: self._after_level}.get(name)
            add(module, attr, lambda f, n=name, a=after: self.framed(n, f, span=True, after=a))
        add("gradsol.jets", "jet_einsum",
            lambda f: self.leaf("jets.jet_einsum", f, after=self._after_einsum))
        add("gradsol.jets", "mul_arrays", lambda f: self.leaf("jets.mul_arrays", f))
        add("gradsol.solitons", "catalog", lambda f: self._instrumenting(f, False))
        add("gradsol.solitons", "load_extension_file",
            lambda f: self._instrumenting(f, False))
        add("gradsol.exprs", "compile_expression", self._compiling)

        for module in gradsol_modules():
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

        verify = importlib.import_module("gradsol.verify")
        self._restore.append((verify, "CHECKS", verify.CHECKS))
        verify.CHECKS = [
            dataclasses.replace(
                spec, fn=self.framed(f"verify.check.{spec.id}", spec.fn, span=True))
            for spec in verify.CHECKS
        ]

        cls = importlib.import_module("gradsol.solitons").SolitonInstance
        orig = cls.__dict__["excluded_distance"]
        self._restore.append((cls, "excluded_distance", orig))
        cls.excluded_distance = self._counting_excluded(orig)

    def uninstall(self):
        """Restore every binding replaced by install/instrument_instances."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- requests ---------------------------------------------------------

    def begin_request(self, label):
        """Open the request span; spans until end_request share its id."""
        rid = self._next_id
        self._next_id += 1
        self.request_id = rid
        self._seen_points = set()
        frame = [f"request:{label}", 0.0, rid]
        self.stack.append(frame)
        return frame, clock()

    def end_request(self, token):
        frame, t0 = token
        t1 = clock()
        self.stack.pop()
        self.spans.append((frame[2], None, frame[2], frame[0], t0, t1))
        self.request_id = None

    # -- results ----------------------------------------------------------

    def per_pass_values(self, passes):
        """Per-layer values averaged over `passes` traced passes."""
        def stat(name):
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            return calls / passes, total / passes, self_s / passes

        def ratio(num, den):
            c = self.counters
            return c[num] / c[den] if c[den] else 0.0

        out = {}
        for name in ("jets.jet_einsum", "jets.mul_arrays", "tensors.metric_at_point",
                     "curvature.curvature_pack", "curvature.covariant_derivative",
                     "verify.run_suite", "solitons.metric_closure",
                     "solitons.potential_closure", "levelset.level_points", "cli.main"):
            calls, _, self_s = stat(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for order in range(6):
            calls, _, self_s = stat(f"jets.jet_einsum.o{order}")
            out[f"jets.jet_einsum.o{order}.calls"] = calls
            out[f"jets.jet_einsum.o{order}.self_s"] = self_s
        for name in ("tensors.invert_metric", "tensors.tensor_norm_sq",
                     "tensors.raise_lower", "curvature.covariant_derivative",
                     "conformal.weyl", "conformal.cotton", "conformal.bach",
                     "conformal.d_tensor", "conformal.residuals", "verify.run_suite",
                     "verify.thm52_status", "solitons.validate_instance",
                     "solitons.sample_points", "exprs.eval", "levelset.prop32_report"):
            calls, total, _ = stat(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
        for name in ("levelset.adapted_frame", "levelset.second_fundamental_form"):
            out[f"{name}.total_s"] = stat(name)[1]
        for name in self.stats:
            if name.startswith("verify.check."):
                out[f"{name}.total_s"] = stat(name)[1]
        out["jets.jet_einsum.gathered_mb"] = self.counters["gathered_bytes"] / 1e6 / passes
        out["tensors.metric_at_point.repeat_frac"] = ratio("metric_repeats", "metric_points")
        out["solitons.sample_points.accept_ratio"] = ratio("sample_accepted", "sample_candidates")
        out["levelset.level_points.f_evals_per_point"] = ratio("level_f_evals", "level_points")
        return out
