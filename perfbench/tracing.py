"""Per-layer tracing for the traced benchmark run.

Layers are srlab's modules. Spans are recorded by wrapping the calls into
each module from outside: class methods are patched on the class itself, so
every `from .x import y` binding sees the wrapper; module functions are
patched in each module that binds them. Nothing in srlab is edited, and
`Tracer.uninstall` restores every original.

A span is (name, start, end, parent, operation id). Spans stay in memory
and are written out once, at the end of the run. A layer's self time is the
duration of its spans minus the part covered by their child spans.

A hook must never change what an operation does: a patch target that no
longer exists is skipped and listed in `missing`, and a counter hook that
raises is listed in `hook_errors`; both go into the run record.
"""

import collections
import json
import time

import numpy as np

# span name -> per-layer time metric built from the spans' self time
SELF_TIME_METRICS = {
    "scenes.resolve_scene": "scenes.load_s",
    "frame.frame": "frame.s",
    "frame.koszul": "frame.koszul_s",
    "surface.geometry": "surface.geometry_s",
    "surface.characteristic_report": "surface.characteristic_report_s",
    "jets.pull": "jets.pull_s",
    "curvature.lform": "curvature.lform_s",
    "curvature.curve_geometry": "curvature.curve_geometry_s",
    "curvature.oracle": "curvature.oracle_s",
    "curvature.formula": "curvature.formula_s",
    "measures.nodes": "measures.self_s",
    "measures.integrate": "measures.self_s",
    "measures.scene_integral": "measures.self_s",
    "cli.main": "cli.self_s",
}

COUNT_METRICS = (
    "scenes.loads",
    "frame.calls",
    "frame.nodes",
    "surface.geometry_builds",
    "surface.geometry_nodes",
    "jets.mul_calls",
    "jets.mul_pairs",
    "jets.pull_calls",
    "curvature.lform_builds",
    "curvature.curve_geometry_builds",
    "measures.region_passes",
    "measures.curve_passes",
    "measures.refinements",
    "measures.integrand_evals",
    "measures.rescans",
)


def _nodes(*arrays) -> int:
    return int(np.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays)), dtype=np.int64))


def _product_pairs(nvars: int, order: int):
    """Index arrays (i, j) of the coefficient pairs a truncated product sums.

    Coefficients are numbered degree-major, lexicographic within a degree,
    the layout srlab's Jet uses. A pair contributes when the total degree of
    the two multi-indices is at most the jet order.
    """
    idx = [a for a in np.ndindex(*(order + 1,) * nvars) if sum(a) <= order]
    idx.sort(key=lambda a: (sum(a), a))
    pairs = [(i, j) for i, a in enumerate(idx) for j, b in enumerate(idx)
             if sum(a) + sum(b) <= order]
    return len(idx), np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def _is_zero(c) -> bool:
    if isinstance(c, np.ndarray):
        return not c.any()
    return c == 0


class Tracer:
    """Span and counter registry plus the patches that feed it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = collections.Counter()
        self.op = None
        self._undo = []
        self._pair_tables = {}
        self._built_uv = []      # (u, v) arrays of every geometry built in the op
        self.useful_nodes = 0
        self.built_nodes = 0
        self.missing = []
        self.hook_errors = {}

    # -- span recording -----------------------------------------------------

    def wrap(self, name, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                self._hook(name, on_call, *args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                self._hook(name, on_result, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, name, fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except Exception as exc:  # a broken counter must not fail the operation
            self.hook_errors.setdefault(name, f"{type(exc).__name__}: {exc}")

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, modules, attr, name, **hooks):
        """Wrap a module-level function in every module that binds it."""
        orig = modules[0].__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{modules[0].__name__}.{attr}")
            return
        wrapper = self.wrap(name, orig, **hooks)
        for mod in modules:
            if mod.__dict__.get(attr) is orig:
                self._patch(mod, attr, wrapper)

    def patch_method(self, cls, attr, name, **hooks):
        if attr not in cls.__dict__:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], **hooks))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- operations -----------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self._built_uv = []

    def end_op(self):
        built = sum(u.size for u, _ in self._built_uv)
        if built:
            uv = np.concatenate([u.ravel() + 1j * v.ravel() for u, v in self._built_uv])
            self.useful_nodes += np.unique(uv).size
            self.built_nodes += built
        self._built_uv = []
        self.op = None

    # -- counters fed by hooks -------------------------------------------------

    def _count_mul(self, a, b):
        key = (a.nvars, min(a.order, b.order))
        table = self._pair_tables.get(key)
        if table is None:
            table = self._pair_tables[key] = _product_pairs(*key)
        ncoef, ii, jj = table
        # truncation to the lower order keeps a prefix of the coefficients
        za = np.array([_is_zero(c) for c in a.coef[:ncoef]])
        zb = np.array([_is_zero(c) for c in b.coef[:ncoef]])
        self.counts["jets.mul_calls"] += 1
        self.counts["jets.mul_pairs"] += len(ii)
        self.counts["jets.mul_zero_pairs"] += int(np.count_nonzero(za[ii] | zb[jj]))

    # -- installation -----------------------------------------------------------

    def install(self):
        """Patch the layer boundaries of the imported srlab package."""
        from srlab import cli, curvature, frame, measures, scenes, surface
        from srlab.calculus import jets

        counts = self.counts

        def count(key, amount=1):
            counts[key] += amount

        # cli: argument parsing, formatting and JSON around the library calls
        self.patch_function([cli], "main", "cli.main")

        # scenes: loading and validating a scene
        self.patch_function([cli, scenes], "resolve_scene", "scenes.resolve_scene",
                            on_call=lambda *a, **k: count("scenes.loads"))

        # frame: the chart frame at any order, and the Koszul oracle
        def frame_call(model, point, *a, **k):
            count("frame.calls")
            count("frame.nodes", _nodes(*point))

        self.patch_method(frame.SubRiemannianModel, "frame", "frame.frame", on_call=frame_call)
        self.patch_function([frame, cli], "koszul_connection_oracle", "frame.koszul")

        # surface: adapted-frame geometry and the characteristic pre-scan
        def geometry_call(geom, model, patch, u, v, *a, **k):
            uu, vv = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
            count("surface.geometry_builds")
            count("surface.geometry_nodes", uu.size)
            self._built_uv.append((uu.copy(), vv.copy()))

        self.patch_method(surface.SurfaceGeometry, "__init__", "surface.geometry",
                          on_call=geometry_call)
        self.patch_function([surface, measures], "characteristic_report",
                            "surface.characteristic_report")

        # calculus.jets: truncated products and Taylor composition
        Jet = jets.Jet
        for attr in ("__mul__", "__rmul__"):
            orig_mul = Jet.__dict__[attr]

            def counted_mul(a, b, orig_mul=orig_mul):
                if isinstance(b, Jet):
                    self._hook("jets.mul", self._count_mul, a, b)
                return orig_mul(a, b)

            self._patch(Jet, attr, counted_mul)
        self.patch_method(jets.Composer, "pull", "jets.pull",
                          on_call=lambda *a, **k: count("jets.pull_calls"))

        # curvature: finite-L forms, curve geometry, oracles and formulas
        self.patch_method(curvature.LFormAssembly, "__init__", "curvature.lform",
                          on_call=lambda *a, **k: count("curvature.lform_builds"))
        self.patch_method(curvature.CurveGeometry, "__init__", "curvature.curve_geometry",
                          on_call=lambda *a, **k: count("curvature.curve_geometry_builds"))
        for fn in ("induced_metric_gauss_oracle", "geodesic_curvature_oracle"):
            self.patch_function([curvature], fn, "curvature.oracle")
        for fn in ("gauss_curvature_limit", "gauss_curvature_L", "limit_connection_form",
                   "projected_connection_form", "gauss_equation_decomposition",
                   "normal_curvature_limit", "normal_curvature_L"):
            self.patch_function([curvature], fn, "curvature.formula")

        # measures: passes, node counts, refinements, and the region rescans
        # that integrals repeat after scene load (the measures-module binding
        # only; scene load calls the scenes-module binding)
        def nodes_result(result):
            count("measures.integrand_evals", int(np.size(result[0])))

        self.patch_function([measures], "region_nodes", "measures.nodes",
                            on_call=lambda *a, **k: count("measures.region_passes"),
                            on_result=nodes_result)
        self.patch_function([measures], "curve_nodes", "measures.nodes",
                            on_call=lambda *a, **k: count("measures.curve_passes"),
                            on_result=nodes_result)
        for fn in ("integrate_region", "integrate_curve"):
            self.patch_function([measures], fn, "measures.integrate",
                                on_result=lambda r: count("measures.refinements", r.refinements))
        for fn in ("ensure_region_in_domain", "scan_region_regular"):
            self.patch_function([measures], fn, "measures.rescan",
                                on_call=lambda *a, **k: count("measures.rescans"))
        for fn in ("integrate_K_dsigma", "integrate_kn_ds", "stokes_consistency_gap",
                   "finite_L_gauss_bonnet", "gauss_bonnet_residual"):
            self.patch_function([measures], fn, "measures.scene_integral")

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """Self and inclusive seconds per span name."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(float)
        inclusive = collections.defaultdict(float)
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
            inclusive[name] += end - start
        return out, inclusive

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        self_t, incl = self.self_times()
        times = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for span, key in SELF_TIME_METRICS.items():
            times[key] += self_t.get(span, 0.0)
        times["measures.rescan_s"] = incl.get("measures.rescan", 0.0)
        out = {key: (float(self.counts[key]), "count") for key in COUNT_METRICS}
        out.update((key, (value, "s")) for key, value in times.items())
        pairs = self.counts["jets.mul_pairs"]
        out["jets.mul_zero_pair_frac"] = (
            self.counts["jets.mul_zero_pairs"] / pairs if pairs else 0.0, "ratio")
        out["surface.useful_build_frac"] = (
            self.useful_nodes / self.built_nodes if self.built_nodes else 1.0, "ratio")
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
            fh.write("\n")
