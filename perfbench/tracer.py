"""Span tracing of ckflow's layers, installed from outside the program.

Each wrapped function is replaced, at every binding its callers look it up
through, by a wrapper that records a span: name, start, end and the index
of the enclosing span.  Spans stay in flat in-memory arrays until `write`.
A span's self time is its duration minus the time its direct children
cover; calls run on one thread, so children never overlap.
"""

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter

# span name -> bindings (module path inside ckflow, attribute) it is reached by
FUNCTIONS = {
    "cli.load_config": [("cli", "load_config")],
    "cli.shell_bounds": [("cli", "shell_bounds")],
    "cli.make_seed": [("cli", "make_seed")],
    "ckv.verify_assumptions": [("ckv", "verify_assumptions")],
    "ckv.estimate_T0": [("ckv", "estimate_T0")],
    "ckv.phi": [("ckv", "phi")],
    "ckv.lam": [("ckv", "lam")],
    "ckv.Lam": [("ckv", "Lam")],
    "ckv.dilation_norm_g": [("ckv", "dilation_norm_g")],
    "surface.mesh_geometry": [("surface", "mesh_geometry")],
    "surface.vertex_normals": [("surface", "vertex_normals")],
    "surface.face_normals_areas": [("surface", "face_normals_areas")],
    "surface.mixed_voronoi_areas": [("surface", "mixed_voronoi_areas")],
    "surface.cotan_laplacian_apply": [("surface", "cotan_laplacian_apply"),
                                      ("diagnostics", "cotan_laplacian_apply")],
    "surface.quadric_fit": [("surface", "quadric_fit")],
    "surface.surface_area": [("surface", "surface_area"),
                             ("diagnostics", "surface_area")],
    "surface.enclosed_volume": [("surface", "enclosed_volume"),
                                ("diagnostics", "enclosed_volume")],
    "surface.tangential_smooth": [("surface", "tangential_smooth")],
    "surface.quality": [("surface", "quality")],
    "surface.face_gradients": [("surface", "face_gradients")],
    "surface.vertex_gradients": [("surface", "vertex_gradients")],
    "flow.run": [("flow", "run")],
    "flow.run_graph": [("flow", "run_graph")],
    "flow.step_lagrangian": [("flow", "step_lagrangian")],
    "flow._rescale_to_volume": [("flow", "_rescale_to_volume")],
    "flow.cfl_dt": [("flow", "cfl_dt")],
    "flow.step_graph": [("flow", "step_graph")],
    "flow._graph_rate": [("flow", "_graph_rate")],
    "flow.graph_cfl_dt": [("flow", "graph_cfl_dt")],
    "diagnostics.minkowski1_residual": [("diagnostics", "minkowski1_residual")],
    "diagnostics.minkowski2_residual": [("diagnostics", "minkowski2_residual")],
    "diagnostics.umbilicity_deficit": [("diagnostics", "umbilicity_deficit")],
    "diagnostics.label_evolution_source": [("diagnostics",
                                            "label_evolution_source")],
    "diagnostics.isoperimetric_check": [("diagnostics", "isoperimetric_check")],
    "diagnostics.FlowTrace.write_csv": [("diagnostics.FlowTrace", "write_csv")],
}

# geometry methods, wrapped on whichever class of the MRO defines them
AMBIENT_METHODS = ("f", "grad_f", "ricci_at", "require_in_domain",
                   "outer_distance", "r_of_lambda")
AMBIENT_CLASSES = ("Euclidean", "PaperExample", "PoincareBall")

# spans that enclose other wrapped work also report their total time
COMPOSITE = ("surface.mesh_geometry", "flow.step_lagrangian",
             "flow._rescale_to_volume", "flow.step_graph",
             "diagnostics.isoperimetric_check", "ckv.verify_assumptions")

ROOT = "cli.main"


def span_names():
    """Every span name the tracer records, root first, in report order."""
    ambient = [f"ambient.{m}" for m in AMBIENT_METHODS]
    names = list(FUNCTIONS)
    at = names.index("surface.mesh_geometry")
    return [ROOT] + names[:at] + ambient + names[at:]


def _with_curvatures(args, kwargs):
    # mesh_geometry(mesh, geom, pair, xi_now=1.0, with_curvatures=True)
    if "with_curvatures" in kwargs:
        return bool(kwargs["with_curvatures"])
    return bool(args[4]) if len(args) > 4 else True


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        nid = self._name_id(name)
        stack = self._stack
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            stack.pop()

    def _wrap(self, owner, attr, name):
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        call = self.call
        if name == "surface.mesh_geometry":
            counts = self.counts

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                kind = "curv" if _with_curvatures(args, kwargs) else "nocurv"
                counts[f"{name}.{kind}.calls"] += 1
                return call(name, original, *args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return call(name, original, *args, **kwargs)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, ck):
        """Wrap every traced function of the ckflow modules in `ck`."""
        for name, bindings in FUNCTIONS.items():
            for path, attr in bindings:
                module, *rest = path.split(".")
                owner = getattr(ck, module)
                for part in rest:
                    owner = getattr(owner, part)
                self._wrap(owner, attr, name)
        done = set()
        for cls_name in AMBIENT_CLASSES:
            cls = getattr(ck.ambient, cls_name)
            for method in AMBIENT_METHODS:
                owner = next(c for c in cls.__mro__ if method in vars(c))
                if (owner, method) not in done:
                    done.add((owner, method))
                    self._wrap(owner, method, f"ambient.{method}")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def stats(self):
        """name -> [calls, self seconds, total seconds]."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += dur[i]
        out = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i] - covered[i]
            row[2] += dur[i]
        return out

    def calls_under(self, name, ancestor):
        """Number of `name` spans with an `ancestor` span above them."""
        target, anc = self._ids.get(name), self._ids.get(ancestor)
        if target is None or anc is None:
            return 0
        inside = array("b", bytes(len(self.start)))
        count = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and (inside[p] or self.name_id[p] == anc):
                inside[i] = 1
                count += self.name_id[i] == target
        return count

    def write(self, path):
        """Write every span as gzip CSV: id, parent, name, start_s, end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
