"""Spans around the public functions of ghostdim, recorded from outside the package.

`install(tracer)` wraps each function named in TARGETS and rebinds the
wrapper in every `ghostdim.*` namespace that holds the original, so calls
made through `from .x import y` names are counted too.  A span is recorded
only while the tracer is inside an item (`with tracer.item(ident):`), which
keeps the harness's own input building and checking out of the numbers.

Spans stay in memory as flat arrays and are written once, at the end of a
pass.  `span_stats` turns them into calls, self time and total time per name.
"""

from __future__ import annotations

import hashlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer, qualified name inside ghostdim.<layer>); a dotted name is a class attribute.
TARGETS = (
    ("linalg", "smith_mod"),
    ("linalg", "solve_hetero"),
    ("linalg", "kernel_hetero"),
    ("linalg", "quotient_presentation"),
    ("linalg", "subgroup_order"),
    ("modules", "tensor_map"),
    ("modules", "tensor_modules"),
    ("modules", "hom_generators"),
    ("modules", "minimal_generators"),
    ("modules", "is_projective"),
    ("modules", "find_isomorphism"),
    ("modules", "FgModule.__post_init__"),
    ("modules", "ModuleMap.__post_init__"),
    ("complexes", "cone"),
    ("complexes", "Complex.validate"),
    ("complexes", "Complex.homology"),
    ("complexes", "_homology_at"),
    ("complexes", "null_homotopy"),
    ("complexes", "resolution_complex"),
    ("ghosts", "universal_ghost"),
    ("ghosts", "pdim_complex"),
    ("ghosts", "Tower.nullity"),
    ("tensor_ss", "tensor_complexes"),
    ("tensor_ss", "tensor_chain_map"),
    ("tensor_ss", "ucss_filtration"),
    ("tensor_ss", "resolution_filtration"),
    ("tensor_ss", "fdim_via_ss"),
    ("dimensions", "standard_battery"),
    ("dimensions", "ghdim_ring"),
    ("dimensions", "wdim_ring"),
    ("dimensions", "module_pdim"),
)

LAYERS = ("linalg", "modules", "complexes", "ghosts", "tensor_ss", "dimensions")

# Span names that differ from "<layer>.<qualified name>".
_RENAMED = {
    "modules.FgModule.__post_init__": "modules.FgModule.construct",
    "modules.ModuleMap.__post_init__": "modules.ModuleMap.construct",
    "complexes._homology_at": "complexes.homology_at",
}

SIZE_BUCKETS = ((16, "le16"), (64, "le64"), (256, "le256"))


def _is_prime(m):
    return m > 1 and all(m % p for p in range(2, int(m ** 0.5) + 1))


def smith_bucket(shape, m):
    """`prime|composite` and the size bucket of the larger side of a matrix."""
    side = max(shape) if len(shape) else 0
    size = next((tag for limit, tag in SIZE_BUCKETS if side <= limit), "gt256")
    return f"{'prime' if _is_prime(m) else 'composite'}.{size}"


class Tracer:
    """Span arrays for one pass.  Single-threaded: ghostdim runs on one thread here."""

    def __init__(self):
        self.names = []              # span name -> index in this list
        self._name_index = {}
        self.name = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = []              # item ids, by index
        self._stack = []
        self._item = -1
        self.homology_seen = set()
        self.homology_repeats = 0
        self.total_gens_max = 0

    @property
    def recording(self):
        return self._item >= 0

    @contextmanager
    def item(self, ident):
        self.items.append(ident)
        self._item = len(self.items) - 1
        try:
            yield
        finally:
            self._item = -1

    def _name_id(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name):
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_of.append(self._item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def stats(self, total_for=None):
        return span_stats(self.name, self.names, self.parent, self.start, self.end, total_for)

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            items=np.array(self.items),
        )


def _homology_key(cx, k):
    """Identifies term k, d_k and d_(k+1) up to sign and shift (degree is left out)."""
    m = cx.ring.modulus
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((cx.ring.name, cx.term(k).orders, cx.term(k - 1).orders)).encode())
    for a in cx.term(k).actions:
        h.update(np.ascontiguousarray(a).tobytes())
    for d in (cx.diff(k), cx.diff(k + 1)):
        d = np.ascontiguousarray(d % m)
        h.update(repr(d.shape).encode())
        h.update(min(d.tobytes(), np.ascontiguousarray((-d) % m).tobytes()))
    return h.digest()


def _wrap(tracer, name, fn):
    if name == "linalg.smith_mod":
        def namer(args, kwargs):
            a = args[0] if args else kwargs["a"]
            mod = args[1] if len(args) > 1 else kwargs["m"]
            return f"linalg.smith_mod.{smith_bucket(np.shape(a), mod)}"
    else:
        def namer(args, kwargs):
            return name

    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        if name == "complexes.homology_at":
            key = _homology_key(*args)
            if key in tracer.homology_seen:
                tracer.homology_repeats += 1
            tracer.homology_seen.add(key)
        idx = tracer.open(namer(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if name == "tensor_ss.tensor_complexes":
            total = result.total
            gens = max((total.term(k).ngens for k in total.degrees()), default=0)
            tracer.total_gens_max = max(tracer.total_gens_max, gens)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(tracer):
    """Wrap every TARGETS function, in every ghostdim namespace that binds it."""
    import ghostdim  # noqa: F401  (loads every submodule)

    namespaces = [mod for key, mod in sys.modules.items()
                  if mod is not None and (key == "ghostdim" or key.startswith("ghostdim."))]
    for layer, qual in TARGETS:
        module = sys.modules[f"ghostdim.{layer}"]
        full = f"{layer}.{qual}"
        name = _RENAMED.get(full, full)
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, _wrap(tracer, name, getattr(cls, attr)))
        else:
            original = getattr(module, qual)
            wrapper = _wrap(tracer, name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)


def span_stats(name, names, parent, start, end, total_for=None):
    """Calls, self time and total time per span name.

    `name[i]` indexes `names`; `parent[i]` is the index of span i's parent
    span, or -1.  Self time is a span's duration minus the part of it that
    its direct children cover.  Total time counts a span only when no
    ancestor has the same name, so recursion is not counted twice.
    `total_for` limits the (ancestor-walking) total to the given names;
    None means every name.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has_parent = parent >= 0
    # children of one span run one after another, so their union is their sum
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=dur - covered, minlength=len(names))
    wanted = [i for i, nm in enumerate(names) if total_for is None or nm in total_for]
    total_s = np.zeros(len(names))
    for i in np.flatnonzero(np.isin(name, wanted)):
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            total_s[name[i]] += dur[i]
    return {
        nm: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
        for i, nm in enumerate(names) if calls[i]
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

_CS = ("calls", "self_s")
REPORTED = {
    "linalg.smith_mod": _CS,
    **{f"linalg.smith_mod.{kind}.{size}": _CS
       for kind in ("prime", "composite") for size in ("le16", "le64", "le256", "gt256")},
    **{f"linalg.{fn}": _CS
       for fn in ("solve_hetero", "kernel_hetero", "quotient_presentation", "subgroup_order")},
    **{f"modules.{fn}": _CS
       for fn in ("tensor_map", "tensor_modules", "hom_generators", "minimal_generators",
                  "is_projective", "find_isomorphism", "FgModule.construct", "ModuleMap.construct")},
    **{f"complexes.{fn}": _CS
       for fn in ("cone", "Complex.validate", "Complex.homology", "null_homotopy",
                  "resolution_complex")},
    "ghosts.universal_ghost": ("calls", "self_s", "total_s"),
    "ghosts.pdim_complex": ("calls", "total_s"),
    "ghosts.Tower.nullity": ("calls",),
    "tensor_ss.tensor_complexes": _CS,
    "tensor_ss.tensor_chain_map": _CS,
    "tensor_ss.ucss_filtration": ("calls", "total_s"),
    "tensor_ss.fdim_via_ss": ("calls", "total_s"),
    "tensor_ss.resolution_filtration": ("calls", "self_s", "total_s"),
    "dimensions.standard_battery": ("total_s",),
    "dimensions.ghdim_ring": ("total_s",),
    "dimensions.wdim_ring": ("total_s",),
    "dimensions.module_pdim": _CS,
}
TOTAL_FOR = frozenset(name for name, fields in REPORTED.items() if "total_s" in fields)
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

EXTRA = {
    "complexes.homology.repeat_frac": "ratio",
    "tensor_ss.tensor_complexes.per_ucss": "ratio",
    "tensor_ss.total_gens_max": "count",
    **{f"{layer}.{field}": unit for layer in LAYERS
       for field, unit in (("self_s", "s"), ("self_frac", "ratio"))},
    "trace.overhead_frac": "ratio",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{field}": _UNITS[field]
             for name, fields in REPORTED.items() for field in fields}
    units.update(EXTRA)
    return units


def layer_metrics(stats, tracer, compute_s):
    """Per-layer metrics of one pass, all but `trace.overhead_frac` (that needs an untraced pass)."""
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    merged = dict(stats)
    smith = [entry for name, entry in stats.items() if name.startswith("linalg.smith_mod.")]
    merged["linalg.smith_mod"] = {field: sum(e[field] for e in smith) for field in empty}
    out = {f"{name}.{field}": merged.get(name, empty)[field]
           for name, fields in REPORTED.items() for field in fields}
    homology = merged.get("complexes.homology_at", empty)["calls"]
    out["complexes.homology.repeat_frac"] = tracer.homology_repeats / homology if homology else 0.0
    ucss = merged.get("tensor_ss.ucss_filtration", empty)["calls"]
    tensors = merged.get("tensor_ss.tensor_complexes", empty)["calls"]
    out["tensor_ss.tensor_complexes.per_ucss"] = tensors / ucss if ucss else 0.0
    out["tensor_ss.total_gens_max"] = tracer.total_gens_max
    for layer in LAYERS:
        self_s = sum((e["self_s"] for name, e in stats.items() if name.startswith(layer + ".")), 0.0)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_frac"] = self_s / compute_s if compute_s else 0.0
    return out
