"""Outside-in tracer: spans around the package's functions, from the benchmark's side.

The package imports names with `from .x import f`, so a function can be bound
in several `zlat.*` namespaces; `Tracer.install` replaces every binding of each
wrapped function with one wrapper.  Spans (function, start, end, parent) are
kept in memory and written out once at the end; `layer_table` derives the
per-layer metrics from them, with self time = duration - time of child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("exact", "lattice", "forms", "gluing", "stability", "classify", "sextic", "tables")

# private functions wrapped besides the public ones (enumerating helpers)
PRIVATE = {"forms": ("_complement_of",)}

# function groups whose inclusive time (outermost call only) is a per-layer metric
GROUPS = {
    "exact.snf": ("exact.smith_normal_form",),
    "exact.frac": ("exact.frac_mat_mul", "exact.frac_inverse", "exact.frac_solve_left"),
    "exact.inertia": ("exact.inertia",),
    "lattice.overlattice": ("lattice.overlattice",),
    "gluing.glue": ("gluing.glue", "gluing.glue_involution"),
    "forms.discriminant_form": ("forms.discriminant_form",),
    "forms.brown": ("forms.brown",),
    "forms.normal_form": ("forms.normal_form2", "forms.normal_form3"),
    "forms.anti_iso": ("forms.anti_iso_root", "forms.build_anti_iso", "forms.is_anti_isomorphism"),
    "stability.genus_tag": ("stability.genus_tag",),
    "classify.census": ("classify.enumerate_ascending_t_pairs",),
    "classify.realize": ("classify.realize_pair",),
    "classify.partner": ("classify.reversion_partner",),
    "tables.emit": ("tables.emit_table",),
    "tables.diff": ("tables.diff_golden",),
}

# functions that walk every element of the group they are given (first argument)
ENUMERATING = (
    "forms._complement_of", "forms.decompose2", "forms.decompose3", "forms.present_with",
    "forms.parity2", "forms.characteristic_element", "forms.anti_iso_root",
    "forms.is_anti_isomorphism", "forms.fingerprint", "forms.q_value_census",
    "forms.subgroup_elements", "forms.orthogonal_of_subgroup", "forms.coset_fingerprint",
    "forms.isotropic_subgroups", "forms.aut_order",
)
GROUPS["forms.enum"] = ENUMERATING

VERDICT = "stability.isomorphic_in_genus"


def group_size(arg) -> int:
    """Size of the group an enumerating function walks: a form, or a span view."""
    if hasattr(arg, "gens") and hasattr(arg, "p"):
        return arg.p ** len(arg.gens)
    return arg.size


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.sizes: list[int] = []  # group sizes passed to enumerating functions
        self.verdicts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        enumerating = name in ENUMERATING
        verdict = name == VERDICT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enumerating and args:
                self.sizes.append(group_size(args[0]))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (fid, start, clock(), parent)
                stack.pop()
            if verdict:
                self.verdicts[result] = self.verdicts.get(result, 0) + 1
            return result

        return wrapper

    def install(self, package: str = "zlat") -> None:
        """Wrap the public functions of every layer module in all namespaces binding them."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if not callable(obj) or inspect.isclass(obj) or inspect.isgeneratorfunction(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def dump(self) -> dict:
        return {"names": self.names, "spans": [list(s) for s in self.spans],
                "sizes": self.sizes, "verdicts": self.verdicts}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its direct children."""
    out = [end - start for _fid, start, end, _parent in spans]
    for _fid, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def inclusive(spans, names, members) -> float:
    """Total duration of spans of `members` that have no ancestor in `members`."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (fid, start, end, parent) in enumerate(spans):
        mine = names[fid] in members
        above = parent >= 0 and inside[parent]
        inside[i] = mine or above
        if mine and not above:
            total += end - start
    return total


def layer_table(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    Spans are listed in call order, so every parent precedes its children.
    """
    names, spans = trace["names"], trace["spans"]
    selfs = self_times(spans)
    table = {}
    for layer in LAYERS:
        table[f"{layer}.calls"] = 0
        table[f"{layer}.self_s"] = 0.0
    for (fid, *_rest), own in zip(spans, selfs):
        layer = names[fid].split(".", 1)[0]
        table[f"{layer}.calls"] += 1
        table[f"{layer}.self_s"] += own
    for group, members in GROUPS.items():
        table[f"{group}_s"] = inclusive(spans, names, set(members))
    snf = names.index("exact.smith_normal_form") if "exact.smith_normal_form" in names else -1
    table["exact.snf_calls"] = sum(1 for s in spans if s[0] == snf)
    table["forms.elements_visited"] = sum(trace["sizes"])
    table["forms.max_group"] = max(trace["sizes"], default=0)
    verdicts = trace["verdicts"]
    total = sum(verdicts.values())
    table["stability.decided_frac"] = (total - verdicts.get("unknown", 0)) / total if total else 0.0
    return table
