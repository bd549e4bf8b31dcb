"""Per-layer tracing without editing the program.

Each ecgraphs module calls the others through names it imported (``from .canon
import refine_partition``) or through its own module globals.  While a Tracer
is installed, every such binding of a traced function is swapped for a
wrapper that records a span: name, start, end, parent span and one integer
outcome (a verdict bit or a count).  Spans stay in flat arrays in memory and
are written out when the run ends; per-layer numbers are computed from them.

Layers are the modules; a span's layer is the module that defines the
function.  A layer's self time is the time of its spans minus the time of
their direct child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter


def _holds(result, args) -> int:
    return int(result.holds)


# "<layer>.<function>" -> (outcome metric name, outcome function) or None.
# The outcome metric is a ratio of the per-span 0/1 outcomes, except
# ``generators``, a total per pass.
BOUNDARIES = {
    "cli.main": None,
    "search.run_named_search": None,
    "search.filter_stream": None,
    "graphs._reach": None,
    "graphs.is_connected": None,
    "canon.refine_partition": ("discrete_ratio", lambda r, a: int(len(r) == a[0])),
    "canon.canonical_search": ("generators", lambda r, a: len(r[1])),
    "canon.orbit_partition": None,
    "canon.canonical_form": None,
    "planarity.lr_planar_rows": ("planar_ratio", lambda r, a: int(bool(r))),
    "ec.is_n_ec": ("holds_ratio", _holds),
    "ec.is_n_line_ec": ("holds_ratio", _holds),
    "ec.xi": None,
    "ec.xi_line": None,
    "ec._ec_split_search": ("holds_ratio", lambda r, a: int(r is None)),
    "hypergraphs.crossing_hypergraph": None,
    "hypergraphs.is_n_line_ec_hyper": ("holds_ratio", _holds),
    "constructions.paley": None,
    "graph6.parse_graph6": None,
    "graph6.write_graph6": None,
}
NAMES = list(BOUNDARIES)
LAYERS = sorted({name.split(".")[0] for name in NAMES})


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name, extra in BOUNDARIES.items():
        out += [f"{name}.calls", f"{name}.total_s"]
        if extra:
            out.append(f"{name}.{extra[0]}")
    out += [f"{layer}.self_s" for layer in LAYERS]
    out.append("trace_overhead")
    return out


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.name = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("i")
        self._stack = [-1]
        self._swapped: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, fn, nid: int, outcome):
        names, parents, starts, ends, outs, stack = (
            self.name, self.parent, self.start, self.end, self.outcome, self._stack)

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            outs.append(0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if outcome is not None:
                outs[i] = outcome(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for modname, mod in list(sys.modules.items()):
            if not (modname == "ecgraphs" or modname.startswith("ecgraphs.")):
                continue
            for attr, val in list(vars(mod).items()):
                key = f"{getattr(val, '__module__', '').rpartition('.')[2]}.{getattr(val, '__name__', '')}"
                if key not in BOUNDARIES or not getattr(val, "__module__", "").startswith("ecgraphs"):
                    continue
                if id(val) not in wrappers:
                    extra = BOUNDARIES[key]
                    wrappers[id(val)] = self._wrap(val, NAMES.index(key), extra[1] if extra else None)
                self._swapped.append((mod, attr, val))
                setattr(mod, attr, wrappers[id(val)])
        missing = set(BOUNDARIES) - {f"{v.__module__.rpartition('.')[2]}.{v.__name__}" for _, _, v in self._swapped}
        if missing:
            self.__exit__()
            raise RuntimeError(f"traced functions not found in ecgraphs: {sorted(missing)}")
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, val in reversed(self._swapped):
            setattr(mod, attr, val)
        self._swapped.clear()

    def layer_metrics(self, passes: int, scale: float) -> dict[str, float]:
        """Per-pass calls, inclusive time and outcome metrics per boundary,
        and self time per layer; times are multiplied by ``scale``."""
        count = len(self.name)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * count))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        k = len(NAMES)
        calls, total, outsum, self_s = [0] * k, [0.0] * k, [0] * k, [0.0] * k
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            total[nid] += dur[i]
            outsum[nid] += self.outcome[i]
            self_s[nid] += dur[i] - child[i]
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, (name, extra) in enumerate(BOUNDARIES.items()):
            out[f"{name}.calls"] = calls[nid] / passes
            out[f"{name}.total_s"] = total[nid] * scale / passes
            if extra:
                metric = extra[0]
                if metric == "generators":
                    out[f"{name}.{metric}"] = outsum[nid] / passes
                else:  # ratio; 0 when the function was never called
                    out[f"{name}.{metric}"] = outsum[nid] / calls[nid] if calls[nid] else 0.0
            layer_self[name.split(".")[0]] += self_s[nid]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] * scale / passes
        return out

    def write(self, path: Path) -> None:
        """Spans as raw arrays in ``<path>.bin`` with a JSON header."""
        header = {"names": NAMES, "count": len(self.name), "byteorder": sys.byteorder, "arrays": []}
        with open(path.with_suffix(".bin"), "wb") as fh:
            for label in ("name", "parent", "start", "end", "outcome"):
                arr = getattr(self, label)
                header["arrays"].append({"field": label, "typecode": arr.typecode, "itemsize": arr.itemsize})
                arr.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
