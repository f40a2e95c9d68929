"""Outside-in tracing of the permlog layers.

`Tracer.install` wraps every function in the `__all__` of each permlog
module (classes stay unwrapped, since callers test isinstance against
them), plus `cli.load_instance` and `cli.instance_digest`. The wrapper is
rebound wherever the same function object is bound in any permlog module,
so calls through imported names (interpolation calling `series_mul`) are
seen too. Each call records a span: op id, span id, parent span, layer,
function, start, end and self time (duration minus wrapped children).
`Tracer.restore` puts the originals back. No file of the package changes.
"""

import functools
import importlib
import json
import sys
import time
import tracemalloc

LAYERS = ("cli", "core", "interpolation", "oracles", "regions", "series")

# cli functions outside cli.__all__ that the per-layer metrics name
_CLI_EXTRAS = ("load_instance", "instance_digest")

# interpolation functions in __all__ that do not extract coefficients of g;
# every other interpolation function counts as coefficient extraction
NON_COEFF = frozenset(
    ("approx_log_disc", "approx_log_strip", "build_phi", "choose_degree", "log_derivatives", "taylor_error_bound")
)


def _traced_functions():
    """(layer, name, function) for every wrapped function, each once."""
    seen = set()
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"permlog.{layer}")
        names = list(module.__all__) + (list(_CLI_EXTRAS) if layer == "cli" else [])
        for name in names:
            fn = getattr(module, name)
            if isinstance(fn, type) or not callable(fn) or id(fn) in seen:
                continue
            home = getattr(fn, "__module__", "") or ""
            if home.startswith("permlog."):
                layer_of = home.split(".", 1)[1]
            else:
                layer_of = layer
            seen.add(id(fn))
            out.append((layer_of, fn.__name__, fn))
    return out


class Tracer:
    """Span recorder. Spans stay in memory until `write`."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._series_depth = 0
        self._saved = []

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            outer_series = layer == "series" and tracer._series_depth == 0
            if layer == "series":
                tracer._series_depth += 1
            if outer_series:
                tracemalloc.start()
            tracer._stack.append(frame)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                span = {
                    "op": tracer.op,
                    "id": span_id,
                    "parent": parent,
                    "layer": layer,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": duration - frame[1],
                    "error": error,
                }
                if name == "good_fft_size" and error is None:
                    span["value"] = int(result)
                if layer == "series":
                    tracer._series_depth -= 1
                if outer_series:
                    span["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.spans.append(span)

        return traced

    def install(self):
        """Wrap the traced functions and rebind every binding of them;
        `restore` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(layer, name, fn)) for layer, name, fn in _traced_functions()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "permlog":
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")


def _is_coeff(span):
    return span["layer"] == "interpolation" and span["name"] not in NON_COEFF


def layer_metrics(spans, rounds):
    """Per-layer totals from the spans of `rounds` traced rounds, each
    divided by `rounds`. Times are self times in seconds."""

    def self_time(layer, names):
        return sum(s["self"] for s in spans if s["layer"] == layer and s["name"] in names) / rounds

    def calls(pred):
        return sum(1 for s in spans if pred(s)) / rounds

    fallback_ops = set()
    budget_failed = set()
    for s in sorted(spans, key=lambda s: s["start"]):
        if not _is_coeff(s):
            continue
        if s["name"].startswith("g_derivatives_") and s["error"] == "BudgetExceeded":
            budget_failed.add(s["op"])
        elif s["op"] in budget_failed:
            fallback_ops.add(s["op"])
    peaks = [s["peak_alloc"] for s in spans if "peak_alloc" in s]
    return {
        "cli.load_instance_s": self_time("cli", {"load_instance"}),
        "cli.instance_digest_s": self_time("cli", {"instance_digest"}),
        "regions.check_region_s": self_time("regions", {"check_region"}),
        "interpolation.choose_degree_s": self_time("interpolation", {"choose_degree"}),
        "interpolation.coeff_s": sum(s["self"] for s in spans if _is_coeff(s)) / rounds,
        "interpolation.coeff_calls": calls(_is_coeff),
        "interpolation.coeff_fallbacks": len(fallback_ops) / rounds,
        "interpolation.log_derivatives_s": self_time("interpolation", {"log_derivatives"}),
        "interpolation.build_phi_s": self_time("interpolation", {"build_phi"}),
        "interpolation.self_s": self_time("interpolation", {"approx_log_disc", "approx_log_strip"}),
        "core.poly_compose_truncated_s": self_time("core", {"poly_compose_truncated"}),
        "series.series_mul_s": self_time("series", {"series_mul"}),
        "series.series_mul_calls": calls(lambda s: s["layer"] == "series" and s["name"] == "series_mul"),
        "series.fft_len_sum": sum(s.get("value", 0) for s in spans if s["name"] == "good_fft_size") / rounds,
        "series.series_reciprocal_s": self_time("series", {"series_reciprocal"}),
        "series.series_log_prefix_sum_s": self_time("series", {"series_log_prefix_sum"}),
        "series.series_log_coeffs_direct_s": self_time("series", {"series_log_coeffs_direct"}),
        "series.compensated_total_s": self_time("series", {"compensated_total"}),
        "series.peak_alloc_mb": max(peaks, default=0) / 2**20,
    }
