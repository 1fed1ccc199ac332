"""Per-layer tracing of kakeyalab by wrapping the public functions of each module.

The tracer replaces every binding of each listed function: the module
attribute itself, every ``from .x import f`` copy held by another kakeyalab
module, and every entry of a module-level dict that holds the function (such
as ``maximal._OPERATORS`` or ``cli.SUITES``).  Wrapping only the defining
module would let calls through those other bindings run untraced.

Each call records a span (name, start, end, parent) in memory.  A span's self
time is its duration minus the time its child spans cover.  A few wrappers
also record derived counts (cache builds and hits, distinct inputs, array
sizes); the work they do for that is itself recorded as ``trace.hook`` spans
so that it is not charged to any layer.

Run as a script, it executes one ``kakeya`` command line in this process under
the tracer and writes the per-layer summary as JSON::

    PYTHONPATH=src python3 bench/tracer.py SUMMARY.json verify --q 3 --seed 0
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

PACKAGE = "kakeyalab"

# layer (module) -> traced function names; "Field.__init__" is reported as
# "field.Field".
TRACED = {
    "field": ("Field.__init__",),
    "heisenberg": ("enumerate_projective_directions",
                   "enumerate_refined_directions", "line_table_for_direction",
                   "census", "lines_with_refined_direction",
                   "lines_through_point"),
    "maximal": ("affine_incidence", "refined_incidence", "heis1_incidence",
                "affine_max_op", "heis_max_op", "heis_max_op_many",
                "refined_max_op", "random_complex_grid", "linearize",
                "family_gram", "ttstar_spectrum", "l2_operator_norm",
                "verify_bound", "lp_norm"),
    "fourier": ("central_fourier", "t_components", "u_tables",
                "key_counting_check", "split_bound_check",
                "decomposition_defect", "quadratic_fiber_count"),
    "constructions": ("extremal_set", "lower_bound_ratio", "is_affine_kakeya",
                      "is_full_refined_kakeya", "example_affine_not_refined",
                      "example_refined_not_affine", "kakeya_bound_report",
                      "moment_report"),
    "cli": ("rows_to_csv",),
}
# cli.suite_<name> functions are traced too, reported by total time only.
SUITES = ("census", "planar_l2", "ttstar", "diag", "offdiag", "rd_l2",
          "fourier", "exponents", "lowerbounds", "examples", "kakeya_bounds",
          "moments")
BUILDERS = ("affine_incidence", "refined_incidence", "heis1_incidence")
HOOK = "trace.hook"
MB = 1e6


def span_name(module, attr):
    return f"{module}.{attr.removesuffix('.__init__')}"


def traced_names():
    """Every traced span name, in report order."""
    names = [span_name(m, f) for m, fs in TRACED.items() for f in fs]
    return names + [f"cli.suite_{s}" for s in SUITES]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for m, fs in TRACED.items():
        for f in fs:
            name = span_name(m, f)
            out += [(f"{name}.calls", "count", "lower"),
                    (f"{name}.self_s", "s", "lower")]
    out += [(f"cli.suite_{s}.total_s", "s", "lower") for s in SUITES]
    out.append(("field.Field.distinct_ratio", "ratio", "higher"))
    for b in BUILDERS:
        out += [(f"maximal.{b}.build_s", "s", "lower"),
                (f"maximal.{b}.hit_calls", "count", "higher")]
    out += [("heisenberg.line_table_for_direction.table_mb", "MB-computed",
             "lower"),
            ("maximal.max_op.gathered_mb", "MB-computed", "lower"),
            ("maximal.max_op.distinct_input_ratio", "ratio", "higher"),
            ("fourier.t_components.distinct_input_ratio", "ratio", "higher"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("trace.coverage", "ratio", "higher")]
    return out


def fingerprint(array):
    """Content key of a numpy array: dtype, shape and a digest of its bytes."""
    import numpy as np
    data = np.ascontiguousarray(array)
    return (data.dtype.str, data.shape,
            hashlib.blake2b(data.data, digest_size=16).digest())


class Tracer:
    """Installs span-recording wrappers into the kakeyalab modules."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []
        self._restore = []       # (container, key, original, is_attr)
        self.missing = []
        self.fields = []                     # (q, modulus) per construction
        self.builder_keys = set()
        self.build_s = {b: 0.0 for b in BUILDERS}
        self.hit_calls = {b: 0 for b in BUILDERS}
        self.table_bytes = 0
        self.gathered_entries = 0
        self.op_inputs = []                  # (operator, fingerprint) per call
        self.tc_inputs = []                  # (table, family) fingerprints
        self._table_of_grid = {}             # grid fp -> its Fourier table fp

    # -- spans -----------------------------------------------------------

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, None, None, parent))  # open
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(args, result, end - start)
                spans.append((HOOK, end, clock(), parent))
            return result

        return traced

    # -- derived counts --------------------------------------------------

    def _hooks(self):
        def field_init(args, result, dur):
            self.fields.append((args[0].q, args[0].modulus))

        def builder(name):
            # the first call per argument tuple builds the table: its whole
            # duration, a nested build included, counts as build time
            def hook(args, result, dur):
                key = (name, args)
                if key in self.builder_keys:
                    self.hit_calls[name] += 1
                else:
                    self.builder_keys.add(key)
                    self.build_s[name] += dur
            return hook

        def line_table(args, result, dur):
            self.table_bytes += result.nbytes

        def n_dirs(q, d):
            return (q**d - 1) // (q - 1)

        def affine_op(args, result, dur):
            f = args[0]
            q, d = f.field.q, f.domain.n
            self.gathered_entries += n_dirs(q, d) * q**d
            self.op_inputs.append(("affine", fingerprint(f.values)))

        def refined_op(args, result, dur):
            q = args[0].field.q
            self.gathered_entries += (q * q + q) * q * q
            self.op_inputs.append(("refined", fingerprint(args[0].values)))

        def heis_op(args, result, dur):
            F = args[0]
            if F.domain.n == 1:  # n >= 2 gathers inside heis_max_op_many
                q = F.field.q
                self.gathered_entries += (q + 1) * q**3
            self.op_inputs.append(("heis", fingerprint(F.values)))

        def heis_op_many(args, result, dur):
            field, n, absrows = args[:3]
            q = field.q
            self.gathered_entries += (absrows.shape[0] * n_dirs(q, 2 * n)
                                      * q ** (2 * n + 1))
            if self._parent_name() != "maximal.heis_max_op":
                self.op_inputs.extend(("heis_many", fingerprint(row))
                                      for row in absrows)

        def central(args, result, dur):
            self._table_of_grid[fingerprint(args[0].values)] = \
                fingerprint(result.table)

        def t_components(args, result, dur):
            f, family = args[:2]
            if hasattr(f, "table"):
                key = fingerprint(f.table)
            else:
                grid = fingerprint(f.values)
                key = self._table_of_grid.get(grid, grid)
            self.tc_inputs.append((key, fingerprint(family.point_idx)))

        hooks = {"field.Field": field_init,
                 "heisenberg.line_table_for_direction": line_table,
                 "maximal.affine_max_op": affine_op,
                 "maximal.refined_max_op": refined_op,
                 "maximal.heis_max_op": heis_op,
                 "maximal.heis_max_op_many": heis_op_many,
                 "fourier.central_fourier": central,
                 "fourier.t_components": t_components}
        hooks.update((f"maximal.{b}", builder(b)) for b in BUILDERS)
        return hooks

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Wrap every binding of every traced function; returns self."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED}
        containers = [importlib.import_module(PACKAGE), *mods.values()]
        hooks = self._hooks()
        wrappers = {}    # id(original) -> wrapper
        targets = [(m, f) for m, fs in TRACED.items() for f in fs]
        targets += [("cli", f"suite_{s}") for s in SUITES]
        for m, attr in targets:
            name = span_name(m, attr)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mods[m], owner_name) if owner_name else mods[m]
            fn = owner.__dict__.get(fn_name)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, hooks.get(name))
            wrappers[id(fn)] = (fn, wrapper)
            if owner_name:  # a method: its class holds the only binding
                self._replace(owner, fn_name, fn, wrapper, is_attr=True)
        for mod in containers:
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, key, value, hit[1], is_attr=True)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._replace(value, k, v, hit[1], is_attr=False)
        return self

    def _replace(self, container, key, original, wrapper, is_attr):
        if is_attr:
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper
        self._restore.append((container, key, original, is_attr))

    def uninstall(self):
        for container, key, original, is_attr in reversed(self._restore):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._restore.clear()

    # -- summary ---------------------------------------------------------

    def summary(self):
        """Per-layer metrics (all but the two that need the outside wall
        time), the covered time, and the parent -> child call edges."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        covered = 0.0
        calls, self_s, total_s, edges = {}, {}, {}, {}
        for name, start, end, parent in spans:
            dur = end - start
            if parent >= 0:
                child_s[parent] += dur
            else:
                covered += dur
        for i, (name, start, end, parent) in enumerate(spans):
            if name == HOOK:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            edge = f"{spans[parent][0] if parent >= 0 else '<root>'}>{name}"
            edges[edge] = edges.get(edge, 0) + 1

        def ratio(items):
            return len(set(items)) / len(items) if items else 0.0

        metrics = {}
        for m, fs in TRACED.items():
            for f in fs:
                name = span_name(m, f)
                metrics[f"{name}.calls"] = calls.get(name, 0)
                metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
        for s in SUITES:
            metrics[f"cli.suite_{s}.total_s"] = total_s.get(f"cli.suite_{s}",
                                                            0.0)
        metrics["field.Field.distinct_ratio"] = ratio(self.fields)
        for b in BUILDERS:
            metrics[f"maximal.{b}.build_s"] = self.build_s[b]
            metrics[f"maximal.{b}.hit_calls"] = self.hit_calls[b]
        metrics["heisenberg.line_table_for_direction.table_mb"] = \
            self.table_bytes / MB
        metrics["maximal.max_op.gathered_mb"] = self.gathered_entries * 8 / MB
        metrics["maximal.max_op.distinct_input_ratio"] = ratio(self.op_inputs)
        metrics["fourier.t_components.distinct_input_ratio"] = \
            ratio(self.tc_inputs)
        return {"metrics": metrics, "covered_s": covered, "spans": len(spans),
                "edges": edges, "missing": self.missing}


def main(argv):
    """Run one kakeya command line under the tracer; write the summary."""
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer().install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    try:
        status = cli.main(cli_argv)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["status"] = status
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
