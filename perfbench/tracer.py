"""Outside-in tracing of the sanovdual package.

`Tracer.install()` replaces selected public functions with timing wrappers
in every `sanovdual.*` namespace that holds the same object (modules import
each other's functions by name, and the package attribute `sanovdual.risk`
is the re-exported function, so modules are looked up in `sys.modules`).
`uninstall()` puts the originals back.  Nothing under `src/` changes.

Each wrapper records a span: calls, inclusive time (outermost call only, so
recursion is not counted twice) and self time (duration minus the time of
wrapped calls it made).  Counts come from return values and from callable
arguments wrapped on the way in: the objective of the simplex searches, `G`
of the bisection, `fn` of the golden search and `pdf` of the quadrature.
Generators (`compositions`) are timed over their iteration.  Everything is
aggregated in memory.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _replace_arg(args, kwargs, pos, name, value):
    if len(args) > pos:
        args = args[:pos] + (value,) + args[pos + 1:]
    else:
        kwargs = {**kwargs, name: value}
    return args, kwargs


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:              # a Dist
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts = defaultdict(float)
        self._stack = []       # per open span: [time spent in child spans]
        self._depth = defaultdict(int)
        self._patches = []

    # -- span machinery ----------------------------------------------------

    def _wrap(self, name, orig, before=None, after=None):
        span = self.spans[name]
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            level = depth[name]
            depth[name] = level + 1
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] = level
                span[0] += 1
                span[2] += dur - frame[0]
                if level == 0:
                    span[1] += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name, orig):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        inside = [False]

        def timed(it):
            while True:
                frame = [0.0]
                stack.append(frame)
                inside[0] = True
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - t0
                    inside[0] = False
                    stack.pop()
                    span[1] += dur
                    span[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                yield item

        def wrapper(*args, **kwargs):
            if inside[0]:      # a recursive call made while advancing
                return orig(*args, **kwargs)
            span[0] += 1
            return timed(orig(*args, **kwargs))

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_arg(self, key, pos, name):
        def before(args, kwargs):
            fn = self._counted(key, _arg(args, kwargs, pos, name))
            return _replace_arg(args, kwargs, pos, name, fn)
        return before

    # -- what is traced ----------------------------------------------------

    def _wrappers(self, mods):
        """(owner, attribute, wrapper) for every traced callable."""
        c = self.counts
        out = []

        def fn(module, attr, before=None, after=None):
            orig = getattr(mods[module], attr)
            out.append((mods[module], attr,
                        self._wrap(f"{module}.{attr}", orig, before, after)))

        out.append((mods["spaces"], "compositions", self._wrap_generator(
            "spaces.compositions", mods["spaces"].compositions)))

        def type_classes(args, kwargs, result):
            n = _arg(args, kwargs, 1, "n")
            m = _arg(args, kwargs, 2, "space").size
            c["dp.backward_value_symmetric.type_classes"] += math.comb(n + m, m)
        fn("dp", "backward_value_symmetric", after=type_classes)
        fn("dp", "symmetric_terminal")
        fn("dp", "simplex_supremum", before=self._count_arg(
            "dp.simplex_supremum.objective_evals", 0, "objective"))
        fn("optim", "pgd_max_simplex", before=self._count_arg(
            "optim.pgd_max_simplex.objective_evals", 0, "objective"))

        def penalty_rows(args, kwargs):
            c["penalties.penalty.rows"] += _rows(_arg(args, kwargs, 0, "nu"))
            return args, kwargs
        fn("penalties", "penalty", before=penalty_rows)

        def risk_rows(args, kwargs):
            c["risk.risk_rows.rows"] += _rows(_arg(args, kwargs, 1, "F"))
            return args, kwargs
        fn("risk", "risk_rows", before=risk_rows)
        fn("risk", "generic_risk")

        def transport_size(args, kwargs):
            c["transport.solve_transport.m_total"] += len(
                _arg(args, kwargs, 0, "a"))
            return args, kwargs

        def pivots(args, kwargs, result):
            c["transport.solve_transport.pivots"] += result.pivots
        fn("transport", "solve_transport", before=transport_size,
           after=pivots)

        def dense_rows(args, kwargs):
            size = getattr(_arg(args, kwargs, 0, "f"), "size", None)
            m = _arg(args, kwargs, 1, "space").size
            if size is not None and m > 1:
                c["dp.backward_value_dense.rows"] += (size - 1) // (m - 1)
            return args, kwargs
        fn("dp", "backward_value_dense", before=dense_rows)
        fn("dp", "superhedge")
        fn("cli", "main")

        def json_bytes(args, kwargs, result):
            c["cli.write_json.bytes"] += \
                _arg(args, kwargs, 0, "path").stat().st_size
        fn("cli", "write_json", after=json_bytes)
        fn("cli", "write_csv")
        fn("cramer", "cumulant")
        fn("cramer", "rate_function")
        fn("cramer", "plus_power_moment")
        fn("optim", "bisect_nonincreasing", before=self._count_arg(
            "optim.bisect_nonincreasing.g_evals", 0, "G"))
        fn("optim", "golden_min", before=self._count_arg(
            "optim.golden_min.fn_evals", 0, "fn"))

        def timed_pdf(args, kwargs):
            pdf = self._wrap("quadrature.pdf", _arg(args, kwargs, 0, "pdf"))
            return _replace_arg(args, kwargs, 0, "pdf", pdf)
        fn("quadrature", "expect", before=timed_pdf)
        fn("montecarlo", "rep_rng")

        mc = mods["montecarlo"]
        for cls in (mc.ParetoSampler, mc.StudentTSampler,
                    mc.LogNormalSampler, mc.FiniteSampler):
            def samples(args, kwargs, result):
                c["montecarlo.draw.samples"] += result.size
            out.append((cls, "draw", self._wrap("montecarlo.draw", cls.draw,
                                                after=samples)))

        def reps(key, pos, name, per_schedule=False):
            def before(args, kwargs):
                r = _arg(args, kwargs, pos, name)
                if per_schedule:
                    r *= len(_arg(args, kwargs, 1, "schedule"))
                c[key] += r
                return args, kwargs
            return before
        fn("montecarlo", "estimate_tail", before=reps(
            "montecarlo.estimate_tail.replications", 3, "replications"))
        fn("montecarlo", "saa_run", before=reps(
            "montecarlo.saa_run.replications", 2, "replications", True))
        fn("montecarlo", "argmin_tracking", before=reps(
            "montecarlo.argmin_tracking.replications", 2, "replications",
            True))
        fn("montecarlo", "azuma_experiment", before=reps(
            "montecarlo.azuma_experiment.replications", 3, "replications"))
        return out

    def install(self) -> None:
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("sanovdual.")}
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "sanovdual" or name.startswith("sanovdual.")]
        for owner, attr, wrapper in self._wrappers(mods):
            orig = owner.__dict__[attr]
            if isinstance(owner, type):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reading the numbers -----------------------------------------------

    def layer_self(self) -> float:
        """Self time summed over the spans below the entry point `cli.main`,
        so that a traced pass's wall time less this is the time spent in no
        named layer."""
        return sum(span[2] for name, span in self.spans.items()
                   if name != "cli.main")

    def metric(self, name: str) -> float:
        """Value of `<module>.<function>.<quantity>` since construction."""
        layer, quantity = name.rsplit(".", 1)
        calls, incl, self_s = self.spans.get(layer, (0, 0.0, 0.0))
        pdf = self.spans.get("quadrature.pdf", (0, 0.0, 0.0))
        if quantity == "s":
            return incl
        if quantity == "self_s":
            return self_s
        if quantity == "calls":
            return calls
        if quantity == "pdf_s":
            return pdf[1]
        if quantity == "segments":
            return pdf[0]
        if quantity == "rows_per_call":
            return self.counts[f"{layer}.rows"] / calls if calls else 0.0
        if quantity == "mean_m":
            return self.counts[f"{layer}.m_total"] / calls if calls else 0.0
        if layer not in self.spans:
            raise KeyError(f"no traced layer for metric {name!r}")
        return self.counts[name]
