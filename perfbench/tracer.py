"""Outside-in tracer for the boltzsphere package.

The tracer changes no file of the package.  While installed it replaces, in
every loaded ``boltzsphere`` module that holds them, the public functions of
the layer modules by wrappers that record a span per call; it also wraps a
few methods on their classes and the three loop kernels on the shared
``default_kernels()`` namespace.  ``restore`` puts every original back.

A span is (name, start, end, parent span).  Spans stay in memory until the
pass ends.  Counts that ratios need (proposals run and needed, events drawn
and applied, bytes written) are taken from the wrapped calls' arguments and
return values, so they are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "lifted", "conditioned", "_kernels", "dsmc", "geometry",
    "uniform", "metrics", "densities", "reporting", "rng",
)
METHODS = (
    ("lifted", "GridDensity", "interp_log"),
    ("lifted", "LiftedGrid", "__init__"),
    ("dsmc", "ConditionedInitial", "__call__"),
    ("uniform", "CoordinateMarginal", "cdf"),
)
KERNELS = ("pair_chain", "triple_chain", "dsmc_advance")
WRITERS = ("reporting.write_csv", "reporting.write_json", "reporting.svg_line_plot")
DRAWS = ("kernels.draw_pair_indices", "kernels.draw_triple_indices", "kernels.draw_unit_vectors")
CALLBACKS = ("geometry.tangent_gradient", "geometry.surface_divergence")


def _label(layer: str) -> str:
    """Span and metric prefix of a layer module (names start with a letter)."""
    return layer.lstrip("_")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _chain_hook(prefix, step0_pos):
    """Counts for pair_chain / triple_chain, whose arguments end with
    (log_us, step0, burn_in, thin, out, out_count0); `step0_pos` is the
    position of step0.  A proposal is needed when the chain must run it to
    reach burn_in + n_states * thin steps."""

    def hook(tracer, span, args, kwargs, out):
        n_prop = len(args[step0_pos - 1])  # log_us, one entry per proposal
        step0, burn_in, thin, states = args[step0_pos : step0_pos + 4]
        needed = burn_in + states.shape[0] * thin - step0
        c = tracer.count
        c[prefix + ".proposals"] += n_prop
        c[prefix + ".needed"] += min(n_prop, max(0, needed))
        c[prefix + ".accepted"] += int(out[1])

    return hook


def _dsmc_hook(tracer, span, args, kwargs, out):
    tracer.count["kernels.dsmc_advance.drawn"] += len(args[4])
    tracer.count["kernels.dsmc_advance.events"] += int(out[2])


def _convolution_bytes(shape, N) -> int:
    """Bytes the spectral power touches, computed from the grid shape.

    Real grid R = nz*nu*8, half spectrum C = nz*(nu//2+1)*16.  Roll and scale
    to a pmf: 2 R each; rfft2: R + C; the power: C for the ones array plus
    3 C per product (two reads, one write), with floor(log2 N) squarings and
    popcount(N) accumulations; irfft2: C + R; roll and rescale back: 2 R each.
    """
    nz, nu = shape
    R = nz * nu * 8
    C = nz * (nu // 2 + 1) * 16
    products = (N.bit_length() - 1) + bin(N).count("1")
    return 4 * R + (R + C) + C + 3 * C * products + (C + R) + 4 * R


def _convolution_hook(tracer, span, args, kwargs, out):
    N = int(_arg(args, kwargs, 1, "N"))
    if N > 1:
        g = _arg(args, kwargs, 0, "g")
        tracer.count["lifted.convolution_power.bytes_computed"] += _convolution_bytes(
            g.values.shape, N
        )


def _marginal_hook(tracer, span, args, kwargs, out):
    law = _arg(args, kwargs, 0, "law")
    ell = int(_arg(args, kwargs, 1, "ell"))
    pts = _arg(args, kwargs, 2, "V_ell")
    size = getattr(pts, "size", None)
    ndim = getattr(pts, "ndim", 1)
    rows = 1 if ndim <= 1 or size is None else size // (ell * law.spec.d)
    tracer.count["conditioned.conditioned_marginal_density.points"] += rows


def _batch_hook(tracer, span, args, kwargs, out):
    tracer.count["conditioned.sample_conditioned_batch.states"] += int(
        _arg(args, kwargs, 2, "n_states")
    )


def _ipp_hook(tracer, span, args, kwargs, out):
    tracer.count["geometry.ipp_residual.samples"] += len(_arg(args, kwargs, 2, "samples"))


def _uniform_batch_hook(tracer, span, args, kwargs, out):
    tracer.count["uniform.sample_uniform_batch.rows"] += int(_arg(args, kwargs, 1, "n"))


def _write_hook(tracer, span, args, kwargs, out):
    tracer.count["reporting.write.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _cli_main_hook(tracer, span, args, kwargs, out):
    argv = _arg(args, kwargs, 0, "argv")
    tracer.tag[span] = argv[0]


HOOKS = {
    "kernels.pair_chain": _chain_hook("kernels.pair_chain", 7),
    "kernels.triple_chain": _chain_hook("kernels.triple_chain", 8),
    "kernels.dsmc_advance": _dsmc_hook,
    "lifted.convolution_power": _convolution_hook,
    "conditioned.conditioned_marginal_density": _marginal_hook,
    "conditioned.sample_conditioned_batch": _batch_hook,
    "geometry.ipp_residual": _ipp_hook,
    "uniform.sample_uniform_batch": _uniform_batch_hook,
    "cli.main": _cli_main_hook,
    **{name: _write_hook for name in WRITERS},
}


class Tracer:
    """Span recorder plus the wrap/restore bookkeeping for one pass."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.tag = {}
        self.count = defaultdict(int)
        self._stack = []
        self._saved = []  # (owner, attribute, original), in install order

    def wrap(self, label, fn):
        hook = HOOKS.get(label)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, out)
            return out

        return traced

    def _replace(self, owner, attribute, value):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        from boltzsphere import _kernels

        kernels = _kernels.default_kernels()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"boltzsphere.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{_label(layer)}.{attr}", fn))
        holders = [
            m for name, m in list(sys.modules.items())
            if name == "boltzsphere" or name.startswith("boltzsphere.")
        ]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, attr, hit[1])
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"boltzsphere.{layer}"), cls_name)
            self._replace(cls, attr, self.wrap(f"{_label(layer)}.{cls_name}.{attr}", vars(cls)[attr]))
        for attr in KERNELS:
            self._replace(kernels, attr, self.wrap(f"kernels.{attr}", getattr(kernels, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def wrapped_targets(self):
        """(owner, attribute) of everything currently replaced."""
        return [(owner, attr) for owner, attr, _ in self._saved]

    def write_spans(self, path) -> None:
        """Write the spans as JSON: names once, then (name index, start, end, parent)."""
        index = {}
        rows = []
        for name, t0, t1, parent in zip(self.name, self.start, self.end, self.parent):
            rows.append((index.setdefault(name, len(index)), t0, t1, parent))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(index), "spans": rows}, fh)

    # ------------------------------------------------------------ aggregation

    def totals(self):
        """Per name: calls, inclusive seconds and self seconds.

        Inclusive time skips spans nested in a span of the same name, so a
        recursive call is not counted twice.  Self time is a span's duration
        minus the durations of its direct children.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.name[i]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != name:
                p = self.parent[p]
            if p < 0:
                incl[name] += dur[i]
        return calls, incl, self_s, dur

    def layer_metrics(self, subcommands) -> dict:
        """The per-layer metrics of one traced pass, with cli.<name>.s for
        each of `subcommands` (process.* and trace.* are added by the
        caller).  A ratio with a zero base reads 0."""
        calls, incl, self_s, dur = self.totals()
        c = self.count

        def ratio(a, b):
            return a / b if b else 0.0

        m = {f"cli.{sub}.s": 0.0 for sub in subcommands}
        for i, name in enumerate(self.name):
            if name == "cli.main":
                key = f"cli.{self.tag.get(i, 'unknown')}.s"
                m[key] = m.get(key, 0.0) + dur[i]
        for layer in map(_label, LAYERS):
            m[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")
            )

        # lifted
        grid_calls = [i for i, nm in enumerate(self.name) if nm == "lifted.lifted_grid"]
        built = {self.parent[i] for i, nm in enumerate(self.name)
                 if nm == "lifted.LiftedGrid.__init__"}
        m["lifted.lifted_grid.calls"] = len(grid_calls)
        m["lifted.grid_builds"] = calls["lifted.LiftedGrid.__init__"]
        m["lifted.grid_hit_ratio"] = ratio(sum(i not in built for i in grid_calls), len(grid_calls))
        m["lifted.grid_build_s"] = incl["lifted.LiftedGrid.__init__"]
        m["lifted.rasterize_lifted.s"] = incl["lifted.rasterize_lifted"]
        m["lifted.convolution_power.s"] = incl["lifted.convolution_power"]
        m["lifted.convolution_power.bytes_computed"] = c["lifted.convolution_power.bytes_computed"]
        m["lifted.interp_log.calls"] = calls["lifted.GridDensity.interp_log"]
        m["lifted.interp_log.us_per_call"] = 1e6 * ratio(
            incl["lifted.GridDensity.interp_log"], calls["lifted.GridDensity.interp_log"])
        m["lifted.berry_esseen_sup.s"] = incl["lifted.berry_esseen_sup"]

        # conditioned
        cmd = "conditioned.conditioned_marginal_density"
        m[cmd + ".s"] = incl[cmd]
        m[cmd + ".points"] = c[cmd + ".points"]
        m[cmd + ".self_us_per_point"] = 1e6 * ratio(self_s[cmd], c[cmd + ".points"])
        m["conditioned.entropy_per_particle.s"] = incl["conditioned.entropy_per_particle"]
        m["conditioned.w1_rate_experiment.s"] = incl["conditioned.w1_rate_experiment"]
        m["conditioned.sample_conditioned_batch.s"] = incl["conditioned.sample_conditioned_batch"]
        m["conditioned.sample_conditioned_batch.states"] = c["conditioned.sample_conditioned_batch.states"]

        # _kernels
        for kern in ("pair_chain", "triple_chain"):
            key = f"kernels.{kern}"
            prop = c[key + ".proposals"]
            m[key + ".proposals"] = prop
            m[key + ".needed"] = c[key + ".needed"]
            m[key + ".accepted"] = c[key + ".accepted"]
            m[key + ".us_per_proposal"] = 1e6 * ratio(incl[key], prop)
            m[key + ".useful_ratio"] = ratio(c[key + ".needed"], prop)
            m[key + ".accept_ratio"] = ratio(c[key + ".accepted"], prop)
        key = "kernels.dsmc_advance"
        m[key + ".events"] = c[key + ".events"]
        m[key + ".drawn"] = c[key + ".drawn"]
        m[key + ".us_per_event"] = 1e6 * ratio(incl[key], c[key + ".events"])
        m[key + ".useful_ratio"] = ratio(c[key + ".events"], c[key + ".drawn"])
        m["kernels.draw.s"] = sum(incl[k] for k in DRAWS)

        # dsmc
        m["dsmc.run.s"] = incl["dsmc.run"]
        m["dsmc.ConditionedInitial.calls"] = calls["dsmc.ConditionedInitial.__call__"]
        m["dsmc.ConditionedInitial.s"] = incl["dsmc.ConditionedInitial.__call__"]
        m["dsmc.equilibrium_crosscheck.s"] = incl["dsmc.equilibrium_crosscheck"]

        # geometry
        m["geometry.ipp_residual.s"] = incl["geometry.ipp_residual"]
        m["geometry.ipp_residual.samples"] = c["geometry.ipp_residual.samples"]
        m["geometry.ipp_residual.us_per_sample"] = 1e6 * ratio(
            incl["geometry.ipp_residual"], c["geometry.ipp_residual.samples"])
        m["geometry.callbacks"] = sum(calls[k] for k in CALLBACKS)

        # uniform
        m["uniform.sample_uniform_batch.s"] = incl["uniform.sample_uniform_batch"]
        m["uniform.sample_uniform_batch.rows"] = c["uniform.sample_uniform_batch.rows"]
        m["uniform.marginal_log_density.s"] = incl["uniform.marginal_log_density"]
        m["uniform.CoordinateMarginal.cdf.s"] = incl["uniform.CoordinateMarginal.cdf"]

        # metrics
        for fn in ("w1", "w2"):
            m[f"metrics.{fn}.calls"] = calls[f"metrics.{fn}"]
            m[f"metrics.{fn}.s"] = incl[f"metrics.{fn}"]
        for fn in ("relative_entropy_vs_gaussian", "relative_fisher", "interpolation_check"):
            m[f"metrics.{fn}.s"] = incl[f"metrics.{fn}"]

        # reporting and rng
        m["reporting.write.s"] = sum(incl[k] for k in WRITERS)
        m["reporting.write.bytes"] = c["reporting.write.bytes"]
        m["reporting.fit_loglog.s"] = incl["reporting.fit_loglog"]
        m["rng.stream.calls"] = calls["rng.stream"]
        m["rng.stream.s"] = incl["rng.stream"]
        m["trace.spans"] = len(self.name)
        return m
