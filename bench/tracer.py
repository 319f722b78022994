"""Per-layer tracing of the delpezzo modules, applied from outside.

Each traced function or method is replaced by a wrapper at every place
its callers look it up: methods on their class, module functions in every
``delpezzo`` module namespace that binds the same function object (so
``quotient.exact_divide`` and ``surfaces.exact_divide`` are wrapped along
with ``algebra.exact_divide``).  The package source is never edited and
every binding is restored by ``Tracer.uninstall``.

A span is (name, start, end, parent, job); spans live in flat arrays in
memory and are aggregated into per-layer metrics after each pass.  A
metric's self time is its spans' duration minus the part covered by
their child spans.  Very hot, very cheap calls (``VarTable.__eq__`` and
the ``SFraction`` operators) are counted without a span, so their time
stays in the enclosing span's self time.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (metric, module, attribute path, kind).  kind "span" records a span and
# counts the call; "part" records a span under the metric without counting
# a call; "count" only counts calls.  Several targets may share one metric.
SPAN, PART, COUNT = "span", "part", "count"

TARGETS = (
    ("algebra.SparsePoly.mul", "algebra", "SparsePoly.__mul__", SPAN),
    ("algebra.SparsePoly.add", "algebra", "SparsePoly.__add__", SPAN),
    ("algebra.GeomPoly.mul", "algebra", "GeomPoly.__mul__", SPAN),
    ("algebra.GeomPoly.add", "algebra", "GeomPoly.__add__", SPAN),
    ("algebra.GeomPoly.substituted", "algebra", "GeomPoly.substituted", SPAN),
    ("algebra.ParamRational.new", "algebra", "ParamRational.__init__", SPAN),
    ("algebra.ParamRational.mul", "algebra", "ParamRational.__mul__", SPAN),
    ("algebra.ParamRational.add", "algebra", "ParamRational.__add__", SPAN),
    ("algebra.ParamRational.eq", "algebra", "ParamRational.__eq__", SPAN),
    ("algebra.VarTable.eq", "algebra", "VarTable.__eq__", COUNT),
    ("algebra.Derivation.call", "algebra", "Derivation.__call__", SPAN),
    ("algebra.exact_divide", "algebra", "exact_divide", SPAN),
    ("quotient.BaseRingS.reduce", "quotient", "BaseRingS.reduce", SPAN),
    ("quotient.to_module_vector", "quotient", "to_module_vector", SPAN),
    ("quotient.derivation_matrix", "quotient", "derivation_matrix", SPAN),
    ("quotient.kernel_basis", "quotient", "kernel_basis", SPAN),
    ("quotient.verify_presentation", "quotient", "verify_presentation", SPAN),
    ("quotient.SFraction.ops", "quotient", "SFraction.__add__", COUNT),
    ("quotient.SFraction.ops", "quotient", "SFraction.__sub__", COUNT),
    ("quotient.SFraction.ops", "quotient", "SFraction.__neg__", COUNT),
    ("quotient.SFraction.ops", "quotient", "SFraction.__mul__", COUNT),
    ("quotient.SFraction.ops", "quotient", "SFraction.__truediv__", COUNT),
    ("quotient.SFraction.ops", "quotient", "SFraction.inverse", COUNT),
    ("quotient.SFraction.ops", "quotient", "SFraction.__eq__", COUNT),
    ("quotient.jacobian_minors", "quotient", "jacobian_minors", SPAN),
    ("quotient.normal_form", "quotient", "normal_form", SPAN),
    ("surfaces.singular_locus", "surfaces", "singular_locus", SPAN),
    ("surfaces.cusp_curve", "surfaces", "cusp_curve", SPAN),
    ("surfaces.quotient_presentation", "surfaces", "quotient_presentation", SPAN),
    ("surfaces.frobenius_factorization_check", "surfaces",
     "frobenius_factorization_check", SPAN),
    # the foliations suite is these six stages, reported as one
    ("surfaces.foliation_checks", "surfaces", "QuadricChart.dehomogenisation_check", SPAN),
    ("surfaces.foliation_checks", "surfaces", "check_p_closure", SPAN),
    ("surfaces.foliation_checks", "surfaces", "check_ideal_preserved", SPAN),
    ("surfaces.foliation_checks", "surfaces", "field_of_constants_check", SPAN),
    ("surfaces.foliation_checks", "surfaces", "check_fibre_injectivity", SPAN),
    ("surfaces.foliation_checks", "surfaces", "reducedness_witness", SPAN),
    ("numerics.solve_q1", "numerics", "solve_q1", SPAN),
    ("numerics.torsor_chi_sum", "numerics", "torsor_chi_sum", SPAN),
    ("numerics.feasibility_region", "numerics", "feasibility_region", SPAN),
    ("cli.suite_checks", "cli", "suite_checks", SPAN),
    # an emitter's JSON dump and its file/stdout write
    ("cli.emit", "cli", "_emit", SPAN),
    ("cli.emit", "cli", "_json_dump", PART),
)


def _terms_out(args, out):
    return len(out.terms)


# Values read from a traced call's arguments and result, keyed by the
# target's attribute path: (metric, how, getter).  "sum" adds the values,
# "max" keeps the largest, "ratio" sums them and divides by the calls.
EXTRA = {
    "SparsePoly.__mul__": (("algebra.SparsePoly.mul.terms_out", "sum", _terms_out),),
    "GeomPoly.__mul__": (("algebra.GeomPoly.mul.terms_out", "sum", _terms_out),),
    "ParamRational.__init__": (
        ("algebra.ParamRational.num_terms_max", "max",
         lambda args, out: len(args[0].num.terms)),
        ("algebra.ParamRational.den_terms_max", "max",
         lambda args, out: len(args[0].den.terms)),
    ),
    "exact_divide": (("algebra.exact_divide.ok_ratio", "ratio",
                      lambda args, out: out is not None),),
    "jacobian_minors": (("quotient.jacobian_minors.minors", "sum",
                         lambda args, out: len(out)),),
    "_emit": (("cli.emit.bytes", "sum", lambda args, out: len(args[0].encode("utf-8"))),),
}

JOB = "job"


def per_layer_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for metric, _, path, kind in TARGETS:
        fields = {SPAN: ["calls", "self_s"], PART: ["self_s"], COUNT: ["calls"]}[kind]
        for name in [f"{metric}.{f}" for f in fields] + [e[0] for e in EXTRA.get(path, ())]:
            if name not in names:
                names.append(name)
    return names


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs the wrappers, records spans and aggregates them."""

    def __init__(self):
        self.metric_ids: dict[str, int] = {JOB: 0}
        self.saved: list = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.job_names: list[str] = []
        self.counts.clear()
        self.maxima.clear()

    def _mid(self, metric):
        return self.metric_ids.setdefault(metric, len(self.metric_ids))

    # -- installation -------------------------------------------------

    def install(self):
        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                if name == "delpezzo" or name.startswith("delpezzo.")}
        for metric, modname, path, kind in TARGETS:
            owner, attr = _resolve(mods[modname], path)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(orig, metric, path, kind)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self.saved:
            owner, attr, orig = self.saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, metric, path, kind):
        counts = self.counts
        calls_key = metric + ".calls"
        if kind == COUNT:
            def counted(*args, **kwargs):
                counts[calls_key] = counts.get(calls_key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        mid = self._mid(metric)
        extras = EXTRA.get(path, ())
        maxima = self.maxima
        tracer = self

        def spanned(*args, **kwargs):
            sid = tracer.open(mid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if kind == SPAN:
                counts[calls_key] = counts.get(calls_key, 0) + 1
            for key, how, get in extras:
                value = get(args, out)
                if how == "max":
                    if value > maxima.get(key, 0):
                        maxima[key] = value
                else:
                    counts[key] = counts.get(key, 0) + value
            return out
        return spanned

    # -- spans ----------------------------------------------------------

    def open(self, mid):
        sid = len(self.name)
        self.name.append(mid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = perf_counter()
        self.stack.pop()

    def begin_job(self, job_name):
        self.job_id = len(self.job_names)
        self.job_names.append(job_name)
        return self.open(0)

    def end_job(self, sid):
        self.close(sid)
        self.job_id = -1

    # -- aggregation ----------------------------------------------------

    def summary(self):
        """Per-layer metrics of the spans and counters since ``reset``,
        plus the number of spans of each metric in each job."""
        n = len(self.name)
        covered = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, par in enumerate(self.parent):
            if par >= 0:
                covered[par] += dur[i]
        names = {v: k for k, v in self.metric_ids.items()}
        self_s: dict[str, float] = {}
        per_job: dict[str, dict[str, int]] = {}
        for i in range(n):
            metric = names[self.name[i]]
            self_s[metric] = self_s.get(metric, 0.0) + dur[i] - covered[i]
            if metric != JOB and self.job[i] >= 0:
                row = per_job.setdefault(self.job_names[self.job[i]], {})
                row[metric] = row.get(metric, 0) + 1
        out = {}
        for name in per_layer_names():
            metric, field = name.rsplit(".", 1)
            if field == "self_s":
                out[name] = self_s.get(metric, 0.0)
            elif field.endswith("_ratio"):
                calls = self.counts.get(metric + ".calls", 0)
                out[name] = self.counts.get(name, 0) / calls if calls else 0.0
            elif field.endswith("_max"):
                out[name] = self.maxima.get(name, 0)
            else:
                out[name] = self.counts.get(name, 0)
        return out, per_job

    def write_spans(self, path):
        """Spans as gzip TSV: id, parent, job, name, start, end (seconds
        from the first span)."""
        names = {v: k for k, v in self.metric_ids.items()}
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tjob\tname\tstart\tend\n")
            for i in range(len(self.name)):
                job = self.job_names[self.job[i]] if self.job[i] >= 0 else ""
                fh.write(f"{i}\t{self.parent[i]}\t{job}\t{names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
