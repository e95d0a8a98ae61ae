"""The benchmark's route into the library: a table of named public functions.

Every workload calls the library through a ``Calls`` object, so that a traced
run can wrap each call in a span named after its layer, and a test can
substitute one entry (a deliberately broken projector, say) without touching
the library. Spans are recorded only in the benchmark's own files, never
inside ``src/``.
"""

from __future__ import annotations


def _count_project(tracer, args, out) -> None:
    tracer.counts["basis.project_calls"] += 1
    tracer.counts["basis.terms_in"] += len(args[0].terms)
    tracer.counts["basis.terms_out"] += len(out.terms)


def _count_inner(tracer, args, out) -> None:
    tracer.counts["poly.inner_pairs"] += 1


COUNTERS = {
    "basis.traceless_project": _count_project,
    "poly.bargmann_inner": _count_inner,
}


class Calls:
    def __init__(self, table: dict, tracer=None):
        self.table = dict(table)
        self.tracer = tracer

    def __call__(self, name: str, *args, **kwargs):
        fn = self.table[name]
        tracer = self.tracer
        if tracer is None:
            return fn(*args, **kwargs)
        i = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        count = COUNTERS.get(name)
        if count is not None:
            count(tracer, args, out)
        return out
