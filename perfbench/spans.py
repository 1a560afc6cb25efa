"""In-memory span tracer for the benchmark's traced runs.

The tracer records spans from outside the package: it replaces public
functions at each module boundary, under the name the caller looks up, with
wrappers that time the call.  Nothing in `src/` changes.  Spans are recorded
only while an operation is open, so set-up and output checks stay untraced.
Application threads are pinned to one, so a single span stack suffices.
"""

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from blast import cli, evalsim, io, posterior, ranks, spectral

# Layers are the package modules; "bench" is operation time outside them.
LAYERS = ("ranks", "spectral", "numerics", "posterior", "evalsim", "io", "cli", "bench")


def _path_size(args, kwargs):
    return Path(kwargs.get("path", args[0] if args else None)).stat().st_size


def _dataset_size(args, kwargs):
    data_dir = Path(kwargs.get("data_dir", args[0]))
    dataset = kwargs.get("dataset", args[1] if len(args) > 1 else None)
    return sum((data_dir / f"study_{s}.csv").stat().st_size
               for s in range(1, dataset.n_studies + 1))


# (module, attribute, span name, byte counter).  A function imported by name
# into another module is patched in that module too, because that is where
# its caller looks it up.
TARGETS = (
    (posterior, "run_blast", "posterior.run_blast", None),
    (posterior, "select_dims_report", "ranks.select_dims_report", None),
    (posterior, "estimate_factors", "spectral.estimate_factors", None),
    (posterior, "estimate_hyperparams", "posterior.estimate_hyperparams", None),
    (posterior, "build_posterior_spec", "posterior.build_posterior_spec", None),
    (posterior, "sample_draw", "posterior.sample_draw", None),
    (posterior, "point_estimates", "posterior.point_estimates", None),
    (ranks, "truncated_svd", "numerics.truncated_svd", None),
    (spectral, "truncated_svd", "numerics.truncated_svd", None),
    (evalsim, "evaluate_fit", "evalsim.evaluate_fit", None),
    (evalsim, "coverage_eval", "evalsim.coverage_eval", None),
    (evalsim, "conditional_predict", "evalsim.conditional_predict", None),
    (evalsim, "rel_fro_error", "evalsim.rel_fro_error", None),
    (cli, "main", "cli.main", None),
    (cli, "cmd_simulate", "cli.simulate", None),
    (cli, "cmd_fit", "cli.fit", None),
    (cli, "cmd_predict", "cli.predict", None),
    (cli, "cmd_report", "cli.report", None),
    (cli, "run_blast", "posterior.run_blast", None),
    (cli, "generate", "evalsim.generate", None),
    (cli, "prediction_nmse", "evalsim.prediction_nmse", None),
    (cli, "predictive_interval_coverage", "evalsim.predictive_interval_coverage", None),
    (cli, "gaussian_loglik", "evalsim.gaussian_loglik", None),
    (io, "write_dataset", "io.write_dataset", _dataset_size),
    (io, "read_study_csv", "io.read_study_csv", _path_size),
    (io, "write_draws", "io.write_draws", _path_size),
    (io, "read_draws", "io.read_draws", _path_size),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span in Tracer.spans
    op: int
    nbytes: int = 0


class Tracer:
    """Keeps every span in memory; `summary` reduces one operation's spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def wrap(self, name, fn, count_bytes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = Span(name, perf_counter(), 0.0, self._stack[-1], self._op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if count_bytes is not None:
                    span.nbytes = count_bytes(args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, count_bytes), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self.wrap(name, fn, count_bytes))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextmanager
    def op(self, index):
        """Root span of one operation; spans are recorded only inside it."""
        span = Span("bench.op", perf_counter(), 0.0, None, index)
        self._stack = [len(self.spans)]
        self.spans.append(span)
        self._op = index
        try:
            yield
        finally:
            span.end = perf_counter()
            self._op = None
            self._stack = []

    def summary(self, index):
        """Per-name busy time, calls and bytes, and per-layer self time, of
        one operation.  Self time is a span's duration minus the part its
        child spans cover, so the layer self times add up to the root span."""
        first = next(i for i, s in enumerate(self.spans) if s.op == index)
        spans = [s for s in self.spans[first:] if s.op == index]
        covered = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out = defaultdict(float)
        for i, s in enumerate(spans, start=first):
            dur = s.end - s.start
            layer = s.name.split(".", 1)[0]
            out[f"{layer}.self_s"] += dur - covered[i]
            if s.parent is None:
                out["trace.op_s"] += dur
                continue
            out[f"{s.name}.busy_s"] += dur
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.bytes"] += s.nbytes
        return dict(out)
