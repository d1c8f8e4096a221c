"""Shared benchmark configuration.

Each benchmark regenerates one paper artefact (table/figure) at reduced
resolution and prints the rows/series the paper reports, so a benchmark
run doubles as the reproduction harness.  pytest-benchmark measures the
regeneration cost; `pedantic` with one round keeps total runtime sane.
"""

import os

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: Where a benchmark writes its measurement JSON when its
#: ``REPRO_BENCH_*_OUT`` variable is unset: a gitignored directory, so a
#: test run never rewrites the committed ``BENCH_PR*.json`` snapshots.
BENCH_OUT_DIR = os.path.join(ROOT, ".bench-out")


def bench_out_path(env: str, name: str) -> str:
    """The measurement file: ``$env`` if set, else ``.bench-out/<name>``.

    A committed snapshot is written only on request — by setting the
    variable (``tools/bench_report.py`` does, per benchmark) or by
    ``tools/bench_report.py --out``.
    """
    path = os.environ.get(env)
    if path:
        return path
    os.makedirs(BENCH_OUT_DIR, exist_ok=True)
    return os.path.join(BENCH_OUT_DIR, name)


def regenerate(benchmark, fn, *args, **kwargs):
    """Run an artefact generator once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
