"""Guard of the benchmark's tracer: the counts that ``perfbench/tracer.py``
derives from the package's results and arguments are still produced.

The tracer reads ``DeformationSpec.p``, ``CoefficientVector.coeffs``, the
``pfq`` result's ``terms_used`` and the rows of ``figure_rows``.  Both
benchmark modules are loaded read-only from their files, and one operation
of each workload runs under the tracer.
"""

import importlib.util
from pathlib import Path

import pytest

import polycs  # noqa: F401  (the workloads module needs polycs imported first)

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

# Derived counts that one operation of each workload must make positive.
DERIVED = {
    "catalog": ("hypergeom.pfq.terms", "figures.figure_rows.cells"),
    "state-sweep": (
        "hypergeom.pfq.terms",
        "states.coefficients.length",
        "algebra.deformation_roots.aberth_calls",
    ),
    "geometry": ("hypergeom.pfq.terms", "algebra.deformation_roots.aberth_calls"),
}


def _order(op):
    """p of the deformation whose roots the operation solves (0 for a figure)."""
    return len(op.get("state", op).get("coeffs", ()))


def test_every_derived_count_is_guarded():
    guarded = {name.rsplit(".", 1)[0] for names in DERIVED.values() for name in names}
    assert guarded == set(tracer._EXTRA)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_derives_its_counts(workload):
    # the first operation of the largest p, so that p >= 3 takes the eigensolve
    op = max(workloads.make_ops(workload, 1), key=_order)
    traced = tracer.Tracer()
    with traced.installed(), traced.operation(0):
        workloads.run_op(workload, op)
    for name in DERIVED[workload]:
        assert traced.counts[name] > 0, name
