"""Smoke test of the benchmark's span tracer (perfbench/spans.py).

The tracer wraps package attributes by name from outside the package, so
renaming one of them breaks `perfbench/run.py --trace 1`; this test makes
such a rename fail the test suite too.
"""

import copy
import importlib.util
from pathlib import Path

import hyperharmonic
import hyperharmonic.cli  # noqa: F401  (the tracer wraps cli attributes)
from hyperharmonic import REGISTRY

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_unwinds():
    spans = _load_spans()
    original = hyperharmonic.catalog.eval_weighted
    tracer = spans.Tracer()
    tracer.install(hyperharmonic)
    try:
        for ident_id in ("EX-1", "COR-D"):
            # a copy's nodes start without a kept result, so its special
            # functions run whatever this process evaluated before
            ident = copy.deepcopy(REGISTRY[ident_id])
            report = hyperharmonic.verify(ident, points=ident.sample_points[:1])
            assert report.passed, (ident_id, report.failures)
    finally:
        tracer.uninstall()
    layers = {s.layer for s in tracer.spans}
    assert {"series", "expr", "specialfn", "catalog"} <= layers
    paths = {s.attrs["path"] for s in tracer.spans if s.layer == "series"}
    assert paths == {"direct", "accel"}
    assert hyperharmonic.catalog.eval_weighted is original


def test_accel_span_records_a_ladder_top():
    # the benchmark's series.accel.* metrics read each span's terms;
    # SUM-GAUSSD's 2 H_2n - H_n weight has no expansion, so it takes the
    # ladder
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install(hyperharmonic)
    try:
        point = REGISTRY["SUM-GAUSSD"].sample_points[0]
        assert hyperharmonic.verify("SUM-GAUSSD", points=[point]).passed
    finally:
        tracer.uninstall()
    accel = [s.attrs for s in tracer.spans
             if s.layer == "series" and s.attrs["path"] == "accel"]
    assert accel and not any(a["raised"] for a in accel)
    assert {a["terms"] for a in accel} <= {4096, 8192, 16384}
