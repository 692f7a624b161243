"""The benchmark's span hooks find every name they patch in the package."""

import importlib.util
import sys
from pathlib import Path

from edgeadmit import cli, evaluate

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_spans_instrument_enters_and_restores(monkeypatch):
    # bench/spans.py replaces layer functions by module attribute, so a name
    # deleted or renamed in the package fails here, not only in a traced run
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    patched = (evaluate.rollout, evaluate.behavioral_compare, cli.trajectory)
    with spans.instrument(spans.Tracer()):
        assert evaluate.behavioral_compare is not patched[1]
    assert (evaluate.rollout, evaluate.behavioral_compare, cli.trajectory) == patched
