"""The benchmark's span hooks find every name they patch in the package."""

import dataclasses
import importlib.util
import inspect
import re
import sys
from pathlib import Path

from edgeadmit import cli, evaluate, learners, salmut

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


def test_bench_spans_bound_parameters_exist():
    # spans.py reads these arguments by parameter name, ``a["name"]``, so a
    # renamed parameter fails here, not only in a traced run
    bound = {
        salmut.train: ("config",),
        learners.qlearning_train: ("config",),
        cli.trajectory: ("horizon",),
        evaluate.rollout: ("horizon",),
        evaluate.behavioral_compare: ("policies", "trace"),
    }
    for fn, names in bound.items():
        params = inspect.signature(fn).parameters
        assert all(name in params for name in names), (fn.__qualname__, names)
    read = set(re.findall(r'\ba\["(\w+)"\]', SPANS.read_text()))
    assert read == {name for names in bound.values() for name in names}
    # and it reads the trainers' ``config.horizon``, a field of both learner configs
    assert 'a["config"].horizon' in SPANS.read_text()
    for cls in (salmut.SalmutConfig, learners.QLearningConfig):
        assert "horizon" in {f.name for f in dataclasses.fields(cls)}, cls.__name__
