"""Spans around the layers' public functions, recorded from outside the program.

``instrument`` replaces each layer function, at the module attribute the CLI
looks it up through, with a wrapper that records a span (name, parent,
start, end, attributes) in memory.  ``layer_metrics`` turns the spans of one
traced round into the per-layer figures.  The originals are put back when
the ``instrument`` context exits.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        sp = Span(name, self._stack[-1] if self._stack else None, 0.0, attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(idx)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if sp.parent is not None:
                self.spans[sp.parent].child_time += sp.duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def in_span(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def total_self(self, name: str) -> float:
        return sum(s.self_time for s in self.spans if s.name == name)

    def attr_sum(self, name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)


def _arguments(fn):
    """Map a call's arguments to ``fn``'s parameter names."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _spanned(tracer: Tracer, name: str, fn, attrs=None, result_attrs=None):
    bind = _arguments(fn)

    def wrapper(*args, **kwargs):
        with tracer.span(name, **(attrs(bind(args, kwargs)) if attrs else {})) as sp:
            out = fn(*args, **kwargs)
            if result_attrs:
                sp.attrs.update(result_attrs(out))
            return out
    return wrapper


def _artifact_write(tracer: Tracer, name: str, fn):
    """Time and size only the outermost write: manifests and logs call the others."""
    def wrapper(path, *args, **kwargs):
        if tracer.in_span("artifacts.write"):
            return fn(path, *args, **kwargs)
        with tracer.span("artifacts.write", fn=name) as sp:
            fn(path, *args, **kwargs)
        sp.attrs["bytes"] = os.path.getsize(path)
    return wrapper


def _counted(tracer: Tracer, name: str, fn, amount=None):
    bind = _arguments(fn)

    def wrapper(*args, **kwargs):
        tracer.count(name, amount(bind(args, kwargs)) if amount else 1)
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from edgeadmit import artifacts, cli, config, dp, evaluate, learners, rng, salmut

    exp_cls = config.Experiment
    patches = [
        (config, "load_config", _spanned(tracer, "config.load", config.load_config)),
        (exp_cls, "from_config",
         staticmethod(_spanned(tracer, "config.load", exp_cls.from_config))),
        (dp, "value_iteration",
         _spanned(tracer, "dp.value_iteration", dp.value_iteration,
                  result_attrs=lambda sol: {"iterations": sol.iterations})),
        # the CLI imported ``trajectory`` by name, so it is replaced there
        (cli, "trajectory",
         _spanned(tracer, "scenarios.trajectory", cli.trajectory,
                  attrs=lambda a: {"advance_steps": a["horizon"] - 1})),
        (rng, "user_uniform", _counted(tracer, "rng.user_uniform", rng.user_uniform)),
        (salmut, "train",
         _spanned(tracer, "salmut.train", salmut.train,
                  attrs=lambda a: {"steps": a["config"].horizon})),
        (learners, "qlearning_train",
         _spanned(tracer, "learners.qlearning_train", learners.qlearning_train,
                  attrs=lambda a: {"steps": a["config"].horizon})),
        (evaluate, "evaluate", _spanned(tracer, "evaluate.evaluate", evaluate.evaluate)),
        (evaluate, "rollout",
         _counted(tracer, "evaluate.rollout_steps", evaluate.rollout,
                  amount=lambda a: a["horizon"])),
        (evaluate, "behavioral_compare",
         _spanned(tracer, "evaluate.behavioral_compare", evaluate.behavioral_compare,
                  attrs=lambda a: {"policy_steps": len(a["policies"]) * len(a["trace"].z)})),
        (artifacts, "load_artifact",
         _spanned(tracer, "artifacts.load", artifacts.load_artifact)),
    ]
    for fn_name in ("write_json", "write_csv", "write_manifest", "log_rows_to_csv"):
        patches.append(
            (artifacts, fn_name, _artifact_write(tracer, fn_name, getattr(artifacts, fn_name)))
        )
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    out = {f"cli.{c}_s": tr.total(f"cli.{c}") for c in ("solve", "train", "compare", "curves")}
    out["config.load_s"] = tr.total("config.load")
    out["dp.solve_s"] = tr.total("dp.value_iteration")
    out["dp.iterations"] = tr.attr_sum("dp.value_iteration", "iterations")
    traj = tr.total("scenarios.trajectory")
    out["scenarios.trajectory_s"] = traj
    out["scenarios.advance_steps_per_s"] = _rate(
        tr.attr_sum("scenarios.trajectory", "advance_steps"), traj)
    out["rng.user_uniform_calls"] = tr.counts.get("rng.user_uniform", 0)
    sal = tr.total_self("salmut.train")
    out["salmut.train_self_s"] = sal
    out["salmut.steps_per_s"] = _rate(tr.attr_sum("salmut.train", "steps"), sal)
    ql = tr.total_self("learners.qlearning_train")
    out["learners.qlearning_self_s"] = ql
    out["learners.steps_per_s"] = _rate(tr.attr_sum("learners.qlearning_train", "steps"), ql)
    ev = tr.total("evaluate.evaluate")
    out["evaluate.evaluate_s"] = ev
    out["evaluate.rollout_steps"] = tr.counts.get("evaluate.rollout_steps", 0)
    out["evaluate.rollout_steps_per_s"] = _rate(out["evaluate.rollout_steps"], ev)
    cmp_s = tr.total("evaluate.behavioral_compare")
    out["evaluate.compare_s"] = cmp_s
    out["evaluate.compare_policy_steps_per_s"] = _rate(
        tr.attr_sum("evaluate.behavioral_compare", "policy_steps"), cmp_s)
    out["artifacts.write_s"] = tr.total("artifacts.write")
    out["artifacts.load_s"] = tr.total("artifacts.load")
    out["artifacts.bytes_written"] = tr.attr_sum("artifacts.write", "bytes")
    return out
