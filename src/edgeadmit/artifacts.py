"""Run outputs: versioned JSON artifacts, CSV metrics, reproducibility manifest.

All writes are whole-file atomic (temp file + rename) and byte-stable:
floats are serialized with shortest round-trip repr, JSON keys are sorted,
and nothing time-dependent is recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import astuple, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .dp import Solution, check_threshold_structure, check_value_monotone
from .learners import LogRow

SOLUTION_SCHEMA = "edgeadmit/solution/1"
POLICY_SCHEMA = "edgeadmit/policy/1"


class ArtifactError(ValueError):
    """An artifact does not fit its reader: not JSON, wrong schema, another
    chain, a missing field or a policy of another shape."""


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt_cell(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def chain_hash(cfg: dict) -> str:
    """``config_hash`` of the sections the chain is built from: model, costs, resources."""
    return config_hash({name: cfg[name] for name in ("model", "costs", "resources")})


def write_manifest(path: Path, command: str, cfg: dict, seeds: Sequence[int]) -> None:
    write_json(
        path,
        {
            "command": command,
            "config_sha256": config_hash(cfg),
            "config": cfg,
            "seeds": list(seeds),
            "versions": {
                "edgeadmit": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
        },
    )


def solution_to_dict(sol: Solution, cfg: dict) -> dict:
    thr = check_threshold_structure(sol.policy)
    mono = check_value_monotone(sol.v)
    return {
        "schema": SOLUTION_SCHEMA,
        "lambda": sol.lam,
        "self_loop": sol.self_loop,
        "tol": sol.tol,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "v": sol.v.tolist(),
        "q": sol.q.tolist(),
        "policy": sol.policy.tolist(),
        "tau": thr.tau.tolist(),
        "all_reject": thr.all_reject.tolist(),
        "threshold_ok": thr.passed,
        "threshold_violation": list(thr.violation) if thr.violation else None,
        "monotone_ok": mono.passed,
        "monotone_violations": len(mono.violations),
        "config_sha256": config_hash(cfg),
        "chain_sha256": chain_hash(cfg),
    }


def policy_artifact(kind: str, cfg: dict, seed: int | None = None, **payload) -> dict:
    art = {"schema": POLICY_SCHEMA, "kind": kind, "config_sha256": config_hash(cfg),
           "chain_sha256": chain_hash(cfg)}
    if seed is not None:
        art["seed"] = seed
    art.update(payload)
    return art


def load_artifact(path: Path, expect_schema: str, chain_sha: str | None = None) -> dict:
    """The artifact at ``path``; with ``chain_sha``, it must carry that ``chain_sha256``."""
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:
        raise ArtifactError(f"{path}: not a JSON artifact: {exc}") from None
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != expect_schema:
        raise ArtifactError(f"{path}: expected schema {expect_schema}, got {schema!r}")
    if chain_sha is not None and obj.get("chain_sha256") != chain_sha:
        raise ArtifactError(f"{path}: chain_sha256 {obj.get('chain_sha256')!r} is not this "
                            f"config's model, costs and resources ({chain_sha})")
    return obj


def log_rows_to_csv(path: Path, log) -> None:
    write_csv(path, [f.name for f in fields(LogRow)], map(astuple, log))
