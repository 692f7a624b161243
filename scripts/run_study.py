#!/usr/bin/env python3
"""Run the full experiment grid: solve once per scenario, train both
learners, then compare all four policies on shared traces.

    python scripts/run_study.py --config configs/desk_scale.json
    python scripts/run_study.py --config configs/full_scale.json --scenarios 1 2
    python scripts/run_study.py --config configs/full_scale.json --horizon-scale 0.01

Outputs land under the config's output_dir, one subtree per scenario.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run(args: list[str]) -> None:
    cmd = [sys.executable, "-m", "edgeadmit.cli", *args]
    print("$ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/desk_scale.json")
    ap.add_argument("--scenarios", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    ap.add_argument("--trace-length", type=int, default=None,
                    help="behavioral trace length (default: training horizon)")
    ap.add_argument("--horizon-scale", type=float, default=None,
                    help="scale every command's training horizon (see `edgeadmit --help`)")
    ns = ap.parse_args()

    base = json.loads(Path(ns.config).read_text())
    root = Path(base.get("output_dir", "runs"))
    for kind in ns.scenarios:
        out = root / f"scenario_{kind}"
        cfg = dict(base)
        cfg["output_dir"] = str(out)
        cfg["scenario"] = {**cfg.get("scenario", {}), "kind": kind}
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            json.dump(cfg, fh)
            cfg_path = fh.name
        common = ["--config", cfg_path]
        if ns.horizon_scale is not None:
            common += ["--horizon-scale", repr(ns.horizon_scale)]
        try:
            run(["solve", *common])
            run(["train", *common, "--learner", "salmut"])
            run(["train", *common, "--learner", "qlearning"])
            compare_args = ["compare", *common]
            if ns.trace_length:
                compare_args += ["--trace-length", str(ns.trace_length)]
            run(compare_args)
            run(["evaluate", *common, "--curves-from", str(out / "salmut")])
        finally:
            os.unlink(cfg_path)
        print(f"scenario {kind}: outputs under {out}")


if __name__ == "__main__":
    main()
