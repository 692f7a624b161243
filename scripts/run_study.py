#!/usr/bin/env python3
"""Run the full experiment grid: solve once per scenario, train both
learners, then compare all four policies on shared traces.

    python scripts/run_study.py --config configs/desk_scale.json
    python scripts/run_study.py --config configs/full_scale.json --scenarios 1 2
    python scripts/run_study.py --config configs/full_scale.json --horizon-scale 0.01

Outputs land under the config's output_dir, one subtree per scenario.
Each command's wall time is printed after its own output, on stdout.
"""

import argparse
import subprocess
import sys
import time
import warnings

from edgeadmit.config import ConfigError, Experiment, load_config
from edgeadmit.learners import MAX_HORIZON


def run(args: list[str]) -> None:
    """Run one CLI command; if it fails, say which and exit with its code."""
    cmd = [sys.executable, "-m", "edgeadmit.cli", *args]
    print("$ " + " ".join(cmd), flush=True)
    start = time.perf_counter()
    code = subprocess.run(cmd).returncode
    print(f"  wall {time.perf_counter() - start:.3f} s", flush=True)
    if code:
        print(f"run_study: `edgeadmit {' '.join(args)}` exited {code}", file=sys.stderr)
        sys.exit(code if code > 0 else 128 - code)  # killed by signal -code


def trace_length(text: str) -> int:
    length = int(text)
    if not 1 <= length <= MAX_HORIZON:  # as `compare --trace-length` bounds it
        raise argparse.ArgumentTypeError(f"must be in [1, 2**53], got {length}")
    return length


def main() -> None:
    # a bad flag is one line on stderr; the description shows the usage
    ap = argparse.ArgumentParser(description=__doc__, usage=argparse.SUPPRESS,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", default="configs/desk_scale.json")
    ap.add_argument("--scenarios", type=int, nargs="+", choices=range(1, 7), metavar="KIND",
                    default=[1, 2, 3, 4, 5, 6], help="scenario kinds in 1..6 (default: all)")
    ap.add_argument("--trace-length", type=trace_length, default=None,
                    help="behavioral trace length (default: training horizon)")
    ap.add_argument("--horizon-scale", type=float, default=None,
                    help="scale every command's training horizon (see `edgeadmit --help`)")
    ns = ap.parse_args()

    try:
        with warnings.catch_warnings():  # each command warns about the config itself
            warnings.simplefilter("ignore")
            root = Experiment.from_config(load_config(ns.config)).output_dir
    except ConfigError as exc:
        print(f"run_study: {exc}", file=sys.stderr)
        sys.exit(2)
    for kind in ns.scenarios:
        out = root / f"scenario_{kind}"
        common = ["--config", ns.config, "--scenario", str(kind), "--out", str(out)]
        if ns.horizon_scale is not None:
            common += ["--horizon-scale", repr(ns.horizon_scale)]
        run(["solve", *common])
        run(["train", *common, "--learner", "salmut"])
        run(["train", *common, "--learner", "qlearning"])
        compare_args = ["compare", *common]
        if ns.trace_length is not None:
            compare_args += ["--trace-length", str(ns.trace_length)]
        run(compare_args)
        run(["evaluate", *common, "--curves-from", str(out / "salmut")])
        print(f"scenario {kind}: outputs under {out}")


if __name__ == "__main__":
    main()
