#!/usr/bin/env python3
"""Compare two source trees request by request, in one process.

    python3 scripts/ab_requests.py PARENT_SRC CHANGE_SRC --workload plan_fixture --passes 25

Each ``*_SRC`` is a directory holding a ``handover`` package. The two are
imported under their own package names (the package imports itself only
relatively), so both live side by side in this process. The inputs come from
``bench/``'s own builders and each operation is ``bench/run.py``'s own, run
for both trees on the same input one after the other, the order swapping at
every input and every pass; the host's speed swings then land on both trees
alike. Every output passes the bench's checks. It prints, per tree, the
median over inputs of each input's median latency, and the median and
quartiles over inputs of the per-input ratio change / parent, and the same
over passes of the ratio of whole-pass times, which is what the bench's
``ops_per_s`` reads. Passing the same tree twice (an A/A run) reads a ratio
of 1.00 within about 0.01.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402  (bench/run.py, found through BENCH)


def load_tree(src: str, name: str):
    """The ``handover`` package under ``src``, imported as ``name``."""
    init = Path(src).resolve() / "handover" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init)
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.io_formats")
    return package


def build(package, workload: str, seed: int, tmp: str, ops):
    """The bench's workload object, set up on ``package``."""
    loaded = (package, package.PipelineConfig.default())
    bench.load_package = lambda: loaded
    try:
        return bench.WORKLOADS[workload](workload, seed, tmp, ops)
    finally:
        del bench.load_package


def run_op(workload, i, pose_provider) -> float:
    start = time.perf_counter()
    try:
        workload.op(i, pose_provider)
    except workload.pkg.errors.HandoverError:
        pass  # a refused track frame: both trees refuse it, checked below
    return time.perf_counter() - start


def check(workload, pose_provider) -> int:
    """Outputs of one pass that the bench counts as wrong."""
    tally = bench.Tally()
    tally.add(workload, False, *bench.run_pass(workload, pose_provider))
    for line in tally.wrong[:5]:
        print("wrong " + line, file=sys.stderr)
    return len(tally.wrong)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True, choices=tuple(bench.WORKLOADS))
    parser.add_argument("--passes", type=int, default=25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=None, help="only the first N inputs")
    args = parser.parse_args(argv)

    labels = ("parent", "change")
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for label, src in zip(labels, (args.parent_src, args.change_src)):
            package = load_tree(src, f"handover_{label}")
            (Path(tmp) / label).mkdir()
            workload = build(package, args.workload, args.seed, str(Path(tmp) / label), args.ops)
            provider = getattr(workload, "pose_provider", None)
            trees.append((workload, provider))
        for label, (workload, provider) in zip(labels, trees):
            wrong = check(workload, provider)
            if wrong:
                print(f"{label}: {wrong} wrong outputs", file=sys.stderr)
                return 1

        n = len(trees[0][0])
        times = np.empty((2, args.passes, n))
        for p in range(args.passes):
            gc.collect()
            for i in range(n):
                first = (p + i) % 2
                for t in (first, 1 - first):
                    times[t, p, i] = run_op(trees[t][0], i, trees[t][1])

    per_input = np.median(times, axis=1) * 1000.0  # (2, n) ms
    ratio = per_input[1] / per_input[0]
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(f"{args.workload} seed {args.seed}: {n} inputs x {args.passes} passes, alternating")
    for label, row in zip(labels, per_input):
        print(f"{label:7s} median of per-input medians {statistics.median(row):.4f} ms")
    print(f"ratio change/parent per input: median {med:.4f} [{q1:.4f}-{q3:.4f}], "
          f"change faster on {int(np.sum(ratio < 1.0))}/{n}")
    passes = times.sum(axis=2)  # (2, passes) s: a pass's whole time, which ops_per_s reads
    q1, med, q3 = np.percentile(passes[1] / passes[0], [25, 50, 75])
    print(f"ratio change/parent per whole pass: median {med:.4f} [{q1:.4f}-{q3:.4f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
