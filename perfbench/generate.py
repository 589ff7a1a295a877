"""Write one run's replay logs: simulate each sequence and store it on disk.

Usage: python3 perfbench/generate.py --workload NAME --seed N --out DIR
           --sequences N --scans N --rays N

Sequence i goes to DIR/seqNN in the layout ``dynlo simulate`` writes
(scans/, detections/, labels/, gt_traj.txt). The last line of standard output
is a JSON list with the simulate and write seconds of each sequence. The
replay process starts this as a child, so the simulator's working set does not
count in the replay's peak memory.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import bootstrap

bootstrap.setup()

from dynlo.simulate import simulate, write_sim_dir  # noqa: E402

from workloads import (WORKLOADS, sequence_dir, sequence_rng,  # noqa: E402
                       sequence_sim_seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--sequences", type=int, required=True)
    ap.add_argument("--scans", type=int, required=True)
    ap.add_argument("--rays", type=int, required=True)
    args = ap.parse_args(argv)
    build = WORKLOADS[args.workload].build
    timings = []
    for i in range(args.sequences):
        t0 = time.perf_counter()
        scene = build(sequence_rng(args.seed, i), args.scans, args.rays,
                      (i, args.sequences))
        sim = simulate(scene, sequence_sim_seed(args.seed, i))
        t1 = time.perf_counter()
        target = sequence_dir(args.out, i)
        os.makedirs(target)
        write_sim_dir(sim, target, scene.dt)
        t2 = time.perf_counter()
        timings.append({"simulate_s": t1 - t0, "write_s": t2 - t1})
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
