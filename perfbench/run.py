"""dynlo odometry benchmark: replay simulated LiDAR logs through the pipeline.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up simulates the workload's sequences from the seed and writes them to
disk, in a child process (see generate.py). The run then replays them in a
closed loop, one client in one process: each replay reads the logs through
``dynlo.fileio`` and ``dynlo.detections``, runs ``run_pipeline`` and writes
trajectory, map and removal provenance, the work ``dynlo run`` does. The
pipeline pulls scan k+1 only after it finished scan k, so the pull times of
the replay's scan iterator give per-scan latency from outside; the last scan
ends when ``run_pipeline`` returns. Replays cycle through the sequences until
``--seconds`` have passed; every sequence is replayed at least once and one at
least twice.

Every replay passes a correctness gate or counts as failed: one pose per scan,
APE and RPE below the workload's ceilings, a complete map and provenance file,
and output files byte-identical to the first replay of the same sequence.

``--trace 0`` prints the end-to-end metrics; its three timings are scaled by
a machine-speed probe run between the replays (calibration.py), the unscaled
values go to standard error. ``--trace 1`` alternates plain and traced
replays of the same sequence, prints the per-layer metrics of the traced ones
and the tracing overhead, and writes the spans to
.perfbench_work/spans-<workload>-seed<N>.jsonl. The last line of standard
output is one JSON object: correct, attempted and failed replays, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List

import bootstrap

bootstrap.setup()

import numpy as np  # noqa: E402

from dynlo import detections, fileio  # noqa: E402
from dynlo.geometry import PointCloud  # noqa: E402
from dynlo.metrics import (Trajectory, ape_rmse, map_pr_rr_f1,  # noqa: E402
                           max_z_drift, rpe_rmse)
from dynlo.pipeline import run_pipeline  # noqa: E402
from dynlo.simulate import reference_config  # noqa: E402

import tracing  # noqa: E402
from calibration import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, Workload, sequence_dir  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END_UNITS = {
    "setup_s": "s",
    "scans_per_s": "1/s",
    "scan_ms_p50": "ms",
    "scan_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ape_rmse_m": "m",
    "rpe_rmse_m": "m",
    "z_drift_m": "m",
    "map_f1": "ratio",
    "registered_rate": "ratio",
}
PER_LAYER_UNITS = {
    **tracing.UNITS,
    "simulate.s": "s",
    "trace.overhead_pct": "%",
}

OUTPUTS = ("est_traj.txt", "map.txt", fileio.PROVENANCE_FILENAME)
Z_WINDOW = 5  # scans, half a second
PROBE_SHARE = 0.08  # speed-probe time per second of replay


class GateFailure(Exception):
    """A replay whose outputs fail the correctness gate."""


@dataclass
class Replay:
    scans: int
    wall_s: float           # reads, pipeline and writes
    latencies_s: np.ndarray  # per scan, from the scan iterator's pull times
    fallbacks: int


def _scan_source(files: List[str], labels_dir: str, marks: List[float],
                 tracer: tracing.Tracer):
    for k, path in enumerate(files):
        marks.append(time.perf_counter())
        tracer.scan = k
        cloud = fileio.read_scan_bin(path)
        stem = os.path.splitext(os.path.basename(path))[0]
        labels = fileio.read_labels(os.path.join(labels_dir, stem + ".txt"))
        yield PointCloud(cloud.points, labels=labels)


def _detection_source(files: List[str], det_dir: str):
    for k, path in enumerate(files):
        stem = os.path.splitext(os.path.basename(path))[0]
        yield detections.load_detection_frame(
            os.path.join(det_dir, stem + ".txt"), scan_index=k)


def replay(seq_dir: str, out_dir: str, tracer: tracing.Tracer):
    """Replay one sequence's logs and write its outputs into ``out_dir``."""
    marks: List[float] = []
    t0 = time.perf_counter()
    files = fileio.list_scan_files(os.path.join(seq_dir, "scans"))
    result = run_pipeline(
        _scan_source(files, os.path.join(seq_dir, "labels"), marks, tracer),
        _detection_source(files, os.path.join(seq_dir, "detections")),
        reference_config())
    marks.append(time.perf_counter())
    tracer.scan = -1
    fileio.write_trajectory(os.path.join(out_dir, OUTPUTS[0]), result.trajectory)
    fileio.write_map_ascii(os.path.join(out_dir, OUTPUTS[1]), result.map_cloud)
    fileio.write_removal_provenance(os.path.join(out_dir, OUTPUTS[2]),
                                    result.provenance_rows)
    wall = time.perf_counter() - t0
    fallbacks = sum(1 for s in result.stats if s.fallback)
    return result, Replay(len(files), wall, np.diff(marks), fallbacks)


def _window(traj: Trajectory, start: int) -> Trajectory:
    end = start + Z_WINDOW
    return Trajectory(traj.scan_indices[start:end], traj.timestamps[start:end],
                      traj.poses[start:end])


def z_drift(est: Trajectory, gt: Trajectory) -> float:
    """Mean over all Z_WINDOW-scan windows of ``max_z_drift`` in the window.

    The largest z deviation over a whole sequence is one extreme value and
    varies by about 40 % between sequences of the same workload; averaged
    over sliding windows it keeps measuring how far z drifts in half a second
    with a fraction of that variance.
    """
    starts = range(len(est) - Z_WINDOW + 1)
    return statistics.fmean(max_z_drift(_window(est, k), _window(gt, k))
                            for k in starts)


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check(seq_dir: str, out_dir: str, result, rep: Replay,
          workload: Workload):
    """Gate one replay's outputs; return their digest and accuracy."""
    est = fileio.read_trajectory(os.path.join(out_dir, OUTPUTS[0]))
    gt = fileio.read_trajectory(os.path.join(seq_dir, "gt_traj.txt"))
    if not (len(result.trajectory) == len(est) == len(gt) == rep.scans):
        raise GateFailure("%d poses written for %d scans"
                          % (len(est), rep.scans))
    accuracy = {"ape_rmse_m": ape_rmse(est, gt),
                "rpe_rmse_m": rpe_rmse(est, gt, 1),
                "z_drift_m": z_drift(est, gt)}
    if not accuracy["ape_rmse_m"] <= workload.ape_ceiling_m:
        raise GateFailure("APE %.4f m above the %.4f m ceiling"
                          % (accuracy["ape_rmse_m"], workload.ape_ceiling_m))
    if not accuracy["rpe_rmse_m"] <= workload.rpe_ceiling_m:
        raise GateFailure("RPE %.4f m above the %.4f m ceiling"
                          % (accuracy["rpe_rmse_m"], workload.rpe_ceiling_m))
    map_points = len(result.map_cloud)
    if map_points == 0 or _line_count(os.path.join(out_dir, OUTPUTS[1])) != map_points:
        raise GateFailure("map file does not hold the %d map points" % map_points)
    prov_path = os.path.join(out_dir, OUTPUTS[2])
    if _line_count(prov_path) != rep.scans + 1:
        raise GateFailure("removal provenance lacks a row per scan")
    f1 = map_pr_rr_f1(fileio.read_removal_provenance(prov_path)).f1
    if f1 is None:
        raise GateFailure("map F1 undefined")
    accuracy["map_f1"] = f1
    digest = hashlib.sha256()
    for name in OUTPUTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest(), accuracy


class Session:
    """Replays of one run, with the gate bookkeeping shared by both modes."""

    def __init__(self, workload: Workload, data_dir: str, out_dir: str):
        self.workload = workload
        self.data_dir = data_dir
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[int, str] = {}
        self.accuracy: Dict[int, Dict[str, float]] = {}

    def run(self, sequence: int, tracer: tracing.Tracer, traced: bool):
        """One gated replay; None if it raised."""
        self.attempted += 1
        seq_dir = sequence_dir(self.data_dir, sequence)
        try:
            if traced:
                with tracing.instrumented(tracer):
                    result, rep = replay(seq_dir, self.out_dir, tracer)
            else:
                result, rep = replay(seq_dir, self.out_dir, tracer)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        try:
            digest, accuracy = check(seq_dir, self.out_dir, result, rep,
                                     self.workload)
            first = self.digests.setdefault(sequence, digest)
            if digest != first:
                raise GateFailure("outputs differ from the first replay")
            self.accuracy.setdefault(sequence, accuracy)
        except (GateFailure, ValueError, OSError) as exc:
            self.failed += 1
            print("perfbench: sequence %d failed the gate: %s" % (sequence, exc),
                  file=sys.stderr)
        return rep


def generate(workload: Workload, seed: int, data_dir: str) -> List[dict]:
    """Simulate and write the run's sequences in a child process."""
    cmd = [sys.executable, os.path.join(HERE, "generate.py"),
           "--workload", workload.name, "--seed", str(seed), "--out", data_dir,
           "--sequences", str(workload.sequences), "--scans", str(workload.scans),
           "--rays", str(workload.rays)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("dataset generation exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _keep_going(elapsed: float, seconds: float, mean_step: float) -> bool:
    # start another step only if it ends at most half a step past the deadline
    return elapsed + 0.5 * mean_step <= seconds


def measure_plain(session: Session, seconds: float):
    """Replays with the speed probe between them; timings scaled by it.

    Returns the metrics and the speed factor they were scaled with.
    """
    tracer = tracing.Tracer()
    probe = SpeedProbe()
    n = session.workload.sequences
    reps: List[Replay] = []
    t0 = time.perf_counter()
    step = 0
    while step < n + 1 or _keep_going(time.perf_counter() - t0, seconds,
                                      (time.perf_counter() - t0) / step):
        rep = session.run(step % n, tracer, traced=False)
        if rep is not None:
            reps.append(rep)
            probe.sample(PROBE_SHARE * rep.wall_s)
        step += 1
    if not reps or not session.accuracy:
        raise RuntimeError("no replay completed its gate")
    latencies_ms = 1e3 * np.concatenate([r.latencies_s for r in reps])
    scans = sum(r.scans for r in reps)
    raw = {"scans_per_s": scans / sum(r.wall_s for r in reps),
           "scan_ms_p50": float(np.percentile(latencies_ms, 50)),
           "scan_ms_p90": float(np.percentile(latencies_ms, 90))}
    factor = probe.factor
    print("perfbench: speed factor %.4f; unscaled %s" % (
        factor, ", ".join("%s %.4f" % kv for kv in raw.items())), file=sys.stderr)
    metrics = {
        "scans_per_s": raw["scans_per_s"] / factor,
        "scan_ms_p50": raw["scan_ms_p50"] * factor,
        "scan_ms_p90": raw["scan_ms_p90"] * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "registered_rate": 1.0 - sum(r.fallbacks for r in reps) / scans,
    }
    for key in ("ape_rmse_m", "rpe_rmse_m", "z_drift_m", "map_f1"):
        metrics[key] = statistics.fmean(a[key] for a in session.accuracy.values())
    if len(latencies_ms) < 100:
        print("perfbench: only %d scans, fewer than 10 beyond p90"
              % len(latencies_ms), file=sys.stderr)
    return metrics, factor


def measure_traced(session: Session, seconds: float,
                   span_path: str) -> Dict[str, float]:
    """Pairs of plain and traced replays of one sequence, order alternating."""
    tracer = tracing.Tracer()
    n = session.workload.sequences
    plain: List[Replay] = []
    traced: List[Replay] = []
    t0 = time.perf_counter()
    pair = 0
    while pair < 1 or _keep_going(time.perf_counter() - t0, seconds,
                                  (time.perf_counter() - t0) / pair):
        tracer.replay = pair
        done = {}
        for is_traced in ((False, True) if pair % 2 == 0 else (True, False)):
            done[is_traced] = session.run(pair % n, tracer, is_traced)
        if done[False] is not None and done[True] is not None:
            plain.append(done[False])
            traced.append(done[True])
        pair += 1
    tracer.write(span_path)
    if not traced:
        raise RuntimeError("no traced replay completed")
    metrics = tracing.layer_metrics(
        tracer.spans, scans=sum(r.scans for r in traced), replays=len(traced),
        scan_time_s=float(sum(r.latencies_s.sum() for r in traced)))
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1.0)
    return metrics


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and gate one run; return the result object."""
    os.makedirs(bootstrap.WORK, exist_ok=True)
    work = os.path.join(bootstrap.WORK, "%s-seed%d-%d"
                        % (workload.name, seed, os.getpid()))
    data_dir = os.path.join(work, "data")
    out_dir = os.path.join(work, "out")
    try:
        os.makedirs(out_dir)
        setup = generate(workload, seed, data_dir)
        session = Session(workload, data_dir, out_dir)
        if trace:
            span_path = os.path.join(bootstrap.WORK, "spans-%s-seed%d.jsonl"
                                     % (workload.name, seed))
            metrics = measure_traced(session, seconds, span_path)
            metrics["simulate.s"] = statistics.median(
                s["simulate_s"] for s in setup)
            units = PER_LAYER_UNITS
        else:
            metrics, factor = measure_plain(session, seconds)
            # set-up ran just before the replays, in the same machine phase
            setup_s = statistics.median(s["simulate_s"] + s["write_s"]
                                        for s in setup)
            print("perfbench: unscaled setup_s %.4f" % setup_s, file=sys.stderr)
            metrics["setup_s"] = setup_s * factor
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally: the set-up child is killed and waited for,
    # and the run's data directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    for name, m in result["metrics"].items():
        print("%-32s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
