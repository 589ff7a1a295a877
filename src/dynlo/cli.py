"""Command-line interface: run the pipeline, simulate scenes, evaluate runs."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterator, List

from .config import PipelineConfig, load_config
from .detections import DetectionFrame, load_detection_frame
from .fileio import (PROVENANCE_FILENAME, list_scan_files, read_labels,
                     read_removal_provenance, read_scan_bin, read_trajectory,
                     write_map_ascii, write_removal_provenance, write_trajectory)
from .geometry import PointCloud
from .keyframes import dump_keyframes
from .metrics import ape_rmse, map_pr_rr_f1, rpe_rmse
from .pipeline import run_pipeline, stats_summary, write_stats_file
from .simulate import load_scene, simulate, write_sim_dir
from .tracking import format_track_rows


def _scan_source(scan_files: List[str], labels_dir: str | None) -> Iterator[PointCloud]:
    for path in scan_files:
        cloud = read_scan_bin(path)
        if labels_dir is not None:
            stem = os.path.splitext(os.path.basename(path))[0]
            label_path = os.path.join(labels_dir, stem + ".txt")
            if os.path.exists(label_path):
                labels = read_labels(label_path)
                if len(labels) != len(cloud):
                    raise ValueError(f"{label_path}: {len(labels)} labels "
                                     f"for {len(cloud)} points in {path}")
                cloud = PointCloud(cloud.points, labels=labels)
        yield cloud


def _detection_source(scan_files: List[str], det_dir: str) -> Iterator[DetectionFrame]:
    for k, path in enumerate(scan_files):
        stem = os.path.splitext(os.path.basename(path))[0]
        det_path = os.path.join(det_dir, stem + ".txt")
        if not os.path.exists(det_path):
            raise FileNotFoundError(f"missing detection file {det_path}")
        yield load_detection_frame(det_path, scan_index=k)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    scan_files = list_scan_files(args.scans)
    if not scan_files:
        raise FileNotFoundError(f"no .bin scans found in {args.scans}")
    labels_dir = os.path.join(os.path.dirname(os.path.abspath(args.scans)), "labels")
    if not os.path.isdir(labels_dir):
        labels_dir = None
    result = run_pipeline(_scan_source(scan_files, labels_dir),
                          _detection_source(scan_files, args.detections), cfg)
    write_trajectory(args.out_traj, result.trajectory)
    write_map_ascii(args.out_map, result.map_cloud)
    if result.provenance_rows:
        prov_path = os.path.join(
            os.path.dirname(os.path.abspath(args.out_map)), PROVENANCE_FILENAME)
        write_removal_provenance(prov_path, result.provenance_rows)
    if args.stats:
        write_stats_file(args.stats, result.stats)
    if args.out_tracks:
        os.makedirs(args.out_tracks, exist_ok=True)
        for k, s in enumerate(result.stats):
            rows = format_track_rows(s.tracks)
            with open(os.path.join(args.out_tracks, "%06d.txt" % k), "w") as fh:
                fh.write("\n".join(rows))
                if rows:
                    fh.write("\n")
    if args.out_keyframes:
        dump_keyframes(result.db, args.out_keyframes)
    summary = stats_summary(result.stats)
    print("processed %d scans: mean %.1f ms/scan "
          "(preprocess %.1f, tracker %.1f, odometry %.1f), %d keyframes, "
          "%d fallbacks" % (
              len(result.stats), summary["total_ms"], summary["preprocess_ms"],
              summary["tracker_ms"], summary["odometry_ms"], len(result.db),
              summary["fallbacks"]))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    result = simulate(scene, args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_sim_dir(result, args.out, scene.dt)
    print("simulated %d scans into %s" % (scene.n_scans, args.out))
    return 0


def _cmd_eval_traj(args: argparse.Namespace) -> int:
    est = read_trajectory(args.est)
    gt = read_trajectory(args.gt)
    print("APE RMSE [m]: %.6f" % ape_rmse(est, gt))
    print("RPE RMSE [m] (delta=%d): %.6f" % (args.delta,
                                             rpe_rmse(est, gt, args.delta)))
    return 0


def _cmd_eval_map(args: argparse.Namespace) -> int:
    path = os.path.join(args.run_dir, PROVENANCE_FILENAME)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{path} not found: the run was not label-annotated")
    quality = map_pr_rr_f1(read_removal_provenance(path))

    def show(v, fmt):
        return fmt % v if v is not None else "undefined"

    print("PR [%%]: %s" % show(quality.pr, "%.3f"))
    print("RR [%%]: %s" % show(quality.rr, "%.3f"))
    print("F1-Score: %s" % show(quality.f1, "%.4f"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynlo",
        description="Dynamic LiDAR odometry with object tracking and removal")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the odometry pipeline on a scan directory")
    p_run.add_argument("--scans", required=True, help="directory of NNNNNN.bin scans")
    p_run.add_argument("--detections", required=True,
                       help="directory of NNNNNN.txt detection files")
    p_run.add_argument("--config", default=None, help="key=value config file")
    p_run.add_argument("--out-traj", required=True, help="output trajectory file")
    p_run.add_argument("--out-map", required=True, help="output ASCII map file")
    p_run.add_argument("--stats", default=None, help="optional per-scan stats file")
    p_run.add_argument("--out-tracks", default=None,
                       help="optional directory for per-scan track dumps")
    p_run.add_argument("--out-keyframes", default=None,
                       help="optional directory for keyframe clouds + poses")
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="generate a synthetic labeled dataset")
    p_sim.add_argument("--scene", required=True, help="scene JSON file")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output dataset directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_eval = sub.add_parser("eval", help="evaluate a run")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)
    p_traj = eval_sub.add_parser("traj", help="APE/RPE RMSE of a trajectory")
    p_traj.add_argument("--est", required=True)
    p_traj.add_argument("--gt", required=True)
    p_traj.add_argument("--delta", type=int, default=1)
    p_traj.set_defaults(func=_cmd_eval_traj)
    p_map = eval_sub.add_parser("map", help="PR/RR/F1 of a labeled run")
    p_map.add_argument("--run-dir", required=True)
    p_map.set_defaults(func=_cmd_eval_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
