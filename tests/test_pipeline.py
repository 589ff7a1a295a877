import os

import numpy as np
import pytest

from dynlo.cli import main as cli_main
from dynlo.config import dump_config
from dynlo.geometry import Pose
from dynlo.metrics import Trajectory, ape_rmse, max_z_drift, rpe_rmse
from dynlo.pipeline import run_pipeline, stats_summary, write_stats_file
from dynlo.simulate import (SimScene, reference_config,
                            reference_dynamic_scene, scene_to_json, simulate,
                            write_sim_dir)


def small_scene(n_scans, movers=True, seed_geom=None, rays=2400, sigma=0.02):
    base = reference_dynamic_scene(n_scans=n_scans, rays_per_scan=rays,
                                   noise_sigma=sigma)
    if not movers:
        return SimScene(dt=base.dt, ego_poses=base.ego_poses,
                        sensor=base.sensor, rects=base.rects,
                        boxes=base.boxes, movers=[])
    return base


class TestRunPipeline:
    def test_single_scan_identity(self):
        res = simulate(small_scene(1), 0)
        out = run_pipeline(res.scans, res.detections, reference_config())
        assert len(out.trajectory) == 1
        assert np.allclose(out.trajectory.poses[0].matrix(), np.eye(4))
        assert len(out.db) == 1
        assert len(out.map_cloud) > 0

    def test_stationary_ego_static_scene(self):
        base = small_scene(15, movers=False)
        scene = SimScene(dt=base.dt,
                         ego_poses=[base.ego_poses[0]] * 15,
                         sensor=base.sensor, rects=base.rects,
                         boxes=base.boxes, movers=[])
        res = simulate(scene, 1)
        out = run_pipeline(res.scans, res.detections, reference_config())
        # solver tolerance at this sampling density: independent surface
        # resamplings put the cost minimum a few centimeters off
        for pose in out.trajectory.poses:
            assert np.linalg.norm(pose.translation) < 0.05
        assert out.counts is not None
        assert out.counts.dynamic_total == 0

    def test_trajectory_tracks_ground_truth(self):
        res = simulate(small_scene(40), 0)
        out = run_pipeline(res.scans, res.detections, reference_config())
        gt = Trajectory.from_poses(res.gt_poses)
        assert ape_rmse(out.trajectory, gt) < 0.12
        assert rpe_rmse(out.trajectory, gt) < 0.15
        assert stats_summary(out.stats)["fallbacks"] == 0

    # the removal / constraint / tracker-kind A/B directions are exercised at
    # full scale (200 scans, 5 seeds, medians) in test_acceptance.py

    def test_deterministic_repeat(self):
        res = simulate(small_scene(12), 3)
        a = run_pipeline(res.scans, res.detections, reference_config())
        b = run_pipeline(res.scans, res.detections, reference_config())
        for pa, pb in zip(a.trajectory.poses, b.trajectory.poses):
            assert np.array_equal(pa.matrix(), pb.matrix())
        assert np.array_equal(a.map_cloud.points, b.map_cloud.points)

    def test_scan_to_map_reduces_drift_vs_scan_to_scan_only(self):
        from dynlo.preprocess import (crop_self_returns,
                                      estimate_point_covariances,
                                      voxel_downsample)
        from dynlo.registration import gicp_align, propagate_world

        scene = small_scene(60, movers=False)
        res = simulate(scene, 2)
        gt = Trajectory.from_poses(res.gt_poses)
        cfg = reference_config()
        # dead-reckoned scan-to-scan chain
        clouds = []
        for s in res.scans:
            c = voxel_downsample(crop_self_returns(s, 0.5), 0.25)
            clouds.append(estimate_point_covariances(c, 10, 1e-3))
        poses = [Pose.identity()]
        for k in range(1, len(clouds)):
            rel = gicp_align(clouds[k], clouds[k - 1], Pose.identity(),
                             cfg.gicp).pose
            poses.append(propagate_world(poses[-1], rel))
        dead_reckoned = Trajectory.from_poses(poses)
        full = run_pipeline(res.scans, res.detections, cfg)
        assert (ape_rmse(full.trajectory, gt)
                <= ape_rmse(dead_reckoned, gt) + 1e-6)

    def test_constraint_reduces_z_drift(self):
        res = simulate(small_scene(80), 1)
        gt = Trajectory.from_poses(res.gt_poses)
        on = run_pipeline(res.scans, res.detections, reference_config())
        cfg = reference_config()
        cfg.enable_constraint = False
        off = run_pipeline(res.scans, res.detections, cfg)
        assert max_z_drift(on.trajectory, gt) <= max_z_drift(off.trajectory, gt)

    def test_keyframes_inserted_along_path(self):
        res = simulate(small_scene(120, movers=False), 0)
        out = run_pipeline(res.scans, res.detections, reference_config())
        assert len(out.db) >= 2
        inserted = [s.keyframe_inserted for s in out.stats]
        assert inserted[0]
        assert sum(inserted) == len(out.db)

    def test_stats_track_counts(self):
        res = simulate(small_scene(10), 0)
        out = run_pipeline(res.scans, res.detections, reference_config())
        assert all(s.n_tracks >= 1 for s in out.stats)
        assert any(s.n_dynamic_boxes > 0 for s in out.stats[2:])
        assert all(s.total_ms > 0 for s in out.stats)
        assert len(out.track_rows) == 10

    def test_source_exhaustion_ends_run(self):
        res = simulate(small_scene(8), 0)
        out = run_pipeline(res.scans, res.detections[:5], reference_config())
        assert len(out.trajectory) == 5

    def test_degenerate_scan_falls_back(self, tmp_path):
        res = simulate(small_scene(6), 0)
        scans = list(res.scans)
        scans[3] = scans[3].subset(np.arange(4))  # too few points to register
        out = run_pipeline(scans, res.detections, reference_config())
        assert len(out.trajectory) == 6
        assert out.stats[3].fallback
        # coasting: scan 3 reuses the previous relative motion
        assert np.all(np.isfinite(out.trajectory.poses[3].matrix()))
        assert stats_summary(out.stats)["fallbacks"] == 1
        reasons = [s.fallback_reason for s in out.stats]
        assert reasons == ["", "", "", "degenerate:too few static points",
                           "", ""]
        path = tmp_path / "stats.txt"
        write_stats_file(str(path), out.stats)
        lines = path.read_text().splitlines()
        header = lines[0].split()
        rows = [line.split() for line in lines[1:-1]]
        assert header[-1] == "fallback_reason"
        assert all(len(row) == len(header) - 1 for row in rows)
        assert [row[-1] for row in rows] == [
            "-", "-", "-", "degenerate:too_few_static_points", "-", "-"]


class TestCli:
    @pytest.fixture
    def dataset(self, tmp_path):
        scene = small_scene(14, rays=1200)
        res = simulate(scene, 5)
        out_dir = str(tmp_path / "run")
        write_sim_dir(res, out_dir, scene.dt)
        return out_dir, scene

    def test_simulate_run_eval_round_trip(self, tmp_path, dataset, capsys):
        out_dir, scene = dataset
        cfg_path = str(tmp_path / "config.txt")
        with open(cfg_path, "w") as fh:
            fh.write(dump_config(reference_config()))
        traj = os.path.join(out_dir, "est_traj.txt")
        map_path = os.path.join(out_dir, "map.txt")
        stats = os.path.join(out_dir, "stats.txt")
        rc = cli_main(["run", "--scans", os.path.join(out_dir, "scans"),
                       "--detections", os.path.join(out_dir, "detections"),
                       "--config", cfg_path,
                       "--out-traj", traj, "--out-map", map_path,
                       "--stats", stats,
                       "--out-tracks", os.path.join(out_dir, "tracks"),
                       "--out-keyframes", os.path.join(out_dir, "keyframes")])
        assert rc == 0
        assert os.path.exists(traj) and os.path.exists(map_path)
        assert os.path.exists(stats)
        assert os.path.exists(os.path.join(out_dir, "removal_provenance.txt"))
        assert os.path.exists(os.path.join(out_dir, "tracks", "000000.txt"))
        assert os.path.exists(os.path.join(out_dir, "keyframes",
                                           "keyframe_poses.txt"))
        rc = cli_main(["eval", "traj", "--est", traj,
                       "--gt", os.path.join(out_dir, "gt_traj.txt")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        ape_line = [l for l in lines if l.startswith("APE RMSE")][0]
        assert float(ape_line.split(":")[1]) < 0.2
        rc = cli_main(["eval", "map", "--run-dir", out_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PR [%]" in out and "RR [%]" in out and "F1-Score" in out

    def test_simulate_command(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        with open(scene_path, "w") as fh:
            fh.write(scene_to_json(small_scene(3, rays=500)))
        out = str(tmp_path / "sim")
        rc = cli_main(["simulate", "--scene", scene_path, "--seed", "4",
                       "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "scans", "000002.bin"))
        assert os.path.exists(os.path.join(out, "detections", "000002.txt"))
        assert os.path.exists(os.path.join(out, "labels", "000002.txt"))
        assert os.path.exists(os.path.join(out, "gt_traj.txt"))

    def test_error_exit_code_and_message(self, tmp_path, capsys):
        rc = cli_main(["run", "--scans", str(tmp_path / "missing"),
                       "--detections", str(tmp_path),
                       "--out-traj", str(tmp_path / "t.txt"),
                       "--out-map", str(tmp_path / "m.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, dataset):
        out_dir, _ = dataset
        outputs = []
        for tag in ("a", "b"):
            traj = str(tmp_path / f"traj_{tag}.txt")
            mp = str(tmp_path / f"map_{tag}.txt")
            rc = cli_main(["run", "--scans", os.path.join(out_dir, "scans"),
                           "--detections", os.path.join(out_dir, "detections"),
                           "--out-traj", traj, "--out-map", mp])
            assert rc == 0
            outputs.append((open(traj, "rb").read(), open(mp, "rb").read()))
        assert outputs[0] == outputs[1]
