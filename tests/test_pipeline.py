import os
import re
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynlo.cli import main as cli_main
from dynlo import cli, geometry, pipeline
from dynlo.detections import DetectionFrame
from dynlo.config import dump_config
from dynlo.fileio import (read_scan_bin, read_trajectory, write_scan_bin,
                          write_trajectory)
from dynlo.geometry import DetectionBox, PointCloud, Pose, point_in_box
from dynlo.keyframes import KeyframeDB
from dynlo.metrics import (RemovalCounts, Trajectory, ape_rmse, max_z_drift,
                           rpe_rmse)
from dynlo.pipeline import (ScanStats, removal_provenance, run_pipeline,
                            stats_summary, write_stats_file)
from dynlo.simulate import (SimScene, reference_config,
                            reference_dynamic_scene, scene_to_json, simulate,
                            write_sim_dir)
from dynlo.tracking import Tracker


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
        assert out.provenance_rows
        assert RemovalCounts.from_rows(out.provenance_rows).dynamic_total == 0

    def test_trajectory_tracks_ground_truth(self):
        res = simulate(small_scene(40), 0)
        out = run_pipeline(res.scans, res.detections, reference_config())
        gt = Trajectory.from_poses(res.gt_poses)
        assert ape_rmse(out.trajectory, gt) < 0.12
        assert rpe_rmse(out.trajectory, gt) < 0.15
        assert stats_summary(out.stats)["fallbacks"] == 0

    # the removal and constraint A/B directions are exercised at full scale
    # (200 scans, 5 seeds, medians) in test_acceptance.py

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
        from dynlo.registration import gicp_align

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
            poses.append(poses[-1].compose(rel))
        dead_reckoned = Trajectory.from_poses(poses)
        full = run_pipeline(res.scans, res.detections, cfg)
        assert (ape_rmse(full.trajectory, gt)
                <= ape_rmse(dead_reckoned, gt) + 1e-6)

    def test_constraint_reduces_z_drift(self):
        res = simulate(small_scene(80), 1)
        gt = Trajectory.from_poses(res.gt_poses)
        on = run_pipeline(res.scans, res.detections, reference_config())
        cfg = reference_config()
        cfg.constraint.enabled = False
        off = run_pipeline(res.scans, res.detections, cfg)
        assert max_z_drift(on.trajectory, gt) <= max_z_drift(off.trajectory, gt)

    def test_keyframes_inserted_along_path(self, monkeypatch):
        res = simulate(small_scene(120, movers=False), 0)
        inserted = []
        original = vars(KeyframeDB)["insert"]

        def insert(db, pose, cloud):
            inserted.append((pose, cloud))
            return original(db, pose, cloud)

        monkeypatch.setattr(KeyframeDB, "insert", insert)
        out = run_pipeline(res.scans, res.detections, reference_config())
        assert len(out.db) >= 2
        flags = [s.keyframe_inserted for s in out.stats]
        assert flags[0]
        assert sum(flags) == len(out.db) == len(inserted)
        # the map is every inserted cloud moved into the world by its pose
        assert np.array_equal(out.map_cloud.points, np.concatenate(
            [pose.apply(cloud.points) for pose, cloud in inserted]))

    def test_stats_track_counts(self):
        res = simulate(small_scene(10), 0)
        out = run_pipeline(res.scans, res.detections, reference_config())
        assert len(out.stats) == 10
        assert all(len(s.tracks) >= 1 for s in out.stats)
        assert any(len(s.removal_boxes) > 0 for s in out.stats[2:])
        assert all(s.total_ms > 0 for s in out.stats)

    def test_odometry_steps_one_scan_at_a_time(self):
        res = simulate(small_scene(6), 0)
        odometry = pipeline.Odometry(reference_config())
        records = [odometry.step(raw, frame)
                   for raw, frame in zip(res.scans, res.detections)]
        out = run_pipeline(res.scans, res.detections, reference_config())
        assert [r.scan_index for r in records] == list(range(6))
        np.testing.assert_array_equal(
            [r.pose.matrix() for r in records],
            [p.matrix() for p in out.trajectory.poses])
        margin = odometry.cfg.removal.margin
        assert [removal_provenance(raw, r, margin) for raw, r in
                zip(res.scans, records)] == out.provenance_rows
        assert len(out.stats) == 6
        for r, s in zip(records, out.stats):
            np.testing.assert_array_equal(r.tracks, s.tracks)
        np.testing.assert_array_equal(records[-1].tracks, odometry.tracker.tracks)
        np.testing.assert_array_equal(odometry.db.world_map().points,
                                      out.map_cloud.points)

    def test_timers_cover_the_track_table(self, monkeypatch):
        # the track table is built inside odometry_ms and total_ms
        res = simulate(small_scene(3), 0)
        table = Tracker.tracks.fget

        def slow_table(tracker):
            time.sleep(0.02)
            return table(tracker)

        monkeypatch.setattr(Tracker, "tracks", property(slow_table))
        out = run_pipeline(res.scans, res.detections, reference_config())
        assert all(s.odometry_ms >= 20.0 for s in out.stats)
        assert all(s.total_ms >= s.odometry_ms for s in out.stats)

    def test_constraint_gets_mean_z_change_of_matched_tracks(self,
                                                            monkeypatch):
        # the posture constraint's mean_dz, recomputed track by track: over
        # the tracks matched this scan that existed last scan, in tracker
        # order, world z now (pose before the constraint) minus world z after
        # the previous scan
        res = simulate(small_scene(12), 0)
        constraint, matched = [], []
        original = pipeline.apply_consistency_constraint
        step = vars(Tracker)["step"]

        def record(*args):
            constraint.append(args)
            return original(*args)

        def record_step(tracker, *args):
            out = step(tracker, *args)
            matched.append(out.matched_ids)
            return out

        monkeypatch.setattr(pipeline, "apply_consistency_constraint", record)
        monkeypatch.setattr(Tracker, "step", record_step)
        out = run_pipeline(res.scans, res.detections, reference_config())
        previous = {}
        used = 0
        for k, table in enumerate(s.tracks for s in out.stats):
            pose = constraint[k][0]
            dzs = [float(pose.apply(row[2:5])[2]) - previous[int(row[0])]
                   for row in table
                   if int(row[0]) in matched[k] and int(row[0]) in previous]
            if dzs:
                assert constraint[k][3] == pytest.approx(np.mean(dzs),
                                                         rel=0, abs=1e-12)
            else:
                assert constraint[k][3] is None
            used += len(dzs)
            final = out.trajectory.poses[k]
            previous = {int(row[0]): float(final.apply(row[2:5])[2])
                        for row in table}
        assert used > 0

    def test_step_is_label_blind(self):
        # the same scans with and without labels give bit-equal records,
        # every field but the wall times
        res = simulate(small_scene(8), 0)
        unlabelled = [PointCloud(s.points) for s in res.scans]
        runs = []
        for scans in (res.scans, unlabelled):
            odometry = pipeline.Odometry(reference_config())
            runs.append([odometry.step(raw, frame)
                         for raw, frame in zip(scans, res.detections)])
        assert all(s.labels is not None for s in res.scans)
        assert any(len(r.removal_boxes) for r in runs[0])
        names = [f.name for f in fields(ScanStats)
                 if f.name not in pipeline._TIMERS]
        for a, b in zip(*runs):
            for name in names:
                va, vb = getattr(a, name), getattr(b, name)
                if isinstance(va, Pose):
                    va, vb = va.matrix(), vb.matrix()
                np.testing.assert_array_equal(va, vb, strict=True,
                                              err_msg=name)

    def test_provenance_without_removal(self):
        # no removal boxes: every static point is kept, no dynamic one removed
        res = simulate(small_scene(6), 0)
        cfg = reference_config()
        cfg.removal.enabled = False
        out = run_pipeline(res.scans, res.detections, cfg)
        assert all(s.removal_boxes.shape == (0, 7) for s in out.stats)
        assert len(out.provenance_rows) == 6
        for _, static_total, _, static_preserved, dynamic_removed in (
                out.provenance_rows):
            assert dynamic_removed == 0
            assert static_preserved == static_total
        assert sum(row[2] for row in out.provenance_rows) > 0

    def test_provenance_matches_a_box_oracle(self):
        # the scan with the most removal boxes, recounted point by point
        res = simulate(small_scene(6), 0)
        cfg = reference_config()
        out = run_pipeline(res.scans, res.detections, cfg)
        k = int(np.argmax([len(s.removal_boxes) for s in out.stats]))
        record, raw, labels = out.stats[k], res.scans[k], res.scans[k].labels
        assert len(record.removal_boxes) > 0
        removed = np.zeros(len(raw), dtype=bool)
        for row in record.removal_boxes:
            removed |= point_in_box(raw.points,
                                    DetectionBox(row[:3], row[3], row[4:]),
                                    cfg.removal.margin)
        expected = (k, int(np.sum(~labels)), int(np.sum(labels)),
                    int(np.sum(~labels & ~removed)),
                    int(np.sum(labels & removed)))
        assert expected[4] > 0
        assert out.provenance_rows[k] == expected
        assert removal_provenance(raw, record, cfg.removal.margin) == expected

    def test_unlabelled_run_has_no_removal_record(self):
        res = simulate(small_scene(3), 0)
        scans = [PointCloud(s.points) for s in res.scans]
        out = run_pipeline(scans, res.detections, reference_config())
        assert out.provenance_rows == []

    def test_step_error_names_its_scan(self):
        res = simulate(small_scene(5), 0)
        scans = list(res.scans)
        scans[2] = PointCloud(np.vstack([scans[2].points, [3e18, 0.0, 0.0]]),
                              labels=np.append(scans[2].labels, False))
        with pytest.raises(ValueError, match="^scan 2: point too far from "
                           "the origin") as info:
            run_pipeline(scans, res.detections, reference_config())
        assert isinstance(info.value.__cause__, ValueError)
        assert not str(info.value.__cause__).startswith("scan")

        def failing_source():
            yield scans[0]
            raise ValueError("000001.bin: 1 non-finite points")

        # an error pulling a scan already names its file; it passes unchanged
        with pytest.raises(ValueError, match="^000001.bin: 1 non-finite"):
            run_pipeline(failing_source(), res.detections, reference_config())

    @pytest.mark.parametrize("field, row, column, value, message", [
        ("points", 5, 1, np.nan, "points: non-finite coordinate"),
        ("boxes", 0, 3, np.inf, "boxes: non-finite box row"),
        ("boxes", 1, 5, 0.0, "boxes: box dimension not positive"),
    ])
    def test_step_rejects_bad_input(self, field, row, column, value,
                                    message):
        res = simulate(small_scene(5), 0)
        scans, frames = list(res.scans), list(res.detections)
        if field == "points":
            points = scans[3].points.copy()
            points[row, column] = value
            scans[3] = PointCloud(points, labels=scans[3].labels)
        else:
            boxes = frames[3].boxes.copy()
            boxes[row, column] = value
            frames[3] = DetectionFrame(
                3, boxes, frames[3].classes, frames[3].scores)
        with pytest.raises(ValueError, match=f"^scan 3: {message}$"):
            run_pipeline(scans, frames, reference_config())
        odometry = pipeline.Odometry(reference_config())
        for raw, frame in zip(scans[:3], frames):
            odometry.step(raw, frame)
        with pytest.raises(ValueError, match=f"^{message}$"):
            odometry.step(scans[3], frames[3])
        assert odometry.scans == 3  # the refused scan changed no state

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
        assert header[-3:] == ["s2s_iterations", "s2m_iterations",
                               "fallback_reason"]
        assert all(len(row) == len(header) - 1 for row in rows)
        # no GICP runs on the first and the degenerate scan
        assert [(int(row[-3]), int(row[-2])) for row in rows] == [
            (s.s2s_iterations, s.s2m_iterations) for s in out.stats]
        assert [k for k, s in enumerate(out.stats)
                if s.s2s_iterations == 0 or s.s2m_iterations == 0] == [0, 3]
        assert [row[-1] for row in rows] == [
            "-", "-", "-", "degenerate:too_few_static_points", "-", "-"]

    @pytest.mark.parametrize("stage", ["s2s", "s2m"])
    def test_registration_error_falls_back(self, tmp_path, monkeypatch,
                                           stage):
        # scan 3's s2s or s2m call raises; every other call runs
        res = simulate(small_scene(6), 0)
        cfg = reference_config()
        cfg.constraint.enabled = False
        failing = {"s2s": 4, "s2m": 5}[stage]  # per scan k >= 1: s2s, s2m
        calls = []
        original = pipeline.gicp_align

        def shim(*args, **kwargs):
            calls.append((args, kwargs))
            if len(calls) - 1 == failing:
                raise ValueError("solver diverged")
            result = original(*args, **kwargs)
            calls[-1] += (result,)
            return result

        monkeypatch.setattr(pipeline, "gicp_align", shim)
        out = run_pipeline(res.scans, res.detections, cfg)
        assert len(calls) == 10
        assert ("target_tree" in calls[failing][1]) == (stage == "s2m")
        poses, s = out.trajectory.poses, out.stats[3]
        assert [r.fallback_reason for r in out.stats] == [
            "", "", "", f"{stage}:solver diverged", "", ""]
        assert s.fallback
        assert getattr(s, f"{stage}_converged") is False
        assert getattr(s, f"{stage}_iterations") == 0
        if stage == "s2m":
            s2s = calls[4][2]
            assert s.s2s_iterations == s2s.iterations > 0
            # the pose stays scan-to-scan's
            expected = poses[2].compose(s2s.pose)
            assert np.array_equal(poses[3].matrix(), expected.matrix())
        else:
            s2m_args, _, s2m = calls[5]
            assert s.s2m_iterations == s2m.iterations > 0
            # s2m starts from the constant-velocity prediction: scan 2's
            # scan-to-scan motion once more
            rel = poses[1].inverse().compose(poses[1].compose(calls[2][2].pose))
            predicted = poses[2].compose(rel)
            assert np.array_equal(s2m_args[2].matrix(), predicted.matrix())
            assert np.array_equal(poses[3].matrix(), s2m.pose.matrix())
        # the next scan registers normally
        after = out.stats[4]
        assert not after.fallback
        assert after.s2s_iterations > 0 and after.s2m_iterations > 0
        gt = res.gt_poses[0].inverse().compose(res.gt_poses[4])
        assert np.linalg.norm(poses[4].translation - gt.translation) < 0.05
        assert stats_summary(out.stats)["fallbacks"] == 1
        path = tmp_path / "stats.txt"
        write_stats_file(str(path), out.stats)
        rows = [line.split() for line in path.read_text().splitlines()[1:-1]]
        assert [row[-1] for row in rows] == [
            "-", "-", "-", f"{stage}:solver_diverged", "-", "-"]
        # columns s2s_converged, s2m_converged, fallback
        assert rows[3][9 if stage == "s2s" else 10] == "0"
        assert rows[3][11] == "1"

    def test_registration_without_iterations_rejected_before_a_scan(self):
        # gicp_align keeps its own guard for direct callers
        # (TestAlign::test_no_iteration_rejected_before_any_query)
        cfg = reference_config()
        cfg.gicp.max_iterations = 0

        def scans():
            raise AssertionError("a scan was pulled")
            yield

        with pytest.raises(ValueError, match="^gicp.max_iterations: expected "
                           "an integer >= 1, got '0'$"):
            run_pipeline(scans(), [], cfg)

    def test_parallel_queries_give_the_same_run(self, monkeypatch):
        res = simulate(small_scene(6), 0)
        runs = []
        for gate in (0, np.inf):  # every neighbour query parallel, then none
            monkeypatch.setattr(geometry, "_PARALLEL_QUERY_POINTS", gate)
            runs.append(run_pipeline(res.scans, res.detections,
                                     reference_config()))
        parallel, serial = runs
        np.testing.assert_array_equal(
            [p.matrix() for p in parallel.trajectory.poses],
            [p.matrix() for p in serial.trajectory.poses])
        np.testing.assert_array_equal(parallel.map_cloud.points,
                                      serial.map_cloud.points)
        assert parallel.provenance_rows == serial.provenance_rows
        assert ([(s.s2s_iterations, s.s2m_iterations) for s in parallel.stats]
                == [(s.s2s_iterations, s.s2m_iterations) for s in serial.stats])

    def test_concurrent_runs_with_split_queries(self, monkeypatch):
        res = simulate(small_scene(6), 0)
        monkeypatch.setattr(geometry, "_PARALLEL_QUERY_POINTS", np.inf)
        serial = run_pipeline(res.scans, res.detections, reference_config())
        # every neighbour query split over three workers, in two callers
        monkeypatch.setattr(geometry, "_PARALLEL_QUERY_POINTS", 0)
        monkeypatch.setattr(geometry, "_CPUS", 3)
        runs = [None, None]

        def run(i):
            runs[i] = run_pipeline(res.scans, res.detections,
                                   reference_config())

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in runs:
            assert out is not None
            np.testing.assert_array_equal(
                [p.matrix() for p in out.trajectory.poses],
                [p.matrix() for p in serial.trajectory.poses])
            np.testing.assert_array_equal(out.map_cloud.points,
                                          serial.map_cloud.points)
            assert out.provenance_rows == serial.provenance_rows
            assert ([(s.s2s_iterations, s.s2m_iterations, s.fallback_reason)
                     for s in out.stats]
                    == [(s.s2s_iterations, s.s2m_iterations, s.fallback_reason)
                        for s in serial.stats])

    def test_raw_point_order_moves_poses_by_round_off_only(self, rng):
        # the voxel grid fixes the order GICP sums in; only each centroid's
        # own summation order follows the raw order
        res = simulate(small_scene(20), 0)
        shuffled = [scan.subset(rng.permutation(len(scan)))
                    for scan in res.scans]
        a = run_pipeline(res.scans, res.detections, reference_config())
        b = run_pipeline(shuffled, res.detections, reference_config())
        np.testing.assert_allclose(
            [p.matrix() for p in a.trajectory.poses],
            [p.matrix() for p in b.trajectory.poses], rtol=0, atol=1e-12)
        assert a.provenance_rows == b.provenance_rows
        assert ([(s.s2s_iterations, s.s2m_iterations, s.fallback_reason)
                 for s in a.stats]
                == [(s.s2s_iterations, s.s2m_iterations, s.fallback_reason)
                    for s in b.stats])

    def test_motion_after_a_degenerate_scan_counted_once(self, monkeypatch):
        # scan 3 falls back, so scan 4's s2s spans scans 2 -> 4: its result
        # belongs on scan 2's pose, not on scan 3's coasted one
        res = simulate(small_scene(8), 0)
        scans = list(res.scans)
        scans[3] = scans[3].subset(np.arange(4))
        calls = []
        original = pipeline.gicp_align

        def shim(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(pipeline, "gicp_align", shim)
        out = run_pipeline(scans, res.detections, reference_config())
        assert out.stats[3].fallback and not out.stats[4].fallback
        # per registered scan after the first: s2s, then s2m; scan 4 is the
        # third registered scan after scan 0
        (_, _, s2s), (s2m_args, _, s2m) = calls[4:6]
        world_init = s2m_args[2]
        expected = out.trajectory.poses[2].compose(s2s.pose)
        np.testing.assert_allclose(world_init.matrix(), expected.matrix(),
                                   rtol=0, atol=1e-12)
        # composed onto scan 3's pose, the prediction was 0.13 m off
        assert np.linalg.norm(world_init.translation
                              - s2m.pose.translation) < 0.05
        assert out.stats[4].s2m_iterations == s2m.iterations


def perturbed(scans, frames, k, kind, value):
    """Copies of ``scans`` and ``frames`` with scan or frame k perturbed by
    ``kind``: truncated to ``value`` points, replaced by the floor plane,
    turned by the yaw ``value``, shifted by ``value`` = (distance,
    heading), given a box that covers the scene, or stripped of its boxes."""
    scans, frames = list(scans), list(frames)
    points, labels = scans[k].points, scans[k].labels
    frame = frames[k]
    if kind == "truncate":
        points, labels = points[:value], labels[:value]
    elif kind == "floor":
        # the ground lies 1.6 m under the sensor
        xy = np.random.default_rng(k).uniform(-20.0, 20.0, (len(points), 2))
        points = np.column_stack([xy, np.full(len(points), -1.6)])
        labels = np.zeros(len(points), dtype=bool)
    elif kind == "yaw":
        points = Pose.from_yaw(value).apply(points)
    elif kind == "shift":
        distance, heading = value
        points = points + distance * np.array(
            [np.cos(heading), np.sin(heading), 0.0])
    elif kind == "cover":
        cover = [0.0, 0.0, 0.0, 0.0, 200.0, 200.0, 50.0]
        frame = DetectionFrame(k, np.vstack([frame.boxes, cover]),
                               np.append(frame.classes, "car"),
                               np.append(frame.scores, 1.0))
    else:  # "no boxes"
        frame = DetectionFrame(k, frame.boxes[:0], frame.classes[:0],
                               frame.scores[:0])
    scans[k] = PointCloud(points, labels=labels)
    frames[k] = frame
    return scans, frames


PERTURBATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 40)),
    st.tuples(st.just("floor"), st.none()),
    st.tuples(st.just("yaw"), st.floats(-np.pi, np.pi)),
    st.tuples(st.just("shift"), st.tuples(st.floats(0.0, 10.0),
                                          st.floats(-np.pi, np.pi))),
    st.tuples(st.just("cover"), st.none()),
    st.tuples(st.just("no boxes"), st.none()))


class TestPerturbedInput:
    """One scan or frame of a short reference run is perturbed: every scan
    still gets a finite pose, or the run fails naming a scan, and every GICP
    call that raised leaves a fallback reason naming its stage."""

    @pytest.fixture(scope="class")
    def reference_run(self):
        res = simulate(reference_dynamic_scene(n_scans=8, rays_per_scan=1200),
                       0)
        return res.scans, res.detections

    @settings(max_examples=13, derandomize=True, deadline=None)
    @given(k=st.integers(0, 7), perturbation=PERTURBATIONS)
    @example(k=3, perturbation=("truncate", 0))
    # both of scan 1's GICP calls raise "insufficient overlap"
    @example(k=1, perturbation=("truncate", 11))
    @example(k=2, perturbation=("floor", None))
    @example(k=4, perturbation=("yaw", np.pi))
    @example(k=5, perturbation=("shift", (10.0, 0.0)))
    @example(k=3, perturbation=("cover", None))
    @example(k=3, perturbation=("no boxes", None))
    def test_finite_poses_or_an_error_naming_the_scan(self, reference_run, k,
                                                      perturbation):
        scans, frames = perturbed(*reference_run, k, *perturbation)
        stepping = [0]  # the index of the scan being stepped
        raised = []  # (scan, stage, message) of each GICP call that raised
        original = pipeline.gicp_align

        def source():
            for index, scan in enumerate(scans):
                stepping[0] = index
                yield scan

        def recording(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except ValueError as exc:
                stage = "s2m" if "target_tree" in kwargs else "s2s"
                raised.append((stepping[0], stage, str(exc)))
                raise

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "gicp_align", recording)
            try:
                out = run_pipeline(source(), frames, reference_config())
            except ValueError as exc:
                assert re.match(r"scan \d+: ", str(exc))
                return
        assert len(out.stats) == len(scans)
        for s in out.stats:
            assert np.isfinite(s.pose.matrix()).all()
        for scan, stage, message in raised:
            reasons = out.stats[scan].fallback_reason.split(";")
            assert f"{stage}:{message}" in reasons


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

    def test_out_keyframes_writes_body_frame_clouds(self, tmp_path, dataset,
                                                    monkeypatch):
        """Each keyframe file holds the cloud as inserted, in the body frame,
        as (x, y, z, 0) float32 records; the manifest lists the insert poses."""
        out_dir, _ = dataset
        inserted = []
        original = vars(KeyframeDB)["insert"]

        def insert(db, pose, cloud):
            inserted.append((pose, cloud))
            return original(db, pose, cloud)

        monkeypatch.setattr(KeyframeDB, "insert", insert)
        kf_dir = str(tmp_path / "keyframes")
        rc = cli_main(["run", "--scans", os.path.join(out_dir, "scans"),
                       "--detections", os.path.join(out_dir, "detections"),
                       "--out-traj", str(tmp_path / "traj.txt"),
                       "--out-map", str(tmp_path / "map.txt"),
                       "--out-keyframes", kf_dir])
        assert rc == 0
        assert len(inserted) >= 2
        names = ["%06d.bin" % i for i in range(len(inserted))]
        assert sorted(os.listdir(kf_dir)) == names + ["keyframe_poses.txt"]
        for name, (_, cloud) in zip(names, inserted):
            records = np.zeros((len(cloud), 4), dtype="<f4")
            records[:, :3] = cloud.points
            with open(os.path.join(kf_dir, name), "rb") as fh:
                assert fh.read() == records.tobytes()
        ids = np.arange(len(inserted))
        manifest = str(tmp_path / "keyframe_poses.txt")
        write_trajectory(manifest, Trajectory(
            ids, ids.astype(float), [pose for pose, _ in inserted]))
        with open(manifest, "rb") as want, \
                open(os.path.join(kf_dir, "keyframe_poses.txt"), "rb") as got:
            assert got.read() == want.read()

    def test_out_keyframes_move_back_onto_the_world_clouds(self, tmp_path,
                                                           dataset,
                                                           monkeypatch):
        """Each keyframe file, moved by its manifest pose, holds the
        keyframe's world-frame points to float32 precision."""
        out_dir, _ = dataset
        results = []

        def recording_run(*args):
            results.append(run_pipeline(*args))
            return results[-1]

        monkeypatch.setattr(cli, "run_pipeline", recording_run)
        kf_dir = str(tmp_path / "keyframes")
        rc = cli_main(["run", "--scans", os.path.join(out_dir, "scans"),
                       "--detections", os.path.join(out_dir, "detections"),
                       "--out-traj", str(tmp_path / "traj.txt"),
                       "--out-map", str(tmp_path / "map.txt"),
                       "--out-keyframes", kf_dir])
        assert rc == 0
        db = results[0].db
        poses = read_trajectory(os.path.join(kf_dir, "keyframe_poses.txt")).poses
        assert len(db) >= 2 and len(poses) == len(db)
        for i, pose in enumerate(poses):
            body = read_scan_bin(os.path.join(kf_dir, "%06d.bin" % i)).points
            world = db.by_id[i].world.points
            atol = 4 * np.finfo(np.float32).eps * np.abs(body).max()
            np.testing.assert_allclose(pose.apply(body), world, rtol=0,
                                       atol=atol)

    @pytest.mark.parametrize("command, name, text", [
        ("run", "labels/000000.txt", "0\n1\n\nx\n"),
        ("run", "labels/000000.txt", "0\n1\n\n9223372036854775808\n"),
        ("eval traj", "est.txt", "# t x y z qx qy qz qw\n0 0 0 0 0 0 0 1\n\n"
                                 "0.1 abc 0 0 0 0 0 1\n"),
        ("eval map", "removal_provenance.txt", "# scan ...\n0 100 20 99 18\n"
                                               "\n1 120 15 118\n"),
        ("eval traj", "est.txt", "# t x y z qx qy qz qw\n0 0 0 0 0 0 0 1\n\n"
                                 "0.1 0 0 0 0 0 0 0\n"),
        ("eval traj", "est.txt", "# t x y z qx qy qz qw\n0 0 0 0 0 0 0 1\n\n"
                                 "0.1 0 0 0 nan 0 0 1\n"),
        ("eval map", "removal_provenance.txt", "# scan ...\n0 100 20 99 18\n"
                                               "\n0 1 1 1 99999999999999999999\n"),
        ("run", "detections/000000.txt", "# class score cx cy cz l w h yaw\n"
                                         "car 0.9 1 2 3 4 2 1.5 0.1\n\n"
                                         "car 0.9 1 2 3 4 2 1.5\n")])
    def test_malformed_line_names_its_file(self, dataset, capsys, command,
                                           name, text):
        # line 4 is malformed; the blank line 3 counts
        out_dir, _ = dataset
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        args = {"run": ["run", "--scans", os.path.join(out_dir, "scans"),
                        "--detections", os.path.join(out_dir, "detections"),
                        "--out-traj", os.path.join(out_dir, "t.txt"),
                        "--out-map", os.path.join(out_dir, "m.txt")],
                "eval traj": ["eval", "traj", "--est", path,
                              "--gt", os.path.join(out_dir, "gt_traj.txt")],
                "eval map": ["eval", "map", "--run-dir", out_dir]}[command]
        assert cli_main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path} line 4: expected ")

    @pytest.mark.parametrize("case", ["missing detection file",
                                      "no scans", "unlabelled run"])
    def test_missing_input_names_its_path(self, tmp_path, dataset, capsys,
                                          case):
        out_dir, _ = dataset
        scans = os.path.join(out_dir, "scans")
        detections = os.path.join(out_dir, "detections")
        run = ["run", "--detections", detections,
               "--out-traj", str(tmp_path / "t.txt"),
               "--out-map", str(tmp_path / "m.txt")]
        if case == "missing detection file":
            path = os.path.join(detections, "000003.txt")
            os.remove(path)
            args, message = run + ["--scans", scans], (
                f"missing detection file {path}")
        elif case == "no scans":
            empty = tmp_path / "empty"
            empty.mkdir()
            args, message = run + ["--scans", str(empty)], (
                f"no .bin scans found in {empty}")
        else:
            path = os.path.join(out_dir, "removal_provenance.txt")
            args, message = ["eval", "map", "--run-dir", out_dir], (
                f"{path} not found: the run was not label-annotated")
        assert cli_main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_point_too_far_for_a_voxel_index_is_an_error(self, tmp_path,
                                                          dataset, capsys):
        out_dir, _ = dataset
        path = os.path.join(out_dir, "scans", "000003.bin")
        points = read_scan_bin(path).points
        points[0] = (3e18, 0.0, 0.0)  # finite in float32
        write_scan_bin(path, PointCloud(points))
        rc = cli_main(["run", "--scans", os.path.join(out_dir, "scans"),
                       "--detections", os.path.join(out_dir, "detections"),
                       "--out-traj", str(tmp_path / "t.txt"),
                       "--out-map", str(tmp_path / "m.txt")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: scan 3: point too far from the origin")

    def test_out_tracks_match_the_row_formatter(self, tmp_path, dataset,
                                                monkeypatch):
        # reference: the rows a track dump held when they were formatted from
        # the live tracker at the end of every scan
        expected = []
        step = Tracker.step

        def recording_step(tracker, frame, dt):
            result = step(tracker, frame, dt)
            expected.append([
                "%d %d %.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f" % (
                    tid, int(dynamic), *mean) for tid, dynamic, mean
                in zip(tracker.ids, tracker.dynamic, tracker.means)])
            return result

        monkeypatch.setattr(Tracker, "step", recording_step)
        out_dir, _ = dataset
        tracks = tmp_path / "tracks"
        rc = cli_main(["run", "--scans", os.path.join(out_dir, "scans"),
                       "--detections", os.path.join(out_dir, "detections"),
                       "--out-traj", str(tmp_path / "t.txt"),
                       "--out-map", str(tmp_path / "m.txt"),
                       "--out-tracks", str(tracks)])
        assert rc == 0
        assert len(expected) == 14
        assert sorted(os.listdir(tracks)) == ["%06d.txt" % k for k in range(14)]
        for k, rows in enumerate(expected):
            want = "".join(row + "\n" for row in rows).encode()
            assert (tracks / ("%06d.txt" % k)).read_bytes() == want

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
