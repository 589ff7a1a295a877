"""The calls ``run_pipeline`` makes, in the shapes ``perfbench/tracing.py`` reads.

The tracer wraps functions and methods by name and attributes spans by their
arguments: the window's box count is ``len()`` of the ground fit's first
argument, and scan-to-map GICP is the call that passes ``target_tree=``. Box
counts are ``len()`` of (n, 7) box-row arrays, so those arrays must hold one
row per box. A
pipeline that stopped making one of these calls, or changed its shape, would
still pass the benchmark's smoke test with silently wrong per-layer metrics.
Scan-to-scan GICP starts from the constant-velocity prediction, which these
tests also pin, fallbacks included. Keyframes are moved into the world frame
once, at insert, so a submap is a concatenation of stored arrays.
"""

import os
from collections import Counter

import numpy as np

from dynlo import pipeline
from dynlo.geometry import PointCloud, Pose
from dynlo.ground import SlidingBoxWindow
from dynlo.keyframes import KeyframeDB
from dynlo.simulate import reference_config, reference_dynamic_scene, simulate
from dynlo.tracking import Tracker

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def _record(monkeypatch, owner, name, log):
    """Replace ``owner.name`` by a shim appending (args, kwargs, result) to log."""
    original = vars(owner)[name]

    def shim(*args, **kwargs):
        result = original(*args, **kwargs)
        log.append((args, kwargs, result))
        return result

    monkeypatch.setattr(owner, name, shim)


def _check_s2s_seeds(out, covariance_calls, s2s):
    """Each s2s call starts from one more scan of the last scan's motion,
    expressed in the frame of the scan its target cloud came from; the first
    starts from the identity. ``s2s`` holds (args, kwargs, result) per call."""
    registered = [s.scan_index for s in out.stats
                  if not s.fallback_reason.startswith("degenerate")]
    clouds = [result for _, _, result in covariance_calls]
    assert len(clouds) == len(registered)
    scan_of = {id(cloud): k for k, cloud in zip(registered, clouds)}
    assert [scan_of[id(args[0])] for args, _, _ in s2s] == registered[1:]
    assert np.array_equal(s2s[0][0][2].matrix(), np.eye(4))
    poses = out.trajectory.poses
    calls = {scan_of[id(args[0])]: (args, result) for args, _, result in s2s}
    rel = Pose.identity()  # the motion over the previous scan
    for k in range(registered[0] + 1, len(poses)):
        if k not in calls:
            continue  # a degenerate scan coasts on rel
        (_, target, seed, _), result = calls[k]
        c = scan_of[id(target)]
        assert c == max(j for j in registered if j < k)
        expected = poses[c].inverse().compose(poses[k - 1].compose(rel))
        np.testing.assert_allclose(seed.matrix(), expected.matrix(),
                                   rtol=0, atol=1e-12)
        rel = poses[k - 1].inverse().compose(poses[c].compose(result.pose))
    assert [out.stats[k].s2s_iterations for k in sorted(calls)] == [
        calls[k][1].iterations for k in sorted(calls)]


def test_pipeline_call_shapes(monkeypatch):
    n_scans = 14
    res = simulate(reference_dynamic_scene(n_scans=n_scans, rays_per_scan=1200),
                   0)
    cfg = reference_config()
    calls = {name: [] for name in ("advance", "push", "fit", "filter", "gicp",
                                   "tree", "submap", "remove", "mask",
                                   "covariance")}
    _record(monkeypatch, SlidingBoxWindow, "advance", calls["advance"])
    _record(monkeypatch, SlidingBoxWindow, "push", calls["push"])
    _record(monkeypatch, pipeline, "fit_ground_from_boxes", calls["fit"])
    _record(monkeypatch, pipeline, "filter_detections", calls["filter"])
    _record(monkeypatch, pipeline, "gicp_align", calls["gicp"])
    _record(monkeypatch, pipeline, "cKDTree", calls["tree"])
    _record(monkeypatch, KeyframeDB, "select_submap", calls["submap"])
    _record(monkeypatch, pipeline, "remove_dynamic_points", calls["remove"])
    _record(monkeypatch, pipeline, "dynamic_point_mask", calls["mask"])
    _record(monkeypatch, pipeline, "estimate_point_covariances",
            calls["covariance"])
    # what the tracer reads at each tracker step, taken when the step returns
    steps, dynamic_rows = [], []
    original_step = vars(Tracker)["step"]

    def step_shim(tracker, *args):
        result = original_step(tracker, *args)
        steps.append((len(tracker.tracks), len(tracker.ids),
                      int(tracker.dynamic.sum()),
                      len(result.dynamic_boxes)))
        # the dynamic tracks' rows cx cy cz yaw l w h, in tracker order
        dynamic_rows.append(np.array_equal(
            result.dynamic_boxes,
            tracker.means[tracker.dynamic][:, [0, 1, 2, 3, 5, 6, 7]]))
        return result

    monkeypatch.setattr(Tracker, "step", step_shim)

    out = pipeline.run_pipeline(res.scans, res.detections, cfg)
    assert len(out.trajectory) == n_scans
    assert not any(s.fallback for s in out.stats)

    # the window moves once per scan after the first
    assert len(calls["advance"]) == n_scans - 1

    # the filter keeps one row per box that passes the score and class test
    for (frame, min_score, classes), _, result in calls["filter"]:
        keep = [i for i, (cls, score) in enumerate(zip(frame.classes,
                                                       frame.scores))
                if score >= min_score and cls in classes]
        assert len(result.boxes) == len(keep)
        assert np.array_equal(result.boxes, frame.boxes[keep])

    # the ground fit gets the window's boxes: the last window_scans frames
    kept = [len(result.boxes) for _, _, result in calls["filter"]]
    window = cfg.constraint.window_scans
    expected = [sum(kept[max(0, k + 1 - window):k + 1]) for k in range(n_scans)]
    assert [len(args[0]) for args, _, _ in calls["fit"]] == expected
    assert max(expected) > 0

    # ... as the footprints of the kept rows pushed each scan, carried into
    # the current frame by every later advance
    pushed = [args[1] for args, _, _ in calls["push"]]
    assert len(pushed) == n_scans
    assert all(rows is result.boxes
               for rows, (_, _, result) in zip(pushed, calls["filter"]))
    centers = []
    for k, (args, _, _) in enumerate(calls["fit"]):
        if k:
            rel = calls["advance"][k - 1][0][1]
            centers = [rel.apply(c) for c in centers]
        centers = (centers + [pushed[k][:, :3]])[-window:]
        heights = np.concatenate([rows[:, 6] for rows
                                  in pushed[max(0, k + 1 - window):k + 1]])
        footprints = np.concatenate(centers) - np.outer(heights / 2.0, [0, 0, 1])
        np.testing.assert_allclose(args[0], footprints, rtol=0, atol=1e-9)

    # scan-to-map GICP targets the selected submap and passes its tree;
    # scan-to-scan never passes target_tree
    submaps = [result[1] for _, _, result in calls["submap"]]
    assert len(submaps) == n_scans - 1
    s2m = [(args, kwargs) for args, kwargs, _ in calls["gicp"]
           if any(args[1] is sub for sub in submaps)]
    s2s = [(args, kwargs) for args, kwargs, _ in calls["gicp"]
           if not any(args[1] is sub for sub in submaps)]
    assert len(s2m) == len(s2s) == n_scans - 1
    for args, kwargs in s2m:
        assert kwargs["target_tree"] is not None
        assert kwargs["target_tree"] is args[1].tree
    assert all("target_tree" not in kwargs for _, kwargs in s2s)
    _check_s2s_seeds(out, calls["covariance"],
                     [call for call in calls["gicp"]
                      if not any(call[0][1] is sub for sub in submaps)])

    # the submap tree is built once per distinct submap, on its points,
    # unbalanced
    distinct = {id(sub): sub for sub in submaps}
    built_on = [args[0] for args, _, _ in calls["tree"]]
    assert len(built_on) == len(distinct)
    assert {id(points) for points in built_on} == {
        id(sub.points) for sub in distinct.values()}
    assert all(kwargs == {"balanced_tree": False, "compact_nodes": False}
               for _, kwargs, _ in calls["tree"])

    # removal returns (cloud, removed indices); the label mask runs per
    # labelled scan
    for args, _, result in calls["remove"]:
        cloud, removed = result
        assert isinstance(cloud, PointCloud)
        assert len(cloud) + len(removed) == len(args[0])
    assert len(calls["remove"]) == n_scans
    assert len(calls["mask"]) == n_scans
    assert len(out.provenance_rows) == n_scans
    assert all(np.asarray(result).dtype == bool for _, _, result in calls["mask"])

    # the tracker steps once per scan; len(tracker.tracks) is the live track
    # count and len(step.dynamic_boxes) the number of dynamic tracks
    assert len(steps) == n_scans
    assert [live for live, _, _, _ in steps] == [len(s.tracks) for s in out.stats]
    assert all(live == listed for live, listed, _, _ in steps)
    assert all(dynamic == boxes for _, _, dynamic, boxes in steps)
    assert sum(boxes for _, _, _, boxes in steps) > 0
    assert all(dynamic_rows)


def test_s2s_seed_after_a_fallback(monkeypatch):
    """A degenerate scan leaves the s2s target at the scan before it: the next
    s2s starts from two scans of motion in that scan's frame, and the motion
    carried on is one scan's."""
    n_scans = 8
    res = simulate(reference_dynamic_scene(n_scans=n_scans, rays_per_scan=1200),
                   0)
    scans = list(res.scans)
    scans[3] = scans[3].subset(np.arange(4))
    gicp, covariance = [], []
    _record(monkeypatch, pipeline, "gicp_align", gicp)
    _record(monkeypatch, pipeline, "estimate_point_covariances", covariance)
    out = pipeline.run_pipeline(scans, res.detections, reference_config())
    assert [s.fallback_reason for s in out.stats].count(
        "degenerate:too few static points") == 1
    s2s = [call for call in gicp if "target_tree" not in call[1]]
    assert len(s2s) == n_scans - 2
    _check_s2s_seeds(out, covariance, s2s)


def test_keyframes_transformed_once_at_insert(monkeypatch):
    """Each insert moves only its own cloud into the world frame, and a
    submap selection transforms nothing. The ego drives at 2 m/s so that the
    run inserts several keyframes and selects submaps after each."""
    n_scans = 12
    res = simulate(reference_dynamic_scene(n_scans=n_scans, rays_per_scan=1200,
                                           ego_speed=2.0), 0)
    # PointCloud.transformed calls, and how many had been made when each
    # insert and submap selection began and ended
    transformed, inserts, selections = [], [], []
    _record(monkeypatch, PointCloud, "transformed", transformed)
    for name, spans in (("insert", inserts), ("select_submap", selections)):
        def counted(*args, _inner=vars(KeyframeDB)[name], _spans=spans,
                    **kwargs):
            before = len(transformed)
            result = _inner(*args, **kwargs)
            _spans.append((args, before, len(transformed)))
            return result

        monkeypatch.setattr(KeyframeDB, name, counted)
    out = pipeline.run_pipeline(res.scans, res.detections, reference_config())
    assert not any(s.fallback for s in out.stats)
    assert len(inserts) == len(out.db) >= 3
    assert [after - before for _, before, after in inserts] == [1] * len(inserts)
    assert len(transformed) == len(inserts)
    for (args, before, _), i in zip(inserts, range(len(out.db))):
        (cloud, pose), _, world = transformed[before]
        assert cloud is args[2] and pose is args[1] is out.db.by_id[i].pose
        assert np.shares_memory(world.points, out.db.by_id[i].world.points)
    assert len(selections) == n_scans - 1
    assert all(before == after for _, before, after in selections)


def test_tracer_spans_fire_through_step(monkeypatch):
    """Every stage span the benchmark's tracer wraps fires as often as the
    pipeline calls that stage. A stage function bound outside
    ``dynlo.pipeline``'s module globals would escape the wrapper and read as
    a zero in its per-layer metric."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    n_scans = 6
    res = simulate(reference_dynamic_scene(n_scans=n_scans, rays_per_scan=1200,
                                           ego_speed=2.0), 0)
    assert all(scan.labels is not None for scan in res.scans)
    with tracing.instrumented(tracing.Tracer()) as tracer:
        out = pipeline.run_pipeline(res.scans, res.detections,
                                    reference_config())
    assert not any(s.fallback for s in out.stats)
    # a submap's tree is built once: anew after an insert or for new ids
    trees, cached = 0, set()
    for span in tracer.spans:  # in call order
        if span.name == "keyframes.insert" and span.counts["inserted"]:
            cached.clear()
        elif span.name == "keyframes.select_submap":
            trees += tuple(span.counts["ids"]) not in cached
            cached.add(tuple(span.counts["ids"]))
    every = ("preprocess.crop", "preprocess.voxel", "preprocess.covariance",
             "detections.filter", "tracking.step", "removal.remove",
             "removal.label_mask", "ground.fit", "ground.constraint",
             "keyframes.spaciousness", "keyframes.insert")
    after_first = ("registration.s2s", "registration.s2m",
                   "keyframes.select_submap", "ground.window_advance")
    expected = {**{name: n_scans for name in every},
                **{name: n_scans - 1 for name in after_first},
                "registration.kdtree": trees}
    # every span name the tracer wraps outside file I/O, and scan-to-map,
    # which its observer tells from scan-to-scan
    file_io = ("fileio.", "detections.load_detection_frame")
    assert set(expected) == {name for _, _, name, _ in tracing._TARGETS
                             if not name.startswith(file_io)} | {
                                 "registration.s2m"}
    assert Counter(span.name for span in tracer.spans) == expected
    assert trees >= 2
