"""Dynamic LiDAR odometry with 3D object tracking, dynamic-point removal,
two-stage GICP registration against keyframe submaps, and a box-based posture
consistency constraint. Ships with a synthetic scene simulator and
trajectory/map evaluation tools."""

from .config import PipelineConfig, dump_config, load_config, parse_config_text
from .detections import DetectionFrame, filter_detections, load_detection_frame
from .geometry import DetectionBox, PointCloud, Pose, point_in_box
from .metrics import Trajectory, ape_rmse, map_pr_rr_f1, rpe_rmse
from .pipeline import Odometry, PipelineResult, run_pipeline
from .simulate import SimScene, reference_dynamic_scene, simulate
from .tracking import Tracker, UkfParams

__version__ = "0.1.0"

__all__ = [
    "DetectionBox",
    "DetectionFrame",
    "Odometry",
    "PipelineConfig",
    "PipelineResult",
    "PointCloud",
    "Pose",
    "SimScene",
    "Tracker",
    "Trajectory",
    "UkfParams",
    "ape_rmse",
    "dump_config",
    "filter_detections",
    "load_config",
    "load_detection_frame",
    "map_pr_rr_f1",
    "parse_config_text",
    "point_in_box",
    "reference_dynamic_scene",
    "rpe_rmse",
    "run_pipeline",
    "simulate",
]
