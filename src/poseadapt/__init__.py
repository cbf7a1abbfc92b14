"""Desk-scale engine for uncertainty-driven adaptation of a two-head
(heatmap localization + kinematic regression) 3D pose network on
procedural toy image domains."""

from .autodiff import Tensor, Parameter, backward, gradient_check
from .config import ExperimentConfig, generate_splits
from .heatmap import render_gaussian_heatmap
from .model import FusionNet, ModelConfig, PoseNet
from .optim import Adam
from .skeleton import (CameraParams, KinematicTree, canonicalize,
                       default_tree, forward_kinematics, mpjpe, pa_mpjpe)
from .synthdata import (DomainSpec, Sample, build_dataset, load_dataset,
                        save_dataset)
from .trainer import (HyperParams, auroc, evaluate, train_fusion,
                      train_joint_level, train_pose_level)
from .uncertainty import (joint_uncertainty, pose_uncertainty,
                          select_joint_pseudo_labels,
                          select_pose_pseudo_labels)

__version__ = "0.1.0"
