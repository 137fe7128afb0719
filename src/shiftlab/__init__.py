"""Numerical laboratory for shift-stacked emulation of large strip convolutions."""

from .tensor import (FormatError, ShapeError, Tensor, from_array, max_abs_diff,
                     read_container, tensors_equal_bits, write_container)
from .conv_ref import conv2d_ref, fanout_conv, strip_conv_ref
from .sw_op import (ALL_BRANCHES, DEFAULT_SEED, PlanError, ShiftPlan, SwConfig,
                    SwWeights, build_shift_plan, from_strip, interior_band,
                    load_sw_weights, random_weights, read_operator_spec,
                    save_sw_weights, sw_forward, write_operator_spec)
from .reparam import AffineNorm, FoldRequiredError, densify, fold_norm, merge_rep

__all__ = [
    "AffineNorm", "ALL_BRANCHES", "DEFAULT_SEED", "FoldRequiredError",
    "FormatError", "PlanError", "ShapeError", "ShiftPlan", "SwConfig", "SwWeights",
    "Tensor", "build_shift_plan", "conv2d_ref", "densify", "fanout_conv", "fold_norm",
    "from_array", "from_strip", "interior_band", "load_sw_weights",
    "max_abs_diff", "merge_rep", "random_weights", "read_container",
    "read_operator_spec", "save_sw_weights", "strip_conv_ref", "sw_forward",
    "tensors_equal_bits", "write_container", "write_operator_spec",
]

__version__ = "0.1.0"
