"""Sublinear classifiers on attributed graphs.

A correspondence-maximized dot product makes the space of attributed graphs
behave enough like an inner-product space to carry linear-style classifiers:
f(X) = W.X + b with a weight graph W, trained by stochastic subgradient steps
on the lifted hinge risk.
"""

from .exceptions import (CapacityError, DatasetFormatError, DegenerateModelError,
                         InfeasibleSpecError, ValidationError)
from .graphs import (AttributedGraph, Representation, attach_edge_flag, from_representation,
                     to_representation)
from .matching import (DEFAULT_EXACT_MAX_ORDER, MatchMatrix, MatchResult, MatcherConfig,
                       exact_sdp, ga_sdp, induced_distance, kernel_value, matcher_call_count,
                       optimal_align, sdp)
from .model import (OvaModel, SublinearModel, classify, evaluate, load_model,
                    margin_lower_bound, origin_distance, predict_multiclass, save_model,
                    weight_norm)
from .learning import (EpochStats, LabeledExample, TrainConfig, TrainTrace, derive_seed,
                       empirical_risk, hinge_loss, knn_classify, subgradient_step,
                       train_binary, train_one_vs_all, write_trace_jsonl)
from .data_io import (Dataset, GXL_PRESETS, GxlAttrConfig, SyntheticSpec, binary_examples,
                      generate_synthetic, margin_certificate, parse_cxl_file, parse_gxl_file,
                      read_cxl_dataset, read_examples_jsonl, read_jsonl, write_jsonl)
from .protocol import (ALGORITHMS, DEFAULT_ETA_GRID, DEFAULT_LAMBDA_GRID, ProtocolConfig,
                       ProtocolReport, run_protocol)

__version__ = "0.1.0"
