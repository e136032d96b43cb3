"""Covers, covering constants, and compression-based classification for
finite quasi-metric (asymmetric distance) spaces."""

from .space import (DEFAULT_TOLERANCE, Direction, Mode, NearestResult, QuasiMetric,
                    QueryVectors, ValidationReport, ball, build_from_digraph,
                    build_from_matrix, diameter, load_edge_list, load_matrix,
                    nearest, save_edge_list, save_matrix, set_distance, subspace,
                    transpose, validate)
from .dimension import (ConstantEstimate, density_constant, directional_constant,
                        doubling_constant, log_iter, log_star)
from .cover import (Cover, CoverageError, CoverStats, arbitrary_cover,
                    exact_min_cover, greedy_cover, iterated_cover, verify_cover)
from .classifier import (BoundReport, CompressedClassifier, DegenerateCandidatesError,
                         InseparableSampleError, LabeledSample, Margins, bound,
                         build_classifier, load_labels, make_sample, margins, predict,
                         save_labels)
from .transforms import (SymmetricKind, SymmetricSpace, check_symmetric_axioms,
                         to_max_metric, to_min_semimetric, to_sum_metric)
from .fixtures import (Fixture, FixtureSpec, gen_backedge_line, gen_cycle,
                       gen_hst_toward_root, gen_line, gen_min_violation,
                       gen_nn_lower_bound, gen_random_bounded, gen_spoke_subset)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
