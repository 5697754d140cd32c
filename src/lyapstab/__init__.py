"""Rotor-angle stability assessment from post-fault rotor traces.

The pipeline: simulate (or ingest) rotor angle/speed traces, select the
severely disturbed generator pairs, classify each pair's swing pattern to
pick the separation window and fitting start, estimate the maximal Lyapunov
exponent recursively, and map the exponent curve's shape to a verdict.
"""

from ._swing_numpy import backend_name
from .assess import (AssessmentConfig, AssessmentReport, PairAssessor,
                     PairVerdict, SystemVerdict, aggregate, run_assessment)
from .ingest import (ASSESSMENT_RATE, AlignedDataset, EventMeta, align,
                     parse_traces, resample, write_traces)
from .mle import (MleSeries, RlsState, estimate_stream, iter_mle,
                  log_distance, rls_init, rls_update)
from .network import (FaultSpec, Generator, NetworkModel, ReducedSystem,
                      load_network_file, reduce_network)
from .pairs import SdgpTrace, build_pair_trace, identify_sdgp
from .simulator import (GeneratorTrace, simulate, solve_equilibrium,
                        stability_oracle)
from .swings import (ClassifierConfig, DistanceSeries, EstimatorParams,
                     SwingClassifier, SwingPattern, classify, distance_series,
                     find_mle_start)

__version__ = "0.1.0"
