"""Workbench for stitched polar codes.

Coupling sequences generalize the polar transform to arbitrary block lengths:
a code is an ordered list of index pairs applied as in-place XORs, plus an
info set.  The package covers construction (pairwise stitching, recursive
family search, partially stitched hybrids, punctured and shortened regular
baselines), reliability design by density evolution and Gaussian
approximation, SC and CRC-aided SCL decoding, structural analysis, and
Monte-Carlo simulation.
"""

from .analysis import (ScalingEstimate, coset_spectrum, count_unpolarized,
                       min_distance, reduced_generator, scaling_fit)
from .codes import (CRC11, CodeSpec, CrcConfig, RateMatch, StructuralError,
                    crc_append, crc_check, encode, generator_matrix, load_spec,
                    rm_encode, spec_from_json, spec_to_json)
from .decoding import (LLR_SAT, DecodeSchedule, sc_decode, sc_decode_batch,
                       sc_trace, schedule_for, scl_decode, scl_decode_batch,
                       rm_llrs)
from .reliability import (ChannelModel, ReliabilityProfile, build_baseline,
                          channel_from_snr_db, de_bec, ga_awgn, initial_values,
                          profile_for)
from .sequences import (CouplingSequence, ValidationResult, bit_reversal_index,
                        brs_pattern, make_regular_sequence, qup_pattern,
                        validate)
from .simulate import (SearchResult, SimConfig, SimResult, SweepResult,
                       channel_transmit, simulate_bler, snr_search,
                       sweep_lengths)
from .stitching import (CodeFamily, FamilyEntry, PartiallyStitchedLayout,
                        allocate_rates, build_family, load_family,
                        partially_stitched, save_family, stitch_left,
                        stitch_right, stitched_polarization_count,
                        transform_count)

__version__ = "0.1.0"

__all__ = [
    "CRC11", "ChannelModel", "CodeFamily", "CodeSpec", "CouplingSequence",
    "CrcConfig", "DecodeSchedule", "FamilyEntry", "LLR_SAT",
    "PartiallyStitchedLayout", "RateMatch", "ReliabilityProfile",
    "ScalingEstimate", "SearchResult", "SimConfig", "SimResult",
    "StructuralError", "SweepResult", "ValidationResult",
    "allocate_rates", "bit_reversal_index", "brs_pattern", "build_baseline",
    "channel_from_snr_db",
    "build_family", "channel_transmit", "coset_spectrum", "count_unpolarized",
    "crc_append", "crc_check", "de_bec", "encode", "ga_awgn",
    "generator_matrix", "initial_values", "load_family", "load_spec",
    "make_regular_sequence", "min_distance", "partially_stitched",
    "profile_for", "qup_pattern", "reduced_generator", "rm_encode", "rm_llrs",
    "save_family", "scaling_fit", "sc_decode", "sc_decode_batch",
    "sc_trace", "schedule_for", "scl_decode", "scl_decode_batch",
    "simulate_bler", "snr_search", "spec_from_json",
    "spec_to_json", "stitch_left", "stitch_right",
    "stitched_polarization_count", "sweep_lengths",
    "transform_count", "validate",
]
