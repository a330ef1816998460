import importlib

import pytest

import bandperm

# One public name per concept: the crossings are crossing_record, the exact
# tail is exact_tail_and_partition, and the enumeration is the member table
# of exact_distribution.
PUBLIC = [
    "BAND_ENUMERATION_CAP",
    "CapacityError",
    "ChainSummary",
    "CrossingConditionError",
    "CrossingRecord",
    "CycleObservation",
    "CycleStats",
    "DIAMETER_STATE_CAP",
    "DegenerateSwapError",
    "DomainError",
    "ExactDistribution",
    "FitResult",
    "INFINITY",
    "InitialState",
    "ModelParams",
    "NoCrossingError",
    "NoDataError",
    "PROFILE_MASK_CAP",
    "Permutation",
    "PreimageSizeStats",
    "RatioCheck",
    "RecurrenceResult",
    "SamplerConfig",
    "TailCurve",
    "TailPoint",
    "UnfittableError",
    "UnsupportedExponentError",
    "VerificationCertificate",
    "band_structure_stat",
    "count_band_permutations",
    "crossing_ratio_check",
    "crossing_record",
    "cycle_of",
    "energy",
    "estimate_tail_curve",
    "exact_distribution",
    "exact_tail_and_partition",
    "fit_exponential_decay",
    "in_support",
    "largest_propagating_c0",
    "max_displacement",
    "metropolis_acceptance",
    "preimage_size_stats",
    "recurrence_check",
    "reflect",
    "run_chain",
    "run_verification",
    "sample_cycle_observables",
    "spawn_chain_seed",
    "swap_images",
    "uncross",
    "uncross_preimage",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 52
    assert sorted(bandperm.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(bandperm, name), name


@pytest.mark.parametrize(
    "module, name",
    [
        ("exact", "enumerate_images"),
        ("exact", "enumerate_permutations"),
        ("exact", "exact_expectation"),
        ("exact", "exact_tail"),
        ("exact", "exact_tail_curve"),
        ("uncross", "first_upcrossing"),
        ("uncross", "last_downcrossing"),
        ("uncross", "uncross_min"),
    ],
)
def test_wrappers_over_a_kept_name_are_gone(module, name):
    # each was a second name for a fact a kept name states
    assert not hasattr(bandperm, name)
    assert not hasattr(importlib.import_module(f"bandperm.{module}"), name)
