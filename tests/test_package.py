import ast
import importlib
from pathlib import Path

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


def private_names_read_nowhere() -> list[str]:
    """Module-level private names of the package (functions, classes and
    constants) that no code in the package reads outside their own
    definition."""
    package = Path(bandperm.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = {}  # name -> (module, first line, last line) of its definition
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = (module, node.lineno, node.end_lineno)
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            home, first, last = defined.get(name, (None, 0, 0))
            if module != home or not first <= node.lineno <= last:
                read.add(name)
    return sorted(set(defined) - read)


def test_every_private_name_is_read_in_the_package():
    # a helper that only tests still call is dead code: delete it
    assert private_names_read_nowhere() == []
