import hypothesis.strategies as st

from bandperm import ModelParams, Permutation, exact_distribution


def interval_permutations(max_n: int = 3):
    """Strategy producing valid Permutations of [-n, n] for n up to max_n."""
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(lambda n: st.permutations(list(range(-n, n + 1))))
        .map(lambda img: Permutation(tuple(img)))
    )


def orbit_by_iteration(pi: Permutation, j: int) -> set[int]:
    """Independent brute-force orbit: apply pi until a repeat appears."""
    seen: list[int] = []
    x = j
    while x not in seen:
        seen.append(x)
        x = pi(x)
    return set(seen)


def table_images(params: ModelParams) -> list[tuple[int, ...]]:
    """The rows of exact_distribution(params).table as image tuples on
    [-n, n], in the table's lexicographic order."""
    table = exact_distribution(params).table
    return [tuple(row) for row in (table - params.n).tolist()]
