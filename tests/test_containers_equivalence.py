"""Cross-container differential tests.

The training framework's replay scheme requires that every container kind
maintain the *same logical multiset* under the same operation stream —
sequences additionally preserve insertion order among themselves.  These
tests drive all nine kinds with one stream and compare.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.containers.registry import DSKind, make_container
from repro.machine.configs import CORE2
from repro.machine.machine import Machine

SEQUENCE_KINDS = (DSKind.VECTOR, DSKind.LIST, DSKind.DEQUE)
SORTED_KINDS = (DSKind.SET, DSKind.AVL_SET, DSKind.MAP, DSKind.AVL_MAP)
HASH_KINDS = (DSKind.HASH_SET, DSKind.HASH_MAP)


def drive(kind: DSKind, ops) -> tuple[list[int], list[bool]]:
    """Run an op stream; return (final contents, find results)."""
    machine = Machine(CORE2)
    container = make_container(kind, machine, elem_size=8)
    finds: list[bool] = []
    for op, value, hint_fraction in ops:
        if op == "insert":
            hint = int(hint_fraction * (len(container) + 1))
            container.insert(value, min(hint, len(container)))
        elif op == "erase":
            container.erase(value)
        elif op == "find":
            finds.append(container.find(value))
        elif op == "iterate":
            container.iterate(value)
    return container.to_list(), finds


OPS_STRATEGY = st.lists(
    st.tuples(
        st.sampled_from(["insert", "erase", "find", "iterate"]),
        st.integers(0, 20),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    max_size=40,
)


@given(OPS_STRATEGY)
def test_all_kinds_agree_on_multiset_and_membership(ops):
    results = {kind: drive(kind, ops) for kind in DSKind}
    reference_contents, reference_finds = results[DSKind.VECTOR]
    for kind, (contents, finds) in results.items():
        assert sorted(contents) == sorted(reference_contents), kind
        assert finds == reference_finds, kind


@given(OPS_STRATEGY)
def test_sequences_agree_on_order(ops):
    reference, _ = drive(DSKind.VECTOR, ops)
    for kind in SEQUENCE_KINDS[1:]:
        contents, _ = drive(kind, ops)
        assert contents == reference, kind


@given(OPS_STRATEGY)
def test_ordered_kinds_iterate_sorted(ops):
    for kind in SORTED_KINDS:
        contents, _ = drive(kind, ops)
        assert contents == sorted(contents), kind


@pytest.mark.parametrize("steps", [-3, 0, 1, "len+5"])
def test_iterate_visits_the_same_count_on_every_kind(steps):
    """``iterate(steps)`` visits ``min(max(steps, 0), len)`` elements on
    every kind and adds exactly that to ``stats.iterate_cost``."""
    values = [5, 1, 9, 3, 7, 3]
    count = len(values) + 5 if steps == "len+5" else steps
    seen = set()
    for kind in DSKind:
        container = make_container(kind, Machine(CORE2), elem_size=8)
        for i, value in enumerate(values):
            container.insert(value, i)
        before = container.stats.iterate_cost
        visited = container.iterate(count)
        seen.add((visited, container.stats.iterate_cost - before))
    assert seen == {(min(max(count, 0), len(values)),) * 2}


class TestPerformanceOrderings:
    """The qualitative performance claims the selection problem rests on
    (motivating examples from the paper's §1/§2)."""

    @staticmethod
    def _cycles(kind, setup, measure, elem_size=8):
        machine = Machine(CORE2)
        container = make_container(kind, machine, elem_size=elem_size)
        setup(container)
        start = machine.cycles
        measure(container)
        return machine.cycles - start

    def test_hash_beats_tree_on_large_find_heavy(self):
        rng = random.Random(1)
        values = [rng.randrange(10_000) for _ in range(800)]

        def setup(c):
            for v in values:
                c.insert(v, len(c))

        def measure(c):
            for _ in range(300):
                c.find(rng.randrange(10_000))

        assert (self._cycles(DSKind.HASH_SET, setup, measure)
                < self._cycles(DSKind.SET, setup, measure))

    def test_vector_beats_hash_on_tiny_find_heavy(self):
        """The paper's ~200-element observation, at our scaled sizes."""
        values = list(range(12))

        def setup(c):
            for v in values:
                c.insert(v, len(c))

        def measure(c):
            for i in range(300):
                c.find(i % 12)

        assert (self._cycles(DSKind.VECTOR, setup, measure)
                < self._cycles(DSKind.HASH_SET, setup, measure))

    def test_tree_beats_vector_on_large_find_heavy(self):
        rng = random.Random(2)
        values = [rng.randrange(100_000) for _ in range(600)]

        def setup(c):
            for v in values:
                c.insert(v, len(c))

        def measure(c):
            for _ in range(100):
                c.find(rng.randrange(100_000))

        assert (self._cycles(DSKind.SET, setup, measure)
                < self._cycles(DSKind.VECTOR, setup, measure))

    def test_list_beats_vector_on_mid_insertion(self):
        """Table 1's 'fast insertion': with sizeable elements, shifting
        half the vector per insert loses to the list's O(1) link."""
        def setup(c):
            for v in range(8):
                c.insert(v, len(c))

        def measure(c):
            for v in range(400):
                c.insert(v, len(c) // 2)

        assert (self._cycles(DSKind.LIST, setup, measure, elem_size=64)
                < self._cycles(DSKind.VECTOR, setup, measure,
                               elem_size=64))

    def test_vector_beats_list_on_iteration(self):
        def setup(c):
            for v in range(300):
                c.insert(v, len(c))

        def measure(c):
            for _ in range(40):
                c.iterate(300)

        assert (self._cycles(DSKind.VECTOR, setup, measure)
                < self._cycles(DSKind.LIST, setup, measure))


class TestArchitectureSensitivity:
    def test_same_program_can_prefer_different_kinds_per_arch(self):
        """Figure 1's premise: at least one workload in a small family
        flips its best kind between Core2 and Atom."""
        from repro.appgen import GeneratorConfig, generate_app
        from repro.appgen.workload import best_candidate, measure_candidates
        from repro.containers.registry import MODEL_GROUPS
        from repro.machine.configs import ATOM

        config = GeneratorConfig.small()
        group = MODEL_GROUPS["vector_oo"]
        flips = 0
        for seed in range(40):
            app = generate_app(seed, group, config)
            best_core2 = best_candidate(
                measure_candidates(app, CORE2), margin=0
            )
            best_atom = best_candidate(
                measure_candidates(app, ATOM), margin=0
            )
            if best_core2 != best_atom:
                flips += 1
        assert flips >= 1
