import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bell_numbers, count_assignments_brute
from relaycap.enumeration import (
    ConstraintInstance,
    assignments,
    constraint_instances,
    partitions,
    subsets,
)
from relaycap.errors import EmptyChoice


class TestSubsets:
    def test_canonical_order_two_relays(self):
        assert list(subsets({2, 3})) == [(), (2,), (3,), (2, 3)]

    def test_counts(self):
        assert len(list(subsets({2, 3, 4, 5}))) == 16

    def test_empty_input(self):
        assert list(subsets(set())) == [()]

    def test_input_order_irrelevant(self):
        assert list(subsets([5, 3, 4])) == list(subsets([3, 4, 5]))

    def test_each_subset_once(self):
        seen = list(subsets(range(2, 9)))
        assert len(seen) == len(set(seen)) == 2**7


class TestPartitions:
    def test_two_elements(self):
        assert list(partitions({2, 3})) == [((2, 3),), ((2,), (3,))]

    def test_counts_match_bell_numbers(self):
        bell = bell_numbers(5)
        for n in range(1, 6):
            got = len(list(partitions(range(2, 2 + n))))
            assert got == bell[n], f"|s|={n}"

    def test_five_elements_is_52(self):
        assert len(list(partitions({2, 3, 4, 5, 6}))) == 52

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            list(partitions(set()))

    def test_no_duplicates(self):
        seen = list(partitions(range(1, 6)))
        assert len(seen) == len(set(seen))

    @given(n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=12, deadline=None)
    def test_blocks_disjoint_cover_and_ordered(self, n):
        ids = set(range(2, 2 + n))
        for part in partitions(ids):
            flattened = [x for block in part for x in block]
            assert len(flattened) == len(set(flattened))  # disjoint
            assert set(flattened) == ids  # cover
            assert all(block for block in part)  # nonempty
            firsts = [block[0] for block in part]
            assert firsts == sorted(firsts)  # blocks by smallest element
            assert all(list(block) == sorted(block) for block in part)


class TestAssignments:
    def test_two_singletons_four_nodes(self):
        got = list(assignments([(2,), (3,)], {2, 3, 4}))
        assert len(got) == 4
        assert got == [(3, 2), (3, 4), (4, 2), (4, 4)]

    def test_full_block_forces_destination(self):
        got = list(assignments([(2, 3)], {2, 3, 4}))
        assert got == [(4,)]

    def test_three_singletons_five_nodes(self):
        got = list(assignments([(2,), (3,), (4,)], {2, 3, 4, 5}))
        assert len(got) == 27

    def test_empty_choice_raised(self):
        with pytest.raises(EmptyChoice):
            list(assignments([(2, 3, 4)], {2, 3, 4}))

    def test_counts_match_brute_force(self):
        for t in range(3, 7):
            candidates = set(range(2, t + 1))
            relays = set(range(2, t))
            for s in subsets(relays):
                if not s:
                    continue
                for part in partitions(s):
                    want = count_assignments_brute(part, candidates)
                    got = len(list(assignments(part, candidates)))
                    formula = math.prod(len(candidates) - len(b) for b in part)
                    assert got == want == formula


class TestConstraintInstance:
    def test_receiver_inside_block_rejected(self):
        with pytest.raises(ValueError, match="inside its own block"):
            ConstraintInstance(s=(2, 3), partition=((2, 3),), assignment=(2,))

    @pytest.mark.parametrize(
        "s, partition, assignment",
        [((2, 3), ((2, 3), (3,)), (4, 4)), ((2,), ((2, 2),), (3,))],
    )
    def test_overlapping_blocks_rejected(self, s, partition, assignment):
        with pytest.raises(ValueError, match="overlap"):
            ConstraintInstance(s=s, partition=partition, assignment=assignment)

    @pytest.mark.parametrize(
        "s, partition, assignment",
        [((2, 3, 4), ((2, 3),), (4,)), ((2, 2), ((2,),), (3,))],
    )
    def test_partition_must_cover_s(self, s, partition, assignment):
        with pytest.raises(ValueError, match="covers"):
            ConstraintInstance(s=s, partition=partition, assignment=assignment)

    def test_block_and_receiver_lengths_must_match(self):
        with pytest.raises(ValueError, match="blocks"):
            ConstraintInstance(s=(2,), partition=((2,),), assignment=(3, 4))


class TestConstraintStream:
    def test_all_instances_satisfy_invariants_up_to_six_nodes(self):
        # Constructing each instance runs its own invariant checks; count a
        # couple of sizes against the closed-form family size.
        for t in (4, 5, 6):
            relays = tuple(range(2, t))
            candidates = tuple(range(2, t + 1))
            n = 0
            for inst in constraint_instances(relays, candidates):
                assert set(inst.s) <= set(relays)
                for block, r in zip(inst.partition, inst.assignment):
                    assert r in candidates and r not in block
                n += 1
            want = 0
            for s in subsets(relays):
                if not s:
                    continue
                for part in partitions(s):
                    want += math.prod(len(candidates) - len(b) for b in part)
            assert n == want

    def test_stream_is_deterministic(self):
        relays, cand = (2, 3, 4), (2, 3, 4, 5)
        a = list(constraint_instances(relays, cand))
        b = list(constraint_instances(relays, cand))
        assert a == b
