import pytest

from perfbench import inputs, workloads


def test_same_seed_same_cycle_and_labels_are_independent():
    items = list(range(50))
    assert inputs.seeded_cycle(items, 3, "a") == \
        inputs.seeded_cycle(items, 3, "a")
    assert inputs.seeded_cycle(items, 3, "a") != \
        inputs.seeded_cycle(items, 4, "a")
    assert inputs.seeded_cycle(items, 3, "a") != \
        inputs.seeded_cycle(items, 3, "b")
    assert sorted(inputs.seeded_cycle(items, 3, "a")) == items


def test_strata_are_sorted_and_balanced():
    layers = inputs.strata([5, 3, 9, 1, 7, 2, 8], key=lambda x: x, count=3)
    assert layers == [[1, 2, 3], [5, 7], [8, 9]]
    with pytest.raises(ValueError):
        inputs.strata([1, 2], key=lambda x: x, count=3)


def test_digest_ignores_key_order():
    assert inputs.digest({"a": 1, "b": [2]}) == \
        inputs.digest({"b": [2], "a": 1})


def test_synth_ops_repeat_one_scope_for_every_seed():
    def described(seed):
        workload = workloads.SynthCompose(seed)
        workload.setup()
        try:
            return workload.inputs()
        finally:
            workload.teardown()
    assert described(5) == described(6)
    assert described(5)["scope"] == list(workloads.SCOPE)


def test_litmus_batch_is_fixed_and_the_seed_orders_it():
    from repro.litmus.generator import iter_programs, parse_spec
    corpus = list(iter_programs(parse_spec(workloads.CORPUS_SPEC)))
    sample = workloads.corpus_sample(corpus)
    assert sample == workloads.corpus_sample(list(reversed(corpus)))
    assert len({fp for fp, _ in sample}) == workloads.LITMUS_BATCH
    first = workloads.litmus_batch(corpus, 2)
    assert first == workloads.litmus_batch(corpus, 2)
    assert first != workloads.litmus_batch(corpus, 3)
    assert sorted(first, key=workloads.program_cost_key) == \
        sorted(sample, key=workloads.program_cost_key)


def test_serve_groups_partition_the_suite_in_seeded_order():
    from repro.litmus import load_suite
    names = [test.name for test in load_suite()]
    groups = workloads.serve_groups(names, 4)
    assert groups == workloads.serve_groups(names, 4)
    assert all(len(group) == workloads.SERVE_GROUP for group in groups)
    assert sorted(name for group in groups for name in group) == \
        sorted(names)
    assert sorted(map(tuple, groups)) == \
        sorted(map(tuple, workloads.serve_groups(names, 9)))
    with pytest.raises(workloads.OpFailure):
        workloads.serve_groups(names + ["new-test"], 4)
