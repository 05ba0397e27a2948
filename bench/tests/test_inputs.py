"""The same seed gives byte-identical inputs and the same op order."""

from benchlib import expected
from benchlib.workloads import parallelize, service, table2


def committed_lines():
    reference = expected.load("parallelize")["inputs"]
    return {i: reference[i]["lines"] for d in parallelize.DIALECTS
            for i in parallelize.pool_ids(d)}


def test_pool_programs_are_byte_identical_every_time():
    for pool_id in ("core/000", "core/159", "ext/007"):
        assert parallelize.pool_program(pool_id).sources == \
            parallelize.pool_program(pool_id).sources
    assert parallelize.pool_program("core/001").sources != \
        parallelize.pool_program("core/002").sources
    # ... and are the programs the committed references were made from
    reference = expected.load("parallelize")["inputs"]
    assert reference["ext/007"]["input_sha256"] == expected.sources_digest(
        parallelize.pool_program("ext/007").sources)


def test_draw_repeats_for_a_seed_differs_across_seeds_keeps_the_profile():
    lines = committed_lines()
    first = parallelize.draw(7, lines)
    assert first == parallelize.draw(7, lines)
    assert len(first) == len(set(first)) == \
        2 * parallelize.GENERATED_PER_DIALECT
    totals = []
    for seed in range(20):
        drawn = parallelize.draw(seed, lines)
        assert seed == 7 or drawn != first
        totals.append(sum(lines[i] for i in drawn))
    # one member per size stratum: the seeds' inputs differ, their total
    # size barely does
    assert (max(totals) - min(totals)) / min(totals) < 0.03


def test_pass_order_depends_on_seed_and_pass_only():
    def order(seed, index):
        keys = list(range(50))
        table2.Table2(seed, "", "").rng(index).shuffle(keys)
        return keys
    assert order(3, 0) == order(3, 0)
    assert order(3, 0) != order(3, 1)
    assert order(3, 0) != order(4, 0)


def test_service_script_is_deterministic_and_has_the_sized_mix():
    workload = service.Service(5, "", "")
    workload.payloads = service.executing_payloads()
    script = workload.script(2)
    assert script == workload.script(2)
    assert len(script) == workload.ops_per_pass == 377
    classes = [op_id.split("/", 1)[0] for op_id, _key, _payload in script]
    assert classes.count("probe") == service.PROBES
    assert classes.count("miss") == 59
    assert classes.count("hit1") + classes.count("hit2") == \
        service.HITS_PER_PASS
    # the hits repeat the misses' payloads exactly, tag included
    misses = {k: p for i, k, p in script if i.startswith("miss/")}
    assert all(p == misses[k] for i, k, p in script if i.startswith("hit"))
    # another pass misses again: its tag differs
    assert all(p["tag"] != workload.script(3)[-1][2]["tag"]
               for _i, _k, p in script if "tag" in p)
