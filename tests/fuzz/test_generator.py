"""The generator's contract: deterministic, valid, executable output."""

from repro.fuzz.generator import (ARRAY_EXTENT, ARRAYS, GeneratorOptions,
                                  derive_seed, generate)
from repro.runtime.interpreter import Interpreter

SAMPLE = [derive_seed(42, i) for i in range(12)]


def test_deterministic_for_fixed_seed():
    for seed in SAMPLE[:4]:
        first, second = generate(seed), generate(seed)
        assert first.sources == second.sources
        assert first.annotations == second.annotations
        assert first.features == second.features


def test_distinct_seeds_give_distinct_programs():
    texts = {generate(seed).source_text() for seed in SAMPLE}
    assert len(texts) > len(SAMPLE) // 2


def test_derive_seed_is_stable_and_injective_enough():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_generated_programs_parse_and_execute():
    for seed in SAMPLE:
        fuzz = generate(seed)
        program = fuzz.program()
        result = Interpreter(program, honor_directives=False).run()
        # the observation WRITEs must have produced output
        assert result.output


def test_sources_roundtrip_through_reparse():
    """The shipped text IS the ground truth: reparsing and unparsing it
    again reproduces the same text."""
    for seed in SAMPLE[:4]:
        fuzz = generate(seed)
        program = fuzz.program()
        assert "".join(program.unparse().values()) == fuzz.source_text()


def test_feature_gating():
    opts = GeneratorOptions(calls=False, functions=False,
                            non_affine=False, induction=False)
    for seed in SAMPLE[:6]:
        fuzz = generate(seed, opts)
        for feature in fuzz.features:
            assert not feature.startswith("call")
            assert feature not in ("function", "funcref", "non-affine",
                                   "induction")


def test_annotations_derive_for_leaf_callees():
    """Across a modest sample at least one program must carry derived
    annotations (otherwise the annotation configuration never differs
    from no-inline and the oracle's third pipeline is untested)."""
    assert any(generate(seed).annotations for seed in SAMPLE)


def test_array_bounds_are_respected():
    """No generated subscript may leave the declared extent — the
    interpreter would raise, so a clean run is the witness; here we also
    check the declared geometry is the shared one."""
    fuzz = generate(SAMPLE[0])
    text = fuzz.source_text()
    for array in ARRAYS:
        assert f"{array}({ARRAY_EXTENT})" in text


def test_core_dialect_never_emits_extended_features():
    for seed in SAMPLE:
        fuzz = generate(seed)
        assert "computed-goto" not in fuzz.features
        assert "data" not in fuzz.features


def test_extended_dialect_emits_and_executes():
    opts = GeneratorOptions(dialect="extended")
    seen = set()
    for seed in SAMPLE:
        fuzz = generate(seed, opts)
        seen.update(f for f in fuzz.features
                    if f in ("computed-goto", "data"))
        program = fuzz.program()
        result = Interpreter(program, honor_directives=False).run()
        assert result.output
        # the shipped text stays the reparse fixpoint with the new
        # productions in play
        assert "".join(program.unparse().values()) == fuzz.source_text()
    assert seen == {"computed-goto", "data"}
