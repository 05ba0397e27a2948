"""The pricer against its oracle.

``price(profile, M, disabled)`` claims to equal — cost and per-site
``(serial, parallel)`` stats, exactly — an execution with ``machine=M``
of the program whose directives at ``disabled`` were really replaced by
their loops.  In-run pricing (``_exec_omp`` / ``_emit_omp``) is
independent of the recorder and the pricer, so it is the reference here:
every case records one profile (``machine=None``), then executes the
mutated clones under a machine and compares.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotations import AnnotationRegistry
from repro.experiments.pipeline import CONFIGS, Config, run_config
from repro.experiments.tuning import tune
from repro.fortran import ast
from repro.fuzz import generate
from repro.perfect import all_benchmarks
from repro.pipeline import parallelize_program
from repro.program import Program
from repro.runtime.backend import BACKENDS, make_interpreter
from repro.runtime.difftest import backend_equivalence
from repro.runtime.interpreter import (collect_omp_sites,
                                       number_omp_sites)
from repro.runtime.machine import (AMD_OPTERON, INTEL_MAC, MachineModel,
                                   RegionNode, RegionProfile, price)

MACHINES = (INTEL_MAC, AMD_OPTERON)


def disable(program, site_of, disabled):
    """Replace the directives at ``disabled`` by their loops, in place
    (the mutation ``tune`` makes)."""
    def scan(body):
        for i, s in enumerate(body):
            if isinstance(s, ast.OmpParallelDo):
                scan(s.loop.body)
                if site_of[id(s)] in disabled:
                    body[i] = s.loop
            else:
                for child in ast.stmt_children(s):
                    scan(child)
    for unit in program.units:
        scan(unit.body)


def record(program, backend, inputs=()):
    return make_interpreter(program, backend, machine=None,
                            honor_directives=True,
                            inputs=list(inputs)).run().regions


def executed(program, backend, machine, disabled, inputs=()):
    """(cost, per-site stats) of really running with ``disabled`` off."""
    clone = program.clone()
    site_of = number_omp_sites(clone)
    disable(clone, site_of, disabled)
    interp = make_interpreter(clone, backend, machine=machine,
                              honor_directives=True, inputs=list(inputs))
    cost = interp.run().cost
    return cost, {site_of[key]: tuple(stat)
                  for key, stat in interp.omp_stats.items()}


def tuned_set(program, profile, machine, inputs=()):
    """The sites ``tune`` disables, recovered from what it left on."""
    clone = program.clone()
    site_of = number_omp_sites(clone)
    tune(clone, machine, inputs, profile=profile)
    kept = {site_of[id(node)] for unit in clone.units
            for node in collect_omp_sites(unit.body)}
    return frozenset(set(site_of.values()) - kept)


def random_subset(rng, program):
    sites = sorted(number_omp_sites(program).values())
    return frozenset(s for s in sites if rng.random() < 0.5)


def check(program, backend, cases, inputs=()):
    """``cases``: (machine, disabled) pairs priced from one profile."""
    profile = record(program, backend, inputs)
    for machine, disabled in cases(profile):
        assert price(profile, machine, disabled) == \
            executed(program, backend, machine, disabled, inputs), \
            (machine.name, sorted(disabled))
    return profile


# ---------------------------------------------------------------------------
# PERFECT: 12 programs x 3 configurations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("bench", all_benchmarks(),
                         ids=[b.name for b in all_benchmarks()])
def test_perfect_pricing_matches_execution(bench, config):
    program = run_config(bench, Config(config)).program
    inputs = bench.inputs
    rng = random.Random(f"{bench.name}:{config}")
    first, second = MACHINES if rng.random() < 0.5 else MACHINES[::-1]

    def cases(profile):
        yield first, frozenset()
        yield second, tuned_set(program, profile, second, inputs)
        yield first, random_subset(rng, program)

    profile = check(program, "compiled", cases, inputs)
    # the tree-walker is ~5x slower, so it runs once, not four times: it
    # must record the very same tree, which makes every price above its
    # price too (its in-run model is held to the compiled one's by
    # backend_equivalence in test_compiler, and to the pricer on every
    # kind of set by the generated and hand-written programs below)
    assert record(program, "tree", inputs) == profile
    # the profile's work is the serial cost: honouring directives
    # without a machine charges exactly what ignoring them does
    serial = make_interpreter(program, "compiled", machine=None,
                              honor_directives=False,
                              inputs=list(inputs)).run()
    assert profile.work == serial.cost


# ---------------------------------------------------------------------------
# a seeded batch of generated programs
# ---------------------------------------------------------------------------

FUZZ_SEEDS = tuple(range(7100, 7140))


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_pricing_matches_execution(seed):
    fuzz = generate(seed)
    rng = random.Random(seed)
    directives = 0
    for config in ("none", "annotation"):
        program = fuzz.program()
        parallelize_program(program, Config(config),
                            AnnotationRegistry.from_text(fuzz.annotations))
        directives += len(number_omp_sites(program))
        profiles = []
        for backend in BACKENDS:
            subsets = [random_subset(random.Random(seed + k), program)
                       for k in range(2)]

            def cases(profile):
                for machine in MACHINES:
                    yield machine, frozenset()
                    yield machine, tuned_set(program, profile, machine)
                    yield machine, subsets[rng.randrange(2)]

            profiles.append(check(program, backend, cases))
        assert profiles[0] == profiles[1]
    if directives == 0:
        pytest.skip("no loop of this program was parallelized")


def test_fuzz_batch_exercises_nesting_and_calls():
    """The batch above is only a test if its programs have regions
    inside regions — say so when the generator drifts."""
    nested = 0
    for seed in FUZZ_SEEDS:
        fuzz = generate(seed)
        program = fuzz.program()
        parallelize_program(program, Config("none"))
        profile = record(program, "compiled")
        nested += any(node.children for node in profile.roots)
    assert nested >= 5


# ---------------------------------------------------------------------------
# hand-written shapes
# ---------------------------------------------------------------------------

def source(*lines):
    return "".join(line + "\n" for line in lines)


OMP = "!$OMP PARALLEL DO DEFAULT(SHARED)"
END = "!$OMP END PARALLEL DO"

ZERO_TRIP = source(
    "      PROGRAM P",
    "      COMMON /D/ A(8), N",
    "      N = 0",
    OMP,
    "      DO 10 I = 1, N",
    "        A(I) = 1.0",
    "   10 CONTINUE",
    END,
    "      END")

#: the region in SUB runs nested when reached from MAIN's region and
#: top-level when reached from the plain call
THROUGH_CALL = source(
    "      PROGRAM P",
    "      COMMON /D/ A(6, 40)",
    OMP,
    "      DO 10 I = 1, 5",
    "        CALL SUB(I)",
    "   10 CONTINUE",
    END,
    "      CALL SUB(6)",
    "      END",
    "      SUBROUTINE SUB(K)",
    "      COMMON /D/ A(6, 40)",
    OMP,
    "      DO 20 J = 1, 40",
    "        A(K, J) = K + J*0.5",
    "   20 CONTINUE",
    END,
    "      END")

#: three levels: with the middle one disabled the innermost is priced
#: at the level of whatever encloses the middle one
THREE_DEEP = source(
    "      PROGRAM P",
    "      COMMON /D/ A(4, 3, 50)",
    OMP,
    "      DO 30 I = 1, 4",
    OMP,
    "        DO 20 J = 1, 3",
    OMP,
    "          DO 10 K = 1, 50",
    "            A(I, J, K) = I + J + K*0.25",
    "   10     CONTINUE",
    END,
    "   20   CONTINUE",
    END,
    "   30 CONTINUE",
    END,
    "      END")

#: the inner region completes twice, then STOP leaves the outer one
STOP_INSIDE = source(
    "      PROGRAM P",
    "      COMMON /D/ A(5, 30)",
    OMP,
    "      DO 20 I = 1, 5",
    OMP,
    "        DO 10 J = 1, 30",
    "          A(I, J) = I*J",
    "   10   CONTINUE",
    END,
    "        IF (I .EQ. 2) STOP 'EARLY'",
    "   20 CONTINUE",
    END,
    "      END")

#: GOTO 40 crosses both regions from the innermost; the completed inner
#: execution of I = 1 and the regions after label 40 are still priced
GOTO_OUT = source(
    "      PROGRAM P",
    "      COMMON /D/ A(5, 30), B(60)",
    OMP,
    "      DO 20 I = 1, 5",
    OMP,
    "        DO 10 J = 1, 30",
    "          A(I, J) = I*J",
    "          IF (I .EQ. 2 .AND. J .EQ. 7) GOTO 40",
    "   10   CONTINUE",
    END,
    "   20 CONTINUE",
    END,
    "   40 CONTINUE",
    OMP,
    "      DO 50 K = 1, 60",
    "        B(K) = K*2.0",
    "   50 CONTINUE",
    END,
    "      END")

#: GOTO 15 leaves only the inner region; the outer one goes on and is
#: priced with the abandoned inner iteration's work inside its own
GOTO_ONE_LEVEL = source(
    "      PROGRAM P",
    "      COMMON /D/ A(5, 30)",
    OMP,
    "      DO 20 I = 1, 5",
    OMP,
    "        DO 10 J = 1, 30",
    "          A(I, J) = I*J",
    "          IF (J .EQ. I + 3) GOTO 15",
    "   10   CONTINUE",
    END,
    "   15   CONTINUE",
    "   20 CONTINUE",
    END,
    "      END")

HAND = {"zero-trip": ZERO_TRIP, "through-call": THROUGH_CALL,
        "three-deep": THREE_DEEP, "stop-inside": STOP_INSIDE,
        "goto-out": GOTO_OUT, "goto-one-level": GOTO_ONE_LEVEL}


def all_subsets(program):
    sites = sorted(number_omp_sites(program).values())
    for mask in range(1 << len(sites)):
        yield frozenset(s for k, s in enumerate(sites) if mask >> k & 1)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(HAND))
def test_hand_written_shapes(name, backend):
    """Every subset of directives, both machines, both backends."""
    program = Program.from_source(HAND[name])
    assert backend_equivalence(program) is None

    def cases(profile):
        for machine in MACHINES:
            for disabled in all_subsets(program):
                yield machine, disabled

    check(program, backend, cases)


class TestRecordedTree:
    def profile(self, name):
        return record(Program.from_source(HAND[name]), "compiled")

    def test_zero_trip_region_still_pays_the_fork(self):
        profile = self.profile("zero-trip")
        (node,) = profile.roots
        assert list(node.costs) == [] and node.children == ()
        cost, stats = price(profile, INTEL_MAC)
        assert cost == profile.work + INTEL_MAC.fork_join_overhead
        assert stats == {("P", 0): (0.0, INTEL_MAC.fork_join_overhead)}

    def test_region_reached_through_a_call(self):
        profile = self.profile("through-call")
        outer, plain = profile.roots
        assert outer.site == ("P", 0) and plain.site == ("SUB", 0)
        assert [pos for pos, _ in outer.children] == [0, 1, 2, 3, 4]
        assert {kid.site for _, kid in outer.children} == {("SUB", 0)}
        # equal iteration-cost vectors are one object
        assert len({id(kid.costs) for _, kid in outer.children}) == 1

    def test_nested_region_under_a_disabled_parent(self):
        profile = self.profile("three-deep")
        machine = INTEL_MAC
        middle_off = frozenset({("P", 1)})
        _, stats = price(profile, machine, middle_off)
        assert ("P", 1) not in stats
        # 12 executions of the innermost region, still nested (the
        # outermost is on): a quarter fork each, no thread overhead
        serial, parallel = stats[("P", 2)]
        assert parallel - serial == 12 * machine.fork_join_overhead / 4
        # with both enclosing regions off it runs at top level: the
        # full fork and the threads' overhead, every time
        _, stats = price(profile, machine,
                         frozenset({("P", 0), ("P", 1)}))
        innermost = profile.roots[0].children[0][1].children[0][1]
        assert stats[("P", 2)] == (
            serial, 12 * machine.parallel_time(innermost.costs))

    def test_stop_leaves_an_open_node(self):
        profile = self.profile("stop-inside")
        (outer,) = profile.roots
        assert outer.costs is None
        assert [pos for pos, _ in outer.children] == [0, 1]
        _, stats = price(profile, AMD_OPTERON)
        assert set(stats) == {("P", 1)}  # the open region is never priced

    def test_goto_across_two_regions(self):
        profile = self.profile("goto-out")
        outer, after = profile.roots
        assert outer.costs is None and after.costs is not None
        (_, done), (_, left) = outer.children
        assert done.costs is not None and left.costs is None

    def test_profile_under_a_machine_is_not_priceable(self):
        program = Program.from_source(HAND["three-deep"])
        priced = make_interpreter(program, machine=INTEL_MAC,
                                  honor_directives=True).run().regions
        assert priced.machine is INTEL_MAC
        with pytest.raises(ValueError):
            price(priced, INTEL_MAC)

    def test_directives_ignored_records_nothing(self):
        program = Program.from_source(HAND["three-deep"])
        assert make_interpreter(program, machine=None,
                                honor_directives=False
                                ).run().regions is None


def test_pricing_is_exact_for_half_unit_overheads():
    """Any machine whose overheads are multiples of 0.5 prices exactly
    (the quarter fork of a nested region included)."""
    machine = MachineModel("odd", threads=3, fork_join_overhead=1234.0,
                           per_thread_overhead=37.5)
    program = Program.from_source(HAND["through-call"])
    for backend in BACKENDS:
        check(program, backend,
              lambda profile: ((machine, d) for d in all_subsets(program)))


def test_backend_equivalence_reports_region_divergence(monkeypatch):
    """The backends' trees are compared: a recorder that drops a
    region on one backend is a divergence."""
    from repro.runtime import compiler
    program = Program.from_source(HAND["through-call"])
    assert backend_equivalence(program) is None
    real = compiler.CompiledInterpreter._result

    def lossy(self, stop_message):
        outcome = real(self, stop_message)
        if outcome.regions is not None and outcome.regions.roots:
            outcome.regions = RegionProfile(outcome.regions.work,
                                            outcome.regions.roots[:-1],
                                            outcome.regions.machine)
        return outcome

    monkeypatch.setattr(compiler.CompiledInterpreter, "_result", lossy)
    divergence = backend_equivalence(program)
    assert divergence is not None and "region trees diverge" in divergence


# ---------------------------------------------------------------------------
# the leaf memo: a region with no regions inside is priced once per
# (cost vector, nesting level) — against the pricer that prices each
# ---------------------------------------------------------------------------

def price_each(profile, machine, disabled=frozenset()):
    """``price`` pricing every region execution on its own."""
    stats = {}

    def delta(node, nested):
        active = node.site not in disabled
        if node.costs is None or not active:
            inner = nested or active
            return sum(delta(kid, inner) for _pos, kid in node.children)
        costs = list(node.costs)
        base = serial = sum(costs)
        for pos, kid in node.children:
            inner = delta(kid, True)
            costs[pos] += inner
            serial += inner
        parallel = machine.parallel_time(costs, nested)
        stat = stats.setdefault(node.site, [0.0, 0.0])
        stat[0] += serial
        stat[1] += parallel
        return parallel - base

    cost = profile.work + sum(delta(node, False) for node in profile.roots)
    return cost, {site: tuple(stat) for site, stat in stats.items()}


#: interned the way the recorder interns: one object per distinct vector
_VECTORS = (array("d", [164.5] * 80), array("d", [7.0] * 6), array("d"),
            array("d", [12.0, 3.5, 40.0, 0.5, 9.0]), array("d", [1e6] * 3))
_SITES = (("P", 0), ("P", 1), ("SUB", 0))


@st.composite
def _region_nodes(draw, depth=0):
    site = draw(st.sampled_from(_SITES))
    costs = draw(st.sampled_from(_VECTORS + (None,)))
    kids = ()
    if depth < 3 and (costs is None or len(costs)):
        kids = tuple(
            (draw(st.integers(0, max(len(costs or ()) - 1, 0))), kid)
            for kid in draw(st.lists(_region_nodes(depth=depth + 1),
                                     max_size=3)))
    return RegionNode(site, costs, tuple(sorted(kids, key=lambda k: k[0])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roots=st.lists(_region_nodes(), min_size=1, max_size=4),
       disabled=st.sets(st.sampled_from(_SITES)),
       machine=st.sampled_from(MACHINES))
def test_leaf_memo_prices_what_pricing_each_region_does(roots, disabled,
                                                        machine):
    """Any tree over a few shared vectors — the same vector under two
    sites, at two nesting levels, with and without regions inside, under
    disabled and abandoned parents — prices exactly as region by region."""
    profile = RegionProfile(1e7, tuple(roots))
    assert price(profile, machine, frozenset(disabled)) == \
        price_each(profile, machine, frozenset(disabled))


def test_leaf_memo_on_recorded_trees():
    """... and so do the recorded trees: the hand-written shapes on every
    subset, and SPEC77, whose 1 585 leaf executions are three vectors."""
    from repro.perfect import get_benchmark
    programs = [Program.from_source(src) for src in HAND.values()]
    bench = get_benchmark("SPEC77")
    spec77 = run_config(bench, Config("annotation")).program
    for program, inputs in [(p, ()) for p in programs] + [(spec77,
                                                           bench.inputs)]:
        profile = record(program, "compiled", inputs)
        subsets = list(all_subsets(program))
        for machine in MACHINES:
            for disabled in subsets[:16]:
                assert price(profile, machine, disabled) == \
                    price_each(profile, machine, disabled)
