"""Property tests for the dataflow framework, plus the port-fidelity
check: the rules rebuilt on dataflow facts must agree finding-for-
finding with the pre-port analyzer on every kernel of every suite
(the committed ``data/preport_findings.json`` fixture)."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.staticanalysis.dataflow import (
    MUST_DEFINED_LATTICE,
    FixpointError,
    solve_forward,
)
from repro.suites import all_suites

FIXTURE = Path(__file__).parent / "data" / "preport_findings.json"
#: The rule set the fixture was recorded with (pre-divergence).
PREPORT_RULES = (
    "STRUCT001", "BND002", "RACE001", "VEC003", "INIT004", "RED005",
    "OPT010",
)


# -- lattice law strategies -------------------------------------------------

defsets = st.one_of(
    st.none(),
    st.frozensets(
        st.tuples(st.sampled_from("abc"), st.tuples(st.sampled_from("ijk"))),
        max_size=4,
    ),
)

#: Two distinct must-defined values (the empty set is the top).
DEF_A = frozenset({("a", ("i",))})
DEF_B = frozenset({("b", ("j",))})

LATTICES = {
    "must-defined": (MUST_DEFINED_LATTICE, defsets),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lattice_laws(name):
    """Join is commutative, associative, idempotent; bottom is neutral;
    join is monotone in both arguments (the property fixpoint
    termination rests on)."""
    lattice, elements = LATTICES[name]

    @settings(max_examples=200, deadline=None)
    @given(a=elements, b=elements, c=elements)
    def laws(a, b, c):
        join = lattice.join
        assert join(a, b) == join(b, a)
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert join(a, a) == a
        assert join(a, lattice.bottom()) == a
        # a <= a v b and b <= a v b (join is an upper bound) ...
        ab = join(a, b)
        assert lattice.leq(a, ab) and lattice.leq(b, ab)
        # ... and monotone: a <= a v c implies (a v b) <= (a v c) v b.
        assert lattice.leq(ab, join(join(a, c), b))

    laws()


# -- fixpoint solver --------------------------------------------------------

@st.composite
def graphs(draw):
    """A small graph (cycles allowed) with a monotone constant-join
    transfer over the must-defined lattice."""
    n = draw(st.integers(1, 8))
    nodes = list(range(n))
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=2 * n,
        )
    )
    consts = draw(st.lists(defsets, min_size=n, max_size=n))
    return nodes, edges, consts


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_fixpoint_terminates_and_is_a_fixpoint(graph):
    """On any graph — cyclic included — a monotone transfer reaches a
    least fixpoint within the visit budget, and the result actually
    satisfies the dataflow equations."""
    nodes, edges, consts = graph
    succs = {n: tuple(t for s, t in edges if s == n) for n in nodes}
    preds = {n: [s for s, t in edges if t == n] for n in nodes}

    lattice = MUST_DEFINED_LATTICE

    def transfer(n, value):
        return lattice.join(value, consts[n])

    result = solve_forward(nodes, lambda n: succs[n], transfer, lattice)
    for n in nodes:
        expect_in = lattice.bottom()
        for p in preds[n]:
            expect_in = lattice.join(expect_in, result.out_values[p])
        assert result.in_values[n] == expect_in
        assert result.out_values[n] == transfer(n, result.in_values[n])
        # Least fixpoint: no node exceeds the join of reachable consts.
        assert lattice.leq(consts[n], result.out_values[n])


def test_non_monotone_transfer_raises():
    """An oscillating transfer must exhaust the visit budget loudly
    instead of spinning forever."""
    def transfer(n, value):
        # Never maps its own output back to itself: the self-loop
        # below oscillates DEF_A <-> DEF_B forever.
        if value == DEF_A:
            return DEF_B
        return DEF_A

    with pytest.raises(FixpointError):
        solve_forward(
            [0],
            lambda n: (0,),  # self-loop
            transfer,
            MUST_DEFINED_LATTICE,
            max_visits=64,
        )


def test_boundary_values_enter_the_solution():
    boundary = {0: DEF_A}
    result = solve_forward(
        [0, 1],
        lambda n: (1,) if n == 0 else (),
        lambda n, v: v,
        MUST_DEFINED_LATTICE,
        boundary=boundary,
    )
    assert result.out_values[1] == DEF_A


# -- port fidelity ----------------------------------------------------------

def test_ported_rules_agree_with_preport_fixture_on_every_kernel():
    """The dataflow-ported rules reproduce the pre-port analyzer's
    findings byte-for-byte on all suite kernels.  Regenerating the
    fixture to make this pass defeats its purpose — a diff here means
    the port changed behavior."""
    from repro.staticanalysis import AnalysisContext, analyze_kernel, select_rules

    fixture = json.loads(FIXTURE.read_text())
    rules = select_rules(PREPORT_RULES)
    ctx = AnalysisContext()
    seen = set()
    mismatches = []
    for suite in all_suites():
        for bench in suite.benchmarks:
            for kernel in bench.kernels():
                key = f"{bench.full_name}:{kernel.name}"
                if key in seen:
                    continue
                seen.add(key)
                got = [
                    d.to_dict()
                    for d in analyze_kernel(kernel, rules=rules, ctx=ctx)
                ]
                if got != fixture.get(key, []):
                    mismatches.append(key)
    assert not mismatches, f"port drift on {mismatches}"
    assert seen == set(fixture), "kernel population drifted from fixture"
