"""Profiling substrate tests: comm profile, call graphs, call stacks."""

import pickle

import pytest

from repro.apps import make_app
from repro.profiling import (
    CallGraph,
    CommProfiler,
    average_depth,
    build_callgraph,
    callgraph_signature,
    distinct_stacks,
    encode_phase,
    frame_function,
    graph_similarity,
    graphs_equivalent,
    group_by_stack,
    phase_indicator,
    profile_application,
    stack_digest,
    stack_histogram,
)
from repro.pruning import select_semantic
from repro.simmpi import run_app


def two_site_app(ctx):
    s = ctx.alloc(1, ctx.DOUBLE)
    r = ctx.alloc(1, ctx.DOUBLE)
    ctx.set_phase("input")
    yield from ctx.Bcast(s.addr, 1, ctx.DOUBLE, 0, ctx.WORLD)
    ctx.set_phase("compute")
    for _ in range(3):
        yield from ctx.Allreduce(s.addr, r.addr, 1, ctx.DOUBLE, ctx.SUM, ctx.WORLD)
    return 0


class TestCommProfiler:
    @pytest.fixture(scope="class")
    def profile(self):
        prof = CommProfiler()
        run_app(two_site_app, 3, instruments=[prof])
        return prof.profile

    def test_collective_mix(self, profile):
        assert profile.collective_mix() == {"Bcast": 3, "Allreduce": 9}

    def test_site_keys(self, profile):
        keys = profile.site_keys()
        assert len(keys) == 2
        assert {k[0] for k in keys} == {"Bcast", "Allreduce"}

    def test_invocation_counts(self, profile):
        (allreduce_key,) = [k for k in profile.site_keys() if k[0] == "Allreduce"]
        assert profile.n_invocations(0, allreduce_key) == 3

    def test_comm_group_and_root_resolved(self, profile):
        bcasts = [c for c in profile.calls if c.name == "Bcast"]
        assert all(c.comm_group == (0, 1, 2) for c in bcasts)
        assert all(c.root_world == 0 for c in bcasts)

    def test_phases_recorded(self, profile):
        assert {c.phase for c in profile.calls} == {"input", "compute"}

    def test_collective_sequence_identical_across_ranks(self, profile):
        seqs = {profile.collective_sequence(r) for r in range(3)}
        assert len(seqs) == 1


class TestCallgraph:
    def test_build_and_equivalence(self):
        stacks = [("main@a.py:1", "solve@a.py:9", "reduce@a.py:20")] * 3
        g1 = build_callgraph(stacks)
        g2 = build_callgraph(stacks)
        assert graphs_equivalent(g1, g2)
        assert g1.edges[("main@a.py", "solve@a.py")] == 3
        assert g1.nodes == {"main@a.py": 0, "solve@a.py": 0, "reduce@a.py": 3}

    def test_count_difference_breaks_equivalence(self):
        s = ("main@a.py:1", "f@a.py:2")
        assert not graphs_equivalent(build_callgraph([s]), build_callgraph([s, s]))

    def test_similarity_bounds(self):
        a = build_callgraph([("m@x:1", "f@x:2")])
        b = build_callgraph([("m@x:1", "g@x:3")])
        assert graph_similarity(a, a) == 1.0
        assert graph_similarity(a, b) == 0.0
        assert graphs_equivalent(CallGraph(), CallGraph())

    def test_frame_function_strips_lineno(self):
        assert frame_function("solve@a.py:123") == "solve@a.py"

    def test_signature_is_hashable(self):
        sig = callgraph_signature(build_callgraph([("m@x:1", "f@x:2")]))
        hash(sig)


#: Per-app pins captured from the ``networkx.DiGraph`` build this module
#: replaced: every rank's ``callgraph_signature`` (all ranks share one
#: call graph in both kernels), the semantic selection that keys on it,
#: and ``len(pickle.dumps(profile))`` with the graphs riding in it.
PARITY = {
    "lu": dict(
        signature=(
            (("check_norms@lu_kernel.py", 9), ("main@lu_kernel.py", 5)),
            (("main@lu_kernel.py", "check_norms@lu_kernel.py", 9),),
        ),
        classes=[[0], [1, 2], [3]],
        selected={
            ("Allreduce", "lu_kernel.py:173"): (0, 1, 3),
            ("Allreduce", "lu_kernel.py:46"): (0, 1, 3),
            ("Barrier", "lu_kernel.py:107"): (0, 1, 3),
            ("Barrier", "lu_kernel.py:164"): (0, 1, 3),
            ("Barrier", "lu_kernel.py:174"): (0, 1, 3),
            ("Bcast", "lu_kernel.py:85"): (0, 1, 3),
        },
        digraph_pickle_bytes=15505,
    ),
    "is": dict(
        signature=(
            (
                ("check_config@is_kernel.py", 1),
                ("check_conservation@is_kernel.py", 3),
                ("main@is_kernel.py", 6),
            ),
            (
                ("main@is_kernel.py", "check_config@is_kernel.py", 1),
                ("main@is_kernel.py", "check_conservation@is_kernel.py", 3),
            ),
        ),
        classes=[[0, 1, 2, 3]],
        selected={
            ("Allgather", "is_kernel.py:156"): (0,),
            ("Allreduce", "is_kernel.py:48"): (0,),
            ("Allreduce", "is_kernel.py:62"): (0,),
            ("Alltoall", "is_kernel.py:112"): (0,),
            ("Alltoallv", "is_kernel.py:123"): (0,),
            ("Bcast", "is_kernel.py:78"): (0, 1),
        },
        digraph_pickle_bytes=8629,
    ),
}


@pytest.mark.parametrize("app_name", sorted(PARITY))
def test_callgraph_parity_with_networkx_build(app_name):
    pin = PARITY[app_name]
    profile = profile_application(make_app(app_name, "T"))
    assert profile.nranks == 4
    for rank in range(profile.nranks):
        assert callgraph_signature(profile.callgraphs[rank]) == pin["signature"]
    selection = select_semantic(profile)
    assert selection.classes == pin["classes"]
    assert selection.selected_ranks == pin["selected"]
    assert len(pickle.dumps(profile)) < pin["digraph_pickle_bytes"]


class TestCallstack:
    def test_group_by_stack(self):
        s1 = ("m@x:1", "f@x:2")
        s2 = ("m@x:1", "g@x:3")
        groups = group_by_stack([(0, s1), (1, s2), (2, s1)])
        assert groups[s1] == [0, 2]
        assert groups[s2] == [1]

    def test_distinct_and_depth(self):
        stacks = [("a@x:1",), ("a@x:1", "b@x:2"), ("a@x:1",)]
        assert distinct_stacks(stacks) == 2
        assert average_depth(stacks) == pytest.approx(4 / 3)
        assert average_depth([]) == 0.0

    def test_digest_stable_and_distinct(self):
        s1 = ("m@x:1", "f@x:2")
        s2 = ("m@x:1", "f@x:3")
        assert stack_digest(s1) == stack_digest(s1)
        assert stack_digest(s1) != stack_digest(s2)

    def test_histogram(self):
        s = ("m@x:1",)
        assert stack_histogram([s, s])[s] == 2


class TestPhases:
    def test_encode_order(self):
        assert encode_phase("input") < encode_phase("init") < encode_phase("compute") < encode_phase("end")

    def test_unknown_phase_maps_last(self):
        assert encode_phase("whatever") == 4

    def test_indicator(self):
        ind = phase_indicator("init")
        assert ind == {"input": 0, "init": 1, "compute": 0, "end": 0}


class TestProfileApplication:
    def test_profile_of_lu(self, lu_app, lu_profile):
        assert lu_profile.app_name == "lu"
        assert lu_profile.nranks == lu_app.nranks
        assert lu_profile.total_injection_points() > 0
        assert lu_profile.golden_steps > 0
        assert len(lu_profile.golden_results) == lu_app.nranks

    def test_summaries_consistent_with_comm_profile(self, lu_profile):
        for (rank, key), s in lu_profile.summaries.items():
            assert s.n_invocations == lu_profile.comm.n_invocations(rank, key)
            assert s.n_diff_stacks <= s.n_invocations

    def test_callgraphs_per_rank(self, lu_profile):
        assert set(lu_profile.callgraphs) == set(range(lu_profile.nranks))

    def test_sites_of_rank_sorted(self, lu_profile):
        sites = lu_profile.sites_of_rank(0)
        keys = [s.site_key for s in sites]
        assert keys == sorted(keys)
