"""Property-based tests for the task graph."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.execreq import ExecReq
from repro.core.task import DataIn, DataOut, Task
from repro.core.taskgraph import DependencyError, TaskGraph
from repro.hardware.taxonomy import PEClass


@st.composite
def random_dags(draw):
    """Random DAG: edges only from lower to higher TaskID (acyclic by
    construction)."""
    n = draw(st.integers(min_value=1, max_value=14))
    tasks = []
    for task_id in range(n):
        predecessors = draw(
            st.sets(st.integers(min_value=0, max_value=max(0, task_id - 1)), max_size=4)
        ) if task_id else set()
        data_in = tuple(DataIn(p, 0, 8) for p in sorted(predecessors))
        tasks.append(
            Task(
                task_id=task_id,
                data_in=data_in,
                data_out=(DataOut(0, 8),),
                exec_req=ExecReq(node_type=PEClass.GPP),
                t_estimated=float(draw(st.integers(min_value=1, max_value=5))),
            )
        )
    return TaskGraph(tasks)


@settings(max_examples=60, deadline=None)
@given(graph=random_dags())
def test_topological_order_respects_edges(graph):
    order = graph.topological_order()
    assert sorted(order) == sorted(graph.tasks)
    position = {t: i for i, t in enumerate(order)}
    for task_id in graph.tasks:
        for pred in graph.predecessors(task_id):
            assert position[pred] < position[task_id]


@settings(max_examples=60, deadline=None)
@given(graph=random_dags())
def test_simulated_frontier_execution_terminates(graph):
    """Repeatedly executing the ready frontier completes every task in
    at most len(generations) rounds, and the frontier is never empty
    while work remains."""
    completed: set[int] = set()
    rounds = 0
    while len(completed) < len(graph):
        ready = graph.ready_tasks(completed)
        assert ready, "deadlock: no ready task but work remains"
        completed |= ready
        rounds += 1
    assert rounds == len(graph.generations())


@settings(max_examples=60, deadline=None)
@given(graph=random_dags())
def test_generations_partition_tasks(graph):
    gens = graph.generations()
    flat = [t for gen in gens for t in gen]
    assert sorted(flat) == sorted(graph.tasks)
    level = {t: i for i, gen in enumerate(gens) for t in gen}
    for task_id in graph.tasks:
        for pred in graph.predecessors(task_id):
            assert level[pred] < level[task_id]


@settings(max_examples=60, deadline=None)
@given(graph=random_dags())
def test_critical_path_bounds(graph):
    path, length = graph.critical_path()
    # The critical path is a real path.
    for a, b in zip(path, path[1:]):
        assert b in graph.successors(a)
    # Its length bounds: at least the longest single task, at most the
    # serial total.
    longest_task = max(t.t_estimated for t in graph.tasks.values())
    assert length >= longest_task - 1e-9
    assert length <= graph.total_work() + 1e-9
    # And it equals the sum of its tasks' estimates.
    assert abs(sum(graph.task(t).t_estimated for t in path) - length) < 1e-9


@settings(max_examples=60, deadline=None)
@given(graph=random_dags())
def test_entry_exit_consistency(graph):
    entries = graph.entry_tasks()
    exits = graph.exit_tasks()
    assert entries and exits
    for t in entries:
        assert not graph.predecessors(t)
    for t in exits:
        assert not graph.successors(t)


def _task(task_id: int, producers) -> Task:
    return Task(
        task_id=task_id,
        data_in=tuple(DataIn(p, 0, 8) for p in producers),
        data_out=(DataOut(0, 8),),
        exec_req=ExecReq(node_type=PEClass.GPP),
        t_estimated=1.0,
    )


@st.composite
def shuffled_dags(draw):
    """A random DAG over scattered TaskIDs, its tasks handed over in a
    random order (so neither TaskID nor list order is topological),
    with the equivalent networkx graph."""
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=16, unique=True))
    rank = draw(st.permutations(ids))  # edges only go up this ranking
    oracle = nx.DiGraph()
    oracle.add_nodes_from(ids)
    tasks = []
    for i, task_id in enumerate(rank):
        producers = draw(st.lists(st.sampled_from(rank[:i]), max_size=4)) if i else []
        oracle.add_edges_from((p, task_id) for p in producers)
        tasks.append(_task(task_id, producers))
    return draw(st.permutations(tasks)), oracle


@settings(max_examples=150, deadline=None)
@given(case=shuffled_dags())
def test_orders_match_networkx(case):
    tasks, oracle = case
    graph = TaskGraph(tasks)
    assert graph.topological_order() == list(nx.lexicographical_topological_sort(oracle))
    assert graph.generations() == [sorted(g) for g in nx.topological_generations(oracle)]
    for task_id in oracle:
        assert graph.predecessors(task_id) == set(oracle.predecessors(task_id))
        assert graph.successors(task_id) == set(oracle.successors(task_id))


@settings(max_examples=150, deadline=None)
@given(case=shuffled_dags(), data=st.data())
def test_a_cycle_is_rejected_and_named(case, data):
    """Closing a random cycle in a DAG raises, and every edge of the
    cycle the message names is a real dependency."""
    tasks, oracle = case
    cycle = data.draw(
        st.lists(st.sampled_from(sorted(oracle)), min_size=1, max_size=5, unique=True)
    )
    closing = list(zip(cycle, cycle[1:] + cycle[:1]))  # producer -> consumer
    oracle.add_edges_from(closing)
    extra = {consumer: producer for producer, consumer in closing}
    tasks = [
        _task(t.task_id, [d.source_task_id for d in t.data_in] + [extra[t.task_id]])
        if t.task_id in extra
        else t
        for t in tasks
    ]
    with pytest.raises(DependencyError, match="dependency cycle: ") as info:
        TaskGraph(tasks)
    named = [int(name[1:]) for name in str(info.value).split(": ")[1].split(" -> ")]
    assert len(named) >= 2 and named[0] == named[-1]
    assert len(set(named)) == len(named) - 1
    for producer, consumer in zip(named, named[1:]):
        assert oracle.has_edge(producer, consumer)
