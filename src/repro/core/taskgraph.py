"""The application task graph (Figure 7).

"The data dependencies among different tasks are represented by an
application task graph in Figure 7.  From [the] example, it can be
noticed that inputs to T8 are the outputs of tasks T0, T2, and T5.
Similarly, DataIN(T11) -> DataOUT(T7, T9, T13), DataIN(T13) ->
DataOUT(T7, T8), and DataIN(T17) -> DataOUT(T7, T13)." (Section IV-B)

:class:`TaskGraph` keeps successor and predecessor maps whose edges
point producer -> consumer, derives them from each task's ``Data_in``
descriptors, and offers the queries a scheduler needs: readiness,
topological generations, and the critical path under
:math:`t_{estimated}` weights.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from repro.core.task import EXTERNAL_SOURCE, Task


class DependencyError(ValueError):
    """The task set does not form a valid DAG (cycle, dangling source,
    duplicate TaskID)."""


class TaskGraph:
    """A DAG of tasks connected by data dependencies."""

    def __init__(self, tasks: Iterable[Task]):
        self.tasks: dict[int, Task] = {}
        for task in tasks:
            if task.task_id in self.tasks:
                raise DependencyError(f"duplicate TaskID {task.task_id}")
            self.tasks[task.task_id] = task

        #: producer -> {consumer: bytes} and consumer -> {producer: bytes},
        #: in Data_in order; a producer read twice keeps its first place
        #: and its last size.
        self._succ: dict[int, dict[int, int]] = {t: {} for t in self.tasks}
        self._pred: dict[int, dict[int, int]] = {t: {} for t in self.tasks}
        for task in self.tasks.values():
            for dep in task.data_in:
                if dep.source_task_id == EXTERNAL_SOURCE:
                    continue
                if dep.source_task_id not in self.tasks:
                    raise DependencyError(
                        f"task T{task.task_id} consumes data from unknown "
                        f"task T{dep.source_task_id}"
                    )
                self._succ[dep.source_task_id][task.task_id] = dep.size_bytes
                self._pred[task.task_id][dep.source_task_id] = dep.size_bytes
        self._order, self._level = self._kahn()

    def _kahn(self) -> tuple[list[int], dict[int, int]]:
        """Lexicographic topological order and each task's generation
        (its longest chain from an entry task), in one heap-based Kahn
        pass; raises :class:`DependencyError` naming a cycle."""
        indegree = {t: len(preds) for t, preds in self._pred.items()}
        ready = [t for t, n in indegree.items() if n == 0]
        heapq.heapify(ready)
        order: list[int] = []
        level: dict[int, int] = {}
        while ready:
            task_id = heapq.heappop(ready)
            order.append(task_id)
            level[task_id] = max(
                (level[p] + 1 for p in self._pred[task_id]), default=0
            )
            for succ in self._succ[task_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) < len(self.tasks):
            # Every task Kahn left has a producer it also left, so walking
            # producers from any of them must close a cycle.
            walk: dict[int, int] = {}
            task_id = min(t for t in self.tasks if t not in level)
            while task_id not in walk:
                walk[task_id] = len(walk)
                task_id = min(p for p in self._pred[task_id] if p not in level)
            cycle = list(walk)[walk[task_id] :][::-1]
            first = cycle.index(min(cycle))
            cycle = cycle[first:] + cycle[:first]
            pretty = " -> ".join(f"T{t}" for t in cycle) + f" -> T{cycle[0]}"
            raise DependencyError(f"dependency cycle: {pretty}")
        return order, level

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self.tasks

    def task(self, task_id: int) -> Task:
        try:
            return self.tasks[task_id]
        except KeyError:
            raise KeyError(f"no task T{task_id} in graph") from None

    def predecessors(self, task_id: int) -> set[int]:
        """Tasks whose outputs this task consumes."""
        return set(self._pred[task_id])

    def successors(self, task_id: int) -> set[int]:
        return set(self._succ[task_id])

    def entry_tasks(self) -> set[int]:
        """Tasks with no in-graph producers (primary inputs only)."""
        return {t for t, preds in self._pred.items() if not preds}

    def exit_tasks(self) -> set[int]:
        return {t for t, succs in self._succ.items() if not succs}

    def ready_tasks(self, completed: set[int]) -> set[int]:
        """Tasks whose every predecessor is in *completed* and which are
        not themselves completed — the scheduler's dispatch frontier.
        """
        return {
            t
            for t in self.tasks
            if t not in completed and self.predecessors(t) <= completed
        }

    def topological_order(self) -> list[int]:
        """One valid execution order (deterministic: ties by TaskID)."""
        return list(self._order)

    def generations(self) -> list[list[int]]:
        """Antichains of tasks executable concurrently, in phase order.

        Generation *g* contains the tasks whose longest dependency chain
        from any entry task has length *g*; all tasks in one generation
        may run in parallel given enough PEs.
        """
        gens: list[list[int]] = [[] for _ in set(self._level.values())]
        for task_id in sorted(self._level):
            gens[self._level[task_id]].append(task_id)
        return gens

    def critical_path(self) -> tuple[list[int], float]:
        """Longest path weighted by ``t_estimated`` — the makespan lower
        bound with unlimited PEs and free communication.
        """
        if not self.tasks:
            return [], 0.0
        dist: dict[int, float] = {}
        via: dict[int, int | None] = {}
        for task_id in self.topological_order():
            task = self.tasks[task_id]
            best_pred, best = None, 0.0
            for pred in self.predecessors(task_id):
                if dist[pred] > best:
                    best, best_pred = dist[pred], pred
            dist[task_id] = best + task.t_estimated
            via[task_id] = best_pred
        end = max(dist, key=lambda t: dist[t])
        path = [end]
        while via[path[-1]] is not None:
            path.append(via[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path, dist[end]

    def transfer_bytes(self, producer: int, consumer: int) -> int:
        """Bytes flowing along one dependency edge."""
        try:
            return self._succ[producer][consumer]
        except KeyError:
            raise KeyError(f"no edge T{producer} -> T{consumer}") from None

    def total_work(self) -> float:
        """Sum of all t_estimated — serial-execution makespan."""
        return sum(t.t_estimated for t in self.tasks.values())


#: The dependency edges the paper states explicitly for Figure 7,
#: as (consumer, producers) pairs.
FIGURE7_EDGES: dict[int, tuple[int, ...]] = {
    8: (0, 2, 5),
    11: (7, 9, 13),
    13: (7, 8),
    17: (7, 13),
}


def figure7_graph(*, t_estimated: float = 1.0, data_bytes: int = 1 << 20) -> TaskGraph:
    """Construct the Figure 7 example graph: tasks T0..T17 with the
    dependencies the paper enumerates (other tasks are independent).

    Every task gets a GPP-class placeholder ExecReq; benchmarks override
    estimates as needed.
    """
    from repro.core.execreq import ExecReq
    from repro.core.task import DataIn, DataOut
    from repro.hardware.taxonomy import PEClass

    tasks = []
    for task_id in range(18):
        producers = FIGURE7_EDGES.get(task_id, ())
        data_in = tuple(
            DataIn(source_task_id=p, data_id=0, size_bytes=data_bytes) for p in producers
        )
        tasks.append(
            Task(
                task_id=task_id,
                data_in=data_in,
                data_out=(DataOut(data_id=0, size_bytes=data_bytes),),
                exec_req=ExecReq(node_type=PEClass.GPP),
                t_estimated=t_estimated,
            )
        )
    return TaskGraph(tasks)
