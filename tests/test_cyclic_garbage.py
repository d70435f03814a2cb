"""Request paths leave no cyclic garbage.

An object in a reference cycle is not freed when its last reference goes:
it waits for Python's cyclic collector, whose passes then cost time in
proportion to everything alive.  Before this guard, every request left
its query graph (and a cold DWT compile its whole dynamic-programming
working set) in such cycles, and the collector took 16-26% of the time of
the serving workloads.  So every request path must free what it allocates
by reference count alone.

Each check runs one path twice: a warm-up pass fills the process-wide
memos a first call fills (lazy imports, class-level tables), then a second
pass runs with ``gc.DEBUG_SAVEALL`` set, which keeps whatever a collection
finds unreachable in ``gc.garbage`` instead of freeing it.  That list must
be empty.  Every object of the second pass is built afresh (parsed query
text, unpickled instances, new solvers and plans), so plans, tapes and
sessions are checked along with the requests; long-lived service state
(a :class:`QueryService`, a :class:`WorkerState`) lives across both passes.

The routes are drawn from seeded workloads: ``REPRO_FUZZ_SEED`` overrides
the seed.  The checks need nothing beyond the standard library.
"""

from __future__ import annotations

import collections
import gc
import os
import pickle
import random
import warnings
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import pytest

from repro.approx import ApproxParams
from repro.core.solver import PHomSolver
from repro.exceptions import ClassConstraintError
from repro.graphs.builders import one_way_path
from repro.graphs.classes import GraphClass
from repro.plan import ComponentPlan, ConstantPlan, FallbackPlan
from repro.query import explain_query, format_query
from repro.service import QueryService, ServiceRequest
from repro.service.worker import WorkerState, handle_message
from repro.workloads.generators import intractable_workload, workload_for_cell

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))

#: Tractable routes, each pinned by its method name: (method, query class,
#: instance class, labeled, solver keywords).  graded-collapse needs
#: ``minimize_queries=False``, or the query collapses to its height path.
TRACTABLE_ROUTES = [
    ("labeled-dwt", GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, {}),
    ("connected-2wp", GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True, {}),
    (
        "graded-collapse", GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE,
        False, {"minimize_queries": False},
    ),
    ("polytree-dp", GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False, {}),
    (
        "polytree-automaton", GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE,
        False, {"prefer": "automaton"},
    ),
]

#: What a route's passes start from: query text, pickled instance, solver
#: keywords.  Each pass parses and unpickles them afresh.
Route = Tuple[str, bytes, Dict[str, object]]


def cyclic_garbage(exercise: Callable[[], None]) -> List[str]:
    """What the collector finds unreachable after a second run of ``exercise``.

    Returns one ``type name x count`` line per kind of object (functions by
    qualified name, cells by their content's type), most frequent first;
    empty when reference counting freed everything.  The collector's debug
    flags and the entries ``gc.garbage`` held before are restored.
    """
    exercise()
    flags = gc.get_debug()
    gc.collect()
    kept = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        exercise()
        gc.collect()
        found = gc.garbage[kept:]
        del gc.garbage[kept:]
    finally:
        gc.set_debug(flags)
    kinds = collections.Counter(_kind(item) for item in found)
    return [f"{kind} x {count}" for kind, count in kinds.most_common()]


def _kind(item: object) -> str:
    if type(item).__name__ == "function":
        return f"function {item.__qualname__}"
    if type(item).__name__ == "cell":
        try:
            return f"cell -> {type(item.cell_contents).__name__}"
        except ValueError:
            return "empty cell"
    return type(item).__name__


def tractable_route(index: int) -> Route:
    """A seeded workload the solver answers by ``TRACTABLE_ROUTES[index]``."""
    method, query_class, instance_class, labeled, solver_kwargs = TRACTABLE_ROUTES[index]
    rng = random.Random(SEED + index)
    for _ in range(200):
        workload = workload_for_cell(
            query_class, instance_class, labeled,
            query_size=rng.randint(2, 5), instance_size=rng.randint(4, 12), rng=rng,
        )
        text = format_query(workload.query)
        plan = PHomSolver(**solver_kwargs).compile(text, workload.instance)
        if plan.method == method and isinstance(plan, ComponentPlan):
            return text, pickle.dumps(workload.instance), solver_kwargs
    raise AssertionError(f"no {method} plan in 200 draws")


def constant_route() -> Route:
    """A query whose label the instance lacks: a constant-0 plan."""
    workload = workload_for_cell(
        GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True,
        query_size=2, instance_size=6, rng=random.Random(SEED),
    )
    text = format_query(one_way_path(["Z"], prefix="q"))
    return text, pickle.dumps(workload.instance), {}


def hard_route() -> Route:
    """The #P-hard ``R·S`` query on a layered instance: brute force or Karp–Luby."""
    workload = intractable_workload(6, random.Random(SEED))
    return format_query(workload.query), pickle.dumps(workload.instance), {}


def some_edge(instance):
    """An uncertain edge of ``instance`` and a new probability for it."""
    edge = instance.uncertain_edges()[0]
    return edge, Fraction(3, 7)


def exercise_tractable(route: Route) -> None:
    """Every plan path of a tractable (or constant) route, on fresh objects."""
    text, snapshot, solver_kwargs = route
    instance = pickle.loads(snapshot)
    edge, probability = some_edge(instance)
    solver = PHomSolver(**solver_kwargs)
    # First solve compiles a tape-less plan and answers directly; the
    # second reuses it and lowers it; approx keeps the tractable route.
    for precision in ("exact", "float", "approx"):
        solver.solve(text, instance, precision=precision)
    solver.solve_many([text, text], instance)
    solver.evaluate_many(text, instance, [None, {edge: probability}], precision="float")

    plan = PHomSolver(plan_cache_size=0, **solver_kwargs).compile(text, instance)
    assert isinstance(plan, (ComponentPlan, ConstantPlan)) and not plan.has_tape()
    plan.evaluate()  # direct: the kernels once, no tape
    assert not plan.has_tape()
    plan.evaluate()  # bind: lower the plan, bind the exact session
    instance.set_probability(edge, probability)
    plan.evaluate()  # catch-up from the instance's change log
    plan.evaluate(precision="float")  # bind the float session
    plan.evaluate({edge: Fraction(1, 5)})  # replay of one override lane
    assert set(plan._live_sessions) == {"exact", "float"}

    plan.update(edge, Fraction(2, 9))
    plan.update(edge, Fraction(4, 9), precision="float")
    lanes = [None, {edge: Fraction(1, 3)}, {edge: Fraction(1, 3)}, {}]
    for precision in ("exact", "float"):
        plan.evaluate_many(lanes, precision=precision)
    explain_query(text, plan.instance_class)


def exercise_hard(route: Route) -> None:
    """The #P-hard cell: brute force, Karp–Luby and the fallback plan."""
    text, snapshot, solver_kwargs = route
    instance = pickle.loads(snapshot)
    solver = PHomSolver(epsilon=0.3, delta=0.2, seed=1, **solver_kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for precision in ("exact", "float", "approx"):
            solver.solve(text, instance, precision=precision)
        solver.solve(text, instance, method="karp-luby")
        plan = PHomSolver(plan_cache_size=0).compile(text, instance)
        assert isinstance(plan, FallbackPlan)
        plan.evaluate()
        plan.evaluate(precision="float")
        plan.estimate(params=ApproxParams(epsilon=0.3, delta=0.2, seed=1))
    explain_query(text, plan.instance_class)


def exercise_explicit_methods(route: Route) -> None:
    """Every explicit method of the solver on a fresh instance, where it applies."""
    text, snapshot, solver_kwargs = route
    for method in PHomSolver.available_methods():
        instance = pickle.loads(snapshot)
        solver = PHomSolver(epsilon=0.3, delta=0.2, seed=1, **solver_kwargs)
        try:
            solver.solve(text, instance, method=method)
        except ClassConstraintError:
            pass  # the method's class precondition: raised before any work


#: Every route by name: the tractable ones, a constant plan, the #P-hard cell.
ROUTE_NAMES = [route[0] for route in TRACTABLE_ROUTES] + ["constant", "hard"]


def named_route(name: str) -> Route:
    if name == "constant":
        return constant_route()
    if name == "hard":
        return hard_route()
    return tractable_route(ROUTE_NAMES.index(name))


class TestRoutes:
    """Every route of the dispatch grid, through solve, compile and the plan API."""

    @pytest.mark.parametrize("name", ROUTE_NAMES)
    def test_route(self, name):
        route = named_route(name)
        exercise = exercise_hard if name == "hard" else exercise_tractable
        assert cyclic_garbage(lambda: exercise(route)) == []

    @pytest.mark.parametrize("name", ROUTE_NAMES)
    def test_explicit_methods(self, name):
        route = named_route(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cyclic_garbage(lambda: exercise_explicit_methods(route)) == []


def service_requests(routes: Dict[str, Route]) -> List[ServiceRequest]:
    """One batch over the registered routes: duplicates, float and approx requests."""
    requests = []
    for instance_id, (text, _snapshot, _kwargs) in sorted(routes.items()):
        requests += [
            ServiceRequest(query=text, instance_id=instance_id),
            ServiceRequest(query=text, instance_id=instance_id),  # coalesced
            ServiceRequest(query=text, instance_id=instance_id, precision="float"),
            ServiceRequest(query=text, instance_id=instance_id, precision="approx", seed=3),
        ]
    return requests


def serving_routes() -> Dict[str, Route]:
    return {"dwt": tractable_route(0), "2wp": tractable_route(1), "hard": hard_route()}


def exercise_service(service: QueryService, routes: Dict[str, Route]) -> None:
    """Registration, submit_many (twice: the second is answered from the
    coordinator's result cache), evaluate_many and update_probability, then
    an answer after the update.  Registering fresh instances first makes every pass
    compile its plans again, as a cold worker does."""
    registered(service, routes)
    requests = service_requests(routes)
    service.submit_many(requests, on_error="return")
    service.submit_many(requests + ["not a request"], on_error="return")
    text, snapshot, _kwargs = routes["dwt"]
    edge, probability = some_edge(pickle.loads(snapshot))
    for precision in ("exact", "float"):
        service.evaluate_many("dwt", text, [None, {edge: probability}], precision=precision)
    service.update_probability("dwt", (edge.source, edge.target), probability)
    service.submit_many(requests[:4], on_error="return")


def registered(service: QueryService, routes: Dict[str, Route]) -> QueryService:
    for instance_id, (_text, snapshot, _kwargs) in sorted(routes.items()):
        service.register_instance(pickle.loads(snapshot), instance_id)
    return service


class TestService:
    """The serving paths: inline, durable, pooled coordinator and worker."""

    def test_inline_service(self):
        routes = serving_routes()
        with QueryService(num_workers=0, epsilon=0.3, delta=0.2) as service:
            assert cyclic_garbage(lambda: exercise_service(service, routes)) == []

    def test_inline_service_with_durable_state(self, tmp_path):
        routes = serving_routes()
        with QueryService(
            num_workers=0, epsilon=0.3, delta=0.2, state_dir=str(tmp_path / "state")
        ) as service:
            assert cyclic_garbage(lambda: exercise_service(service, routes)) == []

    def test_pooled_coordinator(self):
        routes = serving_routes()
        with QueryService(num_workers=1, epsilon=0.3, delta=0.2) as service:
            assert cyclic_garbage(lambda: exercise_service(service, routes)) == []

    def test_worker_solve_frame(self):
        routes = serving_routes()
        state = WorkerState(0, PHomSolver(epsilon=0.3, delta=0.2), "exact")

        def solve_frame():
            # Fresh instances: every request compiles, as on a cold worker.
            for instance_id, (_text, snapshot, _kwargs) in sorted(routes.items()):
                assert handle_message(state, "register", (instance_id, snapshot, ()))[0] == "ok"
            compiles = state.solver.plan_cache.stats["compiles"]
            requests = service_requests(routes)
            frame = pickle.dumps((7, "solve", (requests, None)), pickle.HIGHEST_PROTOCOL)
            _op_id, op, payload = pickle.loads(frame)
            status, outcomes = handle_message(state, op, payload)
            assert status == "ok" and all(outcome[0] == "ok" for outcome in outcomes)
            assert state.solver.plan_cache.stats["compiles"] == compiles + len(routes)
            pickle.dumps((0, 7, (status, outcomes)), pickle.HIGHEST_PROTOCOL)

        assert cyclic_garbage(solve_frame) == []


class TestServiceLifetime:
    """A closed service is freed by reference count: no cycle holds it.

    Each pass creates, serves and closes its own service (or worker
    state), so the service itself, its solvers, plan caches, registries
    and result cache are checked along with the requests."""

    @pytest.mark.parametrize(
        "options",
        [{"num_workers": 0}, {"num_workers": 0, "state_dir": True}, {"num_workers": 1}],
        ids=["inline", "inline-durable", "pooled-coordinator"],
    )
    def test_service(self, options, tmp_path):
        routes = serving_routes()
        passes = iter(range(2))

        def lifetime():
            kwargs = dict(options, epsilon=0.3, delta=0.2)
            if kwargs.pop("state_dir", False):
                kwargs["state_dir"] = str(tmp_path / f"state-{next(passes)}")
            with QueryService(**kwargs) as service:
                exercise_service(service, routes)

        assert cyclic_garbage(lifetime) == []

    def test_worker_state(self):
        routes = serving_routes()

        def lifetime():
            state = WorkerState(0, PHomSolver(epsilon=0.3, delta=0.2), "exact")
            for instance_id, (_text, snapshot, _kwargs) in sorted(routes.items()):
                assert handle_message(state, "register", (instance_id, snapshot, ()))[0] == "ok"
            status, outcomes = handle_message(
                state, "solve", (service_requests(routes), None)
            )
            assert status == "ok" and all(outcome[0] == "ok" for outcome in outcomes)
            assert handle_message(state, "stats", None)[0] == "ok"

        assert cyclic_garbage(lifetime) == []


def test_the_guard_sees_a_cycle_and_restores_the_collector():
    """The guard reports a deliberate cycle, and leaves the collector as it was."""
    before = (gc.get_debug(), len(gc.garbage), gc.isenabled())

    def make_cycle():
        node: dict = {}
        node["self"] = node

    assert cyclic_garbage(make_cycle) == ["dict x 1"]
    assert (gc.get_debug(), len(gc.garbage), gc.isenabled()) == before
