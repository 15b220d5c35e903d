"""AST guard: ``TaskSet.launch`` is the one task-creation site of the
control plane, the observer plane, the chaos harness and the shm link.

The control plane used to create tasks at 21 sites across four modules,
some tracked in append-only lists, some tracked nowhere; the observer
plane's proxy and server added four more, the chaos harness three and
the shm listener one.  Each of them now owns one
:class:`~repro.net.tasks.TaskSet`; this guard (the twin of
``test_backends_create_tasks_only_in_spawn``) keeps a new
``ensure_future`` / ``create_task`` from growing back.
"""

import ast
from pathlib import Path

import repro.cluster
import repro.net

PACKAGE = Path(repro.cluster.__file__).parent
NET = Path(repro.net.__file__).parent

#: every module under the one-task-owner rule
GUARDED = [*sorted(PACKAGE.glob("*.py")), *(NET / name for name in (
    "tasks.py", "observer_link.py", "observer_server.py", "proxy.py",
    "chaos.py", "shm.py",
))]

#: calls that create a task, by the attribute or name being called
TASK_CREATORS = {"ensure_future", "create_task"}


def _task_sites(tree: ast.AST) -> list[ast.Call]:
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in TASK_CREATORS:
                sites.append(node)
    return sites


def test_cluster_creates_tasks_only_in_taskset_launch():
    offenders = []
    for path in GUARDED:
        tree = ast.parse(path.read_text())
        allowed: set[int] = set()
        if path == NET / "tasks.py":
            (taskset,) = [n for n in tree.body
                          if isinstance(n, ast.ClassDef) and n.name == "TaskSet"]
            (launch,) = [n for n in taskset.body
                         if isinstance(n, ast.FunctionDef) and n.name == "launch"]
            allowed = {id(node) for node in ast.walk(launch)}
        offenders += [
            f"{path.name}:{call.lineno}" for call in _task_sites(tree)
            if id(call) not in allowed
        ]
    assert not offenders, f"task created outside TaskSet.launch: {offenders}"


#: the supervising side: the core, the tier over it, its two instantiations
TIER_CLASSES = {"SupervisorCore", "PlacementTier", "ClusterController", "RootController"}
#: the supervised side: the host half and the two hosts
HOST_CLASSES = {"ControlHost", "WorkerHost", "ChildControllerHost"}

FACADE = {
    "place", "deploy", "stop_node", "node_info", "_lookup", "node_id",
    "deploy_source", "send_control", "terminate_node", "_down_shard",
    "_pin_proxy_port", "_accept", "_dispatch", "request", "stop",
}
HOST_HALF = {"_register", "_serve", "_handle", "_heartbeat_loop", "stop"}


def _definers(classes: set[str]) -> dict[str, list[str]]:
    """method name -> the classes (of ``classes``) that define it."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef) and cls.name in classes:
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        found.setdefault(node.name, []).append(cls.name)
    return found


def test_the_facade_and_the_host_half_are_each_defined_once():
    """Neither instantiation re-implements what the shared base owns."""
    tier = _definers(TIER_CLASSES)
    assert {name: tier.get(name) for name in FACADE if len(tier.get(name, [])) != 1} == {}
    host = _definers(HOST_CLASSES)
    assert {name: host.get(name) for name in HOST_HALF} == {
        name: ["ControlHost"] for name in HOST_HALF
    }


def test_the_process_entry_scaffold_is_written_once():
    """Signal handlers and ``asyncio.run`` appear in ``run_host`` only."""
    def called(node: ast.AST) -> str:
        func = getattr(node, "func", None)
        return getattr(func, "attr", "") or getattr(func, "id", "")

    callers = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if {"install_shutdown_handlers", "run"}
        & {called(node) for node in ast.walk(ast.parse(path.read_text()))}
    ]
    assert callers == ["host.py"]
