"""Drift guard: one seam between EngineCore and its backends.

The two engines spent three PRs drifting apart before the shared core
existed, and the seam then grew to 25 override points (18 abstract
methods plus 7 policy hooks).  This static check pins it down:

- the override points are listed **once**, here, and their number is
  asserted, so the seam cannot regrow silently;
- a backend may define nothing :class:`EngineCore` owns concretely;
- a backend module keeps no per-hop ledger of its own: placing what a
  link end received and booking what it sent is the core's;
- a backend may create tasks only inside ``_spawn`` — every task is then
  launched through the core's tracked, self-pruning set.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CORE_FILE = SRC / "core" / "engine_core.py"
BACKENDS = {
    "SimEngine": SRC / "sim" / "engine.py",
    "AsyncioEngine": SRC / "net" / "engine.py",
}

#: the Clock: time and tasks (``_sleep(0)`` is the engine loop's yield)
CLOCK = {"now", "_sleep", "_call_later", "_spawn"}
#: the Transport: links, the observer channel, shutdown
TRANSPORT = {"_open_link", "_close_link", "send_to_observer", "_request_shutdown"}
#: pacing values a backend sets: as plain class attributes, or from its
#: config in ``__init__`` (the simulator's ``SOURCE_INTERVAL``)
POLICY = {"CREDIT_SCALE", "ROUNDS_PER_WAKEUP", "SOURCE_BURST", "SOURCE_INTERVAL"}

MAX_OVERRIDE_POINTS = 12

#: backends define their own constructor (it calls super().__init__)
ALWAYS_ALLOWED = {"__init__"}

#: calls that create a task, by the attribute or name being called
TASK_CREATORS = {"ensure_future", "create_task", "spawn"}

#: the per-hop ledger ``EngineCore._place`` / ``_sent`` keep: port byte
#: gauges, the forwarded counter and the ENQUEUE / FORWARD trace events
LEDGER_ATTRS = {"note_bytes", "forwarded"}
LEDGER_EVENTS = {"ENQUEUE", "FORWARD"}


def _class_def(tree: ast.Module, name: str) -> ast.ClassDef:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise AssertionError(f"class {name} not found")


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _class_attributes(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for node in cls.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _policy_reads(cls: ast.ClassDef) -> set[str]:
    """Upper-case ``self.X`` attributes the class reads or sets."""
    return {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and node.attr.isupper()
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def _is_abstract(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for deco in fn.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _core() -> ast.ClassDef:
    return _class_def(ast.parse(CORE_FILE.read_text()), "EngineCore")


def _backend(cls_name: str) -> ast.ClassDef:
    return _class_def(ast.parse(BACKENDS[cls_name].read_text()), cls_name)


def core_owned_methods() -> set[str]:
    """Concrete (non-abstract) methods EngineCore owns."""
    return {
        name for name, fn in _methods(_core()).items() if not _is_abstract(fn)
    } - ALWAYS_ALLOWED


def test_the_seam_is_listed_once_and_cannot_regrow():
    """EngineCore's abstract methods and upper-case class attributes are
    exactly the override points named above, and there are at most 12."""
    core = _core()
    abstract = {name for name, fn in _methods(core).items() if _is_abstract(fn)}
    assert abstract == CLOCK | TRANSPORT
    assert {name for name in _class_attributes(core) if name.isupper()} == POLICY
    assert _policy_reads(core) == POLICY
    assert len(CLOCK | TRANSPORT | POLICY) <= MAX_OVERRIDE_POINTS


def test_the_core_does_not_probe_its_config_for_backend_fields():
    """A policy that differs by backend is a named value on the seam, not
    a ``getattr(config, ...)`` that asks which backend's config this is."""
    probes = [
        node for node in ast.walk(_core())
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("getattr", "hasattr")
    ]
    assert not probes, [ast.unparse(node) for node in probes]


def test_core_owns_the_switching_semantics():
    """Sanity: the semantics, the link table and the task set live in the core."""
    owned = core_owned_methods()
    for essential in (
        "send", "_engine_loop", "_passes", "_fail", "_drain_control",
        "_engine_process",
        "_switch_round", "_retry_pending", "_try_forward", "_defer_data",
        "_handle_probe", "_apply_bandwidth", "_status_report", "_source_loop",
        "_report_loop", "_broadcast_broken_source", "_propagate_broken_source",
        "start_source", "stop_source", "set_timer", "set_port_weight", "measure",
        "downstreams", "disconnect", "_connect", "_add_upstream",
        "_drop_downstream", "_drop_upstream", "_send_buffer_levels",
        "_stats_in", "_stats_out", "_launch", "_teardown", "_place", "_sent",
    ):
        assert essential in owned, f"EngineCore no longer owns {essential}"


def test_backends_do_not_reimplement_core_methods():
    """Nothing the core owns — or absorbed from the old hook list — is
    defined by a backend, and a backend sets no class attribute beyond
    the pacing values."""
    owned = core_owned_methods()
    #: per-peer tables and policy hooks the core absorbed; they must not
    #: come back under their old names either
    retired = {
        "_dispatch", "_outbound_queue", "_recv_rates", "_send_rates",
        "_up_rate_reports", "_down_rate_reports", "_flush_round",
        "_credit_scale", "_rounds_per_wakeup", "_source_burst", "_source_pacing",
        "_on_engine_start", "_request_connect", "_yield_control",
        # the per-link IO tasks both backends replaced with callbacks
        "_sender_loop", "_receiver_loop",
    }
    for cls_name in BACKENDS:
        backend = _backend(cls_name)
        methods = set(_methods(backend))
        assert not methods & owned, (
            f"{cls_name} redefines EngineCore-owned methods (the drift the "
            f"shared core exists to prevent): {sorted(methods & owned)}"
        )
        assert not methods & retired, f"{cls_name} regrew {sorted(methods & retired)}"
        assert _class_attributes(backend) <= POLICY
        assert _policy_reads(backend) <= POLICY


def test_backends_implement_every_abstract_port_method():
    """The inverse direction: each backend supplies the whole seam."""
    for cls_name in BACKENDS:
        missing = (CLOCK | TRANSPORT) - set(_methods(_backend(cls_name)))
        assert not missing, f"{cls_name} does not implement {sorted(missing)}"


def test_backends_create_tasks_only_in_spawn():
    """``_spawn`` is the single task-creation site of a backend module."""
    offenders = []
    for cls_name, path in BACKENDS.items():
        tree = ast.parse(path.read_text())
        spawn = _methods(_class_def(tree, cls_name))["_spawn"]
        inside = {id(node) for node in ast.walk(spawn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in TASK_CREATORS:
                offenders.append(f"{path.name}:{node.lineno} {name}()")
    assert not offenders, f"task created outside _spawn: {offenders}"


def test_backends_leave_the_link_end_ledger_to_the_core():
    """No backend module does placement or sent accounting of its own:
    its link ends hand each run to ``_place`` / ``_sent``."""
    offenders = []
    for path in BACKENDS.values():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            event = (node.attr in LEDGER_EVENTS and isinstance(node.value, ast.Name)
                     and node.value.id == "EventType")
            if node.attr in LEDGER_ATTRS or event:
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not offenders, f"per-hop ledger kept outside EngineCore: {offenders}"
