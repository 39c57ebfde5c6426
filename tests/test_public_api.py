"""Public-API contract tests.

Guards the import surface a downstream user relies on: every ``__all__``
name must resolve, carry a docstring, and the headline workflow from the
README must work verbatim.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.chaos",
    "repro.core",
    "repro.crowdsensing",
    "repro.datasets",
    "repro.durable",
    "repro.experiments",
    "repro.metrics",
    "repro.net",
    "repro.obs",
    "repro.privacy",
    "repro.replication",
    "repro.service",
    "repro.theory",
    "repro.truthdiscovery",
    "repro.utils",
    "repro.workers",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} must define __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert undocumented == [], (
        f"{module_name} exports without docstrings: {undocumented}"
    )


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_dir_lists_all_exports_and_unknown_names_raise(module_name):
    module = importlib.import_module(module_name)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=f"'{module_name}'"):
        module.no_such_export


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_readme_quickstart_workflow():
    from repro import PrivateTruthDiscovery
    from repro.datasets import generate_synthetic

    dataset = generate_synthetic(
        num_users=150, num_objects=30, lambda1=4.0, random_state=7
    )
    pipeline = PrivateTruthDiscovery(method="crh", lambda2=0.5)
    evaluation = pipeline.evaluate_utility(dataset.claims, random_state=7)
    assert evaluation.mae < 0.2
    assert 0.5 < evaluation.average_absolute_noise < 2.0
    assert "mae=" in evaluation.summary()


def test_readme_privacy_first_workflow():
    from repro import PrivateTruthDiscovery
    from repro.datasets import generate_synthetic

    dataset = generate_synthetic(
        num_users=50, num_objects=10, lambda1=4.0, random_state=7
    )
    pipeline = PrivateTruthDiscovery.for_privacy_target(
        epsilon=1.0, delta=0.3, sensitivity=1.0
    )
    outcome = pipeline.run(dataset.claims, random_state=7)
    assert outcome.guarantee.epsilon == pytest.approx(1.0)
    assert outcome.guarantee.delta == 0.3


def test_module_docstring_quickstart_runs():
    """The doctest-style example in repro/__init__.py must stay true."""
    from repro import ClaimMatrix, PrivateTruthDiscovery

    rng = np.random.default_rng(7)
    claims = ClaimMatrix(rng.normal(20.0, 2.0, size=(50, 12)))
    pipeline = PrivateTruthDiscovery(method="crh", lambda2=1.0)
    outcome = pipeline.run(claims, random_state=7)
    assert outcome.truths.shape == (12,)


#: What a spawned process imports before it can serve: the CLI, a shard
#: host and the worker runtime it serves (``repro.workers.worker``,
#: imported by the shard host only), a standby, a watchdog, the
#: launcher every CLI child is forked from — and ``repro.service`` for
#: the parent.
SPAWN_PATH_MODULES = [
    "repro.cli",
    "repro.net.launcher",
    "repro.net.host",
    "repro.workers.worker",
    "repro.replication.standby",
    "repro.replication.watchdog",
    "repro.service",
]


@pytest.mark.parametrize("module_name", SPAWN_PATH_MODULES)
def test_spawn_path_imports_stay_scipy_free(module_name):
    """scipy costs ~0.8 s per interpreter; a CRH shard host never calls
    it, so a module-level import lands on every spawn and failover.
    Import it inside the function that needs it.  asyncio is refused
    too: every server here is threads over blocking sockets
    (``repro.net.transport.FrameServer``), and a second concurrency
    model would come back one convenient import at a time."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import {module_name}, sys; "
            "sys.exit(bool({'scipy', 'asyncio'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, (
        f"importing {module_name} pulled in scipy or asyncio\n{proc.stderr}"
    )


#: What no spawned child runs: the paper's batch pipeline, its metrics,
#: theory, datasets and figures, the privacy attacks, and the
#: crowdsensing simulation around the service.
UNSERVED_MODULES = (
    "repro.core",
    "repro.metrics",
    "repro.theory",
    "repro.datasets",
    "repro.experiments",
    "repro.privacy.attacks",
    "repro.crowdsensing.server",
    "repro.crowdsensing.runtime",
    "repro.crowdsensing.device",
)

#: A shard host aggregates through streaming estimators;
#: a batch method is imported only when a full-refit campaign arrives.
BATCH_METHODS = (
    "repro.truthdiscovery.crh",
    "repro.truthdiscovery.gtm",
    "repro.truthdiscovery.catd",
)

#: Each module a spawned child runs, and what importing it must not load.
SPAWN_ENTRIES = {
    "repro.cli": UNSERVED_MODULES,
    "repro.net.host": UNSERVED_MODULES + BATCH_METHODS,
    "repro.workers.worker": UNSERVED_MODULES + BATCH_METHODS,
    "repro.replication.standby": UNSERVED_MODULES,
    "repro.replication.watchdog": UNSERVED_MODULES,
    "repro.net.launcher": UNSERVED_MODULES,
}


@pytest.mark.parametrize("module_name", sorted(SPAWN_ENTRIES))
def test_spawn_path_leaves_unserved_modules_out(module_name):
    """A child pays for every module it imports on every spawn and
    failover.  Package ``__init__``s re-export lazily
    (``repro._lazy``), so importing one module loads only what that
    module imports itself."""
    refused = sorted(SPAWN_ENTRIES[module_name])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import {module_name}, sys; "
            f"print(' '.join(sorted(set({refused!r}) & set(sys.modules))))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], (
        f"importing {module_name} loaded {proc.stdout.strip()}"
    )


#: Every CLI child is forked from the launcher and inherits all it
#: imported: every role's entry module, not just its own.
LAUNCHER_PRELOAD = """
import sys
from repro.net import launcher
launcher._import(launcher.PRELOAD + launcher.ROLES)
refused = {refused!r}
print(" ".join(sorted(refused & set(sys.modules))))
"""


def test_spawn_path_launcher_preload_leaves_unserved_modules_out():
    refused = {"scipy", "asyncio", *UNSERVED_MODULES}
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER_PRELOAD.format(refused=refused)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], (
        f"the launcher's preload loaded {proc.stdout.strip()}"
    )


#: An in-process service's whole life, volatile and durable: no child
#: process, so no launcher either.
IN_PROCESS_LIFE = """
import os, sys, tempfile
import numpy as np
from repro.service import IngestService, Topology
with tempfile.TemporaryDirectory() as tmp:
    for topology in (None, Topology.in_process(durability=tmp + "/wal")):
        with IngestService(topology=topology) as service:
            service.register_campaign("c", ["a"], max_users=2)
            service.submit_columns(
                "c", np.array([0]), np.array([0]), np.array([1.0])
            )
            service.flush()
            service.snapshot("c")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit("repro.net.launcher" in sys.modules)
sys.exit("a child process was started")
"""


def test_spawn_path_in_process_service_starts_no_launcher():
    proc = subprocess.run(
        [sys.executable, "-c", IN_PROCESS_LIFE],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


#: What a standby runs after its ``PORT`` line: the service a CONFIG
#: record describes.  Replay needs none of the crowdsensing simulation.
STANDBY_SERVICE_BUILD = """
import sys
from dataclasses import asdict
import repro.replication.standby
from repro.durable.recovery import service_from_config
from repro.service.ingest import ServiceConfig
body = {{"service_config": asdict(ServiceConfig()),
         "ledger": {{"epsilon_cap": 1.0, "delta_cap": 0.0}}}}
service_from_config(body).close()
refused = {refused!r}
print(" ".join(sorted(m for m in sys.modules if m.startswith(refused))))
"""


def test_spawn_path_standby_service_build_leaves_the_simulation_out():
    refused = UNSERVED_MODULES + ("repro.crowdsensing",)
    proc = subprocess.run(
        [sys.executable, "-c", STANDBY_SERVICE_BUILD.format(refused=refused)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], (
        f"building a standby's service loaded {proc.stdout.strip()}"
    )


#: One whole protocol round; the server always runs on an in-process
#: ``IngestService``, and that must not drag in any deployment stack.
CAMPAIGN_ROUND = """
import sys
from repro.crowdsensing import CampaignSpec, build_devices, run_campaign
spec = CampaignSpec(campaign_id="c", object_ids=("a", "b"), lambda2=1.0)
devices = build_devices(
    {"u1": {"a": 1.0, "b": 2.0}, "u2": {"a": 1.5, "b": 2.5}}, random_state=0
)
assert run_campaign(spec, devices, random_state=0).succeeded
loaded = {"repro.workers", "repro.net", "repro.replication", "repro.durable"}
sys.exit(", ".join(sorted(loaded & set(sys.modules))) or 0)
"""


def test_campaign_round_loads_no_deployment_stack():
    proc = subprocess.run(
        [sys.executable, "-c", CAMPAIGN_ROUND],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_multiprocessing_import_in_src():
    """Every child is a fork of the one launcher
    (``repro.net.launcher``); a second launch path would come back one
    convenient ``multiprocessing`` import at a time."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "multiprocessing" for m in modules):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == []


#: What changes a file or a directory.  Under ``repro.durable`` and
#: ``repro.replication`` only ``repro.durable.fsync`` (the seam) may
#: name them, so a test that replaces a seam function sees every call.
_RAW_PERSISTENCE = {
    "os": {
        "fdatasync", "fsync", "ftruncate", "makedirs", "mkdir", "pwrite",
        "remove", "removedirs", "rename", "renames", "replace", "rmdir",
        "truncate", "unlink", "write", "writev",
    },
    "shutil": {"copy", "copy2", "copyfile", "copytree", "move", "rmtree"},
}
_RAW_PERSISTENCE_METHODS = {
    "mkdir", "rename", "rmdir", "touch", "truncate", "unlink",
    "write_bytes", "write_text",
}
_WRITE_FLAGS = {"O_APPEND", "O_CREAT", "O_RDWR", "O_TRUNC", "O_WRONLY"}


def _raw_persistence(node, seam_names) -> str:
    """What ``node`` does to the disk outside the seam ("" if nothing);
    ``seam_names`` are the names the module binds the seam to."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.attr in _RAW_PERSISTENCE.get(node.value.id, ()):
            return f"{node.value.id}.{node.attr}"
        if node.value.id == "os" and node.attr in _WRITE_FLAGS:
            return f"os.open(..., {node.attr})"
    if isinstance(node, ast.ImportFrom) and node.module in _RAW_PERSISTENCE:
        for alias in node.names:
            if alias.name in _RAW_PERSISTENCE[node.module]:
                return f"from {node.module} import {alias.name}"
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _RAW_PERSISTENCE_METHODS
        and not (
            isinstance(func.value, ast.Name)
            and func.value.id in {*seam_names, *_RAW_PERSISTENCE}
        )
    ):
        return f".{func.attr}()"
    if isinstance(func, ast.Name) and func.id == "open":
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None
        )
        if mode is not None and not (
            isinstance(mode, ast.Constant)
            and not set(str(mode.value)) & set("wax+")
        ):
            return f"open(..., {ast.unparse(mode)})"
    return ""


def test_every_persisted_byte_goes_through_the_seam():
    """The durable layer's writes, syncs, renames, removals,
    truncations and ``mkdir`` s are functions of
    ``repro.durable.fsync``; anywhere else under ``repro.durable`` or
    ``repro.replication`` they are refused, each offender named."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    seam = src / "durable" / "fsync.py"
    offenders = []
    for package in ("durable", "replication"):
        for path in sorted((src / package).rglob("*.py")):
            if path == seam:
                continue
            tree = ast.parse(path.read_text(), str(path))
            seam_names = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "repro.durable"
                for alias in node.names
                if alias.name == "fsync"
            }
            for node in ast.walk(tree):
                what = _raw_persistence(node, seam_names)
                if what:
                    offenders.append(
                        f"{path.relative_to(src)}:{node.lineno}: {what}"
                    )
    assert not offenders, "raw persistence outside the seam:\n" + "\n".join(
        sorted(offenders)
    )


def test_one_pool_and_no_drill_in_the_library():
    import repro.chaos
    import repro.net
    import repro.workers

    assert "run_chaos_drill" not in repro.chaos.__all__
    assert not hasattr(repro.chaos, "run_chaos_drill")
    assert "ShardPool" in repro.workers.__all__
    assert "ShardPool" in repro.net.__all__
    assert repro.net.ShardPool is repro.workers.ShardPool


def test_one_device_surface_and_one_cap_rule():
    """Devices reach the server through the simulated transport only, and
    per-user budget caps live in ``BudgetLedger``; the second socket
    stack, the orchestrator's cap rule and the incentives module are
    gone."""
    import repro.crowdsensing

    for name in (
        "BudgetPolicy",
        "CampaignOrchestrator",
        "OrchestratorReport",
        "RewardPolicy",
        "allocate_rewards",
        "reward_distortion",
        "top_contributor_overlap",
    ):
        assert name not in repro.crowdsensing.__all__
        assert not hasattr(repro.crowdsensing, name)
    with pytest.raises(ImportError):
        importlib.import_module("repro.crowdsensing.socket_transport")


def test_unreached_helpers_are_gone():
    """Dataset file round-trips, bootstrap truth intervals and the
    stopwatch had no caller outside their own tests; their modules and
    package re-exports are gone."""
    import repro.datasets
    import repro.truthdiscovery
    import repro.utils

    gone = {
        repro.datasets: (
            "load_claims_csv",
            "load_claims_npz",
            "load_dataset_npz",
            "save_claims_csv",
            "save_claims_npz",
            "save_dataset_npz",
        ),
        repro.truthdiscovery: ("TruthIntervals", "bootstrap_truths"),
        repro.utils: ("Stopwatch", "timed"),
    }
    for package, names in gone.items():
        for name in names:
            assert name not in package.__all__
            assert not hasattr(package, name)
    for package, module in (
        (repro.datasets, "io"),
        (repro.truthdiscovery, "uncertainty"),
        (repro.utils, "timing"),
    ):
        with pytest.raises(ImportError):
            importlib.import_module(f"{package.__name__}.{module}")


def test_compaction_has_no_crash_knob_of_its_own():
    """A compaction is crashed through the durable layer's seam
    (``tests/durable/seam.py``); its own fault points are gone."""
    import repro.durable
    from repro.durable import compaction, wal

    assert "CompactionInterrupted" not in repro.durable.__all__
    assert not hasattr(repro.durable, "CompactionInterrupted")
    for name in ("CompactionInterrupted", "FAULT_POINTS", "maybe_crash"):
        assert not hasattr(compaction, name)
    assert "fault" not in inspect.signature(compaction.compact_directory).parameters
    assert "crash" not in inspect.signature(wal._commit_compaction).parameters
