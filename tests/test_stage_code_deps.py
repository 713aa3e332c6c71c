"""Stage fingerprints must follow the modules each stage computes with.

A stage's cache key includes ``module_fingerprint(dep)`` for every
declared ``code_deps`` entry.  A stage that runs fault collapsing or
SCOAP but does not declare :mod:`repro.gatelevel.structure` would keep
serving results computed by an older collapse engine after that module
changes; a sharded stage that does not declare the dispatch module
would survive a transport change the same way.  These tests pretend
one module changed and require every dependent stage's key to move.
"""

from __future__ import annotations

import pytest

from repro.flow import stage as stage_mod
from repro.flow.flows import FLOWS, get_flow

STRUCTURE = "repro.gatelevel.structure"
DISPATCH = "repro.flow.shm"

#: (flow, stage) pairs that collapse faults or compute SCOAP.
STRUCTURE_STAGES = [
    ("dmachine", "scan_select"),
    ("dmachine", "atpg"),
    ("dmachine", "random"),
    ("dmachine", "bist"),
    ("hierarchical", "faultsim"),
    ("coverage", "coverage"),
]


def _edited(monkeypatch, module: str) -> None:
    """Make ``module`` (and any package containing it) hash differently."""
    real = stage_mod.module_fingerprint

    def fake(dotted: str) -> str:
        digest = real(dotted)
        if module == dotted or module.startswith(dotted + "."):
            return "edited:" + digest
        return digest

    monkeypatch.setattr(stage_mod, "module_fingerprint", fake)


def _fingerprints(flow_name: str) -> dict[str, str]:
    return {name: st.fingerprint()
            for name, st in get_flow(flow_name).stages.items()}


@pytest.mark.parametrize("flow_name,stage_name", STRUCTURE_STAGES)
def test_structure_edit_changes_fingerprint(monkeypatch, flow_name,
                                            stage_name):
    before = _fingerprints(flow_name)[stage_name]
    _edited(monkeypatch, STRUCTURE)
    assert _fingerprints(flow_name)[stage_name] != before


def _sharded_stages() -> list[tuple[str, str]]:
    return [
        (flow_name, name)
        for flow_name in sorted(FLOWS)
        for name, st in get_flow(flow_name).stages.items()
        if "shards" in st.params
    ]


def test_every_sharded_stage_is_found():
    found = {flow for flow, _stage in _sharded_stages()}
    assert {"dmachine", "hierarchical", "fullscan",
            "insitu_bist"} <= found


@pytest.mark.parametrize("flow_name,stage_name", _sharded_stages())
def test_dispatch_edit_changes_sharded_fingerprint(monkeypatch, flow_name,
                                                   stage_name):
    before = _fingerprints(flow_name)[stage_name]
    _edited(monkeypatch, DISPATCH)
    assert _fingerprints(flow_name)[stage_name] != before


KERNEL_MODULES = ("repro.gatelevel.kernel", "repro.gatelevel.fault_sim")


def _backend_stages() -> list[tuple[str, str]]:
    return [
        (flow_name, name)
        for flow_name in sorted(FLOWS)
        for name, st in get_flow(flow_name).stages.items()
        if "backend" in st.params
    ]


@pytest.mark.parametrize("module", KERNEL_MODULES)
@pytest.mark.parametrize("flow_name,stage_name", _backend_stages())
def test_kernel_edit_changes_backend_fingerprint(monkeypatch, flow_name,
                                                 stage_name, module):
    """A stage that picks a fault-simulation backend runs the compiled
    kernel through ``fault_sim``; editing either must move its key."""
    before = _fingerprints(flow_name)[stage_name]
    _edited(monkeypatch, module)
    assert _fingerprints(flow_name)[stage_name] != before
