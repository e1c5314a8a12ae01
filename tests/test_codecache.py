"""The content-addressed compilation cache.

Invariants under test: a hit returns the identical immutable compiled
method and the originally recorded compile cycles; keys separate every
input lowering can see; fault injection bypasses the cache entirely; and
persistence is an accelerator only — corrupt files load nothing.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.adaptive.optimizing import optimize_method
from repro.errors import ReproError
from repro.profiling.edges import EdgeProfile
from repro.resilience import FaultInjector, FaultPlan
from repro.vm import codecache
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod

from tests.helpers import call_program, counting_program


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    """Isolate each test: its own enabled GLOBAL cache."""
    monkeypatch.delenv(codecache.ENV_DISABLE, raising=False)
    monkeypatch.setattr(codecache, "GLOBAL", codecache.CompilationCache())
    yield


def _compile(program, name="main", **kwargs):
    method = program.method(name)
    defaults = dict(
        level=2, edge_profile=None, costs=CostModel(), version=0
    )
    defaults.update(kwargs)
    return optimize_method(
        method,
        program,
        defaults.pop("level"),
        defaults.pop("edge_profile"),
        defaults.pop("costs"),
        **defaults,
    )


# -- hit semantics ----------------------------------------------------------


def test_hit_returns_same_instance_and_cycles():
    program = counting_program(10)
    cm1, cycles1 = _compile(program)
    cm2, cycles2 = _compile(program)
    assert cm2 is cm1  # shared immutable artefact, not a copy
    assert cycles2 == cycles1  # compile cycles charged on every hit
    stats = codecache.GLOBAL.stats()
    assert stats["hits"] == 1
    assert stats["misses"] >= 1


def test_disabled_via_environment(monkeypatch):
    monkeypatch.setenv(codecache.ENV_DISABLE, "0")
    assert codecache.active_cache() is None
    program = counting_program(10)
    cm1, _ = _compile(program)
    cm2, _ = _compile(program)
    assert cm2 is not cm1
    assert len(codecache.GLOBAL) == 0


def test_injector_bypasses_cache():
    program = counting_program(10)
    cm1, _ = _compile(program)  # warms the cache
    # A run with an injector must neither read nor write the cache, even
    # when no fault actually fires (probability 0).
    injector = FaultInjector(FaultPlan.parse(["opt-compile=0.0"], seed=0))
    before = dict(codecache.GLOBAL.stats())
    cm2, _ = _compile(program, injector=injector)
    assert cm2 is not cm1
    assert codecache.GLOBAL.stats() == before


# -- key sensitivity --------------------------------------------------------


def test_key_varies_with_every_compile_input():
    program = counting_program(10)
    method = program.method("main")
    costs = CostModel()
    base = codecache.optimize_key(
        method, program, 2, None, False, 0, costs, None
    )

    profile = EdgeProfile()
    variants = [
        codecache.optimize_key(method, program, 1, None, False, 0, costs, None),
        codecache.optimize_key(method, program, 2, "pep", False, 0, costs, None),
        codecache.optimize_key(method, program, 2, None, True, 0, costs, None),
        codecache.optimize_key(method, program, 2, None, False, 3, costs, None),
        codecache.optimize_key(
            method, program, 2, None, False, 0, costs, profile
        ),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_key_varies_with_method_body_and_costs():
    a = counting_program(10)
    b = counting_program(11)  # same structure, different literal
    costs = CostModel()
    key_a = codecache.optimize_key(
        a.method("main"), a, 2, None, False, 0, costs, None
    )
    key_b = codecache.optimize_key(
        b.method("main"), b, 2, None, False, 0, costs, None
    )
    assert key_a != key_b

    expensive = CostModel()
    expensive.simple_op *= 2
    key_c = codecache.optimize_key(
        a.method("main"), a, 2, None, False, 0, expensive, None
    )
    assert key_c != key_a


def test_key_varies_with_edge_profile_contents():
    program = counting_program(10)
    method = program.method("main")
    costs = CostModel()
    profiles = [EdgeProfile(), EdgeProfile()]
    branch = ("main", "entry", 0)
    profiles[1].record(branch, True, 100)
    keys = {
        codecache.optimize_key(
            method, program, 2, None, False, 0, costs, p
        )
        for p in profiles
    }
    assert len(keys) == 2


def test_key_sees_callee_bodies():
    # The leaf inliner reads direct callee bodies, so the caller's key
    # must change when a callee changes even if the caller did not.
    p1 = call_program()
    p2 = call_program()
    helper = p2.method("helper")
    first_block = next(iter(helper.blocks.values()))
    first_block.instrs[0].value = 999  # perturb the callee only
    costs = CostModel()
    k1 = codecache.optimize_key(
        p1.method("main"), p1, 2, None, False, 0, costs, None
    )
    k2 = codecache.optimize_key(
        p2.method("main"), p2, 2, None, False, 0, costs, None
    )
    assert k1 != k2


# -- LRU behaviour ----------------------------------------------------------


def test_lru_eviction_and_refresh():
    cache = codecache.CompilationCache(bound=2)
    cm = CompiledMethod("m", 0, "opt2", 1, 1, 1.0)
    cache.put(("a",), cm, 1.0)
    cache.put(("b",), cm, 1.0)
    assert cache.get(("a",)) is not None  # refresh 'a'
    cache.put(("c",), cm, 1.0)  # evicts 'b', the stalest
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) is not None
    assert cache.get(("c",)) is not None
    assert len(cache) == 2


def test_bound_read_from_environment(monkeypatch):
    monkeypatch.setenv(codecache.ENV_BOUND, "3")
    assert codecache.active_cache().bound == 3
    monkeypatch.delenv(codecache.ENV_BOUND)
    assert codecache.active_cache().bound == codecache.DEFAULT_BOUND


@pytest.mark.parametrize("value", ["0", "-4", "lots"])
def test_bad_bound_rejected(monkeypatch, value):
    # A bound below 1 would leave put() nothing to evict.
    from repro import api

    monkeypatch.setenv(codecache.ENV_BOUND, value)
    with pytest.raises(ReproError, match=codecache.ENV_BOUND):
        api.profile_adaptive(counting_program(10))


# -- persistence ------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    program = counting_program(10)
    cm, cycles = _compile(program)
    path = str(tmp_path / "cache.pkl")
    codecache.GLOBAL.save(path)

    fresh = codecache.CompilationCache()
    loaded = fresh.load(path)
    assert loaded == len(codecache.GLOBAL)
    key = next(
        k for k, (entry, _) in codecache.GLOBAL.entries.items()
        if entry is cm
    )
    restored, restored_cycles = fresh.get(key)
    assert restored_cycles == cycles
    assert isinstance(restored, CompiledMethod)
    assert restored.source_name == cm.source_name
    assert restored.blocks.keys() == cm.blocks.keys()


def test_load_missing_and_corrupt_files(tmp_path):
    cache = codecache.CompilationCache()
    assert cache.load(str(tmp_path / "absent.pkl")) == 0

    garbage = tmp_path / "garbage.pkl"
    garbage.write_bytes(b"\x00not a pickle")
    assert cache.load(str(garbage)) == 0

    wrong_format = tmp_path / "wrong.pkl"
    with open(wrong_format, "wb") as fh:
        pickle.dump({"format": 999, "entries": []}, fh)
    assert cache.load(str(wrong_format)) == 0

    not_methods = tmp_path / "notm.pkl"
    with open(not_methods, "wb") as fh:
        pickle.dump(
            {"format": codecache._FORMAT,
             "entries": [(("k",), ("not a cm", 1.0))]},
            fh,
        )
    assert cache.load(str(not_methods)) == 0
    assert len(cache) == 0

    # A current-format payload holding a real CompiledMethod under a key
    # or cycle count that does not convert: each entry is skipped, never
    # raised.
    cm, _ = _compile(counting_program(10))
    for key, cycles in ((None, 1.0), (("k",), "x"), (("k",), None),
                        ([["k"]], 1.0)):
        malformed = tmp_path / "malformed.pkl"
        with open(malformed, "wb") as fh:
            pickle.dump(
                {"format": codecache._FORMAT,
                 "entries": [(key, (cm, cycles))]},
                fh,
            )
        assert cache.load(str(malformed)) == 0
    assert len(cache) == 0


def test_save_is_atomic(tmp_path):
    program = counting_program(10)
    _compile(program)
    path = str(tmp_path / "cache.pkl")
    codecache.GLOBAL.save(path)
    assert os.path.exists(path)
    # No stray temp files left behind.
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_old_format_cache_dropped_wholesale(tmp_path):
    # A cache persisted by an older format (format 8: warm-ladder
    # artefacts and the resolved REPRO_WARMJIT flag in the keys;
    # format 9: generated sources with inline fuel raises and yieldpoint
    # slow paths against globals the namespace no longer binds; format
    # 10: keys carrying the retired fixed-cost and fusion fields; format
    # 11: whole-method trace sources in the sb_* slots and the retired
    # callee-inlining flag in the keys; format 12: the retired
    # samplefast and layout flags in the keys and trace fingerprints;
    # format 13: k-iteration traces in the sb_* slots and the retired
    # REPRO_KBLPP/REPRO_KBLPP_K pair in the keys; format 14: per-block
    # segment sources and traces whose side exits return segment names
    # that region sources no longer define; format 15: superblock traces
    # in the sb_* slots) must not be partially
    # reused: each bump changed what the keys or fingerprints hash, or
    # what the persisted sources may reference, so every old entry is
    # untrustworthy and the load drops the whole file.
    program = counting_program(10)
    cm, cycles = _compile(program)
    path = str(tmp_path / "cache.pkl")
    codecache.GLOBAL.save(path)

    # Rewrite the valid payload as if an old process had saved it.
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    assert payload["format"] == codecache._FORMAT == 16
    payload["format"] = 15
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)

    fresh = codecache.CompilationCache()
    assert fresh.load(path) == 0
    assert len(fresh) == 0
    # A same-format save/load still round-trips (the drop is about the
    # version stamp, not the entries).
    codecache.GLOBAL.save(path)
    assert fresh.load(path) == len(codecache.GLOBAL)
