"""Checkpoint round-trips: golden digests, adversarial snapshots, and
the resumable evaluation grid.

The strongest form of each test is *bit-for-bit continuation*: snapshot
a run mid-flight, push the snapshot through a real serialization
boundary (``json.dumps`` or an actual file), restore into freshly built
objects, continue, and require the exact digest a straight run
produces.  Snapshot points are chosen adversarially — mid
multi-flit packet, mid reservation window, with a pinned response not
yet injected, under an active fault schedule, and on the ring topology
that ``ALL_KINDS`` excludes.
"""

from __future__ import annotations

import base64
import copy
import gc
import json
import os
import subprocess
import sys
import weakref

import pytest

from repro.checkpoint import (
    CellStore,
    SnapshotError,
    read_snapshot,
    restore_network,
    restore_system,
    run_digest,
    snapshot_network,
    snapshot_system,
    write_snapshot,
)
from repro.core.reservation import OUT, PIN
from repro.faults import FaultInjector, FaultSchedule
from repro.invariants import InvariantSuite
from repro.noc.network import build_network
from repro.noc.packet import reset_packet_ids
from repro.params import NocKind, NocParams
from repro.perf.system import PerfSample, SystemSimulator
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

from tests.helpers import make_network
from tests.test_golden_determinism import (
    ALL_KINDS,
    GOLDEN_NETWORK,
    GOLDEN_SYSTEM,
    _digest,
)

#: The golden network scenario (must match test_golden_determinism).
_RATE, _SEED, _CYCLES, _DRAIN = 0.02, 7, 800, 20000


def _json_round_trip(snap: dict) -> dict:
    """The serialization boundary every in-process test crosses."""
    return json.loads(json.dumps(snap))


def _build_golden(kind: NocKind):
    reset_packet_ids()
    net = build_network(NocParams(kind=kind, mesh_width=8, mesh_height=8))
    traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, _RATE,
                               seed=_SEED)
    return net, traffic


# -- golden digests through a snapshot boundary ----------------------------


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_network_restore_reproduces_golden_digest(kind):
    net, traffic = _build_golden(kind)
    traffic.run(_CYCLES // 2)
    snap = _json_round_trip(snapshot_network(net, traffic))
    net2, traffic2 = restore_network(snap)
    assert net2 is not net
    traffic2.run(_CYCLES - _CYCLES // 2)
    net2.drain(max_cycles=_DRAIN)
    assert _digest(net2.stats.summary()) == GOLDEN_NETWORK[kind]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_system_restore_reproduces_golden_digest(kind, tmp_path):
    reset_packet_ids()
    sim = SystemSimulator("Web Search", kind, seed=5)
    sim.start()
    sim.chip.run(200)
    sim.begin_interval()
    sim.chip.run(300)
    path = str(tmp_path / "mid-measure.json")
    write_snapshot(snapshot_system(sim), path)
    sim2 = restore_system(read_snapshot(path))
    sim2.chip.run(500)
    sample = sim2.end_interval()
    digest = _digest({
        "sample": sample.to_dict(),
        "stats": sim2.chip.network.stats.summary(),
    })
    assert digest == GOLDEN_SYSTEM[kind]
    assert digest == run_digest(sample, sim2.chip.network.stats.summary())


# -- adversarial snapshot points -------------------------------------------


def _continue_and_digest(net, traffic, remaining: int) -> str:
    traffic.run(remaining)
    net.drain(max_cycles=_DRAIN)
    return _digest(net.stats.summary())


def _snapshot_when(kind: NocKind, predicate, limit: int = _CYCLES):
    """Step the golden scenario until ``predicate(net)`` holds, then
    return (json-round-tripped snapshot, cycles remaining)."""
    net, traffic = _build_golden(kind)
    for cycle in range(limit):
        traffic.step()
        if predicate(net):
            snap = _json_round_trip(snapshot_network(net, traffic))
            return snap, limit - (cycle + 1)
    raise AssertionError("snapshot predicate never became true")


def _mid_multi_flit(net) -> bool:
    """Some output port is partway through forwarding a multi-flit
    packet (its winner-holding state and per-packet send count are
    exactly what a naive snapshot would lose)."""
    for router in net.routers:
        for port in router.output_ports.values():
            pkt = port.held_by
            if pkt is not None and pkt.size > 1 and \
                    0 < port.holder_sent < pkt.size:
                return True
    return False


def _mid_reservation(net) -> bool:
    """Some PRA output port is partway through a live reservation
    window (flits already driven, flits still promised)."""
    return any(
        kind == OUT and window.first < net.cycle < window.end
        and not window.plan.cancelled
        for router in net.routers
        for (kind, _), window in router.promises.windows()
    )


def _vc_states(snap: dict) -> list:
    return [vc for router in snap["network"]["routers"]
            for _, vcs in router["units"] for vc in vcs]


def test_snapshot_mid_multi_flit_packet():
    snap, remaining = _snapshot_when(NocKind.MESH, _mid_multi_flit)
    # Idle VCs encode as null beside the busy ones they share a
    # router with.
    states = _vc_states(snap)
    assert None in states and any(state is not None for state in states)
    net2, traffic2 = restore_network(snap)
    assert _mid_multi_flit(net2)  # restored into the same awkward spot
    # Busy and idle VCs alike come back exactly: the restored network
    # snapshots to the very state it was restored from.
    assert _json_round_trip(snapshot_network(net2, traffic2)) == snap
    digest = _continue_and_digest(net2, traffic2, remaining)
    assert digest == GOLDEN_NETWORK[NocKind.MESH]


def test_snapshot_mid_reservation_window():
    snap, remaining = _snapshot_when(NocKind.MESH_PRA, _mid_reservation)
    net2, traffic2 = restore_network(snap)
    assert _mid_reservation(net2)
    digest = _continue_and_digest(net2, traffic2, remaining)
    assert digest == GOLDEN_NETWORK[NocKind.MESH_PRA]


def _two_hop_claim_in_flight(net) -> bool:
    """A 2-hop segment's pair of latch claims (the via router's and the
    next router's, same direction) waits in a future media bucket."""
    neighbor = net.topology.neighbor
    return any(
        key != "inject" and (neighbor(node, key), key) in bucket
        for cycle, bucket in net.control._media.items()
        if cycle > net.cycle
        for node, key in bucket
    )


def _claim_in_flight_beside_a_reached_bucket(net) -> bool:
    """The snapshot filter has something to leave out: a bucket for a
    cycle already reached sits beside a live 2-hop claim."""
    return (_two_hop_claim_in_flight(net)
            and min(net.control._media) <= net.cycle)


def test_snapshot_with_two_hop_media_claim_in_flight():
    snap, remaining = _snapshot_when(
        NocKind.MESH_PRA, _claim_in_flight_beside_a_reached_bucket)
    cycle = snap["network"]["cycle"]
    assert all(claim_cycle > cycle for claim_cycle, _
               in snap["network"]["control"]["media"])
    net2, traffic2 = restore_network(snap)
    assert _two_hop_claim_in_flight(net2)
    digest = _continue_and_digest(net2, traffic2, remaining)
    assert digest == GOLDEN_NETWORK[NocKind.MESH_PRA]


def _pinned_response_waiting(net) -> bool:
    """An announced response holds a live ``PIN`` window but has not
    left its NI yet: the NI's arbitration still has to honour it."""
    return any(
        window.end > net.cycle and not window.plan.cancelled
        and window.plan.packet.injected is None
        for router in net.routers
        for window in router.promises.row(PIN)
    )


def test_snapshot_with_live_pin_window():
    reset_packet_ids()
    sim = SystemSimulator("Web Search", NocKind.MESH_PRA, seed=5)
    sim.start()
    sim.chip.run(200)
    sim.begin_interval()
    for elapsed in range(1, 800):
        sim.chip.run(1)
        if _pinned_response_waiting(sim.chip.network):
            break
    else:
        raise AssertionError("no pinned response ever waited in its NI")
    sim2 = restore_system(_json_round_trip(snapshot_system(sim)))
    net2 = sim2.chip.network
    assert _pinned_response_waiting(net2)
    assert all(ni._pin_row is ni.router.promises.row(PIN)
               for ni in net2.interfaces)
    sim2.chip.run(800 - elapsed)
    sample = sim2.end_interval()
    digest = run_digest(sample, net2.stats.summary())
    assert digest == GOLDEN_SYSTEM[NocKind.MESH_PRA]


def _window_ahead_of_a_sleeping_router(net) -> bool:
    """Between a claim and its slot: a router with no buffered flit,
    asleep, holds a live ``OUT`` window that opens later.  The window is
    a bypassed router's — a driver's source flit wakes it anyway — so
    only the wake list (rebuilt on restore) will step it there."""
    return any(
        not router.active_flits and not net._router_awake[router.node]
        and any(kind == OUT and window.first > net.cycle
                and not window.is_driver and not window.plan.cancelled
                for (kind, _), window in router.promises.windows())
        for router in net.routers
    )


def _inside_multi_flit_window(net) -> bool:
    """Some router is partway through a live multi-flit ``OUT`` window."""
    return any(
        kind == OUT and window.end - window.first > 1
        and window.first < net.cycle < window.end
        and not window.plan.cancelled
        for router in net.routers
        for (kind, _), window in router.promises.windows()
    )


@pytest.mark.parametrize(
    "predicate", [_window_ahead_of_a_sleeping_router,
                  _inside_multi_flit_window],
    ids=["claimed_window_ahead", "inside_multi_flit_window"])
def test_system_restore_between_a_claim_and_its_slot(predicate):
    reset_packet_ids()
    sim = SystemSimulator("Web Search", NocKind.MESH_PRA, seed=5)
    sim.start()
    sim.chip.run(200)
    sim.begin_interval()
    for elapsed in range(1, 800):
        sim.chip.run(1)
        if predicate(sim.chip.network):
            break
    else:
        raise AssertionError("the scanned run never reached the state")
    sim2 = restore_system(_json_round_trip(snapshot_system(sim)))
    net2 = sim2.chip.network
    assert predicate(net2)
    # A window the restored run never steps (no wake, no calendar
    # entry) is a reservation leak even where the digest cannot see it;
    # every window open at the snapshot closes within the horizon.
    net2.attach(invariants=InvariantSuite(audit_period=1))
    audited = min(64, 800 - elapsed)
    sim2.chip.run(audited)
    net2.attach(invariants=None)
    sim2.chip.run(800 - elapsed - audited)
    sample = sim2.end_interval()
    digest = run_digest(sample, net2.stats.summary())
    assert digest == GOLDEN_SYSTEM[NocKind.MESH_PRA]


def _chaos_run(snapshot_at: int):
    """The chaos scenario: mesh+PRA with an active random fault
    schedule.  Returns the straight-run digest and, when
    ``snapshot_at`` is reached, a snapshot taken mid-run."""
    reset_packet_ids()
    cycles = 400
    net = build_network(NocParams(kind=NocKind.MESH_PRA,
                                  mesh_width=4, mesh_height=4))
    schedule = FaultSchedule.random(11, net.topology.num_nodes, cycles)
    net.attach(faults=FaultInjector(schedule))
    traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, 0.03,
                               seed=3)
    traffic.run(snapshot_at)
    snap = _json_round_trip(snapshot_network(net, traffic))
    traffic.run(cycles - snapshot_at)
    net.drain(max_cycles=_DRAIN)
    return _digest(net.stats.summary()), snap, schedule, cycles - snapshot_at


def test_snapshot_with_fault_schedule_attached():
    straight, snap, schedule, remaining = _chaos_run(snapshot_at=150)
    net2, traffic2 = restore_network(snap)
    # Observers are not part of the snapshot; restore re-attaches them
    # through the same single code path every caller uses.  Injection
    # decisions are pure functions of (schedule, site, cycle), so a
    # fresh injector continues the schedule exactly.
    net2.attach(faults=FaultInjector(schedule))
    assert _continue_and_digest(net2, traffic2, remaining) == straight


def test_snapshot_on_ring_topology():
    reset_packet_ids()
    cycles, half = 600, 300
    net = make_network(NocKind.MESH, 16, 1, topology="ring")
    traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, 0.05,
                               seed=9)
    traffic.run(cycles)
    net.drain(max_cycles=_DRAIN)
    straight = _digest(net.stats.summary())

    reset_packet_ids()
    net = make_network(NocKind.MESH, 16, 1, topology="ring")
    traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, 0.05,
                               seed=9)
    traffic.run(half)
    snap = _json_round_trip(snapshot_network(net, traffic))
    assert snap["network_class"] == "mesh@ring"
    net2, traffic2 = restore_network(snap)
    assert _continue_and_digest(net2, traffic2, cycles - half) == straight


_GAP_BEFORE_SNAP, _GAP_AFTER_SNAP = 50, 70


def _burst_gap_burst(tmp_path=None):
    """Two mesh+PRA bursts separated by a 120-cycle idle gap.  With
    ``tmp_path``, the run is snapshotted to disk in the middle of the
    gap and continues on the restored network."""
    net, traffic = _build_golden(NocKind.MESH_PRA)
    traffic.run(250)
    net.drain(max_cycles=_DRAIN)
    if tmp_path is None:
        net.run(_GAP_BEFORE_SNAP + _GAP_AFTER_SNAP)
    else:
        net.run(_GAP_BEFORE_SNAP)
        assert net.stats.in_flight == 0
        path = str(tmp_path / "mid-gap.json")
        write_snapshot(snapshot_network(net, traffic), path)
        net, traffic = restore_network(read_snapshot(path))
        net.run(_GAP_AFTER_SNAP)
    traffic.run(250)
    net.drain(max_cycles=_DRAIN)
    return net


def test_snapshot_in_an_idle_gap_restores_exactly(tmp_path):
    straight = _burst_gap_burst()
    resumed = _burst_gap_burst(tmp_path)
    assert _digest(resumed.stats.summary()) \
        == _digest(straight.stats.summary())
    assert resumed.cycle == straight.cycle


# -- the snapshot file codec -----------------------------------------------


def _smart_snapshot() -> dict:
    net, traffic = _build_golden(NocKind.SMART)
    traffic.run(200)
    return snapshot_network(net, traffic)


@pytest.mark.parametrize("name", ["snap.json", "snap.json.gz"])
def test_snapshot_file_formats_round_trip(name, tmp_path):
    snap = _smart_snapshot()
    path = str(tmp_path / name)
    write_snapshot(snap, path)
    assert read_snapshot(path) == _json_round_trip(snap)


def test_equal_state_gives_byte_equal_gz(tmp_path):
    """No wall clock and no file name in the gzip header."""
    snap = _smart_snapshot()
    first, second = tmp_path / "first.json.gz", tmp_path / "second.json.gz"
    write_snapshot(snap, str(first))
    write_snapshot(_json_round_trip(snap), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_gzip_framing_is_sniffed_not_named(tmp_path):
    snap = _smart_snapshot()
    write_snapshot(snap, str(tmp_path / "snap.json.gz"))
    renamed = tmp_path / "snap.json"
    os.replace(tmp_path / "snap.json.gz", renamed)
    net, traffic = restore_network(read_snapshot(str(renamed)))
    assert net.cycle == 200 and traffic is not None


def test_failed_write_keeps_previous_file_and_no_tmp(tmp_path, monkeypatch):
    snap = _smart_snapshot()
    path = tmp_path / "snap.json"
    write_snapshot(snap, str(path))
    good = path.read_bytes()

    # The encoder fails part-way through the dict.
    with pytest.raises(TypeError):
        write_snapshot({**snap, "zz": object()}, str(path))
    assert path.read_bytes() == good

    # The process dies between the data write and the rename.
    def crash(src, dst):
        raise OSError("injected")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="injected"):
        write_snapshot({**snap, "kind": "other"}, str(path))
    assert path.read_bytes() == good
    assert os.listdir(tmp_path) == ["snap.json"]


def test_checkpoint_package_needs_no_numpy(tmp_path):
    """The package has no runtime dependency: with ``numpy`` masked the
    codec still imports and round-trips (fresh process, so the mask is
    in place before the first import)."""
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from repro.checkpoint import read_snapshot, write_snapshot\n"
        "write_snapshot({'a': [1, 2]}, sys.argv[1])\n"
        "assert read_snapshot(sys.argv[1]) == {'a': [1, 2]}\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "snap.json.gz")],
        check=True, env={**os.environ, "PYTHONPATH": src},
    )


def test_network_stats_hold_simulation_state_only():
    from repro.harness.runner import GridStats
    from repro.noc.stats import NetworkStats

    harness_keys = set(GridStats().summary())
    assert harness_keys == {"grid_cache_hits", "grid_cache_misses"}
    assert not harness_keys & set(NetworkStats().state_dict())
    assert sorted(NetworkStats().summary()) == [
        "avg_hops", "avg_network_latency", "avg_total_latency",
        "control_packets_per_data_packet", "packets_ejected",
        "packets_injected", "packets_unfinished",
    ]


# -- what a snapshot -> restore loop holds ---------------------------------


def test_snapshot_frees_the_simulators_that_restores_replaced():
    """A simulator a restore replaced is a reference cycle; the next
    ``snapshot_system`` collects it, so a resume loop holds one live
    simulator.  Automatic collection is off, so only the snapshot's
    own collection can free one."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        reset_packet_ids()
        sim = SystemSimulator("Web Search", NocKind.MESH_PRA, seed=5)
        sim.start()
        retired = []
        for _ in range(3):
            sim.chip.run(50)
            snap = snapshot_system(sim)
            assert [ref() for ref in retired] == [None] * len(retired)
            retired.append(weakref.ref(sim))
            sim = restore_system(_json_round_trip(snap))
        assert retired[-1]() is not None  # freed by the next snapshot
    finally:
        if was_enabled:
            gc.enable()


# -- damaged snapshots: one typed error ------------------------------------


@pytest.fixture(scope="module")
def system_snapshot() -> dict:
    reset_packet_ids()
    sim = SystemSimulator("Web Search", NocKind.MESH_PRA, seed=5)
    sim.start()
    sim.chip.run(150)
    return snapshot_system(sim)


def _truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])


def _flip_bit(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x10
    with open(path, "wb") as fh:
        fh.write(data)


def _drop_router_key(snap):
    del snap["system"]["chip"]["network"]["routers"][0]["rr"]


def _drop_registry_packet(snap):
    del snap["registries"]["packets"][0]


def _skew_code_version(snap):
    snap["code_version"] = "3"


def _zero_sharer_count(snap):
    snap["system"]["chip"]["directories"][0]["sharers"][1] = 0


def _short_rng_words(snap):
    # Valid base64, but 624 state words where a generator has 625.
    snap["system"]["chip"]["rng"][1] = \
        base64.b64encode(bytes(4 * 624)).decode()


_DAMAGE = {
    "truncated-json": ("ck.json", None, _truncate),
    "truncated-gz": ("ck.json.gz", None, _truncate),
    "bit-flipped-gz": ("ck.json.gz", None, _flip_bit),
    "missing-router-key": ("ck.json", _drop_router_key, None),
    "missing-registry-packet": ("ck.json.gz", _drop_registry_packet, None),
    "code-version-skew": ("ck.json", _skew_code_version, None),
    "short-rng-words": ("ck.json", _short_rng_words, None),
    "zero-sharer-count": ("ck.json", _zero_sharer_count, None),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGE))
def test_damaged_snapshot_raises_snapshot_error(damage, system_snapshot,
                                                tmp_path, capsys):
    from tests.test_cli import _parse_error

    name, edit_state, edit_file = _DAMAGE[damage]
    snap = copy.deepcopy(system_snapshot)
    if edit_state is not None:
        edit_state(snap)
    path = str(tmp_path / name)
    write_snapshot(snap, path)
    if edit_file is not None:
        edit_file(path)

    with pytest.raises(SnapshotError):
        restore_system(read_snapshot(path))

    _parse_error(["simulate", "--restore", path], capsys)


def test_reading_a_non_checkpoint_file_fails_loudly(tmp_path):
    path = str(tmp_path / "nope.json")
    with open(path, "w") as fh:
        json.dump({"format": "something-else"}, fh)
    with pytest.raises(SnapshotError, match="not a repro checkpoint"):
        restore_network(read_snapshot(path))


# -- the resumable evaluation grid -----------------------------------------


def _tiny_scale():
    from repro.harness.runner import EvaluationScale

    return EvaluationScale("ckpt-test", warmup=50, measure=150, num_seeds=1)


def test_grid_resumes_from_cell_store(tmp_path):
    from repro.harness.runner import (
        clear_grid_cache,
        evaluation_grid,
        grid_stats,
    )

    store = CellStore(str(tmp_path))
    scale = _tiny_scale()
    kinds = (NocKind.MESH, NocKind.IDEAL)
    clear_grid_cache()
    hits0 = grid_stats.grid_cache_hits
    misses0 = grid_stats.grid_cache_misses

    # "Interrupted" first sweep: only one of the two cells finishes.
    evaluation_grid(("Web Search",), (NocKind.MESH,), scale, store=store)
    assert grid_stats.grid_cache_misses - misses0 == 1
    assert len(store) == 1

    # The re-run covers the full grid: the finished cell is served from
    # the store, only the missing one is recomputed.
    clear_grid_cache()
    grid = evaluation_grid(("Web Search",), kinds, scale, store=store)
    assert grid_stats.grid_cache_hits - hits0 == 1
    assert grid_stats.grid_cache_misses - misses0 == 2
    assert len(store) == 2

    # A third pass recomputes nothing at all.
    clear_grid_cache()
    resumed = evaluation_grid(("Web Search",), kinds, scale, store=store)
    assert grid_stats.grid_cache_hits - hits0 == 3
    assert grid_stats.grid_cache_misses - misses0 == 2
    for key, sample in grid.items():
        assert resumed[key].to_state() == sample.to_state()

    # The counters are observable through the stats summary.
    summary = grid_stats.summary()
    assert summary["grid_cache_hits"] == grid_stats.grid_cache_hits
    assert summary["grid_cache_misses"] == grid_stats.grid_cache_misses
    clear_grid_cache()


@pytest.mark.parametrize("junk", ["[1, 2, 3]", '{"sample": {}}',
                                  '{"sample": {"noc_kind": "torus"}}'])
def test_grid_cell_that_is_not_a_sample_is_a_miss(junk, tmp_path):
    """Valid JSON that is not a sample (a bit flip or a foreign file
    away) is recomputed and overwritten, like a truncated cell."""
    from repro.harness.runner import (
        clear_grid_cache,
        evaluation_grid,
        grid_stats,
    )

    store = CellStore(str(tmp_path))
    cells = (("Web Search",), (NocKind.IDEAL,), _tiny_scale())
    clear_grid_cache()
    good = evaluation_grid(*cells, store=store)
    (path,) = [os.path.join(root, name)
               for root, _, names in os.walk(str(tmp_path))
               for name in names]
    with open(path, "w") as fh:
        fh.write(junk)

    clear_grid_cache()
    misses0 = grid_stats.grid_cache_misses
    again = evaluation_grid(*cells, store=store)
    assert grid_stats.grid_cache_misses - misses0 == 1
    key = ("Web Search", NocKind.IDEAL)
    assert again[key].to_state() == good[key].to_state()
    with open(path) as fh:
        assert "sample" in json.load(fh)  # overwritten with a real cell
    clear_grid_cache()


def test_grid_in_memory_key_includes_params_and_seeds():
    """Same scale name, different seed list -> different cache entry."""
    from repro.harness import runner

    scale_a = runner.EvaluationScale("ckpt-key", warmup=40, measure=80,
                                     num_seeds=1)
    scale_b = runner.EvaluationScale("ckpt-key", warmup=40, measure=80,
                                     num_seeds=2)
    runner.clear_grid_cache()
    grid_a = runner.evaluation_grid(("Web Search",), (NocKind.IDEAL,),
                                    scale_a, store=None)
    grid_b = runner.evaluation_grid(("Web Search",), (NocKind.IDEAL,),
                                    scale_b, store=None)
    key = ("Web Search", NocKind.IDEAL)
    # Two seeds were merged in grid_b, so the cells must differ.
    assert grid_b[key].cycles == 2 * grid_a[key].cycles
    runner.clear_grid_cache()


def test_timed_out_grid_is_not_cached():
    """A grid truncated by a wall budget is a partial measurement: a
    later call in the same process with no budget must re-simulate."""
    from repro.config import RunConfig
    from repro.harness import runner

    cells = (("Web Search",), (NocKind.MESH,), _tiny_scale())
    key = ("Web Search", NocKind.MESH)
    runner.clear_grid_cache()
    limited = runner.evaluation_grid(*cells, store=None,
                                     config=RunConfig(wall_limit=1e-9))
    assert limited[key].timed_out
    hits = runner.grid_stats.grid_cache_hits
    full = runner.evaluation_grid(*cells, store=None,
                                  config=RunConfig(wall_limit=None))
    assert not full[key].timed_out
    assert full[key].cycles > limited[key].cycles
    assert runner.grid_stats.grid_cache_hits == hits
    # The complete cell is cached as before.
    again = runner.evaluation_grid(*cells, store=None, config=RunConfig())
    assert again[key].to_state() == full[key].to_state()
    assert runner.grid_stats.grid_cache_hits == hits + 1
    runner.clear_grid_cache()


def test_corrupt_store_cell_reads_as_miss(tmp_path):
    store = CellStore(str(tmp_path))
    store.put("ab" * 32, {"sample": {"x": 1}})
    path = store._path("ab" * 32)
    with open(path, "w") as fh:
        fh.write('{"sample": trunca')
    assert store.get("ab" * 32) is None
    assert ("ab" * 32) in store  # the file exists, but reads as a miss


def test_perf_sample_state_round_trip():
    sample = PerfSample(
        workload="Web Search", noc_kind=NocKind.MESH_PRA,
        instructions=1234, cycles=800, packets=77,
        avg_network_latency=9.5, avg_transaction_latency=30.25,
        control_packets=40, control_per_data=0.52,
        lag_distribution={0: 0.5, 2: 0.5}, pra_blocked_fraction=0.01,
        flits_delivered=300, total_hops=900, packets_unfinished=3,
    )
    clone = PerfSample.from_state(
        json.loads(json.dumps(sample.to_state()))
    )
    assert clone == sample


# -- the CLI driver --------------------------------------------------------


def test_cli_checkpoint_restore_digest(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    args = ["simulate", "web", "--noc", "smart",
            "--warmup", "80", "--measure", "120", "--digest"]
    assert main(args) == 0
    straight = capsys.readouterr().out

    tpl = str(tmp_path / "ck-{cycle}.json")
    assert main(args + ["--checkpoint-every", "50",
                        "--checkpoint", tpl]) == 0
    checkpointed = capsys.readouterr().out
    assert "checkpoint: cycle 50" in checkpointed
    assert "checkpoint: cycle 150" in checkpointed
    # 200 is a multiple of 50 but is the run's end: strictly before.
    assert "cycle 200" not in checkpointed

    for cycle in (50, 150):  # mid-warmup and mid-measure
        rc = main(["simulate", "--restore", str(tmp_path / f"ck-{cycle}.json"),
                   "--warmup", "80", "--measure", "120", "--digest"])
        assert rc == 0
        resumed = capsys.readouterr().out
        assert _digest_line(resumed) == _digest_line(straight)


def _digest_line(out: str) -> str:
    lines = [line for line in out.splitlines() if line.startswith("digest:")]
    assert len(lines) == 1
    return lines[0]
