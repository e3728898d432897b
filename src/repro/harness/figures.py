"""Reproduction of every table and figure in the paper's evaluation.

Each function returns a dict with ``title``, ``headers``, ``rows`` (for
rendering) plus figure-specific structured data, and is backed by the
cached simulation grid (:mod:`repro.harness.runner`).  EXPERIMENTS.md
records paper-vs-measured for each.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.config import RunConfig
from repro.noc.topology import Direction
from repro.params import (
    NUM_MESSAGE_CLASSES, ChipParams, NocKind, PACKET_FLITS, MessageClass,
)
from repro.perf.metrics import geomean
from repro.harness.runner import (
    ALL_KINDS,
    EvaluationScale,
    evaluation_grid,
)
from repro.physical.area import noc_area
from repro.physical.density import chip_area_mm2
from repro.physical.power import chip_power, noc_power
from repro.workloads.profiles import WORKLOAD_NAMES

#: Figure 2 uses the two representative workloads of the motivation.
FIGURE2_WORKLOADS = ("Media Streaming", "Web Search")

_KIND_LABEL = {
    NocKind.MESH: "Mesh",
    NocKind.SMART: "SMART",
    NocKind.MESH_PRA: "Mesh+PRA",
    NocKind.IDEAL: "Ideal",
}


class MissingCellError(LookupError):
    """A figure needs a grid cell the sweep does not have (typically
    one quarantined after repeated failures; see the run report)."""


def _cell(grid: Dict, workload: str, kind: NocKind):
    """The one way grid figures read a cell."""
    try:
        return grid[(workload, kind)]
    except KeyError:
        raise MissingCellError(
            f"grid cell {workload}/{kind.value} is missing from the "
            f"sweep; a quarantined cell is listed in the grid run report"
        ) from None


def _normalized_performance(
    workloads: Iterable[str],
    kinds: Iterable[NocKind],
    scale: Optional[EvaluationScale],
    config: Optional[RunConfig] = None,
) -> Dict[str, Dict[NocKind, float]]:
    grid = evaluation_grid(tuple(workloads), tuple(kinds), scale,
                           config=config)
    out: Dict[str, Dict[NocKind, float]] = {}
    for workload in workloads:
        baseline = _cell(grid, workload, NocKind.MESH).ipc
        out[workload] = {
            kind: _cell(grid, workload, kind).ipc / baseline
            for kind in kinds
        }
    return out


def _perf_figure(
    title: str,
    workloads: Iterable[str],
    kinds: Iterable[NocKind],
    scale: Optional[EvaluationScale],
    config: Optional[RunConfig],
) -> Dict:
    workloads = tuple(workloads)
    kinds = tuple(kinds)
    normalized = _normalized_performance(workloads, kinds, scale, config)
    rows: List[List[object]] = [
        [wl] + [normalized[wl][k] for k in kinds] for wl in workloads
    ]
    gmeans = {
        k: geomean([normalized[wl][k] for wl in workloads]) for k in kinds
    }
    rows.append(["GMean"] + [gmeans[k] for k in kinds])
    return {
        "title": title,
        "headers": ["Workload"] + [_KIND_LABEL[k] for k in kinds],
        "rows": rows,
        "normalized": normalized,
        "gmeans": gmeans,
    }


def figure2(scale: Optional[EvaluationScale] = None,
            config: Optional[RunConfig] = None) -> Dict:
    """Figure 2: SMART and ideal NOCs vs. mesh (motivation)."""
    return _perf_figure(
        "Figure 2: performance of SMART and ideal NOCs, normalized to mesh",
        FIGURE2_WORKLOADS,
        (NocKind.MESH, NocKind.SMART, NocKind.IDEAL),
        scale,
        config,
    )


def figure6(scale: Optional[EvaluationScale] = None,
            config: Optional[RunConfig] = None) -> Dict:
    """Figure 6: full-system performance, normalized to mesh."""
    return _perf_figure(
        "Figure 6: system performance, normalized to a mesh-based design",
        WORKLOAD_NAMES,
        ALL_KINDS,
        scale,
        config,
    )


def figure7(scale: Optional[EvaluationScale] = None,
            config: Optional[RunConfig] = None) -> Dict:
    """Figure 7: distribution of control packets' lags when dropped."""
    grid = evaluation_grid(WORKLOAD_NAMES, ALL_KINDS, scale, config=config)
    rows = []
    distributions = {}
    for workload in WORKLOAD_NAMES:
        dist = _cell(grid, workload, NocKind.MESH_PRA).lag_distribution
        distributions[workload] = dist
        lag0 = dist.get(0, 0.0)
        lag1 = dist.get(1, 0.0)
        lag2 = dist.get(2, 0.0)
        others = max(0.0, 1.0 - lag0 - lag1 - lag2)
        rows.append([workload, lag0, lag1, lag2, others])
    avg = [
        sum(r[i] for r in rows) / len(rows) for i in range(1, 5)
    ]
    rows.append(["Average"] + avg)
    return {
        "title": "Figure 7: distribution of control packets' lags at drop",
        "headers": ["Workload", "Lag0", "Lag1", "Lag2", "Others"],
        "rows": rows,
        "distributions": distributions,
    }


def section5b_stats(scale: Optional[EvaluationScale] = None,
                    config: Optional[RunConfig] = None) -> Dict:
    """Section V-B: control packets per data packet; blocked time."""
    grid = evaluation_grid(WORKLOAD_NAMES, ALL_KINDS, scale, config=config)
    rows = []
    per_workload = {}
    for workload in WORKLOAD_NAMES:
        sample = _cell(grid, workload, NocKind.MESH_PRA)
        per_workload[workload] = {
            "control_per_data": sample.control_per_data,
            "blocked_fraction": sample.pra_blocked_fraction,
        }
        rows.append([
            workload,
            sample.control_per_data,
            sample.pra_blocked_fraction,
        ])
    return {
        "title": (
            "Section V-B: control packets per data packet and the "
            "fraction of network time spent blocked behind proactive "
            "allocations"
        ),
        "headers": ["Workload", "Ctrl/Data", "BlockedFrac"],
        "rows": rows,
        "per_workload": per_workload,
    }


def figure8(chip: Optional[ChipParams] = None) -> Dict:
    """Figure 8: NOC area breakdown (links, buffers, crossbars)."""
    chip = chip or ChipParams()
    kinds = (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA)
    rows = []
    areas = {}
    for kind in kinds:
        area = noc_area(chip, kind)
        areas[kind] = area
        rows.append([
            _KIND_LABEL[kind],
            area.links_mm2,
            area.buffers_mm2,
            area.crossbar_mm2,
            area.total_mm2,
        ])
    return {
        "title": "Figure 8: NOC area breakdown (mm^2)",
        "headers": ["Organization", "Links", "Buffers", "Crossbar", "Total"],
        "rows": rows,
        "areas": areas,
    }


def figure9(scale: Optional[EvaluationScale] = None,
            chip: Optional[ChipParams] = None,
            config: Optional[RunConfig] = None) -> Dict:
    """Figure 9: performance density, normalized to mesh."""
    chip = chip or ChipParams()
    grid = evaluation_grid(WORKLOAD_NAMES, ALL_KINDS, scale, config=config)
    area = {kind: chip_area_mm2(chip, kind) for kind in ALL_KINDS}
    normalized = {}
    rows = []
    for workload in WORKLOAD_NAMES:
        base = _cell(grid, workload, NocKind.MESH).ipc / area[NocKind.MESH]
        normalized[workload] = {
            kind: (_cell(grid, workload, kind).ipc / area[kind]) / base
            for kind in ALL_KINDS
        }
        rows.append([workload] + [normalized[workload][k] for k in ALL_KINDS])
    gmeans = {
        k: geomean([normalized[wl][k] for wl in WORKLOAD_NAMES])
        for k in ALL_KINDS
    }
    rows.append(["GMean"] + [gmeans[k] for k in ALL_KINDS])
    return {
        "title": (
            "Figure 9: performance per mm^2, normalized to a mesh-based "
            "design"
        ),
        "headers": ["Workload"] + [_KIND_LABEL[k] for k in ALL_KINDS],
        "rows": rows,
        "normalized": normalized,
        "gmeans": gmeans,
    }


def power_analysis(scale: Optional[EvaluationScale] = None,
                   chip: Optional[ChipParams] = None,
                   config: Optional[RunConfig] = None) -> Dict:
    """Section V-E: NOC power vs. cores across organizations."""
    chip = chip or ChipParams()
    grid = evaluation_grid(WORKLOAD_NAMES, ALL_KINDS, scale, config=config)
    rows = []
    powers = {}
    for kind in ALL_KINDS:
        # Worst-case workload activity for this organization.
        worst = None
        for workload in WORKLOAD_NAMES:
            sample = _cell(grid, workload, kind)
            avg_flits = (
                sample.flits_delivered / sample.packets
                if sample.packets else 1.0
            )
            flit_hops = int(sample.total_hops * avg_flits)
            p = noc_power(
                chip,
                flit_hops=flit_hops,
                cycles=sample.cycles,
                kind=kind,
                control_packets=sample.control_packets,
            )
            if worst is None or p.total_w > worst.total_w:
                worst = p
        powers[kind] = worst
        cp = chip_power(chip, worst)
        rows.append([
            _KIND_LABEL[kind], worst.total_w, cp.cores_w, cp.llc_w,
        ])
    return {
        "title": "Section V-E: worst-case NOC power vs. cores and LLC (W)",
        "headers": ["Organization", "NOC", "Cores", "LLC"],
        "rows": rows,
        "powers": powers,
    }


def zero_load_table(max_hops: int = 7) -> Dict:
    """Extra validation artifact: zero-load packet latency by distance.

    Exercises each organization's timing rules (Table I's pipeline
    depths) on an otherwise idle 8x8 mesh, for a single-flit request
    over 1..max_hops straight hops — the numbers behind the paper's
    "2 cycles/hop vs 3 cycles/hop vs 2 hops/cycle" argument.  Mesh+PRA
    is measured with an announced (pre-allocated) 5-flit response, its
    intended beneficiary.
    """
    from repro.noc.network import build_network
    from repro.noc.packet import Packet
    from repro.params import NocParams

    rows = []
    for hops in range(1, max_hops + 1):
        row: List[object] = [hops]
        for kind in ALL_KINDS:
            net = build_network(NocParams(kind=kind))
            msg = (
                MessageClass.RESPONSE
                if kind is NocKind.MESH_PRA
                else MessageClass.REQUEST
            )
            pkt = Packet(src=0, dst=hops, msg_class=msg, created=net.cycle)
            if kind is NocKind.MESH_PRA:
                net.announce(pkt, ready_in=4)
                net.run(4)
            net.send(pkt)
            net.drain(max_cycles=300)
            row.append(float(pkt.network_latency()))
        rows.append(row)
    return {
        "title": "Zero-load latency by hop count (cycles; Mesh+PRA row "
                 "is an announced 5-flit response)",
        "headers": ["Hops"] + [_KIND_LABEL[k] for k in ALL_KINDS],
        "rows": rows,
    }


#: Chiplet specs the chiplet figure evaluates against the flat mesh.
CHIPLET_FIGURE_SPECS = ("mesh", "chiplet:2x2x4x4", "chiplet:2x2x4x4:star")


def _modeled_pra_interposer(topology: str) -> float:
    """Modeled announced-response latency over a chiplet hierarchy.

    PRA is simulated only on the flat mesh; this projects its announced
    law onto hierarchical routes as an ablation axis: pre-allocation
    compresses each maximal straight intra-chiplet run to 2 tiles/cycle
    (the mesh law's ``ceil(run/2)`` segments, turns break runs), while
    interposer crossings stay wire-limited at their configured link
    latency — pre-allocation removes router delay, not substrate wire
    delay.  The constant 7-cycle envelope matches the mesh law.
    """
    from math import ceil

    from repro.noc.topology import (Direction, parse_topology_spec,
                                    topology_from_spec)

    spec = parse_topology_spec(topology)
    topo = topology_from_spec(spec, 8, 8)
    limit = topo.num_endpoints
    total = 0.0
    pairs = 0
    for src in range(limit):
        for dst in range(limit):
            if dst == src:
                continue
            lat = 0.0
            run = 0
            run_dir = None
            for node, port in topo.route(src, dst)[:-1]:
                if isinstance(port, Direction):
                    if port is run_dir:
                        run += 1
                    else:
                        lat += ceil(run / 2)
                        run, run_dir = 1, port
                else:
                    lat += ceil(run / 2) + topo.link_latency(node, port)
                    run, run_dir = 0, None
            lat += ceil(run / 2)
            total += lat + 7.0
            pairs += 1
    return total / pairs


def chiplet_comparison(scale: Optional[EvaluationScale] = None) -> Dict:
    """Chiplet hierarchies vs the flat mesh (``figures --only chiplet``).

    Simulates the baseline and ideal organizations over each topology
    at a deep-unsaturated rate with the analytic model's predictions
    beside them (:func:`repro.analytic.validate_chiplet`), and adds two
    modeled ablation columns: the announced PRA-over-interposer law
    (:func:`_modeled_pra_interposer`) and the capacity bound of the
    bottleneck link (the gateway concentration penalty made visible).
    """
    from repro.analytic import validate_chiplet
    from repro.analytic.queueing import saturation_rate, synthetic_mix
    from repro.params import NocParams
    from repro.workloads.synthetic import TrafficPattern

    rate = 0.005
    entries = validate_chiplet(CHIPLET_FIGURE_SPECS, rate=rate)
    mix = synthetic_mix(TrafficPattern.UNIFORM_RANDOM)
    rows: List[List[object]] = []
    for topology in CHIPLET_FIGURE_SPECS:
        row: List[object] = [topology]
        # One mesh entry, then one ideal entry per topology.
        for entry in entries:
            if entry.topology == topology:
                row += [entry.simulated_latency, entry.predicted_latency]
        row.append(_modeled_pra_interposer(topology))
        row.append(saturation_rate(
            NocKind.MESH, mix, params=NocParams(topology=topology)
        ))
        rows.append(row)
    return {
        "title": (
            "Chiplet topologies vs the flat mesh: simulated and modeled "
            f"latency at rate {rate:g} (uniform random), the modeled "
            "announced PRA-over-interposer law, and the capacity bound"
        ),
        "headers": [
            "Topology", "SimMesh", "ModelMesh", "SimIdeal", "ModelIdeal",
            "PRA0(model)", "SatRate",
        ],
        "rows": rows,
    }


def analytic_validation(scale: Optional[EvaluationScale] = None,
                        config: Optional[RunConfig] = None) -> Dict:
    """Model-vs-simulation error per grid cell (the model's contract).

    Runs the cycle-accurate grid and compares every cell against
    :func:`repro.analytic.predict_cell`.  Not in the default ``figures``
    set; ``--only analytic`` or ``python -m repro analytic --validate``
    requests it explicitly.
    """
    from repro.analytic import (LATENCY_ERROR_MARGIN, validate_chiplet,
                                validate_grid)

    report = validate_grid(scale, config=config)
    rows: List[List[object]] = [
        [
            entry.workload,
            _KIND_LABEL[entry.kind],
            entry.simulated_latency,
            entry.predicted_latency,
            entry.latency_error,
            entry.ipc_error,
        ]
        for entry in report.entries
    ]
    # Chiplet topologies have no full-system grid cells; the
    # hierarchical zero-load laws are validated on low-rate synthetic
    # traffic against the same latency margin.
    chiplet_entries = validate_chiplet()
    for entry in chiplet_entries:
        rows.append([
            f"synthetic {entry.topology}",
            _KIND_LABEL[entry.kind],
            entry.simulated_latency,
            entry.predicted_latency,
            entry.latency_error,
            0.0,
        ])
    chiplet_ok = all(
        e.latency_error <= LATENCY_ERROR_MARGIN for e in chiplet_entries
    )
    rows.append([
        "Max", "", "", "",
        report.max_latency_error, report.max_ipc_error,
    ])
    verdict = "PASS" if report.ok and chiplet_ok else "FAIL"
    return {
        "title": (
            "Analytic model validation: per-cell relative error vs. the "
            f"cycle-accurate grid (margins {report.margin:.0%} latency / "
            f"{report.ipc_margin:.0%} IPC — {verdict})"
        ),
        "headers": [
            "Workload", "Organization", "SimLat", "ModelLat",
            "LatErr", "IPCErr",
        ],
        "rows": rows,
        "report": report,
        "chiplet_entries": chiplet_entries,
        "ok": report.ok and chiplet_ok,
    }


def table1(chip: Optional[ChipParams] = None) -> Dict:
    """Table I: evaluation parameters (consistency echo)."""
    chip = chip or ChipParams()
    tech = chip.technology
    rows = [
        ["Technology", f"{tech.node_nm} nm, {tech.vdd} V, "
                       f"{tech.frequency_ghz} GHz"],
        ["Cores", f"{chip.num_tiles}"],
        ["LLC", f"{chip.cache.llc_total_mb} MB NUCA, "
                f"{chip.llc_slice_mb * 1024:.0f} KB/slice"],
        ["LLC lookup", f"tag {chip.cache.tag_lookup_cycles} cycle + data "
                       f"{chip.cache.data_lookup_cycles} cycles (serial)"],
        ["Memory", f"{chip.memory.num_channels} DDR3-1600 channels"],
        ["Core", f"{chip.core.decode_width}-way OoO, "
                 f"{chip.core.rob_entries}-entry ROB, "
                 f"{chip.core.lsq_entries}-entry LSQ, "
                 f"{chip.core.area_mm2} mm^2, {chip.core.power_w} W"],
        ["Router", f"{len(Direction)} ports, "
                   f"{NUM_MESSAGE_CLASSES} VCs/port, "
                   f"{chip.noc.router.flits_per_vc} flits/VC"],
        ["Link", f"{chip.noc.router.link_width_bits} bits"],
        ["Packet sizes", ", ".join(
            f"{mc.name.lower()}={PACKET_FLITS[mc]}f" for mc in MessageClass
        )],
        ["PRA", f"max lag {chip.noc.pra.max_lag}, "
                f"{chip.noc.pra.hops_per_cycle} tiles/cycle, "
                f"{chip.noc.pra.control_link_width_bits}-bit control links"],
    ]
    return {
        "title": "Table I: evaluation parameters",
        "headers": ["Parameter", "Value"],
        "rows": rows,
    }
