"""Latency attribution: the numbers behind EXPERIMENTS.md's gap analysis.

Splits Mesh+PRA network latency into planned responses, unplanned
responses, and requests, and reports plan coverage and length — the
quantities that explain how much of the mesh-to-ideal gap PRA can
capture in this substrate.  A second table counts every refused
reservation attempt by the check that refused it and the control
packet's remaining lag.
"""

from collections import Counter

from repro.harness.reporting import format_table
from repro.params import MessageClass, NocKind
from repro.perf.system import SystemSimulator

WORKLOAD = "Web Search"


def _mean(acc):
    return acc[0] / acc[1] if acc[1] else 0.0


def test_attribution(benchmark, save_result, scale):
    def run():
        sim = SystemSimulator(WORKLOAD, NocKind.MESH_PRA, seed=1)
        sample = sim.run_sample(warmup=scale.warmup, measure=scale.measure)
        mesh = SystemSimulator(WORKLOAD, NocKind.MESH, seed=1)
        mesh_sample = mesh.run_sample(warmup=scale.warmup,
                                      measure=scale.measure)
        ideal = SystemSimulator(WORKLOAD, NocKind.IDEAL, seed=1)
        ideal_sample = ideal.run_sample(warmup=scale.warmup,
                                        measure=scale.measure)
        return sim.chip.network.stats, sample, mesh_sample, ideal_sample

    stats, sample, mesh_sample, ideal_sample = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    # Whole-run counters: unplanned responses are the response class
    # minus the planned ones.
    planned = stats.planned_response_latency
    responses = stats.class_latency[MessageClass.RESPONSE]
    unplanned = [responses[0] - planned[0], responses[1] - planned[1]]
    requests = stats.class_latency[MessageClass.REQUEST]
    lengths = stats.plan_length_histogram()
    rows = [
        ["planned responses", planned[1], _mean(planned)],
        ["unplanned responses", unplanned[1], _mean(unplanned)],
        ["requests", requests[1], _mean(requests)],
        ["(mesh avg, all)", mesh_sample.packets,
         mesh_sample.avg_network_latency],
        ["(ideal avg, all)", ideal_sample.packets,
         ideal_sample.avg_network_latency],
    ]
    coverage = planned[1] / responses[1]
    plan_length = (sum(k * v for k, v in lengths.items())
                   / sum(lengths.values()))
    extra = (
        f"plan coverage {coverage:.0%}, "
        f"mean plan length {plan_length:.2f} steps, "
        f"capture = {(mesh_sample.avg_network_latency - sample.avg_network_latency) / max(1e-9, mesh_sample.avg_network_latency - ideal_sample.avg_network_latency):.2f}"
    )
    refusals = stats.control_refusals
    lags = sorted({lag for _, lag in refusals})
    totals = Counter()
    for (check, _), count in refusals.items():
        totals[check] += count
    refusal_rows = [
        [check] + [refusals.get((check, lag), 0) for lag in lags] + [total]
        for check, total in sorted(totals.items(),
                                   key=lambda item: (-item[1], item[0]))
    ]
    save_result(
        "attribution",
        format_table(["Population", "Packets", "Mean latency"], rows,
                     f"Latency attribution ({WORKLOAD})") + "\n" + extra
        + "\n\n"
        + format_table(["Check"] + [f"lag {lag}" for lag in lags] + ["all"],
                       refusal_rows,
                       "Refused reservations by check and lag at drop"),
    )
    # The structural facts the gap analysis rests on:
    assert coverage > 0.5
    assert _mean(planned) < _mean(unplanned)
    assert _mean(planned) < mesh_sample.avg_network_latency
    # Requests ride the plain mesh (within noise).
    assert _mean(requests) == (
        __import__("pytest").approx(mesh_sample.avg_network_latency,
                                    rel=0.25)
    )
