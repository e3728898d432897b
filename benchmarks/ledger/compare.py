"""``run.py --compare A.json B.json``: is B a regression against A?

One row per (workload, end-to-end metric).  Host metrics compare
medians against the metric's bound, and say ``unresolved`` rather than
``same`` when either side's run-to-run spread (interquartile range over
median) is wider than that bound.  Simulated and accuracy metrics, and
digests, are exact for a seed and compare by equality.  A workload or a
metric that A has and B lacks is ``missing``, which fails.
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Tuple

import catalogue

#: Verdicts that make ``--compare`` exit non-zero.
FAILING = ("worse", "differs", "missing")


def host_verdict(metric: catalogue.EndToEnd, a: dict, b: dict) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    change = sign * (b["median"] - a["median"])     # positive is worse
    bound = metric.bound * a["median"]
    if metric.name == "setup_s":
        bound = max(bound, catalogue.SETUP_FLOOR_S)
    noisy = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > bound
    if abs(change) <= bound:
        return "unresolved" if noisy else "same"
    if noisy:
        # Too noisy to call on medians: only a clean separation of
        # every run of one side from every run of the other counts.
        a_vals = [sign * v for v in a["values"]]
        b_vals = [sign * v for v in b["values"]]
        if not (max(b_vals) < min(a_vals) or min(b_vals) > max(a_vals)):
            return "unresolved"
    return "worse" if change > 0 else "better"


def exact_verdict(metric: catalogue.EndToEnd, a: dict, b: dict) -> str:
    if a["value"] == b["value"]:
        return "same"
    lower_is_b = b["value"] < a["value"]
    return "better" if lower_is_b == (metric.better == "lower") else "worse"


def rows(doc_a: dict, doc_b: dict) -> List[Tuple[str, str, str, str]]:
    """(workload, metric, detail, verdict) for everything comparable."""
    same_inputs = all(
        doc_a["provenance"][key] == doc_b["provenance"][key]
        for key in ("seed", "sizes"))
    out = []
    for name, res_a in doc_a["workloads"].items():
        res_b = doc_b["workloads"].get(name)
        if res_b is None:
            out.append((name, "*", "workload absent from B", "missing"))
            continue
        for metric in catalogue.END_TO_END:
            a = res_a["end_to_end"][metric.name]
            b = res_b["end_to_end"].get(metric.name, {"omitted": "absent"})
            if "omitted" in a:
                continue
            if "omitted" in b:
                out.append((name, metric.name,
                            f"B omits it: {b['omitted']}", "missing"))
            elif metric.kind == "host":
                detail = (f"{a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
                          f" -> {b['median']:.6g} [{b['q1']:.6g}, "
                          f"{b['q3']:.6g}] {metric.unit}")
                out.append((name, metric.name, detail,
                            host_verdict(metric, a, b)))
            elif metric.kind == "check" or same_inputs:
                detail = f"{a['value']:.6g} -> {b['value']:.6g} {metric.unit}"
                out.append((name, metric.name, detail,
                            exact_verdict(metric, a, b)))
        if same_inputs:
            match = res_a["digests"] == res_b["digests"]
            out.append((name, "digests",
                        f"{len(res_a['digests'])} per-run digests",
                        "same" if match else "differs"))
    return out


def render(doc_a: dict, doc_b: dict,
           table: List[Tuple[str, str, str, str]]) -> str:
    lines = []
    for label, doc in (("A", doc_a), ("B", doc_b)):
        p = doc["provenance"]
        lines.append(
            f"{label}: rev {p['git_rev']}{'+dirty' if p['git_dirty'] else ''}"
            f", seed {p['seed']}, python {p['python']}, nproc {p['nproc']}, "
            f"calibration {p['calibration_mips']:.1f} Mit/s")
    if not any(metric == "digests" for _, metric, _, _ in table):
        lines.append("seed or sizes differ: simulated metrics and digests "
                     "are not comparable and were skipped")
    current = None
    for name, metric, detail, verdict in table:
        if name != current:
            lines.append(f"== {name}")
            current = name
        lines.append(f"  {metric:<30} {verdict:<10} {detail}")
    failing = [row for row in table if row[3] in FAILING]
    lines.append(f"{len(table)} rows, {len(failing)} failing"
                 + "".join(f"\n  {verdict.upper()}: {name} {metric}"
                           for name, metric, _, verdict in failing))
    return "\n".join(lines)


def main(path_a: pathlib.Path, path_b: pathlib.Path, say=print) -> int:
    doc_a = json.loads(path_a.read_text())
    doc_b = json.loads(path_b.read_text())
    table = rows(doc_a, doc_b)
    say(render(doc_a, doc_b, table))
    return 1 if any(verdict in FAILING for *_, verdict in table) else 0
