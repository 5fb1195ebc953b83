"""Summaries of finished benchmark runs, read from perfbench/results/.

    python3 perfbench/summarize.py baseline SEED... > perfbench/baseline.json
    python3 perfbench/summarize.py shares perfbench/results/spans-WORKLOAD-seedN-trace1.json

`baseline` takes the --trace 0 result of every workload at each given seed
and prints, per end-to-end metric, the median, the first and third quartile
(statistics.quantiles, n=4) and spread = (q3 - q1) / median.  `shares`
prints, per task of a traced run, the self seconds of each layer and its
share of the task.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from tracing import TASK, self_times

RESULTS = Path(__file__).resolve().parent / "results"


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def baseline(seeds) -> dict:
    out, provenance = {}, None
    for path in sorted(RESULTS.glob(f"result-*-seed{seeds[0]}-trace0.json")):
        workload = json.loads(path.read_text())["workload"]
        runs = [json.loads((RESULTS / f"result-{workload}-seed{s}-trace0.json").read_text()) for s in seeds]
        provenance = runs[0]["provenance"]
        metrics = {name: {**spread([r["metrics"][name]["value"] for r in runs]), "unit": first["unit"]}
                   for name, first in runs[0]["metrics"].items()}
        metrics["wall_s"]["measured"] = spread([min(r["measured"]["pass_walls_s"]) for r in runs])
        out[workload] = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
                         "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                         "passes": [r["passes"] for r in runs], "metrics": metrics}
    return {"about": "python3 perfbench/summarize.py baseline " + " ".join(map(str, seeds)),
            "provenance": provenance, "workloads": out}


def shares(spans_file) -> dict:
    spans = json.loads(Path(spans_file).read_text())["spans"]
    per_task = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        per_task[str(span[TASK]).split(":", 1)[-1]][span[0].split(".")[0]] += own
    out = {}
    for task, layers in per_task.items():
        total = sum(layers.values())
        out[task] = {"self_s": total, **{layer: {"self_s": s, "share": s / total}
                                          for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])}}
    return out


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "baseline":
        result = baseline([int(s) for s in argv[1:]])
    elif len(argv) == 2 and argv[0] == "shares":
        result = shares(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
