#!/usr/bin/env python3
"""Fail when README §Performance, DESIGN.md or EXPERIMENTS.md cite a
performance name that has no producer: a workload or metric missing from
BENCHMARK.json, a key missing from BENCH_PIPELINE.json, or anything the
retired single-node record used to hold.

Citation conventions checked (all inside backticks):
  * `--workload NAME`                   NAME is a BENCHMARK.json workload
  * `layer.metric`, `layer.sub.*`       matches a per_layer metric
  * `WORKLOAD` `metric`                 metric is an end_to_end metric
  * bare names in README §Performance   workload, end_to_end metric, or a
                                        BENCH_PIPELINE.json key / sub-key
Run from the repository root: python3 scripts/check_perf_docs.py
"""
import fnmatch
import json
import re
import sys

bench = json.load(open("BENCHMARK.json"))
workloads = {w["name"] for w in bench["workloads"]}
end_to_end = {m["name"] for m in bench["end_to_end"]}
per_layer = {m["name"] for m in bench["per_layer"]}
layers = {name.split(".")[0] for name in per_layer}

record = json.load(open("BENCH_PIPELINE.json"))
record_names = set(record)
for value in record.values():
    if isinstance(value, dict):
        record_names |= set(value)

# What the retired harnesses read or wrote; the key list is frozen here
# because the record no longer holds them. Each name is written with a "~"
# inside so that a repository-wide grep for these names finds only real
# uses, never this list.
def names(*marked):
    return [m.replace("~", "") for m in marked]


RETIRED_TEXT = names(
    "perf~bench", "--miss~-rate", "FREEPHISH_BENCH~_REPS", "FREEPHISH_LOADGEN~_CONNS"
)
RETIRED_KEYS = names(
    "classify~_hot_path", "site_similarity~_sweep", "pipeline~_tick", "train~_phase",
    "store_append~_throughput", "store~_recovery", "par~_metrics", "thr~eads",
    "serve~_throughput", "serve~_latency", "serve~_p999", "serve_worker~_utilization",
    "ops_scrape~_latency", "serve_miss~_classify", "serve_miss~_classify_per_sec",
    "serve_tier~_hit_rates",
)

FILE_SUFFIXES = (".rs", ".json", ".sh", ".md", ".toml", ".py")
errors = []


def performance_section(text):
    start = text.index("## Performance\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def check(path, text, strict_bare_names):
    def err(msg):
        errors.append(f"{path}: {msg}")

    for needle in RETIRED_TEXT:
        if needle in text:
            err(f"mentions retired `{needle}`")
    for name in re.findall(r"--workload\s+([A-Za-z0-9_|<>…]+)", text):
        for part in name.split("|"):
            if part[0] not in "<…" and part not in workloads:
                err(f"--workload {part} is not a BENCHMARK.json workload")

    tokens = [(m.start(), m.group(1)) for m in re.finditer(r"`([^`\n]+)`", text)]
    previous_end, previous = -1, None
    for start, token in tokens:
        head = token.split(".")[0]
        if token in RETIRED_KEYS or head in RETIRED_KEYS and "." in token:
            err(f"`{token}` is a retired BENCH_PIPELINE.json key")
        elif "." in token and head in layers and not token.endswith(FILE_SUFFIXES):
            if re.fullmatch(r"[a-z0-9_.*]+", token) and not fnmatch.filter(per_layer, token):
                err(f"`{token}` matches no per_layer metric in BENCHMARK.json")
        bare = re.fullmatch(r"[a-z0-9_]+", token) is not None
        follows_workload = previous in workloads and text[previous_end:start].isspace()
        if bare and follows_workload and token not in end_to_end | workloads:
            err(f"`{previous}` `{token}`: not an end_to_end metric in BENCHMARK.json")
        elif bare and strict_bare_names and "_" in token:
            if token not in workloads | end_to_end | record_names:
                err(f"`{token}` is neither in BENCHMARK.json nor in BENCH_PIPELINE.json")
        previous_end, previous = start + len(token) + 2, token


check("README.md §Performance", performance_section(open("README.md").read()), True)
check("DESIGN.md", open("DESIGN.md").read(), False)
check("EXPERIMENTS.md", open("EXPERIMENTS.md").read(), False)

for e in errors:
    print(f"check_perf_docs: ERROR: {e}", file=sys.stderr)
sys.exit(1 if errors else 0)
