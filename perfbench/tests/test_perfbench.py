"""Tests of the benchmark itself, on a tiny workload that runs in seconds.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import tracer  # noqa: E402

TINY = (
    ("bounds", "--channel", "bdc", "--n", "6", "--d-grid", "0.3:0.5:0.1",
     "--kinds", "raw,adjusted,dup-last", "--output", "{tmp}/out.csv"),
    ("mdm-table", "--n", "7", "--m", "3", "--checkpoint", "{tmp}/checkpoint", "--output", "{tmp}/out.csv"),
    ("baa", "--n", "3", "--d", "0.5", "--history", "{tmp}/history.csv"),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("work"))


@pytest.fixture(scope="module")
def refs(workdir):
    return bench.record(ROOT, workdir, TINY)


def _units(pairs):
    return {name: unit for name, unit, *_ in pairs}


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in bench.PER_LAYER
    ]


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit(workdir, refs):
    passes = bench.measure(ROOT, workdir, TINY, 0, False, refs)
    result = bench.summarize(passes, False)
    assert (result["attempted"], result["failed"], result["correct"]) == (3 * len(passes), 0, True)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(bench.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert bench.counters_repeat(passes) == []


def test_traced_run_reports_every_per_layer_metric_with_its_unit(workdir, refs):
    passes = bench.measure(ROOT, workdir, TINY, 0, True, refs)
    assert [p["traced"] for p in passes] == [False, True, False, True]
    result = bench.summarize(passes, True)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(bench.PER_LAYER)
    for name in ("patcount.kernel_calls", "patcount.scalar_calls", "bitseq.canonical_calls",
                 "bitseq.from_numeral_calls", "mdm.classes_solved", "mdm.checkpoint_bytes",
                 "bounds.ml_s", "baa.iterations", "baa.build_s", "cli.bytes_written"):
        assert metrics[name]["value"] > 0, name
    assert metrics["bounds.dup_calls"]["value"] == 3
    # raw and adjusted share one search per d; mdm-table sweeps 2^3 outputs
    assert metrics["mdm.outputs"]["value"] == 2 ** 5 + 2 ** 4 + 2 ** 3 + 2 ** 3
    assert metrics["baa.matrix_mb"]["value"] == 8 * 15 * 8 / 2 ** 20


@pytest.mark.parametrize("index", range(len(TINY)))
def test_wrong_reference_counts_as_a_failed_op(workdir, refs, index):
    key = bench.ref_key(TINY[index])
    wrong = dict(refs)
    if TINY[index][0] == "baa":
        stdout = refs[key]["stdout"]
        wrong[key] = {"stdout": stdout.replace("capacity_proxy=0", "capacity_proxy=1")}
        assert wrong[key]["stdout"] != stdout
    else:
        output = refs[key]["output"]
        wrong[key] = {"stdout": "", "output": output[:-2] + ("0" if output[-2] != "0" else "1") + "\n"}
    result = bench.run_pass(ROOT, workdir, TINY, False, wrong)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["problems"][0].startswith(TINY[index][0])


def test_recount_catches_a_max_count_that_x_star_does_not_reach(workdir, refs):
    csv_text = refs[bench.ref_key(TINY[1])]["output"]
    header, first, *rest = csv_text.splitlines()
    y, x_star, count, *tail = first.split(",")
    bad = "\n".join([header, ",".join([y, x_star, str(int(count) + 1), *tail]), *rest])
    assert bench._recount(csv_text) == []
    assert len(bench._recount(bad)) == 1


def test_self_times_sum_to_no_more_than_the_pass_wall_time(workdir, refs):
    result = bench.run_pass(ROOT, workdir, TINY, True, refs)
    own = tracer.self_times(result["spans"])
    assert min(own) >= 0.0
    assert sum(own) <= result["wall_raw_s"]
    top = [s for s in result["spans"] if s[4] == -1]
    assert [s[0] for s in top] == ["main"] * len(TINY)


def test_rescale_removes_the_sampling_time_and_applies_the_sampled_speed():
    sampled = {"speed_sum": 3.0, "samples": 2, "sampling_s": 0.5}
    assert bench.rescale(2.5, sampled, 9.0) == pytest.approx(3.0)
    unsampled = {"speed_sum": 0.0, "samples": 0, "sampling_s": 0.0}
    assert bench.rescale(2.0, unsampled, 0.75) == pytest.approx(1.5)


def test_every_phase_of_a_pass_is_sampled(workdir, refs):
    result = bench.run_pass(ROOT, workdir, TINY, False, refs)
    assert 0.2 < result["speed"] < 5.0
    assert result["wall_s"] > 0 and result["setup_s"] > 0


def test_counters_that_differ_between_passes_are_flagged():
    def traced(iterations):
        return {"timed": True, "traced": True, "counters": {"baa.iterations": iterations}}

    assert bench.counters_repeat([traced(5), traced(5)]) == []
    assert bench.counters_repeat([traced(5), traced(6)]) == ["baa.iterations"]


def test_seed_picks_the_variant_deterministically():
    workload = bench.WORKLOADS["dup-curve"]
    assert workload.ops(7) == workload.ops(7)
    assert len({workload.ops(seed) for seed in range(40)}) == len(workload.variants)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "ml-curve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
