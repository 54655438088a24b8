"""Tests of the benchmark's own logic: python -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run
import spans
import workloads
from productmix import allocation, graphs, kernels, pricing, sfm

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- tail percentile -----------------------------------------------------------

@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (19, 50.0, 9),  # too few samples for any rung: the median
        (20, 50.0, 10),
        (39, 50.0, 19),
        (40, 75.0, 10),
        (100, 75.0, 25),
        (199, 75.0, 49),
        (200, 95.0, 10),
        (999, 95.0, 49),
        (1000, 99.0, 10),
        (10000, 99.9, 10),
    ],
)
def test_tail_picks_highest_rung_with_ten_beyond(n, pct, beyond):
    values = list(range(n, 0, -1))  # order must not matter
    got_pct, value, got_beyond = measure.tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == n - beyond  # nearest rank: exactly `beyond` samples above
    assert sum(v > value for v in values) == beyond


def test_nearest_rank_is_exact_for_fractional_percentiles():
    ordered = list(range(1, 2001))
    assert measure.nearest_rank(ordered, 99.9) == (1998, 2)
    assert measure.nearest_rank(ordered, 50.0) == (1000, 1000)


# -- host-speed scaling ----------------------------------------------------------

def test_scaled_divides_by_the_nearby_reference():
    ref = measure.REFERENCE_S
    latencies = [0.5] * 60
    # the host runs at full speed for 30 operations, then at half speed
    references = [ref] * 30 + [2 * ref] * 30
    out = measure.scaled(latencies, references, window=3)
    assert out[:26] == [0.5] * 26
    assert out[34:] == [0.25] * 26
    # a slow reference sample counts for its share of the window only
    spiky = [ref] * 20
    spiky[10] = 9 * ref
    out = measure.scaled([1.0] * 20, spiky, window=3)
    assert out[:6] == [1.0] * 6 and out[14:] == [1.0] * 6
    assert out[8] == pytest.approx(0.5)  # eight samples around it, one 9x slow
    # in a full window the highest and lowest tenth drop out
    assert measure.trimmed_mean([9.0, 0.0] + [1.0] * 20) == 1.0
    assert measure.scaled([1.0] * 40, [ref] * 20 + [50 * ref] + [ref] * 19)[20] == 1.0


def test_loop_takes_one_reference_per_operation():
    loop = measure.Loop(lambda i: i, 3, type("Ok", (), {"ok": lambda self, i, out: True})())
    loop.replay([0, 1, 2])
    assert len(loop.references) == len(loop.latencies) == 3
    assert all(r > 0 for r in loop.references)
    assert len(loop.scaled()) == 3


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    assert spans.self_time(0.0, 10.0, []) == 10.0
    assert spans.self_time(0.0, 10.0, [(1.0, 4.0), (5.0, 9.0)]) == 3.0
    # overlapping and out-of-range child intervals count once, clipped
    assert spans.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 3.0


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_nested_spans_self_times_and_layers(monkeypatch):
    # op [0,10] > pricing [1,7] > (kernels [2,3], kernels [4,6]); sfm [8,9]
    monkeypatch.setattr(spans, "_clock", FakeClock([0, 1, 2, 3, 4, 6, 7, 8, 9, 10]))
    tracer = spans.Tracer()
    kernel = tracer.wrap("kernels.indirect_utility", lambda: None)
    sfm_call = tracer.wrap("sfm.minimise", lambda: None)

    def price():
        kernel()
        kernel()

    def op():
        tracer.wrap("pricing.long_step_min_up", price)()
        sfm_call()

    tracer.run_op("op.clear", op)
    assert [tracer.span_name(i) for i in range(len(tracer))] == [
        "op.clear",
        "pricing.long_step_min_up",
        "kernels.indirect_utility",
        "kernels.indirect_utility",
        "sfm.minimise",
    ]
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]
    assert list(tracer.op) == [0, 0, 0, 0, 0]
    assert tracer.self_times() == [3.0, 3.0, 1.0, 2.0, 1.0]


def test_spans_only_recorded_inside_an_operation():
    tracer = spans.Tracer()
    fn = tracer.wrap("kernels.min_step", lambda x: x + 1)
    assert fn(1) == 2
    assert len(tracer) == 0
    assert tracer.run_op("op.validate", fn, 1) == 2
    assert len(tracer) == 2 and list(tracer.op) == [0, 0]


# -- instrumentation -----------------------------------------------------------

def test_instrument_counts_layers_and_restores():
    originals = (
        kernels.pure.demand_masks,
        sfm.SetFunction,
        allocation.find_params,
        pricing.PriceProblem.__init__,
    )
    inputs = workloads.generate("dense-bids", 3)[:1]
    auction = workloads.build(inputs)[0]
    tracer = spans.Tracer()
    saved = spans.instrument(tracer)
    try:
        tracer.run_op("op.clear", workloads.clear, auction)
    finally:
        spans.restore(saved)
    assert (
        kernels.pure.demand_masks,
        sfm.SetFunction,
        allocation.find_params,
        pricing.PriceProblem.__init__,
    ) == originals
    assert graphs.find_params is allocation.find_params
    layer = spans.layer_metrics(tracer, 1)
    assert set(layer) | {"testgen.gen_s", "trace.overhead_ratio"} == set(spans.UNITS)
    for key in ("kernels.calls", "sfm.calls", "sfm.oracle_evals", "pricing.direction_calls",
                "graphs.calls", "allocation.iterations", "core.build_calls"):
        assert layer[key] > 0, key
    assert layer["validity.calls"] == 0
    # the op's own span plus every layer's self time adds up to its duration
    total = tracer.end[0] - tracer.start[0]
    assert sum(tracer.self_times()) == pytest.approx(total)


# -- inputs and correctness gate -------------------------------------------------

@pytest.mark.parametrize("name", ["dense-bids", "submissions"])
def test_same_seed_same_inputs(name):
    first = workloads.generate(name, 11)
    assert first == workloads.generate(name, 11)
    assert first != workloads.generate(name, 12)
    assert len(first) == workloads.WORKLOADS[name].pool


def test_submissions_mix_valid_and_corrupted_lists():
    spec = workloads.WORKLOADS["submissions"]
    for seed in (5, 6):
        inputs = workloads.generate("submissions", seed)
        corrupted = sum(item.corrupted for item in inputs)
        assert corrupted == round(spec.pool * spec.corrupt_share) < len(inputs) / 2


def test_wide_goods_lists_have_the_fixed_bid_count():
    spec = workloads.WORKLOADS["wide-goods"]
    for auction in workloads.generate("wide-goods", 5)[:8]:
        assert [len(rows) for _, rows in auction.bidders] == [spec.list_bids] * spec.bidders


def test_checker_rejects_wrong_outputs():
    inputs = workloads.generate("dense-bids", 4)[:1]
    prepared = workloads.build(inputs)
    checker = workloads.Checker(inputs, prepared)
    out = workloads.clear(prepared[0])
    assert checker.ok(0, out)
    bumped = tuple(p + 1 for p in out.price)
    assert not checker.ok(0, workloads.Cleared(bumped, out.bundles, out.unsold))
    shifted = (tuple(v + 1 for v in out.bundles[0]),) + out.bundles[1:]
    assert not checker.ok(0, workloads.Cleared(out.price, shifted, out.unsold))

    inputs = workloads.generate("submissions", 4)[:8]
    checker = workloads.Checker(inputs, workloads.build(inputs))
    for k, item in enumerate(inputs):
        assert not checker.ok(k, "undecided")
        if not item.corrupted:
            assert checker.ok(k, "valid") and not checker.ok(k, "invalid")


# -- BENCHMARK.json agrees with the code --------------------------------------------

def test_benchmark_json_matches_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == spans.UNITS
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-bids", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
