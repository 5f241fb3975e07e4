"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
from puppetflow import model as pmodel  # noqa: E402
from puppetflow import puppet  # noqa: E402
from puppetflow import tensor as pt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestTail:
    def test_fewer_than_a_hundred_samples_report_the_maximum(self):
        for n in (1, 5, 11, 20, 99):
            assert timing.tail(range(n, 0, -1)) == (n, 100)

    @pytest.mark.parametrize("n", [100, 101, 137, 170, 1000])
    def test_highest_percentile_with_ten_samples_beyond(self, n):
        xs = [float(i) for i in range(n)]
        value, p = timing.tail(reversed(xs))
        assert sum(x > value for x in xs) >= timing.MIN_BEYOND
        next_rank = math.ceil((p + 1) * n / 100)  # nearest rank of the next percentile up
        assert p == 99 or n - next_rank < timing.MIN_BEYOND

    def test_known_values(self):
        assert timing.tail(range(100)) == (89, 90)
        assert timing.tail(range(200)) == (189, 95)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            timing.tail([])


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


class TestSelfTime:
    def test_nested_spans(self):
        recorded = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("a.inner", 2.0, 3.0, 1),
            span("b", 5.0, 7.0, 0),
        ]
        assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 1.0, 2.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        recorded = [
            span("root", 0.0, 10.0, -1),
            span("x", 2.0, 6.0, 0),
            span("y", 4.0, 8.0, 0),
            span("z", 9.0, 12.0, 0),  # only [9, 10] lies inside the parent
        ]
        assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_totals_group_by_name(self):
        recorded = [span("op", 0.0, 2.0, -1), span("op", 3.0, 4.0, -1), span("leaf", 0.5, 1.0, 0)]
        assert spans.totals(recorded) == {"op": (2, pytest.approx(2.5)), "leaf": (1, pytest.approx(0.5))}


class TestTracer:
    def test_wraps_where_callers_look_up_and_restores(self):
        original_matmul, original_backward = pt.matmul, pt.Tensor.backward
        tracer = spans.Tracer(bench.layer_modules())
        x = pt.Tensor([[1.0, 2.0]], requires_grad=True)
        w = pt.Tensor([[1.0], [1.0]], requires_grad=True)
        img = puppet.Background("solid", (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)).render(8, 8)
        with tracer.recording(7):
            y = pmodel.lora_forward(x, w, None, "layer")  # reaches pt.matmul through `pt.`
            pt.sum_all(y).backward()
            puppet.blend_capsule(img, (1, 1), (6, 6), 1.0, (1.0, 1.0, 1.0))  # imported by name
        names = [s[0] for s in tracer.spans]
        assert names == ["model.lora_forward", "tensor.matmul", "tensor.sum_all", "tensor.backward",
                         "rasterize.blend_capsule"]
        assert tracer.spans[1][3] == 0  # matmul's parent is lora_forward
        assert {s[4] for s in tracer.spans} == {7}
        assert tracer.out_bytes["tensor.matmul"] == 4
        assert pt.matmul is original_matmul and pt.Tensor.backward is original_backward
        assert not hasattr(puppet.blend_capsule, "__wrapped__")

    def test_counts_at_layer_boundaries(self):
        tracer = spans.Tracer(bench.layer_modules())
        sample = puppet.generate_scene(3, 2, "portrait", 64)
        with tracer.recording(0):
            bench.rasterize.rasterize_sequence(sample.poses, 64, 64)
        assert tracer.counts["rasterize.frames"] == 2


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One timed op of each workload, untraced and traced (which needs two ops)."""
    root = tmp_path_factory.mktemp("checkout")
    return {(wl, trace): bench.run(wl, 5, 0.0, trace, root, repeats=1)
            for wl in bench.WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(smoke, workload):
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, record = smoke[workload, trace]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]}
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        assert record["env"]["blas"] and record["env"]["numpy"]
    e2e = smoke[workload, False][0]["metrics"]
    assert all(v["value"] > 0 for v in e2e.values())


def test_traced_counts_separate_the_layers(smoke):
    layers = {wl: smoke[wl, True][0]["metrics"] for wl in bench.WORKLOADS}
    assert layers["train"]["tensor.backward.calls"]["value"] == 1
    for wl in ("animate", "corpus"):
        assert layers[wl]["tensor.backward.calls"]["value"] == 0
    assert all(v["value"] == 0 for k, v in layers["corpus"].items()
               if k.startswith("tensor.") and k.endswith(".calls"))
    for wl in ("train", "animate"):
        assert layers[wl]["puppet.generate_scene.calls"]["value"] == 0
    assert layers["corpus"]["puppet.generate_scene.calls"]["value"] == 1
    assert layers["animate"]["flow.sample.calls"]["value"] == 1
    assert layers["animate"]["vae.frames_decoded"]["value"] == bench.FRAMES
