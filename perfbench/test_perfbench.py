"""Tests for the benchmark's own reference walk and span arithmetic."""

import importlib.util
import pathlib

import pytest

import trizig as tz

from instrument import layer_metrics, percentile
from naive import naive_orbit_count
from spans import Recorder, Span, covered, self_times, subtree

CONFTEST = pathlib.Path(__file__).resolve().parent.parent / "tests" / "conftest.py"


def _named_surfaces():
    spec = importlib.util.spec_from_file_location("named_surfaces", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module._named_builders().items())


@pytest.mark.parametrize("name, build", _named_surfaces())
def test_naive_walk_matches_all_zigzags(name, build):
    tri = build()
    assert naive_orbit_count(tri) == tz.all_zigzags(tri).count


def test_naive_walk_on_shredded_output_finds_one_pair():
    shredded, _certificate = tz.shred(tz.bipyramid(6))
    assert naive_orbit_count(shredded) == 2


def _span(id, parent, name, start, end, **attrs):
    return Span(id, parent, name, 0, start, end, attrs)


def test_self_time_subtracts_covered_child_time():
    tree = [
        _span(0, None, "bench.pass", 0.0, 10.0),
        _span(1, 0, "cli.main", 1.0, 6.0),
        _span(2, 1, "document.parse", 2.0, 3.0),
        _span(3, 1, "shredding.shred", 3.5, 5.0),
        _span(4, 3, "core.build", 4.0, 4.5),
        _span(5, 0, "document.serialize", 7.0, 9.0),
    ]
    selfs = self_times(tree)
    assert selfs == {0: 3.0, 1: 2.5, 2: 1.0, 3: 1.0, 4: 0.5, 5: 2.0}
    assert sum(selfs.values()) == tree[0].duration


def test_covered_merges_overlaps_and_clips():
    assert covered([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0, 10.0) == 5.0
    assert covered([], 0.0, 1.0) == 0.0


def test_subtree_keeps_one_pass():
    tree = [
        _span(0, None, "bench.pass", 0.0, 1.0),
        _span(1, 0, "document.parse", 0.1, 0.2),
        _span(2, None, "bench.pass", 2.0, 3.0),
        _span(3, 2, "document.parse", 2.1, 2.2),
    ]
    assert [span.id for span in subtree(tree, 2)] == [2, 3]


def test_recorder_nests_wrapped_calls():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("core.build", lambda: "built",
                          observe=lambda result: {"faces": 4})
    outer = recorder.wrap("document.parse", lambda: inner())
    root = recorder.begin("bench.pass", 7)
    assert outer() == "built"
    recorder.end(root)
    names = [(span.name, span.parent, span.trace) for span in recorder.spans]
    assert names == [("bench.pass", None, 7), ("document.parse", 0, 7),
                     ("core.build", 1, 7)]
    assert recorder.spans[2].attrs == {"faces": 4}
    assert self_times(recorder.spans) == {0: 2.0, 1: 2.0, 2: 1.0}


def test_layer_metrics_of_a_two_step_shred():
    # face_types at the start and after each of two repairs, then the final
    # check; each repair tries two gluing maps.
    tree = [
        _span(0, None, "bench.pass", 0.0, 20.0),
        _span(1, 0, "shredding.shred", 1.0, 19.0, steps=2),
        _span(2, 1, "monodromy.face_types", 1.0, 3.0, faces=10, search=4, bad=5),
        _span(3, 1, "shredding.find_gluing_map", 3.0, 4.0),
        _span(4, 3, "surgery.gluing_condition", 3.0, 3.5),
        _span(5, 3, "surgery.gluing_condition", 3.5, 4.0),
        _span(6, 1, "surgery.connected_sum", 4.0, 5.0),
        _span(7, 1, "monodromy.face_types", 5.0, 8.0, faces=12, search=2, bad=3),
        _span(8, 1, "shredding.find_gluing_map", 8.0, 9.0),
        _span(9, 8, "surgery.gluing_condition", 8.0, 9.0),
        _span(10, 1, "surgery.connected_sum", 9.0, 10.0),
        _span(11, 1, "monodromy.face_types", 10.0, 14.0, faces=14, search=0, bad=0),
        _span(12, 1, "monodromy.face_types", 15.0, 18.0, faces=14, search=0, bad=0),
    ]
    metrics = layer_metrics(tree)
    assert metrics["shredding.steps"] == 2
    assert metrics["shredding.bad_faces_initial"] == 5
    assert metrics["shredding.reclassified_per_step"] == (12 + 14 + 14) / 2
    assert metrics["shredding.map_hit_ratio"] == 2 / 3
    assert metrics["surgery.gluing_tries"] == 3
    assert metrics["surgery.connected_sum_calls"] == 2
    assert metrics["shredding.face_types_s"] == 12.0
    assert metrics["monodromy.classify_s"] == 0.0
    assert metrics["monodromy.search_share"] == 6 / 50
    assert metrics["shredding.step_ms.p50"] == 5000.0
    assert metrics["shredding.step_ms.p90"] == 6000.0
    assert metrics["shredding.find_map_s"] == 2.0
    assert metrics["shredding.self_s"] == 2.0
    assert metrics["surgery.self_s"] == 4.0
    assert metrics["monodromy.self_s"] == 12.0
    assert metrics["bench.self_s"] == 2.0
    assert sum(metrics[name] for name in (
        "shredding.self_s", "surgery.self_s", "monodromy.self_s",
        "bench.self_s")) == 20.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))
    assert percentile(values, 0.5) == 10
    assert percentile(values, 0.95) == 19
    assert percentile([], 0.5) == 0.0
