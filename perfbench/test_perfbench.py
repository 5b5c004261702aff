"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path

import pytest

import check
import run
from speed import SpeedProbe
from spans import Span, Tracer, concurrency, covered, layer_metrics, outermost, self_times, tail
from workloads import document

ROOT = Path(__file__).resolve().parent.parent


def span(id_, start, end, parent=None, name="x"):
    return Span(id_, name, start, end, parent, None)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span(0, 0.0, 10.0),
            span(1, 1.0, 4.0, parent=0),
            span(2, 2.0, 3.0, parent=1),
            span(3, 5.0, 6.0, parent=0),
        ]
        own = self_times(spans)
        assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}

    def test_overlapping_children_count_once(self):
        # two pool threads under one execute span
        spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0), span(2, 4.0, 9.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(2.0)

    def test_children_clipped_to_parent(self):
        assert covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0

    def test_outermost_skips_same_layer_descendants(self):
        spans = [
            span(0, 0.0, 10.0, name="a"),
            span(1, 1.0, 4.0, parent=0, name="b"),
            span(2, 2.0, 3.0, parent=1, name="a"),
            span(3, 11.0, 12.0, name="a"),
        ]
        assert [s.id for s in outermost(spans, {"a"})] == [0, 3]

    def test_pool_threads_are_adopted_by_execute(self):
        tracer = Tracer()

        def job():
            tracer.call("simulation.run", lambda: None, (), {})

        def execute():
            worker = threading.Thread(target=job)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        tracer.call("experiments.execute", execute, (), {})
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["simulation.run"].parent == by_name["experiments.execute"].id


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, pct",
        [(2000, 99.0), (1000, 99.0), (100, 90.0), (60, 75.0), (40, 75.0), (39, 50.0), (20, 50.0)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, pct):
        value, got = tail(range(1, n + 1))
        assert got == pct
        assert n - value >= 10 or pct == 50.0

    def test_too_few_samples_fall_back_to_median(self):
        assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_speed_is_the_mean_of_the_samples_in_a_region():
    probe = SpeedProbe()
    probe.times, probe.speeds = [1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 0.8, 0.6]
    assert probe.speed(1.5, 3.5) == pytest.approx(0.9)
    # a region between two samples takes both
    assert probe.speed(2.2, 2.4) == pytest.approx(0.9)
    # past the last sample, the last one
    assert probe.speed(4.5, 4.6) == pytest.approx(0.6)


def test_probe_samples_while_open():
    with SpeedProbe() as probe:
        time.sleep(0.3)
    assert len(probe.speeds) >= 2
    assert all(s > 0 for s in probe.speeds)


def write_run(out: Path, rows_by_variant: dict[str, list[list]]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for variant, rows in rows_by_variant.items():
        lines = [",".join(check.COLUMNS)] + [",".join(str(x) for x in r) for r in rows]
        (out / f"{variant}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {"variants": {v: {} for v in rows_by_variant}}
    (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")


def rows(variant, seed, rounds=3, selected=2, mse=0.5, gated=False):
    out = []
    for t in range(1, rounds + 1):
        uploads = t * (selected - 1 if gated else selected)
        p = "" if variant == "fedavg" else math.exp(-t / 10.0)
        out.append([variant, seed, t, repr(mse / t), 0.75, uploads, p, "", ""])
    return out


class TestOutputCheck:
    variants = ("fedavg", "safl_extended")

    def make(self, tmp_path, **overrides):
        by_variant = {
            "fedavg": rows("fedavg", 7),
            "safl_extended": rows("safl_extended", 7, gated=True),
        }
        by_variant.update(overrides)
        write_run(tmp_path, by_variant)
        reference = {
            "fedavg": {"7": {"mse": 0.5 / 3, "accuracy_proxy": 0.75, "uploads_cumulative": 6}},
            "safl_extended": {"7": {"mse": 0.5 / 3, "accuracy_proxy": 0.75, "uploads_cumulative": 3}},
        }
        return check.Expect(self.variants, (7,), rounds=3, selected=2, reference=reference)

    def failed(self, tmp_path, expect):
        return {job for job, problems in check.check_run(tmp_path, expect).items() if problems}

    def test_good_run_passes(self, tmp_path):
        assert self.failed(tmp_path, self.make(tmp_path)) == set()

    def test_ulp_scale_difference_passes(self, tmp_path):
        good = rows("fedavg", 7)
        good[-1][3] = repr(math.nextafter(0.5 / 3, 1.0))
        assert self.failed(tmp_path, self.make(tmp_path, fedavg=good)) == set()

    def test_perturbed_final_mse_fails(self, tmp_path):
        bad = rows("fedavg", 7)
        bad[-1][3] = repr(0.5 / 3 * (1 + 1e-7))
        assert self.failed(tmp_path, self.make(tmp_path, fedavg=bad)) == {("fedavg", 7)}

    def test_perturbed_uploads_fail(self, tmp_path):
        bad = rows("safl_extended", 7, gated=True)
        bad[-1][5] = 4
        assert self.failed(tmp_path, self.make(tmp_path, safl_extended=bad)) == {("safl_extended", 7)}

    def test_missing_row_fails(self, tmp_path):
        assert self.failed(tmp_path, self.make(tmp_path, fedavg=rows("fedavg", 7)[:2])) == {("fedavg", 7)}

    def test_non_finite_value_fails(self, tmp_path):
        bad = rows("fedavg", 7)
        bad[1][3] = "nan"
        assert self.failed(tmp_path, self.make(tmp_path, fedavg=bad)) == {("fedavg", 7)}

    def test_unexpected_seed_fails(self, tmp_path):
        extra = rows("fedavg", 7) + rows("fedavg", 8)
        failed = self.failed(tmp_path, self.make(tmp_path, fedavg=extra))
        assert failed == {("fedavg", 8)}

    def test_row_in_another_variants_file_fails(self, tmp_path):
        # fedavg.csv holding a row labelled with the other expected variant
        mixed = rows("fedavg", 7)
        mixed[1][0] = "safl_extended"
        failed = self.failed(tmp_path, self.make(tmp_path, fedavg=mixed))
        assert failed == {("fedavg", 7), ("safl_extended", 7)}

    def test_missing_summary_fails_every_job(self, tmp_path):
        expect = self.make(tmp_path)
        (tmp_path / "summary.json").unlink()
        assert self.failed(tmp_path, expect) == {("fedavg", 7), ("safl_extended", 7)}

    def test_without_reference_only_structure_is_checked(self, tmp_path):
        bad = rows("fedavg", 7, mse=0.9)
        expect = self.make(tmp_path, fedavg=bad)
        assert self.failed(tmp_path, expect) == {("fedavg", 7)}
        unreferenced = check.Expect(expect.variants, expect.seeds, expect.rounds, expect.selected)
        assert self.failed(tmp_path, unreferenced) == set()


def test_seed_zero_reproduces_the_shipped_configs():
    shipped = json.loads((ROOT / "configs" / "demo.json").read_text())
    assert document(ROOT, "demo", 0) == shipped
    assert document(ROOT, "demo", 2)["seeds"] == [s + 2000 for s in shipped["seeds"]]
    assert document(ROOT, "biased", 0)["seeds"] == [9000]


def test_every_benchmark_workload_has_a_document():
    for workload in run.benchmark_spec()["workloads"]:
        assert document(ROOT, workload["name"], 1)["seeds"]


def test_every_wrap_site_resolves(monkeypatch):
    run.load_package()
    import layers

    assert layers.missing_sites() == []
    monkeypatch.setattr(layers, "SITES", layers.SITES + (("safl_sim.simulation", "gone", "x.gone", None, None),))
    assert layers.missing_sites() == ["safl_sim.simulation.gone"]


def test_traced_pass_counts_and_restores(tmp_path):
    cli, _, simulation = run.load_package()
    from layers import SITES, traced

    doc = document(ROOT, "stress", 0)
    doc.update(n=6, s=3, T=2, seeds=[1])
    doc["data"]["samples"] = 300
    doc["partition"].update(mean_size=10, size_var=0.0, pure_count=2)
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(doc))
    before = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, *_ in SITES}

    tracer = Tracer()
    with traced(tracer):
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    after = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, *_ in SITES}
    assert after == before

    figures = layer_metrics(tracer)
    jobs = len(doc["variants"])
    assert figures["training.calls"] == jobs * doc["T"] * doc["s"]
    assert figures["training.steps"] == figures["training.calls"] * 8  # 10 samples, 2 held out
    assert figures["upload_gate.decisions"] == doc["T"] * doc["s"]
    assert figures["partition.calls"] == jobs
    assert figures["simulation.round_ms_tail_pct"] == 50.0
    assert 0.0 < concurrency(tracer) <= 1.0
    fused = check.finals(tmp_path / "out", check.Expect(tuple(doc["variants"]), (1,), 2, 3))
    assert figures["aggregation.updates_fused"] == sum(v["1"]["uploads_cumulative"] for v in fused.values())
