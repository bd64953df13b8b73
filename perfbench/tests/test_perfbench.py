"""The benchmark's own tests: run with `python3 -m pytest perfbench/tests`."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Leading verdicts of the first cycle used per workload; None means the
# whole cycle.  Enough to reach every count source the workload feeds.
SUBSET = {"certify-closed": 9, "certify-generator": 8, "action-quadrature": 18, "check-split": None}


def _traced(name, seed, tmp_path):
    pool = workloads.build_pool(name, seed, tmp_path)
    return harness.traced_run(pool[0][:SUBSET[name]])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_and_traced_verdicts_match(name, tmp_path):
    first = _traced(name, 11, tmp_path / "a")
    second = _traced(name, 11, tmp_path / "b")
    for metric in tracing.COUNT_METRICS:
        assert first.values[metric] == second.values[metric], metric
    # Traced outputs equal the untraced ones bit for bit (a mismatch is an
    # unexpected error), and only documented seed defects may err.
    assert first.tally.unexpected == 0, first.tally.errors
    assert second.tally.errors == first.tally.errors


def test_each_workload_feeds_its_layer(tmp_path):
    closed = _traced("certify-closed", 3, tmp_path / "c").values
    assert closed["polyfield.points"] > 0 and closed["verifier.closed_residual_calls"] > 0
    gen = _traced("certify-generator", 3, tmp_path / "g").values
    assert gen["rund.genpoly_eval_calls"] > 0 and gen["verifier.density_rows"] > 0
    action = _traced("action-quadrature", 3, tmp_path / "a").values
    assert action["quadrature.points"] > 0 and action["micropolar.surface_potential_s"] > 0
    split = _traced("check-split", 3, tmp_path / "s").values
    assert split["cli.exit2"] > 0 and split["tensors.project_calls"] > 0 and split["modelio.files"] > 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    def describe(pool):
        return [(v.label, [Path(a).name if a.endswith(".json") else a for a in getattr(v, "argv", [])])
                for cycle in pool for v in cycle]

    a = workloads.build_pool("certify-closed", 5, tmp_path / "a")
    b = workloads.build_pool("certify-closed", 5, tmp_path / "b")
    c = workloads.build_pool("certify-closed", 6, tmp_path / "c")
    assert describe(a) == describe(b)
    assert describe(a) != describe(c)
    assert sorted(p.read_text() for p in (tmp_path / "a").iterdir()) == \
        sorted(p.read_text() for p in (tmp_path / "b").iterdir())


def test_cycle_mix_is_the_same_for_every_seed(tmp_path):
    for name in workloads.WORKLOADS:
        labels = [sorted(v.label for v in workloads.build_pool(name, s, tmp_path / f"{name}{s}")[0])
                  for s in (1, 2)]
        assert labels[0] == labels[1], name


def test_missing_target_is_reported_absent(monkeypatch):
    from nullag import polyfield, rund

    monkeypatch.delattr(polyfield.Poly3, "diff")
    monkeypatch.delattr(rund, "GenPoly")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "nullag.polyfield:Poly3.diff" in tracer.absent
    assert "nullag.rund:GenPoly.eval" in tracer.absent
    values, absent = tracing.layer_metrics(tracer, 1.0)
    assert {"polyfield.diff_calls", "rund.genpoly_eval_calls"} <= set(absent)
    assert "polyfield.points" not in absent
    assert set(values) == set(tracing.METRICS)


def test_untraced_path_uses_public_names_only():
    source = (HERE / "workloads.py").read_text() + (HERE / "harness.py").read_text() + (HERE / "run.py").read_text()
    for forbidden in ("_field_state", "_fd_partials", "threads=", "NULLLAG_THREADS"):
        assert forbidden not in source
    assert not re.search(r"\b(cli|em|micropolar|modelio|polyfield|quadrature|quasicrystal|rund|tensors|verifier)\._", source)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.names, tracer.parents = ["a", "b", "c"], [-1, 0, 0]
    tracer.starts, tracer.ends = [0.0, 1.0, 3.0], [10.0, 2.0, 6.0]
    tracer.amounts = [0, 0, 0]
    assert np.allclose(tracer.self_times(), [6.0, 1.0, 3.0])


def test_speed_scaling_uses_the_probes_around_each_verdict():
    import speed

    log = speed.SpeedLog()
    log.at = [0.0, 0.5, 10.0, 10.5, 11.0]
    log.took = [speed.REFERENCE_S] * 2 + [2 * speed.REFERENCE_S] * 3
    # A verdict among the slow probes took twice its time at reference speed.
    assert log.scale([0.2, 10.4], [0.1, 0.2]) == [0.1, 0.1]
    # A verdict spanning both speeds takes the median of all five probes.
    assert log.factor(0.2, 10.0) == 0.5
    log.probe()
    assert log.took[-1] > 0
