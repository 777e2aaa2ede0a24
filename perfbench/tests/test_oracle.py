"""Checks of the benchmark's own oracle and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import math

import numpy as np

import oracle
import spans
import workloads
from idcos.problems import example2


def test_flags_silent_example2_adi_blowup(tmp_path):
    # N=60 blows up on the Nt=20 reference rung with one correction; the
    # harness writes the Nt=40 self-difference as a finite number and raises
    # nothing, so only the oracle can count it as failed
    cfg = workloads.run_config("varcoef-adi-ladder", str(tmp_path), grid_n=60,
                               nt_list=(40,), corrections=(1,))
    report = workloads.call(cfg)
    (cs, nt, err, _), = report.rows
    assert (cs, nt) == (1, 40)
    assert math.isfinite(err) and err > 1.0
    scale = float(np.abs(example2(N=60).initial).max())
    (unit, ok, reason), = oracle.check_ladder(oracle.read_ladder(str(tmp_path)),
                                              [(1, 40)], scale)
    assert not ok
    assert "solution scale" in reason


def test_pinned_ladder_passes_and_a_worse_cell_fails():
    ref = oracle.load_reference()["heat-adi-ladder"]
    errors = {tuple(map(int, k.split(","))): v for k, v in ref["cells"].items()}
    cells = sorted(errors)
    assert all(ok for _, ok, _ in oracle.check_ladder(errors, cells, ref["scale"],
                                                      ref["cells"]))
    top = tuple(map(int, ref["err_top_cell"].split(",")))
    errors[top] *= 1.5
    failed = [u for u, ok, _ in oracle.check_ladder(errors, cells, ref["scale"],
                                                    ref["cells"]) if not ok]
    assert failed == ["cs={} Nt={}".format(*top)]


def test_self_time_subtracts_child_spans(monkeypatch):
    tracer = spans.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    outer = tracer.span("outer", tracer.span("inner", lambda: None))
    tracer.active = True
    outer()
    monkeypatch.undo()
    agg = tracer.aggregate()
    assert agg["outer"] == {"calls": 1, "incl_s": 10.0, "self_s": 8.0}
    assert agg["inner"] == {"calls": 1, "incl_s": 2.0, "self_s": 2.0}
